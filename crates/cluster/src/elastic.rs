//! The elastic control plane: an elastic policy adds a reconcile tick to
//! the one colocated event loop, and this module holds the tick, the slot
//! lifecycle it drives, and the books of the report's `scaling` section.
//!
//! Each [`ReplicaSpec`] of the fleet becomes one elastic *group* of up to
//! `max` identically-configured slots named `{name}-{slot}`. A
//! [`Reconciler`] observes per-group telemetry on a fixed interval of the
//! simulated clock and decides; the loop applies:
//!
//! * **scale-up** — the lowest offline slot starts provisioning
//!   (`provision` delay), then warms (`warmup`, the simulated weight load
//!   and cache warm-up — the slot gets a *fresh* core with an empty KV
//!   allocator at warmup start), then turns `Up` and routable. The slot
//!   is *held* — and paid for in chip-seconds — from the decision
//!   instant. This is the crash path with provisioning in place of the
//!   repair: `Provisioning → Warming → Up` beside `Down → Warming → Up`,
//!   one core rebuild at warmup start, and the slot's queue tail clamped
//!   to its `Up` instant.
//! * **scale-down / scale-to-zero** — the highest routable slot stops
//!   taking arrivals and drains: its core is closed so in-flight work
//!   runs to completion (nothing is revoked), then the slot retires and
//!   stops costing.
//! * **swap** — under skewed two-model traffic, a donor group's slot
//!   drains (`swap-out`) while the starved group boots one (`swap-in`)
//!   that skips provisioning and pays only warmup. A swap recipient is
//!   by definition at its `max`, so the donated machine carries it past
//!   the band — the only way a group exceeds `max`; plain scale-downs
//!   bring it back.
//!
//! Arrivals are hashed by session onto a group (a session is sticky to
//! one model) and routed across the group's routable slots; a group with
//! none parks arrivals until one of its slots turns `Up`, and the parked
//! wait is charged to the request's latency. Event classes at one instant
//! resolve in a fixed order — faults and lifecycle transitions, the
//! reconcile tick, deliveries, admissions, engine steps — so a seeded run
//! replays bit-for-bit (the scaling-action log is pinned by a replay
//! test).
//!
//! Elastic fleets compose with fault plans: a fault's `replica` index
//! names a slot, counting `{group}-{j}` in order across groups. A crash
//! hits a slot's live core: an up slot goes `Down` and restarts as any
//! replica does; a warming slot warms again after the repair, a pending
//! scale-up still pending; a draining slot loses its in-flight work to
//! the retry path and retires at once, booked as a crash without
//! downtime. On a slot with no live core — down, provisioning, or
//! offline — a crash is a no-op.

use std::ops::Range;

use cimtpu_autoscale::{
    action, AutoscalePolicy, GroupObservation, GroupPolicy, Reconciler, ScalingAction,
    ScalingDecision, ScalingStats,
};
use cimtpu_obs::EventKind;
use cimtpu_serving::{ActionHeap, Completion, EngineCore};
use cimtpu_units::Seconds;

use crate::engine::WaitingRetry;
use crate::observe::FleetObserver;
use crate::replica::ReplicaSpec;
use crate::report::ReplicaUtilization;
use crate::router::{HealthView, ReplicaHealth};

/// The slots of a fleet whose replica groups follow `policies` — `max`
/// per group — in group order, and each group's range of slot indices.
pub(crate) fn slots(
    replicas: &[ReplicaSpec],
    policies: &[GroupPolicy],
    swap: bool,
) -> (Vec<ReplicaSpec>, Vec<Range<usize>>) {
    let total_max: u64 = policies.iter().map(|g| g.max).sum();
    let mut slots = Vec::new();
    let mut groups = Vec::new();
    for (base, group) in replicas.iter().zip(policies) {
        // A swap recipient is by definition *at* its max, so the donated
        // machine carries the group past it: with swaps on, each group
        // gets spare slots for every machine the rest of the fleet could
        // donate. The scale-up rule still caps plain growth at `max`.
        let spares = if swap { total_max - group.max } else { 0 };
        let start = slots.len();
        slots.extend((0..group.max + spares).map(|j| {
            let mut spec = base.clone();
            spec.name = format!("{}-{j}", base.name);
            spec
        }));
        groups.push(start..slots.len());
    }
    (slots, groups)
}

/// One stretch of a slot holding a machine, for chip-seconds: from its
/// scale-up decision (or t = 0) until it retires (or the run ends). Until
/// the slot turns `Up` its capacity ramp is open: completions of its
/// group that miss the SLO inside a ramp are the reactive-scaling latency
/// price the report surfaces.
struct Held {
    start: f64,
    up: Option<f64>,
    end: Option<f64>,
}

/// The elastic half of the colocated loop: the reconciler and its tick
/// clock, plus the books the `scaling` section is built from — the
/// action log and each slot's held intervals. Actions, ticks and group
/// gauges go to the loop's observer `O`.
pub(crate) struct Scaler<'a, O> {
    policy: &'a AutoscalePolicy,
    /// The groups' base specs (for group names), the slots, and each
    /// group's slot range.
    replicas: &'a [ReplicaSpec],
    slots: &'a [ReplicaSpec],
    groups: &'a [Range<usize>],
    reconciler: Reconciler,
    /// When the next reconcile tick fires.
    pub(crate) next_tick: Seconds,
    /// Per group: completions delivered since the last tick, and how
    /// many of them met the SLO.
    since_tick: Vec<(u64, u64)>,
    held: Vec<Vec<Held>>,
    stats: ScalingStats,
    obs: &'a O,
}

impl<'a, O: FleetObserver> Scaler<'a, O> {
    /// Books the initial slots of every group as held from t = 0 and
    /// takes the rest offline in `health`.
    pub(crate) fn new(
        policy: &'a AutoscalePolicy,
        replicas: &'a [ReplicaSpec],
        slots: &'a [ReplicaSpec],
        groups: &'a [Range<usize>],
        health: &mut HealthView,
        obs: &'a O,
    ) -> Self {
        let mut held: Vec<Vec<Held>> = (0..slots.len()).map(|_| Vec::new()).collect();
        for (range, group) in groups.iter().zip(&policy.groups) {
            for (j, k) in range.clone().enumerate() {
                if (j as u64) < group.initial {
                    held[k].push(Held {
                        start: 0.0,
                        up: Some(0.0),
                        end: None,
                    });
                } else {
                    health.set(k, ReplicaHealth::Offline);
                }
            }
        }
        let peak_replicas = held.iter().filter(|h| !h.is_empty()).count() as u64;
        Scaler {
            policy,
            replicas,
            slots,
            groups,
            reconciler: Reconciler::new(policy.clone()),
            next_tick: policy.interval,
            since_tick: vec![(0, 0); groups.len()],
            held,
            stats: ScalingStats {
                peak_replicas,
                ..ScalingStats::default()
            },
            obs,
        }
    }

    /// Whether slot `k` ever held a machine (and so gets a report row).
    pub(crate) fn ever_held(&self, k: usize) -> bool {
        !self.held[k].is_empty()
    }

    /// How many slots hold a machine now.
    fn held_now(&self) -> u64 {
        self.held
            .iter()
            .filter(|h| h.last().is_some_and(|iv| iv.end.is_none()))
            .count() as u64
    }

    fn group_of(&self, k: usize) -> usize {
        self.groups.partition_point(|g| g.end <= k)
    }

    /// Logs action `kind` on slot `k` and traces it as `ev`.
    fn act(&mut self, now: Seconds, kind: &str, ev: EventKind, k: usize) {
        let (group, slot) = (
            &self.replicas[self.group_of(k)].name,
            self.slots[k].name.clone(),
        );
        self.stats
            .actions
            .push(ScalingAction::new(now.get(), kind, group, slot));
        self.obs.instant(k, ev, now);
    }

    /// Slot `k` turned `Up`: a scale-up completes (its ramp closes) —
    /// a crash restart is no scaling action.
    pub(crate) fn on_up(&mut self, k: usize, now: Seconds) {
        if let Some(held) = self.held[k].last_mut().filter(|iv| iv.up.is_none()) {
            held.up = Some(now.get());
            self.act(now, action::UP, EventKind::Up, k);
        }
    }

    /// Books slot `k`'s delivered completion `c` against its group's
    /// telemetry and ramp-SLO count.
    pub(crate) fn on_delivery(&mut self, k: usize, c: &Completion, slo_ms: Option<f64>) {
        let (g, finish) = (self.group_of(k), c.finish.get());
        self.since_tick[g].0 += 1;
        if slo_ms.is_none_or(|slo| c.latency().as_millis() <= slo) {
            self.since_tick[g].1 += 1;
        } else if self.groups[g]
            .clone()
            .flat_map(|k| &self.held[k])
            .any(|iv| finish >= iv.start && iv.up.is_none_or(|up| finish <= up))
        {
            self.stats.slo_violations_ramp += 1;
        }
    }

    /// One reconcile tick at `now`: observe every group, decide, apply,
    /// and retire the drained slots that have gone dry.
    pub(crate) fn tick(
        &mut self,
        now: Seconds,
        health: &mut HealthView,
        cores: &mut [EngineCore<'_>],
        step_heap: &mut ActionHeap,
        parked: &[Vec<WaitingRetry>],
    ) {
        self.next_tick += self.policy.interval;
        self.stats.reconciles += 1;
        self.obs
            .control(EventKind::Reconcile, self.stats.reconciles, now);
        let mut obs = Vec::with_capacity(self.groups.len());
        for (g, range) in self.groups.iter().enumerate() {
            let mut o = GroupObservation {
                queued: parked[g].len() as u64,
                ..Default::default()
            };
            for k in range.clone() {
                match health.state(k) {
                    ReplicaHealth::Up => {
                        o.up += 1;
                        o.queued += cores[k].queued();
                        o.outstanding += cores[k].outstanding_at(now);
                        o.kv_frac = o.kv_frac.max(cores[k].kv_frac());
                    }
                    ReplicaHealth::Draining => o.draining += 1,
                    ReplicaHealth::Offline => {}
                    _ => o.pending += 1,
                }
            }
            (o.delivered, o.slo_ok) = std::mem::take(&mut self.since_tick[g]);
            self.obs
                .sample(g, now, o.queued as f64, o.outstanding as f64);
            obs.push(o);
        }
        // The lowest offline slot of a group boots; the highest routable
        // one drains. A group at its physical slot limit skips the
        // decision until a drain finishes.
        let groups = self.groups;
        let boot_slot = |health: &HealthView, g: usize| {
            groups[g]
                .clone()
                .find(|&k| health.state(k) == ReplicaHealth::Offline)
        };
        let victim = |health: &HealthView, g: usize| groups[g].clone().rfind(|&k| health.is_up(k));
        for decision in self.reconciler.reconcile(now, &obs) {
            match decision {
                ScalingDecision::Add { group } => {
                    if let Some(k) = boot_slot(health, group) {
                        let (ready, up) = (now + self.policy.provision, EventKind::ScaleUp);
                        self.boot(k, now, ready, (action::SCALE_UP, up), health);
                        self.stats.scale_ups += 1;
                    }
                }
                ScalingDecision::Drain { group } => {
                    if let Some(k) = victim(health, group) {
                        let (kind, event) = if obs[group].up == 1 {
                            self.stats.scale_to_zero += 1;
                            (action::SCALE_TO_ZERO, EventKind::ScaleToZero)
                        } else {
                            (action::SCALE_DOWN, EventKind::ScaleDown)
                        };
                        self.stats.scale_downs += 1;
                        self.act(now, kind, event, k);
                        drain(k, health, cores, step_heap);
                    }
                }
                ScalingDecision::Swap { from, to } => {
                    if let (Some(v), Some(t)) = (victim(health, from), boot_slot(health, to)) {
                        self.stats.swaps += 1;
                        self.act(now, action::SWAP_OUT, EventKind::SwapOut, v);
                        drain(v, health, cores, step_heap);
                        // The swapped-in slot skips provisioning (the
                        // machine is already racked) and pays only warmup.
                        self.boot(t, now, now, (action::SWAP_IN, EventKind::SwapIn), health);
                    }
                }
            }
        }
        self.stats.peak_replicas = self.stats.peak_replicas.max(self.held_now());
        for k in 0..cores.len() {
            self.retire_if_dry(k, now, health, cores);
        }
    }

    /// Starts booting slot `k`: provisioning completes at `ready` (equal
    /// to `now` for a swap-in), warmup follows, and the slot is held —
    /// costing chip-seconds — from this instant.
    fn boot(
        &mut self,
        k: usize,
        now: Seconds,
        ready: Seconds,
        (kind, event): (&str, EventKind),
        health: &mut HealthView,
    ) {
        health.set(k, ReplicaHealth::Provisioning { until: ready });
        self.held[k].push(Held {
            start: now.get(),
            up: None,
            end: None,
        });
        self.act(now, kind, event, k);
    }

    /// Retires slot `k` — it goes offline and its held interval ends — if
    /// it is draining and its core has gone dry (no scheduled action,
    /// nothing queued; a crashed core is dry).
    pub(crate) fn retire_if_dry(
        &mut self,
        k: usize,
        now: Seconds,
        health: &mut HealthView,
        cores: &[EngineCore<'_>],
    ) {
        let draining = health.state(k) == ReplicaHealth::Draining;
        if draining && cores[k].next_action().is_none() && cores[k].queued() == 0 {
            health.set(k, ReplicaHealth::Offline);
            if let Some(iv) = self.held[k].last_mut() {
                iv.end = Some(now.get());
            }
            self.act(now, action::RETIRED, EventKind::Retired, k);
        }
    }

    /// The `scaling` section: chip-seconds are the held intervals
    /// clipped to the run's span (first arrival to last finish), so the
    /// number compares directly with a static fleet's `chips × makespan`;
    /// idle energy prices the held-but-idle remainder of `rows`.
    pub(crate) fn finish(
        mut self,
        delivered: &[Completion],
        rows: &[ReplicaUtilization],
        compute_energy_j: f64,
    ) -> ScalingStats {
        let (first_arrival, finish, _) = Completion::span(delivered);
        let (first_arrival, finish) = (first_arrival.get(), finish.get());
        let clip = |t: f64| t.clamp(first_arrival, finish);
        let stats = &mut self.stats;
        for (slot, held) in self.slots.iter().zip(&self.held) {
            for iv in held {
                let end = clip(iv.end.unwrap_or(finish));
                stats.chip_seconds += slot.chips() as f64 * (end - clip(iv.start)).max(0.0);
            }
        }
        let busy_chip_s: f64 = rows.iter().map(|r| r.busy_s * r.chips as f64).sum();
        stats.idle_energy_j = self.policy.idle_watts * (stats.chip_seconds - busy_chip_s).max(0.0);
        stats.total_cost_j = compute_energy_j + stats.idle_energy_j;
        self.stats
    }
}

/// Closes slot `k`'s core so it takes no more work and runs its
/// in-flight requests to completion.
fn drain(k: usize, health: &mut HealthView, cores: &mut [EngineCore<'_>], heap: &mut ActionHeap) {
    health.set(k, ReplicaHealth::Draining);
    cores[k].close();
    heap.set(k, cores[k].next_action());
}
