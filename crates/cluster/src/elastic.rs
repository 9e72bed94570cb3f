//! The autoscaled colocated driver: the colocated event loop of
//! [`engine`](crate::engine) re-derived around a reconcile loop instead
//! of a fault timeline. It is the one colocated loop still kept apart:
//! it shares the static loop's per-replica books (harvest and report
//! rows) and event selection, not its scheduling.
//!
//! Each [`ReplicaSpec`] of the fleet becomes one elastic *group* of up to
//! `max` identically-configured slots named `{name}-{slot}`. A
//! [`Reconciler`] observes per-group telemetry on a fixed interval of the
//! simulated clock and decides; this driver applies:
//!
//! * **scale-up** — the lowest offline slot starts provisioning
//!   (`provision` delay), then warms (`warmup`, the simulated weight load
//!   and cache warm-up — the slot gets a *fresh* core with an empty KV
//!   allocator at warmup start), then turns `Up` and routable. The slot
//!   is *held* — and paid for in chip-seconds — from the decision
//!   instant.
//! * **scale-down / scale-to-zero** — the highest routable slot stops
//!   taking arrivals and drains: its core is closed so in-flight work
//!   runs to completion, then the slot retires and stops costing.
//! * **swap** — under skewed two-model traffic, a donor group's slot
//!   drains (`swap-out`) while the starved group boots one (`swap-in`)
//!   that skips provisioning and pays only warmup. A swap recipient is
//!   by definition at its `max`, so the donated machine carries it past
//!   the band — the only way a group exceeds `max`; plain scale-downs
//!   bring it back.
//!
//! Arrivals are hashed by session onto a group (a session is sticky to
//! one model) and routed across the group's routable slots; a group
//! scaled to zero parks arrivals until the reconciler wakes it, and the
//! parked wait is charged to the request's latency. Event classes at one
//! instant resolve in a fixed order — lifecycle transitions, the
//! reconcile tick, arrivals, engine steps — so a seeded run replays
//! bit-for-bit (the scaling-action log is pinned by a replay test).

use std::rc::Rc;

use cimtpu_obs::{EventKind, SharedRecorder, TraceHandle, TraceSink as _};
use cimtpu_autoscale::{action, AutoscalePolicy, GroupObservation, Reconciler, ScalingAction, ScalingDecision, ScalingStats};
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, EngineCore, EngineSession, Request, TrafficSpec,
};
use cimtpu_units::{Error, Result, Seconds};
use rustc_hash::FxHashMap;

use crate::engine::{earliest, tenant_tag, ClusterRun, Tenancy};
use crate::replica::{fleet_sessions, ReplicaSpec};
use crate::report::{ClusterReport, FleetTotals, ReplicaAccum};
use crate::router::{splitmix64, HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy};

/// One held-slot interval, for chip-seconds accounting: a slot costs from
/// the scale-up decision (or t = 0 for an initial slot) until retirement
/// (or the end of the run).
struct HeldInterval {
    start: f64,
    end: Option<f64>,
}

/// One group's capacity ramp: from a scale-up decision until the slot
/// turns `Up`. Completions of the group that miss the SLO inside an open
/// ramp are the reactive-scaling latency price the report surfaces.
struct RampWindow {
    group: usize,
    start: f64,
    end: Option<f64>,
}

/// Static per-slot wiring: which group a slot belongs to and its
/// concrete spec (`{group}-{slot}` clone of the group's base spec).
struct Slot {
    group: usize,
    spec: ReplicaSpec,
}

/// Recorder wiring for the elastic driver: one track per slot, a
/// `"reconciler"` control track for fleet-level events, and per-group
/// `[queued, outstanding]` gauges sampled at each reconcile tick.
struct ElasticTrace {
    rec: SharedRecorder,
    tracks: Vec<u32>,
    control: u32,
    gseries: Vec<[usize; 2]>,
}

#[allow(clippy::too_many_arguments)] // one call site, in the engine's dispatch
pub(crate) fn run_colocated_elastic(
    replicas: &[ReplicaSpec],
    policy: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    autoscale: &AutoscalePolicy,
    mut tenancy: Option<Tenancy<'_>>,
    recorder: Option<&SharedRecorder>,
) -> Result<ClusterRun> {
    // ---- static wiring ------------------------------------------------
    let ngroups = replicas.len();
    let mut slots: Vec<Slot> = Vec::new();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ngroups];
    let total_max: u64 = autoscale.groups.iter().map(|g| g.max).sum();
    for (g, base) in replicas.iter().enumerate() {
        // A swap recipient is by definition *at* its max, so the donated
        // machine carries the group past it: with swaps on, each group
        // gets spare slots for every machine the rest of the fleet could
        // donate. The scale-up rule still caps plain growth at `max`.
        let swap_spares =
            if autoscale.swap { total_max - autoscale.groups[g].max } else { 0 };
        for j in 0..autoscale.groups[g].max + swap_spares {
            let mut spec = base.clone();
            spec.name = format!("{}-{j}", base.name);
            members[g].push(slots.len());
            slots.push(Slot { group: g, spec });
        }
    }
    let n = slots.len();
    let (pricing, sessions) = fleet_sessions(slots.iter().map(|s| &s.spec))?;
    let mut cores: Vec<EngineCore<'_>> =
        sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
    if let Some(t) = &tenancy {
        for core in &mut cores {
            core.set_tenancy(t.sched);
        }
    }
    let classed = tenancy.as_ref().is_some_and(Tenancy::multi);
    let trace = recorder.map(|rec| {
        let mut r = rec.borrow_mut();
        let tracks: Vec<u32> = slots.iter().map(|s| r.track(&s.spec.name)).collect();
        let control = r.track("reconciler");
        let gseries: Vec<[usize; 2]> = replicas
            .iter()
            .map(|g| {
                [
                    r.gauge_series(&format!("{}/queued", g.name)),
                    r.gauge_series(&format!("{}/outstanding", g.name)),
                ]
            })
            .collect();
        drop(r);
        ElasticTrace { rec: Rc::clone(rec), tracks, control, gseries }
    });
    if let Some(tr) = &trace {
        for (k, core) in cores.iter_mut().enumerate() {
            core.attach_trace(TraceHandle::new(Rc::clone(&tr.rec), tr.tracks[k]));
        }
    }
    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut routers: Vec<Box<dyn Router>> = (0..ngroups).map(|_| policy.build()).collect();
    let mut reconciler = Reconciler::new(autoscale.clone());
    let interval = autoscale.interval;

    // ---- mutable fleet state ------------------------------------------
    let mut health = HealthView::all_up(n);
    // `live[k]`: the slot has an active core (initial or booted, not yet
    // retired). Offline slots keep their pre-created core but it is never
    // stepped; a boot replaces it with a fresh one (empty KV cache).
    let mut live = vec![false; n];
    let mut draining = vec![false; n];
    // Slots booting (provisioning or warming) — waiting to turn `Up`.
    let mut booting = vec![false; n];
    let mut held: Vec<Vec<HeldInterval>> = (0..n).map(|_| Vec::new()).collect();
    let mut assigned = vec![0u64; n];
    let mut last_push = vec![f64::NEG_INFINITY; n];
    let mut accum: Vec<ReplicaAccum> = (0..n).map(|_| ReplicaAccum::default()).collect();
    let mut delivered_by = vec![0u64; n];
    let offline_until = Seconds::new(f64::INFINITY);
    for (g, group_members) in members.iter().enumerate() {
        for (j, &k) in group_members.iter().enumerate() {
            if (j as u64) < autoscale.groups[g].initial {
                live[k] = true;
                held[k].push(HeldInterval { start: 0.0, end: None });
            } else {
                health.mark_down(k, offline_until);
            }
        }
    }

    // ---- run ledger and scaling telemetry ------------------------------
    let mut delivered: Vec<Completion> = Vec::new();
    let mut origin: FxHashMap<u64, f64> = FxHashMap::default();
    let mut parked: Vec<Vec<Request>> = vec![Vec::new(); ngroups];
    let mut parked_total = 0usize;
    let mut since_tick: Vec<(u64, u64)> = vec![(0, 0); ngroups]; // (delivered, slo_ok)
    let mut ramps: Vec<RampWindow> = Vec::new();
    let mut stats = ScalingStats {
        peak_replicas: held.iter().filter(|h| !h.is_empty()).count() as u64,
        ..ScalingStats::default()
    };
    let mut held_now = stats.peak_replicas;
    let mut next_tick = interval;
    let mut obs: Vec<GroupObservation> = Vec::with_capacity(ngroups);
    let mut exhausted_closed = false;

    let mut step_heap = ActionHeap::new(n);
    for (k, core) in cores.iter().enumerate() {
        if live[k] {
            step_heap.set(k, core.next_action());
        }
    }

    // Per-event scratch, reused so arrivals and ticks do not allocate:
    // one group's routable slots and their router snapshots.
    let mut up: Vec<usize> = Vec::new();
    let mut snaps: Vec<ReplicaSnapshot> = Vec::new();
    // Fills `up` with a group's routable slots, ascending.
    let routable = |up: &mut Vec<usize>, health: &HealthView, draining: &[bool], g: usize| {
        up.clear();
        up.extend(members[g].iter().copied().filter(|&k| health.is_up(k) && !draining[k]));
    };
    // Pushes a request onto slot `k`, preserving the per-replica
    // queue-tail monotonicity the engine requires (a parked request can
    // land on a slot that booted after it arrived).
    macro_rules! push_to {
        ($k:expr, $r:expr) => {{
            let (k, mut r): (usize, Request) = ($k, $r);
            r.arrival_s = r.arrival_s.max(last_push[k]);
            last_push[k] = r.arrival_s;
            assigned[k] += 1;
            if exhausted_closed {
                cores[k].reopen();
                cores[k].push(r);
                cores[k].close();
            } else {
                cores[k].push(r);
            }
            step_heap.set(k, cores[k].next_action());
        }};
    }

    loop {
        let step_at = step_heap.peek();
        let lifecycle_at =
            health.next_transition().filter(|t| t.get().is_finite());
        let arrival_at = stream.peek();

        // The run is over when nothing can produce or receive work:
        // trailing reconcile ticks and in-flight boots are dropped.
        if stream.exhausted() && parked_total == 0 && step_at.is_none() {
            break;
        }
        // Closed-loop stall: clients wait on completions held in partial
        // batches, which neither a tick nor a lifecycle transition can
        // produce. Flush the lowest stalled live core (mirrors `drive`).
        if arrival_at.is_none() && !stream.exhausted() && step_at.is_none() && parked_total == 0
        {
            let mut progressed = false;
            for k in 0..n {
                if live[k] && cores[k].flush_stalled()? {
                    step_heap.set(k, cores[k].next_action());
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                return Err(Error::invalid_config(
                    "elastic driver stalled: closed-loop clients wait on completions \
                     no engine can produce",
                ));
            }
            continue;
        }

        // Candidate events, classes in tie-break order.
        let chosen = earliest([
            (lifecycle_at, 0),
            (Some(next_tick), 1),
            (arrival_at, 2),
            (step_at.map(|(_, t)| t), 3),
        ]);
        let Some((now, class)) = chosen else {
            return Err(Error::internal("the reconcile tick is always schedulable"));
        };

        match class {
            // Lifecycle: provisioning ends (fresh core, warmup starts) and
            // warmups end (slot turns Up, parked work flushes).
            0 => {
                for k in health.advance(now, autoscale.warmup) {
                    // Warmup starts on a fresh core with an empty allocator;
                    // it prices through the slot's shared pricing state, so
                    // `warmup` alone is the simulated cost of the boot.
                    cores[k] = sessions[k].core()?;
                    if let Some(t) = &tenancy {
                        cores[k].set_tenancy(t.sched);
                    }
                    if let Some(tr) = &trace {
                        cores[k].attach_trace(TraceHandle::new(Rc::clone(&tr.rec), tr.tracks[k]));
                    }
                    live[k] = true;
                    last_push[k] = f64::NEG_INFINITY;
                    if exhausted_closed {
                        cores[k].close();
                    }
                    step_heap.set(k, cores[k].next_action());
                }
                for g in 0..ngroups {
                    let mut woke = false;
                    for &k in &members[g] {
                        if booting[k] && health.is_up(k) {
                            booting[k] = false;
                            woke = true;
                            // Service cannot start before the slot exists.
                            last_push[k] = now.get();
                            stats.actions.push(ScalingAction::new(
                                now.get(),
                                action::UP,
                                &replicas[g].name,
                                slots[k].spec.name.clone(),
                            ));
                            if let Some(tr) = &trace {
                                tr.rec.borrow_mut().instant(
                                    tr.tracks[k],
                                    EventKind::Up,
                                    0,
                                    now.get(),
                                );
                            }
                            for ramp in ramps.iter_mut() {
                                if ramp.group == g && ramp.end.is_none() {
                                    ramp.end = Some(now.get());
                                    break;
                                }
                            }
                        }
                    }
                    if woke && !parked[g].is_empty() {
                        routable(&mut up, &health, &draining, g);
                        parked_total -= parked[g].len();
                        for r in std::mem::take(&mut parked[g]) {
                            group_snapshots(&mut snaps, &cores, &up, now, &assigned, classed);
                            let pos = routers[g].route(&r, &snaps).min(up.len() - 1);
                            push_to!(up[pos], r);
                        }
                    }
                }
            }
            // Reconcile tick: observe, decide, apply.
            1 => {
                next_tick += interval;
                stats.reconciles += 1;
                if let Some(tr) = &trace {
                    tr.rec.borrow_mut().instant(
                        tr.control,
                        EventKind::Reconcile,
                        stats.reconciles,
                        now.get(),
                    );
                }
                obs.clear();
                for g in 0..ngroups {
                    routable(&mut up, &health, &draining, g);
                    let mut queued = parked[g].len() as u64;
                    let mut outstanding = 0;
                    let mut kv_frac = 0.0f64;
                    for &k in &up {
                        queued += cores[k].queued();
                        outstanding += cores[k].outstanding_at(now);
                        kv_frac = kv_frac.max(cores[k].kv_frac());
                    }
                    let pending = members[g].iter().filter(|&&k| booting[k]).count() as u64;
                    let drains = members[g].iter().filter(|&&k| draining[k] && live[k]).count();
                    let (delivered, slo_ok) = std::mem::take(&mut since_tick[g]);
                    obs.push(GroupObservation {
                        up: up.len() as u64,
                        pending,
                        draining: drains as u64,
                        queued,
                        outstanding,
                        kv_frac,
                        delivered,
                        slo_ok,
                    });
                }
                if let Some(tr) = &trace {
                    let mut rec = tr.rec.borrow_mut();
                    for (g, o) in obs.iter().enumerate() {
                        rec.sample(tr.gseries[g][0], now.get(), o.queued as f64);
                        rec.sample(tr.gseries[g][1], now.get(), o.outstanding as f64);
                    }
                }
                for decision in reconciler.reconcile(now, &obs) {
                    match decision {
                        ScalingDecision::Add { group } => {
                            if let Some(k) = boot_slot(&members, &health, &draining, group) {
                                apply_boot(
                                    k, group, now, action::SCALE_UP, &mut health,
                                    now + autoscale.provision, &mut booting, &mut held,
                                    &mut ramps, &mut stats, &replicas[group].name,
                                    &slots[k].spec.name,
                                );
                                stats.scale_ups += 1;
                                held_now += 1;
                                if let Some(tr) = &trace {
                                    tr.rec.borrow_mut().instant(
                                        tr.tracks[k],
                                        EventKind::ScaleUp,
                                        0,
                                        now.get(),
                                    );
                                }
                            }
                        }
                        ScalingDecision::Drain { group } => {
                            if let Some(k) = drain_victim(&health, &draining, &members, group) {
                                routable(&mut up, &health, &draining, group);
                                let emptied = up.len() == 1;
                                let kind = if emptied {
                                    stats.scale_to_zero += 1;
                                    action::SCALE_TO_ZERO
                                } else {
                                    action::SCALE_DOWN
                                };
                                stats.scale_downs += 1;
                                stats.actions.push(ScalingAction::new(
                                    now.get(),
                                    kind,
                                    &replicas[group].name,
                                    slots[k].spec.name.clone(),
                                ));
                                if let Some(tr) = &trace {
                                    let ek = if emptied {
                                        EventKind::ScaleToZero
                                    } else {
                                        EventKind::ScaleDown
                                    };
                                    tr.rec.borrow_mut().instant(tr.tracks[k], ek, 0, now.get());
                                }
                                begin_drain(k, &mut cores, &mut draining, &mut step_heap);
                            }
                        }
                        ScalingDecision::Swap { from, to } => {
                            let victim = drain_victim(&health, &draining, &members, from);
                            let target = boot_slot(&members, &health, &draining, to);
                            if let (Some(v), Some(t)) = (victim, target) {
                                stats.swaps += 1;
                                stats.actions.push(ScalingAction::new(
                                    now.get(),
                                    action::SWAP_OUT,
                                    &replicas[from].name,
                                    slots[v].spec.name.clone(),
                                ));
                                begin_drain(v, &mut cores, &mut draining, &mut step_heap);
                                // The swapped-in slot skips provisioning
                                // (the machine is already racked) and pays
                                // only warmup.
                                apply_boot(
                                    t, to, now, action::SWAP_IN, &mut health, now,
                                    &mut booting, &mut held, &mut ramps, &mut stats,
                                    &replicas[to].name, &slots[t].spec.name,
                                );
                                held_now += 1;
                                if let Some(tr) = &trace {
                                    let mut rec = tr.rec.borrow_mut();
                                    rec.instant(tr.tracks[v], EventKind::SwapOut, 0, now.get());
                                    rec.instant(tr.tracks[t], EventKind::SwapIn, 0, now.get());
                                }
                            }
                        }
                    }
                }
                stats.peak_replicas = stats.peak_replicas.max(held_now);
                // A drained core with no in-flight work retires at once.
                held_now -= retire_idle(
                    now, &mut cores, &mut health, &mut live, &mut draining, &mut held,
                    &mut accum, &mut step_heap, &slots, replicas, &mut stats, offline_until,
                    tenancy.as_mut(), trace.as_ref(),
                );
            }
            // Arrival: hash the session onto its group, route or park.
            2 => {
                let r = stream.pop();
                origin.insert(r.id, r.arrival_s);
                if let Some(tr) = &trace {
                    // Emitted by the driver: a parked arrival may wait a
                    // long time before any core sees it.
                    tr.rec.borrow_mut().request_arrival_for(
                        tr.control,
                        r.id,
                        r.arrival_s,
                        tenant_tag(&tenancy, r.id),
                    );
                }
                if stream.exhausted() {
                    exhausted_closed = true;
                    for (k, core) in cores.iter_mut().enumerate() {
                        if live[k] {
                            core.close();
                            step_heap.set(k, core.next_action());
                        }
                    }
                }
                let g = (splitmix64(r.session) % ngroups as u64) as usize;
                routable(&mut up, &health, &draining, g);
                if up.is_empty() {
                    // Scaled to zero (or drained dry): park until the
                    // reconciler wakes the group. The original arrival is
                    // preserved, so the wake-up wait lands in the
                    // request's latency.
                    if let Some(tr) = &trace {
                        tr.rec.borrow_mut().instant_for(
                            tr.control,
                            EventKind::Park,
                            r.id,
                            now.get(),
                            tenant_tag(&tenancy, r.id),
                        );
                    }
                    parked[g].push(r);
                    parked_total += 1;
                } else {
                    group_snapshots(&mut snaps, &cores, &up, now, &assigned, classed);
                    let pos = routers[g].route(&r, &snaps).min(up.len() - 1);
                    push_to!(up[pos], r);
                }
            }
            // Engine step: completions deliver immediately (no crashes can
            // revoke them), and a dry draining slot retires.
            _ => {
                let (k, _) = step_at
                    .ok_or_else(|| Error::internal("class 3 implies a steppable core"))?;
                cores[k].step()?;
                step_heap.set(k, cores[k].next_action());
                let g = slots[k].group;
                for &c in cores[k].drain_new() {
                    let mut c = c;
                    // Delivered exactly once, so the entry can go: the
                    // map holds only requests still in flight.
                    if let Some(orig) = origin.remove(&c.id) {
                        c.arrival = Seconds::new(orig);
                    }
                    stream.on_complete(&c);
                    delivered_by[k] += 1;
                    since_tick[g].0 += 1;
                    let ok = slo_ms.is_none_or(|slo| c.latency().as_millis() <= slo);
                    if ok {
                        since_tick[g].1 += 1;
                    } else if in_ramp(&ramps, g, c.finish.get()) {
                        stats.slo_violations_ramp += 1;
                    }
                    if let Some(tr) = &trace {
                        tr.rec.borrow_mut().complete_for(
                            tr.tracks[k],
                            c.id,
                            c.finish.get(),
                            c.latency().as_millis(),
                            c.ttft().as_millis(),
                            tenant_tag(&tenancy, c.id),
                        );
                    }
                    delivered.push(c);
                }
                if draining[k] {
                    held_now -= retire_idle(
                        now, &mut cores, &mut health, &mut live, &mut draining, &mut held,
                        &mut accum, &mut step_heap, &slots, replicas, &mut stats,
                        offline_until, tenancy.as_mut(), trace.as_ref(),
                    );
                }
            }
        }
    }

    // ---- harvest and report -------------------------------------------
    for (k, core) in cores.iter().enumerate() {
        if live[k] {
            accum[k].harvest(core, tenancy.as_mut());
        }
    }
    delivered.sort_by_key(|c| c.id);
    debug_assert_eq!(delivered.len() as u64, offered, "elastic runs never shed");

    let finish = delivered.iter().map(|c| c.finish).fold(Seconds::ZERO, Seconds::max);
    let first_arrival = delivered.iter().map(|c| c.arrival).fold(finish, Seconds::min);
    let mut totals = FleetTotals::default();
    let mut rows = Vec::new();
    let mut busy_chip_s = 0.0;
    for (k, slot) in slots.iter().enumerate() {
        // Chip-seconds: held intervals clipped to the makespan, so the
        // elastic number is directly comparable with a static fleet's
        // `chips × makespan`.
        let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
        for iv in &held[k] {
            let end = clip(iv.end.unwrap_or(finish.get()));
            stats.chip_seconds += slot.spec.chips() as f64 * (end - clip(iv.start)).max(0.0);
        }
        if held[k].is_empty() {
            continue; // the slot never ran: no report row
        }
        let row = totals.row(&slot.spec, &accum[k], delivered_by[k]);
        busy_chip_s += row.busy_s * row.chips as f64;
        rows.push(row);
    }
    stats.idle_energy_j = autoscale.idle_watts * (stats.chip_seconds - busy_chip_s).max(0.0);
    stats.total_cost_j = totals.chip_energy.get() + stats.idle_energy_j;

    let mut report = ClusterReport::build(
        label,
        "colocated",
        policy.name().to_owned(),
        offered,
        &delivered,
        &totals,
        rows,
        slo_ms,
        None,
    );
    report.scaling = Some(stats);
    if let Some(t) = tenancy {
        report.tenants = Some(t.ledger.report(&delivered, report.makespan_s));
    }
    pricing.persist_caches();
    // Per-slot ServingReports are not meaningful across boots/retires:
    // elastic runs report the fleet aggregate only.
    Ok(ClusterRun {
        report,
        replica_reports: Vec::new(),
        completions: delivered,
        prefix: totals.prefix,
    })
}

/// Fills `snaps` with router snapshots over one group's routable slots,
/// re-indexed `0..up.len()` so index-returning and positional routers
/// agree.
fn group_snapshots(
    snaps: &mut Vec<ReplicaSnapshot>,
    cores: &[EngineCore<'_>],
    up: &[usize],
    t: Seconds,
    assigned: &[u64],
    classed: bool,
) {
    snaps.clear();
    snaps.extend(up.iter().enumerate().map(|(pos, &k)| ReplicaSnapshot {
        index: pos,
        outstanding: cores[k].outstanding_at(t),
        queued: cores[k].queued(),
        kv_frac: cores[k].kv_frac(),
        assigned: assigned[k],
        class_outstanding: if classed {
            cores[k].outstanding_by_class_at(t)
        } else {
            [0; 3]
        },
    }));
}

/// The lowest offline slot of `group` (free to boot), if any: a group at
/// its physical slot limit (every slot up, booting, or still draining)
/// skips the decision until a drain finishes.
fn boot_slot(
    members: &[Vec<usize>],
    health: &HealthView,
    draining: &[bool],
    group: usize,
) -> Option<usize> {
    members[group]
        .iter()
        .copied()
        .find(|&k| !draining[k] && matches!(health.state(k), ReplicaHealth::Down { until } if !until.get().is_finite()))
}

/// Marks slot `k` booting: provisioning completes at `ready` (equal to
/// `now` for a swap-in, which skips the provisioning delay), warmup
/// follows, and the slot is held — costing chip-seconds — from this
/// instant.
#[allow(clippy::too_many_arguments)] // one call site per decision kind
fn apply_boot(
    k: usize,
    group: usize,
    now: Seconds,
    kind: &str,
    health: &mut HealthView,
    ready: Seconds,
    booting: &mut [bool],
    held: &mut [Vec<HeldInterval>],
    ramps: &mut Vec<RampWindow>,
    stats: &mut ScalingStats,
    group_name: &str,
    slot_name: &str,
) {
    health.mark_down(k, ready);
    booting[k] = true;
    held[k].push(HeldInterval { start: now.get(), end: None });
    ramps.push(RampWindow { group, start: now.get(), end: None });
    stats.actions.push(ScalingAction::new(now.get(), kind, group_name, slot_name.to_owned()));
}

/// The drain victim for `group`: its highest routable slot (retire the
/// newest capacity first).
fn drain_victim(
    health: &HealthView,
    draining: &[bool],
    members: &[Vec<usize>],
    group: usize,
) -> Option<usize> {
    members[group].iter().rev().copied().find(|&k| health.is_up(k) && !draining[k])
}

/// Closes slot `k`'s core so it stops taking work and runs its in-flight
/// requests to completion.
fn begin_drain(
    k: usize,
    cores: &mut [EngineCore<'_>],
    draining: &mut [bool],
    step_heap: &mut ActionHeap,
) {
    draining[k] = true;
    cores[k].close();
    step_heap.set(k, cores[k].next_action());
}

/// Retires every draining slot whose core has gone dry (no scheduled
/// action, nothing queued): harvests its counters, ends its held
/// interval, and takes it offline. Returns how many slots retired.
#[allow(clippy::too_many_arguments)] // the whole driver state participates
fn retire_idle(
    now: Seconds,
    cores: &mut [EngineCore<'_>],
    health: &mut HealthView,
    live: &mut [bool],
    draining: &mut [bool],
    held: &mut [Vec<HeldInterval>],
    accum: &mut [ReplicaAccum],
    step_heap: &mut ActionHeap,
    slots: &[Slot],
    replicas: &[ReplicaSpec],
    stats: &mut ScalingStats,
    offline_until: Seconds,
    mut tenancy: Option<&mut Tenancy<'_>>,
    trace: Option<&ElasticTrace>,
) -> u64 {
    let mut retired = 0;
    for k in 0..cores.len() {
        if !(draining[k] && live[k]) {
            continue;
        }
        if cores[k].next_action().is_some() || cores[k].queued() > 0 {
            continue;
        }
        // Harvested now: a later boot replaces this core, so its ledgers
        // (including per-tenant preemption counters) are read here or lost.
        accum[k].harvest(&cores[k], tenancy.as_deref_mut());
        live[k] = false;
        draining[k] = false;
        health.mark_down(k, offline_until);
        step_heap.set(k, None);
        if let Some(iv) = held[k].last_mut() {
            iv.end = Some(now.get());
        }
        stats.actions.push(ScalingAction::new(
            now.get(),
            action::RETIRED,
            &replicas[slots[k].group].name,
            slots[k].spec.name.clone(),
        ));
        if let Some(tr) = trace {
            tr.rec.borrow_mut().instant(tr.tracks[k], EventKind::Retired, 0, now.get());
        }
        retired += 1;
    }
    retired
}

/// Whether `finish` lands inside any capacity ramp of `group` (an open
/// ramp extends to the end of the run).
fn in_ramp(ramps: &[RampWindow], group: usize, finish: f64) -> bool {
    ramps.iter().any(|w| {
        w.group == group && finish >= w.start && w.end.is_none_or(|e| finish <= e)
    })
}
