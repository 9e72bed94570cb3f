//! The fleet engine: topology + router + traffic → [`ClusterRun`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use cimtpu_autoscale::{AutoscalePolicy, ScalingStats};
use cimtpu_obs::{EventKind, SharedRecorder};
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, EngineCore, EventKey, Offered, Request, RequestTenants,
    TenantReport, TenantSched, TenantSet, TrafficSpec,
};
use cimtpu_units::{Error, Result, Seconds};

use crate::disagg::{run_disaggregated, InterconnectSpec};
use crate::elastic::{self, Scaler};
use crate::fault::{FaultAction, FaultPlan, RetryLedger};
use crate::observe::{FleetObserver, FleetTrace};
use crate::replica::{fleet_sessions, ReplicaSpec};
use crate::report::{ClusterReport, FleetTotals, ReplicaAccum};
use crate::router::{
    splitmix64, HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy, SnapshotTracker,
};

/// How the fleet's replicas divide the serving pipeline.
#[derive(Debug, Clone)]
pub enum ClusterTopology {
    /// Every replica runs whole requests (prefill + decode on the same
    /// chips); the router spreads arrivals across them.
    Colocated {
        /// The replica groups.
        replicas: Vec<ReplicaSpec>,
        /// Arrival routing policy.
        router: RouterPolicy,
    },
    /// DistServe/Splitwise-style disaggregation: a prefill pool ingests
    /// prompts, hands the KV cache over the interconnect to a decode pool,
    /// and decode admission is gated by the target replica's paged
    /// allocator.
    Disaggregated {
        /// Prefill-pool replicas.
        prefill: Vec<ReplicaSpec>,
        /// Decode-pool replicas.
        decode: Vec<ReplicaSpec>,
        /// Arrival routing policy (across the prefill pool).
        router: RouterPolicy,
        /// KV-handoff routing policy (across the decode pool).
        decode_router: RouterPolicy,
        /// The link KV caches migrate over.
        interconnect: InterconnectSpec,
    },
}

/// A complete fleet-simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    topology: ClusterTopology,
    pub(crate) slo_ms: Option<f64>,
    faults: FaultPlan,
    autoscale: Option<AutoscalePolicy>,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// The fleet aggregate.
    pub report: ClusterReport,
    /// Per-request lifecycle records, in request-id order.
    pub completions: Vec<Completion>,
    /// Fleet-wide prefix-sharing counters, summed over replicas (all
    /// zero when no replica enables sharing; disaggregated pools do not
    /// run the prefix cache).
    pub prefix: cimtpu_serving::PrefixStats,
}

impl ClusterEngine {
    /// A colocated fleet.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty replica list.
    pub fn colocated(replicas: Vec<ReplicaSpec>, router: RouterPolicy) -> Result<Self> {
        if replicas.is_empty() {
            return Err(Error::invalid_config(
                "a cluster needs at least one replica",
            ));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Colocated { replicas, router },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// A disaggregated prefill/decode fleet.
    ///
    /// # Errors
    ///
    /// Returns an error if either pool is empty, or for a link whose
    /// bandwidth is not positive and finite, or whose hop latency or
    /// pJ/byte is negative or not finite (either would put ∞ or NaN into
    /// the report).
    pub fn disaggregated(
        prefill: Vec<ReplicaSpec>,
        decode: Vec<ReplicaSpec>,
        router: RouterPolicy,
        decode_router: RouterPolicy,
        interconnect: InterconnectSpec,
    ) -> Result<Self> {
        if prefill.is_empty() || decode.is_empty() {
            return Err(Error::invalid_config(
                "a disaggregated cluster needs at least one prefill and one decode replica",
            ));
        }
        let bandwidth = interconnect.link_bandwidth.get();
        let (hop, pj) = (
            interconnect.hop_latency.get(),
            interconnect.energy_pj_per_byte,
        );
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(Error::invalid_config(
                "the KV link bandwidth must be positive and finite",
            ));
        }
        if !(hop.is_finite() && hop >= 0.0 && pj.is_finite() && pj >= 0.0) {
            return Err(Error::invalid_config(
                "the KV link hop latency and pJ/byte must be finite and non-negative",
            ));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// Sets the latency SLO the report's goodput is computed against.
    #[must_use]
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }

    /// Overrides every replica's KV budget (both pools of a disaggregated
    /// fleet) — what the `cluster_sim --kv-budget` flag applies.
    #[must_use]
    pub fn with_kv_budget(mut self, budget: cimtpu_serving::KvBudget) -> Self {
        let apply = |replicas: &mut Vec<ReplicaSpec>| {
            for r in replicas {
                r.memory.budget = budget;
            }
        };
        match &mut self.topology {
            ClusterTopology::Colocated { replicas, .. } => apply(replicas),
            ClusterTopology::Disaggregated {
                prefill, decode, ..
            } => {
                apply(prefill);
                apply(decode);
            }
        }
        self
    }

    /// Installs a fault plan. An **empty** plan (the default) injects
    /// nothing: runs stay bit-identical to an engine without any plan and
    /// the report has no availability section. Each topology runs one
    /// event loop for every plan, an empty one as no fault timeline and
    /// an all-up health view. A non-empty plan brings the failure-aware
    /// machinery into play (crashes, retries, shedding, the trace's
    /// control track) and the report grows an availability section.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault plan (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs an autoscale policy: one [`GroupPolicy`] per replica
    /// group, making each group an elastic pool of up to `max` slots
    /// named `{name}-{slot}` that a reconcile loop grows and shrinks
    /// against the policy's utilization band.
    ///
    /// A **pinned** policy (every band `min == max`, no swaps) keeps the
    /// static fleet's event loops: the fleet is expanded to its pinned
    /// sizes and dispatched like a static fleet, bit-identically — the
    /// report just gains a `scaling` section pricing the static fleet.
    /// An *elastic* policy adds a reconcile tick to the colocated event
    /// loop, and composes with a fault plan: fault `replica` indices then
    /// name slots, `{group}-{j}` in order across groups (see the
    /// [`elastic`](crate::elastic) module docs for what a crash does to a
    /// booting, draining or offline slot). Elastic disaggregated fleets
    /// are rejected by [`run`](ClusterEngine::run).
    ///
    /// [`GroupPolicy`]: cimtpu_autoscale::GroupPolicy
    #[must_use]
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// The installed autoscale policy, if any.
    #[cfg(test)]
    pub(crate) fn autoscale(&self) -> Option<&AutoscalePolicy> {
        self.autoscale.as_ref()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Simulates the offered load — a [`TrafficSpec`] or a multi-tenant
    /// [`TenantSet`] — across the fleet. Deterministic: identical inputs
    /// give identical reports (CI replays seeded runs and diffs).
    ///
    /// A tenant set's per-tenant traffics merge into one trace, every
    /// replica's engine core arms weighted-fair scheduling, and the
    /// report gains a per-tenant section (goodput, SLO attainment,
    /// Jain's fairness). A single-tenant set reports bit-identically to
    /// its tenant's traffic, plus that section.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid traffic spec, tenant set or
    /// replica configuration, an empty prompt entering an LLM replica
    /// ([`TrafficSpec::validate_prompts`]), an SLO that is not positive
    /// and finite, an unmappable operator, or a KV budget too small to
    /// hold a single request.
    pub fn run<'t>(&self, label: &str, offered: impl Into<Offered<'t>>) -> Result<ClusterRun> {
        self.run_observed(label, offered, None)
    }

    /// [`run`](Self::run) with an optional flight recorder, picked once
    /// here: `None` runs the event loops with the no-op observer `()`,
    /// `Some` with a `FleetTrace` — replicas get one track each,
    /// control-plane events (crashes, retries, scaling actions,
    /// reconcile ticks) and a colocated fleet's arrivals land on a
    /// control track, which every fleet registers, and queue/KV gauges
    /// stream into the recorder's timeseries. Multi-tenant runs tag
    /// every request-lifecycle event with its tenant index. Recording
    /// never changes the run.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_observed<'t>(
        &self,
        label: &str,
        offered: impl Into<Offered<'t>>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        if self
            .slo_ms
            .is_some_and(|slo| !(slo.is_finite() && slo > 0.0))
        {
            return Err(Error::invalid_config(
                "the latency SLO must be positive and finite",
            ));
        }
        let offered = offered.into();
        let traffic = offered.spec()?;
        // Every request enters through the colocated replicas or the
        // prefill pool.
        let entry = match &self.topology {
            ClusterTopology::Colocated { replicas, .. } => replicas,
            ClusterTopology::Disaggregated { prefill, .. } => prefill,
        };
        if entry.iter().any(|r| r.model.has_prefill()) {
            traffic.validate_prompts()?;
        }
        let tenants = offered.tenants();
        match recorder {
            None => self.dispatch::<()>(label, &traffic, tenants, &()),
            Some(rec) => {
                let multi = tenants.is_some_and(|set| set.sched().multi_tenant());
                let tags = multi.then(|| RequestTenants::new(&traffic));
                self.dispatch::<FleetTrace<'_>>(label, &traffic, tenants, &(rec, tags))
            }
        }
    }

    fn dispatch<O: FleetObserver>(
        &self,
        label: &str,
        traffic: &TrafficSpec,
        tenants: Option<&TenantSet>,
        sink: &O::Sink,
    ) -> Result<ClusterRun> {
        let elastic = match &self.autoscale {
            Some(policy) if policy.is_pinned() => {
                return self.run_pinned::<O>(policy, label, traffic, tenants, sink);
            }
            Some(policy) => Some(self.checked(policy)?),
            None => None,
        };
        match &self.topology {
            ClusterTopology::Colocated { replicas, router } => run_colocated::<O>(
                replicas,
                *router,
                label,
                traffic,
                self.slo_ms,
                &self.faults,
                elastic,
                tenants,
                sink,
            ),
            ClusterTopology::Disaggregated { .. } if elastic.is_some() => {
                Err(Error::invalid_config(
                    "autoscaling a disaggregated fleet is not supported; pin the policy \
                     (min == max, no swap) to size the pools statically",
                ))
            }
            ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            } => run_disaggregated::<O>(
                prefill,
                decode,
                *router,
                *decode_router,
                *interconnect,
                label,
                traffic,
                self.slo_ms,
                &self.faults,
                tenants,
                sink,
            ),
        }
    }

    /// `policy`, validated against the fleet: one policy group per
    /// replica group.
    fn checked<'p>(&self, policy: &'p AutoscalePolicy) -> Result<&'p AutoscalePolicy> {
        policy.validate()?;
        let ngroups = match &self.topology {
            ClusterTopology::Colocated { replicas, .. } => replicas.len(),
            ClusterTopology::Disaggregated {
                prefill, decode, ..
            } => prefill.len() + decode.len(),
        };
        if policy.groups.len() != ngroups {
            return Err(Error::invalid_config(format!(
                "the autoscale policy covers {} group(s) but the fleet has {ngroups}",
                policy.groups.len()
            )));
        }
        Ok(policy)
    }

    /// A pinned policy expands every group to its pinned size and runs
    /// the static fleet unchanged (bit-identity is proptested); the
    /// report just gains a `scaling` section pricing the static fleet.
    fn run_pinned<O: FleetObserver>(
        &self,
        policy: &AutoscalePolicy,
        label: &str,
        traffic: &TrafficSpec,
        tenants: Option<&TenantSet>,
        sink: &O::Sink,
    ) -> Result<ClusterRun> {
        let groups = &self.checked(policy)?.groups;
        let expand = |specs: &[ReplicaSpec], groups| elastic::slots(specs, groups, false).0;
        let mut pinned = ClusterEngine {
            autoscale: None,
            ..self.clone()
        };
        match &mut pinned.topology {
            ClusterTopology::Colocated { replicas, .. } => *replicas = expand(replicas, groups),
            ClusterTopology::Disaggregated {
                prefill, decode, ..
            } => {
                *decode = expand(decode, &groups[prefill.len()..]);
                *prefill = expand(prefill, groups);
            }
        }
        let mut run = pinned.dispatch::<O>(label, traffic, tenants, sink)?;
        let chip_seconds = run.report.chips as f64 * run.report.makespan_s;
        let busy_chip_s: f64 = run
            .report
            .per_replica
            .iter()
            .map(|r| r.busy_s * r.chips as f64)
            .sum();
        run.report.scaling = Some(ScalingStats::static_fleet(
            run.report.replicas,
            chip_seconds,
            busy_chip_s,
            run.report.total_energy_j,
            policy.idle_watts,
        ));
        Ok(run)
    }
}

/// The earliest of a loop's candidate events, as `(time, class)`; on a
/// time tie the candidate listed first wins.
pub(crate) fn earliest<const N: usize>(
    candidates: [(Option<Seconds>, u8); N],
) -> Option<(Seconds, u8)> {
    candidates
        .into_iter()
        .filter_map(|(t, class)| Some((t?, class)))
        .reduce(|best, next| if next.0 < best.0 { next } else { best })
}

/// A request up for admission: a fresh arrival taken off the stream, a
/// crash-lost request backing off before its retry, or a parked request
/// whose group has a slot up again (the last two wait in a queue).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitingRetry {
    /// When the request (re-)enters admission.
    fire: Seconds,
    /// The request (for retries, `arrival_s` is rewritten to the fire
    /// time at push; the original arrival lives in the retry ledger and
    /// is restored on the delivered completion).
    request: Request,
    /// Retries already charged against the request's budget (0 for a
    /// fresh arrival).
    attempts: u32,
}

/// A min-queue of pending events: pops the item with the smallest key,
/// ties in push order.
pub(crate) struct EventQueue<K, T> {
    heap: BinaryHeap<Queued<K, T>>,
    key: fn(&T) -> K,
    pushed: u64,
}

/// One [`EventQueue`] entry, ordered by `(key, seq)` reversed so the
/// max-heap pops the earliest.
struct Queued<K, T> {
    key: K,
    seq: u64,
    item: T,
}

impl<K: Ord, T> PartialEq for Queued<K, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, T> Eq for Queued<K, T> {}
impl<K: Ord, T> PartialOrd for Queued<K, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord, T> Ord for Queued<K, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (&other.key, other.seq).cmp(&(&self.key, self.seq))
    }
}

impl<K: Ord, T> EventQueue<K, T> {
    pub(crate) fn new(key: fn(&T) -> K) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            key,
            pushed: 0,
        }
    }

    pub(crate) fn push(&mut self, item: T) {
        self.pushed += 1;
        self.heap.push(Queued {
            key: (self.key)(&item),
            seq: self.pushed,
            item,
        });
    }

    pub(crate) fn peek(&self) -> Option<&T> {
        self.heap.peek().map(|q| &q.item)
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        self.heap.pop().map(|q| q.item)
    }

    /// Pops the first item if `due` holds for it.
    fn pop_if(&mut self, due: impl FnOnce(&T) -> bool) -> Option<T> {
        if self.peek().is_some_and(due) {
            self.pop()
        } else {
            None
        }
    }

    /// Removes every item `doomed` selects and returns them in push
    /// order. `O(len)`: crash revocation and load shedding only.
    fn remove_where(&mut self, mut doomed: impl FnMut(&T) -> bool) -> Vec<T> {
        let (mut out, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.heap)
            .into_iter()
            .partition(|q| doomed(&q.item));
        self.heap = keep.into();
        out.sort_by_key(|q| q.seq);
        out.into_iter().map(|q| q.item).collect()
    }
}

/// The colocated event loop, for every fleet — static or elastic, under
/// every [`FaultPlan`]: `drive` re-derived so faults, slot lifecycle
/// transitions, reconcile ticks (elastic fleets only), deferred deliveries
/// and retry timers interleave with arrivals and engine steps. An empty
/// plan has no fault timeline, no deadlines or shedding, and no
/// availability section; its trace has every fleet's one layout (see
/// [`FleetTrace`]). `O` observes the run: `()` for none, [`FleetTrace`]
/// for the flight recorder.
///
/// Event classes at one instant resolve in a fixed order: faults and
/// lifecycle transitions, the reconcile tick, completion deliveries,
/// admissions (the arrival stream merged with the requests waiting to
/// retry or woken from a park), engine steps. A completion is delivered
/// (fed to its closed-loop client, booked) once nothing can revoke it:
/// under a fault plan at its finish, under an empty plan right after its
/// step, as `drive` does. Deliveries at an instant go before its
/// admissions, so both timings give the same run: an empty plan replays
/// `drive`, and a benign plan (a ×1 straggler) replays the empty plan.
/// The test-only reference model (`crate::reference`) delivers at the
/// finish under every plan, and the proptests pin the loop to it.
///
/// Arrivals hash by session onto a routing group (a static fleet is one
/// group) and route over a [`SnapshotTracker`] whose slots reset one at a
/// time when a boot or restart replaces a core. The router sees the
/// group's up slots re-indexed `0..up.len()` (see the
/// [`router`](crate::router) module docs on the health view); a group
/// with none parks the request until one of its slots turns up. The slot
/// lifecycle is specified in the [`elastic`](crate::elastic) module docs.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)] // one call site, in `dispatch`
fn run_colocated<O: FleetObserver>(
    replicas: &[ReplicaSpec],
    policy: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
    autoscale: Option<&AutoscalePolicy>,
    tenants: Option<&TenantSet>,
    sink: &O::Sink,
) -> Result<ClusterRun> {
    let (slots, groups) = match autoscale {
        Some(p) => elastic::slots(replicas, &p.groups, p.swap),
        None => (
            replicas.to_vec(),
            std::iter::once(0..replicas.len()).collect(),
        ),
    };
    let n = slots.len();
    let zero_fault = plan.is_empty();
    let recovery = *plan.recovery();
    let shed_at = if zero_fault {
        None
    } else {
        recovery.shed_outstanding
    };
    let timeline = plan.colocated_timeline(n)?;
    let mut next_fault = 0usize;

    let sessions = fleet_sessions(&slots)?;
    let elastic = autoscale.is_some().then_some(replicas);
    let obs = O::open(sink, &slots, elastic);
    // Slot `k`'s core, at the start and — fresh, with an empty KV allocator
    // and prefix index — at every boot or restart. It prices through the
    // slot's shared pricing state.
    let sched = tenants.map(TenantSet::sched);
    let fresh = |k: usize| {
        let mut core = sessions[k].core()?;
        if let Some(sched) = &sched {
            core.set_tenancy(sched);
        }
        obs.attach(k, &mut core);
        Ok::<_, Error>(core)
    };
    let mut cores: Vec<EngineCore<'_>> = (0..n).map(fresh).collect::<Result<_>>()?;
    let classed = sched.as_ref().is_some_and(TenantSched::multi_tenant);
    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut routers: Vec<Box<dyn Router>> = groups.iter().map(|_| policy.build()).collect();
    let mut health = HealthView::all_up(n);
    let mut scaler =
        autoscale.map(|p| Scaler::new(p, replicas, &slots, &groups, &mut health, &obs));
    // The open straggler window per slot, as (start, factor); the
    // Straggler span is emitted when the window closes.
    let mut slow: Vec<Option<(Seconds, f64)>> = vec![None; n];
    let mut last_push = vec![f64::NEG_INFINITY; n];
    // Like `drive`, the cores close once the stream's final request has
    // been through admission (`close_due`): a static or dynamic batcher
    // must not launch its tail without it.
    let mut close_due = false;
    let mut exhausted_closed = false;

    // The run ledger lives in the driver, not the cores: cores are
    // replaced on restart, and a completion only counts once delivered.
    // A step's completions leave its core at once (`produced`), so each
    // is held in one list at a time.
    let mut delivered: Vec<Completion> = Vec::with_capacity(offered as usize);
    let mut deliveries = EventQueue::new(|(_, c): &(usize, Completion)| EventKey::new(c.finish));
    let mut delivered_by = vec![0u64; n];
    let mut waiting = EventQueue::new(|w: &WaitingRetry| {
        (
            EventKey::new(w.fire),
            EventKey::new(w.request.arrival()),
            w.request.id,
        )
    });
    // Requests parked per group while it has no routable slot.
    let mut parked: Vec<Vec<WaitingRetry>> = vec![Vec::new(); groups.len()];
    let mut ledger = RetryLedger::new(recovery, tenants, &obs);
    let mut accum: Vec<ReplicaAccum> = (0..n).map(|_| ReplicaAccum::default()).collect();
    let mut tracker = SnapshotTracker::new(n);
    // Router-view and step-output scratch, reused across events.
    let mut up: Vec<usize> = Vec::with_capacity(n);
    let mut snaps: Vec<ReplicaSnapshot> = Vec::with_capacity(n);
    let mut produced: Vec<Completion> = Vec::new();

    // The step-event queue: one slot per replica, keyed by the core's
    // next-action time (`None` while the slot has no live core). Every
    // core-mutating event below refreshes the owning slot, so the heap
    // minimum is the reference model's pick: a linear scan of the live
    // cores, lowest index on a tie.
    let mut step_heap = ActionHeap::new(n);
    for (i, core) in cores.iter().enumerate() {
        step_heap.set(i, core.next_action());
    }

    loop {
        if std::mem::take(&mut close_due) {
            exhausted_closed = true;
            for (i, core) in cores.iter_mut().enumerate() {
                if health.is_live(i) {
                    core.close();
                    step_heap.set(i, core.next_action());
                }
            }
        }
        let step_at = step_heap.peek();
        let parking = parked.iter().any(|p| !p.is_empty());
        let fault_at: Option<Seconds> = {
            let scripted = (next_fault < timeline.len()).then(|| timeline[next_fault].0);
            match (scripted, health.next_transition()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };

        // The run is over when nothing can produce or receive work —
        // trailing fault events, boots and ticks on an idle fleet are
        // dropped.
        if stream.exhausted()
            && waiting.peek().is_none()
            && deliveries.peek().is_none()
            && step_at.is_none()
            && !parking
        {
            break;
        }

        // Candidate events, classes in tie-break order. The admission
        // queue is the arrival stream merged with `waiting`. The reconcile
        // tick joins only while other work is pending or parked: it cannot
        // unstall a closed loop.
        let mut candidates = [
            (fault_at, 0),
            (None, 1),
            (deliveries.peek().map(|(_, c)| c.finish), 2),
            (stream.peek(), 3),
            (waiting.peek().map(|w| w.fire), 3),
            (step_at.map(|(_, t)| t), 4),
        ];
        let mut chosen = earliest(candidates);
        if let Some(s) = scaler.as_ref().filter(|_| chosen.is_some() || parking) {
            candidates[1].0 = Some(s.next_tick);
            chosen = earliest(candidates);
        }
        // The core that stepped (at `Some(now)`) or flushed a stalled
        // batch (`None`) this iteration, if any.
        let stepped = match chosen {
            None => {
                // Closed-loop stall: clients wait on completions held in
                // partial batches. Flush the lowest stalled core (mirrors
                // `drive`); its completions become deliveries.
                let mut flushed = None;
                for (i, core) in cores.iter_mut().enumerate() {
                    if health.is_live(i) && core.flush_stalled()? {
                        flushed = Some(i);
                        break;
                    }
                }
                let Some(i) = flushed else {
                    return Err(Error::invalid_config(
                        "serving driver stalled: closed-loop clients wait on completions \
                         no engine can produce",
                    ));
                };
                Some((i, None))
            }
            // Faults and lifecycle transitions.
            Some((now, 0)) => {
                let boot_warmup = autoscale.map_or(Seconds::ZERO, |p| p.warmup);
                // Restores first: a slot back up at `now` can take a crash
                // scripted for the same instant.
                for (k, left) in health.advance(now, recovery.warmup, boot_warmup) {
                    if let ReplicaHealth::Warming { .. } = left {
                        // Routable: no service before now, and the group's
                        // parked requests re-enter admission.
                        last_push[k] = now.get();
                        if let Some(s) = &mut scaler {
                            s.on_up(k, now);
                        }
                        let g = groups.partition_point(|g| g.end <= k);
                        for w in parked[g].drain(..) {
                            waiting.push(WaitingRetry { fire: now, ..w });
                        }
                        continue;
                    }
                    // Warmup starts on a fresh core; the replaced one's
                    // books are read first.
                    accum[k].harvest(&cores[k]);
                    cores[k] = fresh(k)?;
                    if let ReplicaHealth::Down { .. } = left {
                        obs.instant(k, EventKind::Repair, now);
                    }
                    if let Some((_, factor)) = slow[k] {
                        cores[k].set_slowdown(factor);
                    }
                    if exhausted_closed {
                        cores[k].close();
                    }
                    step_heap.set(k, cores[k].next_action());
                    tracker.reset(k, &cores[k]);
                }
                ledger.on_health(&health, now);
                while next_fault < timeline.len() && timeline[next_fault].0 <= now {
                    let (_, action) = timeline[next_fault];
                    next_fault += 1;
                    match action {
                        FaultAction::Crash { replica, repair } => {
                            if !health.is_live(replica) {
                                // No live core: nothing to kill.
                                continue;
                            }
                            let lost = cores[replica].crash(now);
                            step_heap.set(replica, None);
                            let retiring = health.state(replica) == ReplicaHealth::Draining;
                            ledger.on_crash(replica, now, retiring);
                            obs.instant(replica, EventKind::Crash, now);
                            if let Some(s) = &mut scaler {
                                // A crashed draining slot is dry: it retires.
                                s.retire_if_dry(replica, now, &mut health, &cores);
                            }
                            if health.is_live(replica) {
                                health.set(
                                    replica,
                                    ReplicaHealth::Down {
                                        until: now + repair,
                                    },
                                );
                            }
                            // Revoke the dead incarnation's undelivered
                            // completions — their requests are in `lost`.
                            deliveries.remove_where(|(k, c)| {
                                *k == replica && lost.iter().any(|r| r.id == c.id)
                            });
                            for r in lost {
                                if let Some((fire, attempts)) = ledger.on_lost(&r, now, &mut stream)
                                {
                                    waiting.push(WaitingRetry {
                                        fire,
                                        request: r,
                                        attempts,
                                    });
                                }
                            }
                        }
                        FaultAction::Slow { replica, factor } => {
                            if let Some((since, _)) = slow[replica].filter(|_| factor.is_none()) {
                                obs.span(replica, EventKind::Straggler, 0, since, now);
                            }
                            slow[replica] = factor.map(|f| (now, f));
                            if health.is_live(replica) {
                                cores[replica].set_slowdown(factor.unwrap_or(1.0));
                                step_heap.set(replica, cores[replica].next_action());
                            }
                        }
                    }
                }
                continue;
            }
            // Reconcile tick: observe, decide, apply.
            Some((now, 1)) => {
                if let Some(s) = &mut scaler {
                    s.tick(now, &mut health, &mut cores, &mut step_heap, &parked);
                }
                continue;
            }
            // Completion delivery, below.
            Some((_, 2)) => None,
            // Admission of a fresh arrival or a waiting request, whichever
            // is first in `(fire, arrival, id)` order. A waiting request was
            // issued before the stream's next one, so it wins ties.
            Some((now, 3)) => {
                let fresh = match (stream.peek(), waiting.peek()) {
                    (Some(t), Some(w)) => (t.get(), t.get()) < (w.fire.get(), w.request.arrival_s),
                    (t, _) => t.is_some(),
                };
                let item = if fresh {
                    let request = stream.pop();
                    obs.arrival(None, &request);
                    close_due = stream.exhausted();
                    WaitingRetry {
                        fire: now,
                        request,
                        attempts: 0,
                    }
                } else {
                    waiting
                        .pop()
                        .ok_or_else(|| Error::internal("class 3 implies a waiting request"))?
                };
                let r = item.request;
                if !zero_fault && ledger.expired(&r, now, &mut stream) {
                    continue;
                }
                if now < tracker.now() {
                    // A stall flush launched work in the past and re-armed
                    // a closed-loop client below the tracker's clock.
                    tracker.resync(now, &cores);
                } else {
                    tracker.advance_to(now);
                }
                if classed {
                    tracker.refresh_classes(&cores);
                }
                let g = (splitmix64(r.session) % groups.len() as u64) as usize;
                // A static fleet with no transition pending is all up.
                let whole = scaler.is_none() && health.next_transition().is_none();
                let view = if whole {
                    tracker.snapshots()
                } else {
                    let snap = |k: usize| tracker.snapshots()[k];
                    health.routable(groups[g].clone(), snap, &mut up, &mut snaps);
                    &snaps
                };
                if view.is_empty() {
                    // Nowhere to go: park until a slot of the group is up.
                    ledger.on_park(&r, now);
                    parked[g].push(item);
                    continue;
                }
                if let Some(threshold) = shed_at {
                    if view.iter().all(|s| s.outstanding >= threshold) {
                        // Surviving capacity is saturated: shed oldest
                        // first — this request and every waiting request
                        // older than it (closest to their deadlines).
                        let key = (ledger.origin(&r), r.id);
                        let older = waiting
                            .remove_where(|w| (ledger.origin(&w.request), w.request.id) <= key);
                        for w in std::iter::once(&r).chain(older.iter().map(|w| &w.request)) {
                            ledger.shed(w, now, &mut stream);
                        }
                        continue;
                    }
                }
                let pos = routers[g].route(&r, view).min(view.len() - 1);
                let k = if whole { pos } else { up[pos] };
                ledger.on_placed(item.attempts);
                let mut pushed = r;
                pushed.arrival_s = if item.attempts > 0 {
                    now.get()
                } else {
                    r.arrival_s
                };
                // A slot cannot see work arrive before its queue tail or
                // its up instant (a parked request lands on a slot that
                // came up, or took later work, after it arrived) — even on
                // a first attempt, so the ledger is told about every
                // rewritten arrival.
                pushed.arrival_s = pushed.arrival_s.max(last_push[k]);
                ledger.readmit(&r, pushed.arrival_s);
                last_push[k] = pushed.arrival_s;
                if exhausted_closed {
                    cores[k].reopen();
                    cores[k].push(pushed);
                    cores[k].close();
                } else {
                    cores[k].push(pushed);
                }
                step_heap.set(k, cores[k].next_action());
                tracker.on_push(k, cores[k].queued());
                continue;
            }
            // Engine step.
            Some((now, _)) => {
                let (i, _) =
                    step_at.ok_or_else(|| Error::internal("class 4 implies a steppable core"))?;
                cores[i].step()?;
                Some((i, Some(now)))
            }
        };
        if let Some((i, stepped_at)) = stepped {
            step_heap.set(i, cores[i].next_action());
            let (queued, kv_frac) = (cores[i].queued(), cores[i].kv_frac());
            cores[i].take_completions(&mut produced);
            tracker.on_step(i, queued, kv_frac, &produced);
            obs.stepped(i, stepped_at, [queued as f64, kv_frac]);
            for c in produced.drain(..) {
                deliveries.push((i, c));
            }
        }
        // Deliver what nothing can revoke any more: under a fault plan the
        // completions whose finish instant has come, under an empty plan
        // each one as soon as its step produced it (as `drive` does).
        let due = match chosen {
            Some((now, 2)) => now.get(),
            _ if zero_fault => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        };
        while let Some((k, mut c)) = deliveries.pop_if(|(_, c)| c.finish.get() <= due) {
            ledger.on_complete(k, &mut c);
            stream.on_complete(&c);
            delivered_by[k] += 1;
            obs.delivered(k, &c);
            if let Some(s) = &mut scaler {
                s.on_delivery(k, &c, slo_ms);
            }
            delivered.push(c);
        }
        // A draining slot retires once its step left it dry.
        if let (Some(s), Some((i, Some(now)))) = (&mut scaler, stepped) {
            s.retire_if_dry(i, now, &mut health, &cores);
        }
    }

    // Every core's books are read once: when a boot or restart replaces
    // it, or here.
    for (k, core) in cores.iter().enumerate() {
        accum[k].harvest(core);
    }
    delivered.sort_unstable_by_key(|c| c.id);

    // One row per slot that ever held a machine (every static replica).
    let mut totals = FleetTotals::default();
    let rows: Vec<_> = (0..n)
        .filter(|&k| scaler.as_ref().is_none_or(|s| s.ever_held(k)))
        .map(|k| totals.row(&slots[k], &accum[k], delivered_by[k], "serve"))
        .collect();
    let avail = ledger.finish(&delivered, offered, rows.len());
    let scaling = scaler.map(|s| s.finish(&delivered, &rows, totals.chip_energy.get()));
    let mut report = ClusterReport::build(
        label,
        "colocated",
        policy.name().to_owned(),
        offered,
        &delivered,
        &totals,
        rows,
        slo_ms,
        (!zero_fault).then_some(avail),
    );
    report.scaling = scaling;
    report.tenants = tenants.map(|set| {
        let requests = RequestTenants::new(traffic);
        let (shed, timed_out) = (&ledger.tenant_shed, &ledger.tenant_timed_out);
        let (done, makespan, preempted) =
            (&delivered, report.makespan_s, &totals.tenant_preemptions);
        TenantReport::new(set, requests, done, makespan, shed, timed_out, preempted)
    });
    Ok(ClusterRun {
        report,
        completions: delivered,
        prefix: totals.prefix,
    })
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::fault::{ChaosSpec, FaultEvent, RecoveryPolicy};
    use crate::reference::run_reference;
    use crate::reference::tests::{crash, mixed_fleet, traffics, POLICIES};

    /// The mixed fleet's loop run and reference run agree on every
    /// traffic shape and router policy under `plan`.
    fn check(plan: &FaultPlan, seed: u64) {
        for traffic in traffics(seed) {
            for policy in POLICIES {
                let engine = ClusterEngine::colocated(mixed_fleet(), policy).unwrap();
                let engine = engine.with_slo_ms(50.0).with_faults(plan.clone());
                let run = engine.run("eq", &traffic).unwrap();
                let reference = run_reference(&engine, "eq", &traffic).unwrap();
                assert_eq!(&run, &reference, "policy {}", policy.name());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Under an empty plan the tracker-routed loop, delivering each
        /// completion at once, replays the reference's per-admission
        /// router-view rebuild and deliver-at-finish rule bit-for-bit.
        #[test]
        fn tracked_colocated_matches_rebuild_oracle(seed in 0u64..1_000) {
            check(&FaultPlan::none(), seed);
        }

        /// The loop replays the reference bit-for-bit under scripted
        /// crashes with a straggler window, seeded chaos (also under a
        /// tight recovery policy: shedding, timeouts, a one-retry budget),
        /// and every replica down at once with staggered repairs: parked
        /// requests wait for the first replica up, and those whose
        /// deadline passes meanwhile time out then.
        #[test]
        fn heap_faulty_matches_scan_oracle(seed in 0u64..1_000) {
            let scripted = FaultPlan::none().with_event(crash(0, 0.000_4, 0.001)).with_event(
                FaultEvent::Straggler {
                    replica: 2,
                    from: Seconds::new(0.000_2),
                    until: Seconds::new(0.002),
                    slowdown: 3.0,
                },
            );
            let tight = RecoveryPolicy {
                max_attempts: 1,
                deadline: Seconds::new(0.006),
                shed_outstanding: Some(4),
                ..RecoveryPolicy::default()
            };
            let chaos = FaultPlan::seeded(seed ^ 0xFA417).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            });
            let tight = chaos.clone().with_recovery(tight);
            let deadline = Seconds::new(0.002_5);
            let whole = FaultPlan::none()
                .with_events([(0, 0.003), (1, 0.005), (2, 0.004)].map(|(k, r)| crash(k, 0.000_8, r)))
                .with_recovery(RecoveryPolicy { deadline, ..RecoveryPolicy::default() });
            for plan in [&scripted, &chaos, &tight, &whole] {
                check(plan, seed);
            }
        }
    }
}
