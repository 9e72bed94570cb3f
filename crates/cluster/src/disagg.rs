//! Disaggregated prefill/decode serving (DistServe/Splitwise-style).
//!
//! # Cost model
//!
//! Requests route (via the cluster's router) to a **prefill pool**
//! replica, which batches queued prompts FCFS — up to the replica
//! policy's [`max_concurrency`](cimtpu_serving::BatchPolicy::max_concurrency),
//! padded to the longest member — and prices the grouped prefill through
//! the replica's [`PhasePricer`]. The prompt's KV blocks are reserved in
//! the prefill replica's paged allocator for the whole residency:
//! ingestion *and* the outbound transfer (a prompt that does not fit
//! waits for earlier caches to finish migrating).
//!
//! When a prefill finishes (producing the request's first token — TTFT in
//! a disaggregated fleet is prefill completion, before any transfer), the
//! KV cache migrates to a **decode pool** replica chosen by the decode
//! router. The transfer moves whole paged blocks —
//! [`KvFootprint::handoff_bytes`] of the *unsharded* cache — over the
//! [`InterconnectSpec`]: each prefill replica owns one egress link, so
//! its transfers serialize (`start = max(prefill end, link free)`), and
//! every byte pays the link's bandwidth, hop latency, and pJ/byte energy.
//!
//! Decode admission is gated by the target replica's paged allocator:
//! the handed-off cache plus the request's worst-case decode growth
//! (`prompt + steps` tokens) must fit before the request joins the
//! decode batch, so the decode pool never preempts; arrivals that do not
//! fit wait in the replica's pending queue (charged to the queue-full
//! clock). Decode then proceeds continuous-batching style: one step per
//! round at the live batch size and the longest member context.
//!
//! # Faults
//!
//! One event loop serves every [`FaultPlan`]. An empty plan resolves to
//! no crash timeline and no link windows, keeps every decode replica up,
//! and leaves the report without an availability section. Two fault
//! kinds apply here:
//!
//! - **Decode-replica crashes.** Everything resident on or inbound to
//!   the replica is lost and its paged allocator is emptied; the replica
//!   is marked down, repaired, and warmed up before the decode router
//!   sees it again. Faults land on scheduling-round boundaries: a decode
//!   round that started before the crash completes atomically and its
//!   completions stand. Each lost request retries under the plan's
//!   [`RecoveryPolicy`](crate::fault::RecoveryPolicy): if the source
//!   prefill replica still holds the cache (its post-transfer release
//!   has not fired), the retry **re-hands-off** — a second transfer,
//!   always cheaper than recomputing the prefill *and* transferring —
//!   otherwise the request **recomputes** through the prefill pool.
//!   Prefill replicas cannot crash (a crash event indexes the decode
//!   pool), and stragglers are a colocated-fleet fault.
//! - **Degraded links.** While a window is open, a transfer started
//!   inside it pays `wire / bandwidth_factor` (hop latency unchanged)
//!   and `energy × energy_factor` — retransmission-style degradation.

use cimtpu_kv::{KvFootprint, PagedKvAllocator};
use cimtpu_obs::EventKind;
use cimtpu_multi::RingTopology;
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, Parallelism, PhasePricer, Request,
    ServingModel, TrafficSpec,
};
use cimtpu_units::{Bandwidth, Bytes, Error, Joules, Result, Seconds};

use crate::engine::{earliest, EventQueue, Tenancy};
use crate::fault::{FaultEvent, FaultPlan, RetryLedger};
use crate::observe::FleetObserver;
use crate::replica::{fleet_sessions, ReplicaSpec};
use crate::report::{ClusterReport, FleetTotals, KvTransferStats, ReplicaUtilization};
use crate::router::{FinishKey, HealthView, ReplicaHealth, ReplicaSnapshot, RouterPolicy};
use crate::ClusterRun;

/// The link KV caches migrate over between prefill and decode replicas:
/// bandwidth + per-transfer hop latency from the `cimtpu-multi` link
/// model, plus a serdes energy cost per byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectSpec {
    /// Link bandwidth.
    pub link_bandwidth: Bandwidth,
    /// Software/serialization latency per transfer.
    pub hop_latency: Seconds,
    /// Link energy per byte moved, in picojoules (serdes + switching;
    /// a few pJ/byte is typical of short-reach chip-to-chip links).
    pub energy_pj_per_byte: f64,
}

impl InterconnectSpec {
    /// An ICI-class link: 100 GB/s, 1 µs hop latency, 5 pJ/byte.
    pub fn ici() -> Self {
        InterconnectSpec {
            link_bandwidth: Bandwidth::from_gb_per_s(100.0),
            hop_latency: Seconds::from_micros(1.0),
            energy_pj_per_byte: 5.0,
        }
    }

    /// Derives the link parameters from a `cimtpu-multi` ring topology
    /// (one link's bandwidth, the ring's hop latency).
    pub fn from_ring(ring: &RingTopology, energy_pj_per_byte: f64) -> Self {
        InterconnectSpec {
            link_bandwidth: ring.link_bandwidth(),
            // One neighbour hop minus the pure wire time = the ring's
            // per-hop latency constant.
            hop_latency: ring.p2p_time(Bytes::ZERO),
            energy_pj_per_byte,
        }
    }

    /// Time to move `bytes` over the link.
    pub fn transfer_time(&self, bytes: Bytes) -> Seconds {
        self.link_bandwidth.transfer_time(bytes) + self.hop_latency
    }

    /// Energy to move `bytes` over the link.
    pub fn transfer_energy(&self, bytes: Bytes) -> Joules {
        Joules::new(bytes.get() as f64 * self.energy_pj_per_byte * 1e-12)
    }
}

/// One prefill-pool replica: an FCFS prompt-ingestion engine.
struct PrefillUnit<'a> {
    pricer: PhasePricer<'a>,
    alloc: PagedKvAllocator,
    cap: usize,
    free_at: Seconds,
    queue: std::collections::VecDeque<Request>,
    /// KV holdings awaiting their outbound transfer, sorted by release
    /// time (ties by request id — transfer scheduling order).
    pending_release: Vec<(Seconds, u64)>,
    /// When this replica's egress link frees.
    link_free: Seconds,
    busy: Seconds,
    energy: Joules,
    prefills: u64,
}

/// A finished prefill group: members (in admission order) whose caches
/// are ready to migrate at `end`; the batch occupied the executor from
/// `start` (the flight recorder's prefill span).
struct PrefillBatch {
    members: Vec<Request>,
    start: Seconds,
    end: Seconds,
}

impl<'a> PrefillUnit<'a> {
    /// When this unit can start its next prefill batch: the head of the
    /// queue has arrived, the executor is free, and — under a bounded KV
    /// budget — enough earlier caches have migrated out for the head
    /// prompt to fit.
    fn candidate(&self) -> Option<Seconds> {
        let head = self.queue.front()?;
        let base = self.free_at.max(head.arrival());
        let Some(_) = self.alloc.capacity_blocks() else { return Some(base) };
        let need = self.alloc.blocks_for(head.prompt_len);
        let mut free = self.alloc.free_blocks().unwrap_or(u64::MAX);
        let mut start = base;
        for &(t, id) in &self.pending_release {
            if free >= need {
                break;
            }
            free += self.alloc.held_blocks(id);
            start = start.max(t);
        }
        Some(start)
    }

    /// Releases holdings whose transfer finished by `now`.
    fn apply_releases(&mut self, now: Seconds) {
        let alloc = &mut self.alloc;
        self.pending_release.retain(|&(t, id)| {
            if t <= now {
                alloc.release(id);
                false
            } else {
                true
            }
        });
    }

    /// Runs one FCFS prefill batch at the candidate time.
    fn step(&mut self) -> Result<PrefillBatch> {
        // A missing candidate is a driver bug, but under injected faults
        // a typed error beats taking the whole simulator down.
        let start = self
            .candidate()
            .ok_or_else(|| Error::internal("prefill step with an empty queue"))?;
        if let Some(cap) = self.alloc.capacity_blocks() {
            let head = self
                .queue
                .front()
                .ok_or_else(|| Error::internal("prefill candidate with an empty queue"))?;
            if self.alloc.blocks_for(head.prompt_len) > cap {
                return Err(Error::invalid_config(format!(
                    "prefill KV budget too small: request {} needs {} blocks but capacity \
                     is {cap}",
                    head.id,
                    self.alloc.blocks_for(head.prompt_len),
                )));
            }
        }
        self.apply_releases(start);
        let mut members = Vec::new();
        while members.len() < self.cap {
            let Some(r) = self.queue.front() else { break };
            if r.arrival() > start || !self.alloc.try_grow(r.id, r.prompt_len) {
                break;
            }
            members.push(
                self.queue
                    .pop_front()
                    .ok_or_else(|| Error::internal("prefill queue emptied mid-batch"))?,
            );
        }
        let b = members.len() as u64;
        let padded = members
            .iter()
            .map(|r| r.prompt_len)
            .max()
            .ok_or_else(|| Error::internal("the candidate start admits the queue head"))?;
        let cost = self.pricer.prefill(b, padded)?;
        let end = start + cost.latency;
        self.busy += cost.latency;
        self.energy += cost.total_energy();
        self.prefills += b;
        self.free_at = end;
        Ok(PrefillBatch { members, start, end })
    }

    fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
        let mut class_outstanding = [0u64; 3];
        if classed {
            for r in &self.queue {
                class_outstanding[r.class.rank()] += 1;
            }
        }
        ReplicaSnapshot {
            index,
            outstanding: self.queue.len() as u64,
            queued: self.queue.len() as u64,
            kv_frac: kv_frac(&self.alloc),
            assigned,
            class_outstanding,
        }
    }
}

/// A request whose cache is migrating to (or queued at) a decode replica.
struct PendingDecode {
    req: Request,
    first_token: Seconds,
    ready: Seconds,
}

/// A request decoding on a decode replica.
struct DecodeSlot {
    req: Request,
    first_token: Seconds,
    done: u64,
}

/// One decode-pool replica: continuous-batching decode over handed-off
/// caches, admission gated by the paged allocator (worst-case
/// reservation, so the pool never preempts).
struct DecodeUnit<'a> {
    pricer: PhasePricer<'a>,
    alloc: PagedKvAllocator,
    cap: usize,
    t: Seconds,
    pending: Vec<PendingDecode>,
    active: Vec<DecodeSlot>,
    busy: Seconds,
    energy: Joules,
    queue_full: Seconds,
    completed: u64,
}

impl<'a> DecodeUnit<'a> {
    fn candidate(&self) -> Option<Seconds> {
        if !self.active.is_empty() {
            return Some(self.t);
        }
        self.pending
            .iter()
            .map(|p| p.ready)
            .min_by(|a, b| a.get().total_cmp(&b.get()))
            .map(|ready| self.t.max(ready))
    }

    /// One decode round: admit ready transfers (KV permitting), then one
    /// generation step for the whole batch.
    fn step(&mut self) -> Result<Vec<Completion>> {
        let start = self
            .candidate()
            .ok_or_else(|| Error::internal("decode step with nothing pending"))?;
        self.t = start;
        let round_start = self.t;
        let mut blocked = false;
        while self.active.len() < self.cap {
            // The ready transfer with the earliest arrival (ties by id).
            let Some(pos) = self
                .pending
                .iter()
                .enumerate()
                .filter(|(_, p)| p.ready <= self.t)
                .min_by(|a, b| {
                    a.1.ready
                        .get()
                        .total_cmp(&b.1.ready.get())
                        .then(a.1.req.id.cmp(&b.1.req.id))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            // Worst-case reservation: the handed-off prompt cache plus
            // every token the request will generate.
            let p = &self.pending[pos];
            if self.alloc.try_grow(p.req.id, p.req.prompt_len + p.req.steps) {
                let p = self.pending.remove(pos);
                self.active.push(DecodeSlot { req: p.req, first_token: p.first_token, done: 0 });
            } else {
                blocked = true;
                break;
            }
        }
        if self.active.is_empty() {
            debug_assert!(blocked, "the candidate time has a ready transfer");
            return Err(Error::invalid_config(format!(
                "decode KV budget too small: a request's worst case needs more than the {} \
                 block(s) of {} tokens available",
                self.alloc.capacity_blocks().unwrap_or(0),
                self.alloc.block_tokens(),
            )));
        }
        let b = self.active.len() as u64;
        let ctx = self
            .active
            .iter()
            .map(|s| s.req.prompt_len + s.done)
            .max()
            .ok_or_else(|| Error::internal("decode round with an empty batch"))?
            + 1;
        let cost = self.pricer.step(b, ctx)?;
        self.t += cost.latency;
        self.busy += cost.latency;
        self.energy += cost.total_energy();
        let now = self.t;
        for slot in &mut self.active {
            slot.done += 1;
        }
        let mut finished = Vec::new();
        let alloc = &mut self.alloc;
        self.active.retain(|slot| {
            if slot.done >= slot.req.steps {
                alloc.release(slot.req.id);
                finished.push(Completion {
                    id: slot.req.id,
                    arrival: slot.req.arrival(),
                    first_token: slot.first_token,
                    finish: now,
                    steps: slot.req.steps,
                });
                false
            } else {
                true
            }
        });
        self.completed += finished.len() as u64;
        if blocked {
            self.queue_full += self.t - round_start;
        }
        Ok(finished)
    }

    fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
        let mut class_outstanding = [0u64; 3];
        if classed {
            for p in &self.pending {
                class_outstanding[p.req.class.rank()] += 1;
            }
            for s in &self.active {
                class_outstanding[s.req.class.rank()] += 1;
            }
        }
        ReplicaSnapshot {
            index,
            outstanding: (self.pending.len() + self.active.len()) as u64,
            queued: self.pending.len() as u64,
            kv_frac: kv_frac(&self.alloc),
            assigned,
            class_outstanding,
        }
    }
}

fn kv_frac(alloc: &PagedKvAllocator) -> f64 {
    match alloc.capacity_blocks() {
        Some(c) if c > 0 => alloc.used_blocks() as f64 / c as f64,
        _ => 0.0,
    }
}

/// Checks a pool replica is usable in a disaggregated fleet and returns
/// its transformer config.
fn validate_pool_replica<'a>(
    spec: &'a ReplicaSpec,
    role: &str,
) -> Result<&'a cimtpu_models::TransformerConfig> {
    let ServingModel::Llm(model) = &spec.model else {
        return Err(Error::invalid_config(format!(
            "disaggregated serving needs an LLM (a prefill phase); {role} replica '{}' \
             hosts a DiT",
            spec.name
        )));
    };
    if spec.memory.chunk_tokens.is_some() {
        return Err(Error::invalid_config(format!(
            "chunked prefill is not supported in disaggregated pools ({role} replica '{}')",
            spec.name
        )));
    }
    if spec.memory.prefix_sharing {
        return Err(Error::invalid_config(format!(
            "prefix sharing is not supported in disaggregated pools ({role} replica '{}'); \
             use a colocated fleet with RouterPolicy::PrefixAffinity",
            spec.name
        )));
    }
    if matches!(spec.parallelism, Parallelism::Replicated { chips } if chips != 1) {
        return Err(Error::invalid_config(format!(
            "{role} replica '{}' uses {} replicated chips: give the pool more replicas \
             instead (tensor-parallel rings are fine)",
            spec.name,
            spec.chips()
        )));
    }
    Ok(model)
}

/// A request waiting to re-enter the disaggregated pipeline after a
/// decode crash (or parked because the whole decode pool is down).
struct DisaggRetry {
    /// When the retry fires.
    fire: Seconds,
    request: Request,
    /// Retries already charged against the request's budget.
    attempts: u32,
    /// Prefill unit still holding the cache (re-handoff), or `None` to
    /// recompute the prompt from scratch.
    source: Option<usize>,
    /// The TTFT the original prefill produced; a re-handoff keeps it.
    first_token: Option<Seconds>,
}

/// The disaggregated event loop. An empty `plan` resolves to no crashes
/// and no link windows, so every decode replica stays up, nothing
/// retries, and the report carries no availability section. `O` observes
/// the run over slots prefill ++ decode, the index space of `unit_heap`.
#[allow(clippy::too_many_arguments)] // one call site, from the engine dispatch
pub(crate) fn run_disaggregated<O: FleetObserver>(
    prefill: &[ReplicaSpec],
    decode: &[ReplicaSpec],
    router: RouterPolicy,
    decode_router: RouterPolicy,
    interconnect: InterconnectSpec,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
    mut tenancy: Option<Tenancy<'_>>,
    sink: &O::Sink,
) -> Result<ClusterRun> {
    // The pools run FCFS/continuous-batching queues, not `EngineCore`, so
    // a multi-tenant run keeps tenant identity at the traffic and report
    // level: classed router snapshots, tagged trace events, and the
    // per-tenant ledger — no WFQ inside the pools.
    let classed = tenancy.as_ref().is_some_and(Tenancy::multi);
    // Crash events index the DECODE pool; prefill replicas are the
    // stateless front of the pipeline here and cannot crash.
    let mut crash_timeline: Vec<(Seconds, usize, Seconds)> = Vec::new();
    let mut windows: Vec<(Seconds, Seconds, f64, f64)> = Vec::new();
    for event in plan.resolve(decode.len())? {
        match event {
            FaultEvent::Crash { at, replica, repair } => crash_timeline.push((at, replica, repair)),
            FaultEvent::DegradedLink { from, until, bandwidth_factor, energy_factor } => {
                windows.push((from, until, bandwidth_factor, energy_factor));
            }
            FaultEvent::Straggler { .. } => {
                return Err(Error::invalid_config(
                    "straggler faults apply to colocated replicas; disaggregated pools price \
                     whole phases — degrade the link instead",
                ));
            }
        }
    }
    crash_timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
    let mut next_crash = 0usize;

    let reference = validate_pool_replica(&prefill[0], "prefill")?.clone();
    let pool_members = prefill
        .iter()
        .map(|s| (s, "prefill"))
        .chain(decode.iter().map(|s| (s, "decode")));
    for (spec, role) in pool_members {
        let model = validate_pool_replica(spec, role)?;
        if *model != reference {
            return Err(Error::invalid_config(format!(
                "disaggregated pools must host one common model: '{}' hosts {}, \
                 expected {}",
                spec.name,
                model.name(),
                reference.name()
            )));
        }
    }
    // The cache that crosses the wire is the full (unsharded) footprint,
    // whatever the pool sharding.
    let full_fp = KvFootprint::of(&reference);

    let slots: Vec<ReplicaSpec> = prefill.iter().chain(decode).cloned().collect();
    let obs = O::open(sink, &slots, true, None);
    let (pricing, mut p_sessions) = fleet_sessions(&slots)?;
    let d_sessions = p_sessions.split_off(prefill.len());
    let mut punits: Vec<PrefillUnit<'_>> = p_sessions
        .iter()
        .zip(prefill)
        .map(|(s, spec)| {
            Ok(PrefillUnit {
                pricer: s.pricer(),
                alloc: s.allocator()?,
                cap: spec.policy.max_concurrency() as usize,
                free_at: Seconds::ZERO,
                queue: std::collections::VecDeque::new(),
                pending_release: Vec::new(),
                link_free: Seconds::ZERO,
                busy: Seconds::ZERO,
                energy: Joules::ZERO,
                prefills: 0,
            })
        })
        .collect::<Result<_>>()?;
    let mut dunits: Vec<DecodeUnit<'_>> = d_sessions
        .iter()
        .zip(decode)
        .map(|(s, spec)| {
            Ok(DecodeUnit {
                pricer: s.pricer(),
                alloc: s.allocator()?,
                cap: spec.policy.max_concurrency() as usize,
                t: Seconds::ZERO,
                pending: Vec::new(),
                active: Vec::new(),
                busy: Seconds::ZERO,
                energy: Joules::ZERO,
                queue_full: Seconds::ZERO,
                completed: 0,
            })
        })
        .collect::<Result<_>>()?;

    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut arouter = router.build();
    let mut drouter = decode_router.build();
    let mut p_assigned = vec![0u64; prefill.len()];
    let mut d_assigned = vec![0u64; decode.len()];
    let mut transfers = KvTransferStats::default();
    let mut completions: Vec<Completion> = Vec::new();
    let mut dhealth = HealthView::all_up(decode.len());
    // Retries fire in (fire, id) order, ties in push order.
    let mut waiting =
        EventQueue::new(|w: &DisaggRetry| (FinishKey(w.fire.get()), w.request.id));
    let mut ledger = RetryLedger::new(*plan.recovery(), &obs);
    // Router-view scratch, reused across events instead of collected anew.
    let mut psnaps: Vec<ReplicaSnapshot> = Vec::with_capacity(punits.len());
    let mut dsnaps: Vec<ReplicaSnapshot> = Vec::with_capacity(dunits.len());
    let mut up: Vec<usize> = Vec::with_capacity(dunits.len());

    // Transfer cost at `t_start`, with every open degraded-link window
    // applied: wire time divided by the bandwidth factor (the hop stands),
    // energy multiplied by the energy factor.
    let priced_transfer = |t_start: Seconds, bytes: Bytes| -> (Seconds, Joules) {
        let base = interconnect.transfer_time(bytes);
        let mut bw = 1.0;
        let mut en = 1.0;
        for &(from, until, b, e) in &windows {
            if t_start >= from && t_start < until {
                bw *= b;
                en *= e;
            }
        }
        let duration = if bw == 1.0 {
            base
        } else {
            interconnect.hop_latency
                + Seconds::new((base - interconnect.hop_latency).get() / bw)
        };
        (duration, Joules::new(interconnect.transfer_energy(bytes).get() * en))
    };

    // One event queue spans both pools (prefill `i` → slot `i`, decode
    // `j` → slot `pn + j`): its (time, lowest-slot) order reproduces the
    // old scan's prefill → decode, lowest-index tie-break; the fault /
    // arrival / retry classes go before it on a tie.
    let pn = punits.len();
    let mut unit_heap = ActionHeap::new(pn + dunits.len());
    for (i, u) in punits.iter().enumerate() {
        unit_heap.set(i, u.candidate());
    }
    for (j, u) in dunits.iter().enumerate() {
        unit_heap.set(pn + j, u.candidate());
    }

    loop {
        // The run is over when nothing can produce or receive work;
        // trailing fault events on an idle fleet are dropped.
        let unit_at = unit_heap.peek();
        if stream.exhausted() && waiting.peek().is_none() && unit_at.is_none() {
            break;
        }

        // Earliest event wins; ties resolve fault → arrival → retry →
        // unit, and the units by lowest slot (prefill before decode).
        let scripted = (next_crash < crash_timeline.len()).then(|| crash_timeline[next_crash].0);
        let fault_at = match (scripted, dhealth.next_transition()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let Some((now, class)) = earliest([
            (fault_at, 0),
            (stream.peek(), 1),
            (waiting.peek().map(|w| w.fire), 2),
            (unit_at.map(|(_, t)| t), 3),
        ]) else {
            if stream.exhausted() {
                break;
            }
            return Err(Error::invalid_config(
                "disaggregated driver stalled: requests pending but no unit can act",
            ));
        };
        // A unit event is a prefill batch (slot `< pn`) or a decode round,
        // on unit `idx` of its pool.
        let (class, idx) = match unit_at {
            Some((slot, _)) if class == 3 && slot < pn => (3, slot),
            Some((slot, _)) if class == 3 => (4, slot - pn),
            _ => (class, 0),
        };
        match class {
            // Faults: restores first, then crashes due now.
            0 => {
                let warmup = plan.recovery().warmup;
                for (k, left) in dhealth.advance(now, warmup, warmup) {
                    if let ReplicaHealth::Down { .. } = left {
                        obs.instant(pn + k, EventKind::Repair, now);
                    }
                }
                ledger.on_health(&dhealth, now);
                while next_crash < crash_timeline.len() && crash_timeline[next_crash].0 <= now {
                    let (_, replica, repair) = crash_timeline[next_crash];
                    next_crash += 1;
                    if matches!(dhealth.state(replica), ReplicaHealth::Down { .. }) {
                        continue; // already down: nothing left to kill
                    }
                    // Everything resident on or inbound to the replica is
                    // lost; the allocator empties (high-water survives).
                    let mut lost: Vec<(Request, Seconds)> = Vec::new();
                    for p in dunits[replica].pending.drain(..) {
                        lost.push((p.req, p.first_token));
                    }
                    for s in dunits[replica].active.drain(..) {
                        lost.push((s.req, s.first_token));
                    }
                    dunits[replica].alloc.release_all();
                    dhealth.set(replica, ReplicaHealth::Down { until: now + repair });
                    ledger.on_crash(replica, now, false);
                    obs.instant(pn + replica, EventKind::Crash, now);
                    for (r, ft) in lost {
                        // Where is the cache now? If the source prefill
                        // replica has not released the blocks yet, pin
                        // them and re-handoff (transfer-only — always
                        // cheaper than recompute + transfer); otherwise
                        // the prompt recomputes through the prefill pool.
                        let mut source = None;
                        for (pi, pu) in punits.iter_mut().enumerate() {
                            if let Some(pos) = pu
                                .pending_release
                                .iter()
                                .position(|&(t, id)| id == r.id && t > now)
                            {
                                pu.pending_release.remove(pos);
                                source = Some(pi);
                                break;
                            }
                        }
                        match ledger.on_lost(&r, now, &mut stream, &mut tenancy) {
                            Some((fire, attempts)) => waiting.push(DisaggRetry {
                                fire,
                                request: r,
                                attempts,
                                source,
                                first_token: source.is_some().then_some(ft),
                            }),
                            None => {
                                if let Some(p) = source {
                                    punits[p].alloc.release(r.id);
                                }
                            }
                        }
                    }
                }
                // A crash empties a decode unit and can unpin caches on
                // any prefill unit (releases change their admission
                // starts): refresh every slot. Fault events are rare, so
                // the `O(fleet)` refresh is off the hot path.
                for (i, u) in punits.iter().enumerate() {
                    unit_heap.set(i, u.candidate());
                }
                for (j, u) in dunits.iter().enumerate() {
                    unit_heap.set(pn + j, u.candidate());
                }
            }
            // Arrival: routes across the (always-healthy) prefill pool.
            1 => {
                let request = stream.pop();
                psnaps.clear();
                psnaps.extend(
                    punits.iter().enumerate().map(|(i, u)| u.snapshot(i, p_assigned[i], classed)),
                );
                let k = arouter.route(&request, &psnaps).min(punits.len() - 1);
                p_assigned[k] += 1;
                obs.arrival(Some(k), &request, &tenancy);
                punits[k].queue.push_back(request);
                let u = &punits[k];
                obs.sample(k, request.arrival(), u.queue.len() as f64, kv_frac(&u.alloc));
                unit_heap.set(k, punits[k].candidate());
            }
            // Retry fire: re-handoff, recompute, or repark.
            2 => {
                let item =
                    waiting.pop().ok_or_else(|| Error::internal("class 2 implies a retry"))?;
                let r = item.request;
                if ledger.expired(&r, now, &mut stream, &mut tenancy) {
                    if let Some(p) = item.source {
                        punits[p].alloc.release(r.id);
                        unit_heap.set(p, punits[p].candidate());
                    }
                    continue;
                }
                match item.source {
                    Some(p) => {
                        let snap = |k: usize| dunits[k].snapshot(k, d_assigned[k], classed);
                        dhealth.routable(0..dunits.len(), snap, &mut up, &mut dsnaps);
                        if up.is_empty() {
                            // Whole decode pool down: park until the next
                            // repair finishes.
                            let fire = ledger.park(&dhealth, r.id, now, &tenancy)?;
                            waiting.push(DisaggRetry { fire, ..item });
                            continue;
                        }
                        let k = up[drouter.route(&r, &dsnaps).min(up.len() - 1)];
                        d_assigned[k] += 1;
                        ledger.on_placed(item.attempts);
                        let bytes =
                            full_fp.handoff_bytes(r.prompt_len, punits[p].alloc.block_tokens());
                        let t_start = now.max(punits[p].link_free);
                        let (duration, energy) = priced_transfer(t_start, bytes);
                        let t_end = t_start + duration;
                        punits[p].link_free = t_end;
                        // The source cache is held until the re-transfer
                        // lands, then released as usual.
                        punits[p].pending_release.push((t_end, r.id));
                        punits[p].pending_release.sort_by(|a, b| {
                            a.0.get().total_cmp(&b.0.get()).then(a.1.cmp(&b.1))
                        });
                        transfers.record(bytes.get(), duration, energy);
                        obs.span(p, EventKind::KvHandoff, r.id, t_start, t_end);
                        dunits[k].pending.push(PendingDecode {
                            req: r,
                            first_token: item.first_token.unwrap_or(t_end),
                            ready: t_end,
                        });
                        unit_heap.set(p, punits[p].candidate());
                        unit_heap.set(pn + k, dunits[k].candidate());
                    }
                    None => {
                        // Recompute: the cache is gone — back through the
                        // prefill pool; admission restarts at the fire
                        // time, TTFT is re-earned.
                        psnaps.clear();
                        psnaps.extend(
                            punits
                                .iter()
                                .enumerate()
                                .map(|(i, u)| u.snapshot(i, p_assigned[i], classed)),
                        );
                        let mut rr = r;
                        rr.arrival_s = now.get();
                        ledger.readmit(&r, rr.arrival_s);
                        let k = arouter.route(&rr, &psnaps).min(punits.len() - 1);
                        p_assigned[k] += 1;
                        ledger.on_placed(item.attempts);
                        punits[k].queue.push_back(rr);
                        unit_heap.set(k, punits[k].candidate());
                    }
                }
            }
            // Prefill batch: route each member's handoff, serialize it on
            // this replica's egress link, and gate the decode admission on
            // the target's allocator (via its pending queue) — or park the
            // member if the whole decode pool is down.
            3 => {
                let batch = punits[idx].step()?;
                for req in batch.members {
                    obs.span(idx, EventKind::Prefill, req.id, batch.start, batch.end);
                    let snap = |k: usize| dunits[k].snapshot(k, d_assigned[k], classed);
                    dhealth.routable(0..dunits.len(), snap, &mut up, &mut dsnaps);
                    if up.is_empty() {
                        // The cache stays resident at the source (no
                        // release is scheduled until a transfer is).
                        waiting.push(DisaggRetry {
                            fire: ledger.park(&dhealth, req.id, now, &tenancy)?,
                            request: req,
                            attempts: ledger.attempts(req.id),
                            source: Some(idx),
                            first_token: Some(batch.end),
                        });
                        continue;
                    }
                    let k = up[drouter.route(&req, &dsnaps).min(up.len() - 1)];
                    d_assigned[k] += 1;
                    let bytes =
                        full_fp.handoff_bytes(req.prompt_len, punits[idx].alloc.block_tokens());
                    let t_start = batch.end.max(punits[idx].link_free);
                    let (duration, energy) = priced_transfer(t_start, bytes);
                    let t_end = t_start + duration;
                    punits[idx].link_free = t_end;
                    punits[idx].pending_release.push((t_end, req.id));
                    transfers.record(bytes.get(), duration, energy);
                    obs.span(idx, EventKind::KvHandoff, req.id, t_start, t_end);
                    dunits[k].pending.push(PendingDecode {
                        req,
                        first_token: batch.end,
                        ready: t_end,
                    });
                    unit_heap.set(pn + k, dunits[k].candidate());
                }
                let u = &punits[idx];
                obs.sample(idx, batch.end, u.queue.len() as f64, kv_frac(&u.alloc));
                unit_heap.set(idx, punits[idx].candidate());
            }
            // Decode round (atomic: a crash never lands mid-round).
            _ => {
                let mut finished = dunits[idx].step()?;
                unit_heap.set(pn + idx, dunits[idx].candidate());
                for c in &mut finished {
                    // Recomputed requests were re-admitted at their retry
                    // fire time; latency counts from the original arrival.
                    ledger.on_complete(idx, c);
                    stream.on_complete(c);
                }
                for c in &finished {
                    obs.delivered(pn + idx, c, &tenancy);
                }
                let u = &dunits[idx];
                let queued = (u.pending.len() + u.active.len()) as f64;
                obs.sample(pn + idx, u.t, queued, kv_frac(&u.alloc));
                completions.extend(finished);
            }
        }
    }

    completions.sort_by_key(|c| c.id);
    let avail = ledger.finish(&completions, offered, prefill.len() + decode.len());
    let mut rows = Vec::with_capacity(prefill.len() + decode.len());
    let mut chip_energy = Joules::ZERO;
    let mut queue_full_s = 0.0;
    for (spec, unit) in prefill.iter().zip(&punits) {
        chip_energy += unit.energy;
        rows.push(ReplicaUtilization {
            name: spec.name.clone(),
            model: spec.model.name().to_owned(),
            role: "prefill".to_owned(),
            chips: spec.chips(),
            requests: unit.prefills,
            busy_s: unit.busy.get(),
            utilization: 0.0,
            energy_j: unit.energy.get(),
            kv_hwm_frac: unit.alloc.high_water_frac(),
        });
    }
    for (spec, unit) in decode.iter().zip(&dunits) {
        chip_energy += unit.energy;
        queue_full_s += unit.queue_full.get();
        rows.push(ReplicaUtilization {
            name: spec.name.clone(),
            model: spec.model.name().to_owned(),
            role: "decode".to_owned(),
            chips: spec.chips(),
            requests: unit.completed,
            busy_s: unit.busy.get(),
            utilization: 0.0,
            energy_j: unit.energy.get(),
            kv_hwm_frac: unit.alloc.high_water_frac(),
        });
    }
    let mut report = ClusterReport::build(
        label,
        "disaggregated",
        format!("{}\u{2192}{}", router.name(), decode_router.name()),
        offered,
        &completions,
        // No preemptions: worst-case decode reservation never preempts.
        &FleetTotals { chip_energy, queue_full_s, transfers, ..FleetTotals::default() },
        rows,
        slo_ms,
        (!plan.is_empty()).then_some(avail),
    );
    if let Some(t) = tenancy {
        report.tenants = Some(t.ledger.report(&completions, report.makespan_s));
    }
    pricing.persist_caches();
    Ok(ClusterRun {
        report,
        replica_reports: Vec::new(),
        completions,
        prefix: cimtpu_serving::PrefixStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{ArrivalPattern, BatchPolicy, EngineSession, LenDist, PrefixTraffic};
    use proptest::prelude::*;

    use rustc_hash::FxHashMap;

    use super::*;
    use crate::fault::{release_client, AvailabilityStats, ChaosSpec, CrashRecord};

    #[test]
    fn interconnect_prices_time_and_energy() {
        let link = InterconnectSpec::ici();
        let mib = Bytes::from_mib(1);
        // 1 MiB at 100 GB/s + 1 µs hop.
        let expected = 1024.0 * 1024.0 / 100e9 + 1e-6;
        assert!((link.transfer_time(mib).get() - expected).abs() < 1e-15);
        // 5 pJ/byte.
        let ej = link.transfer_energy(mib).get();
        assert!((ej - 1024.0 * 1024.0 * 5e-12).abs() < 1e-18);
        // Zero bytes still pay the hop, but no energy.
        assert_eq!(link.transfer_time(Bytes::ZERO), Seconds::from_micros(1.0));
        assert_eq!(link.transfer_energy(Bytes::ZERO), Joules::ZERO);
    }

    #[test]
    fn interconnect_from_ring_matches_link_parameters() {
        let ring = RingTopology::new(4, 2, Bandwidth::from_gb_per_s(100.0)).unwrap();
        let link = InterconnectSpec::from_ring(&ring, 5.0);
        assert_eq!(link.link_bandwidth, ring.link_bandwidth());
        // A transfer over this spec equals the ring's neighbour p2p time.
        let bytes = Bytes::from_mib(8);
        assert_eq!(link.transfer_time(bytes), ring.p2p_time(bytes));
    }

    // ------------------------------------------------------------------
    // Scan oracles: the pre-heap pipeline drivers, kept verbatim so
    // proptests can pin the heap-scheduled driver bit-for-bit against
    // them.
    // ------------------------------------------------------------------

    /// The zero-fault pipeline as it was before the [`ActionHeap`] port:
    /// a full scan over every unit's candidate per event, with fresh
    /// snapshot collects per routing decision.
    #[allow(clippy::too_many_arguments)] // mirrors the driver it pins
    fn run_disaggregated_plain_oracle(
        prefill: &[ReplicaSpec],
        decode: &[ReplicaSpec],
        router: RouterPolicy,
        decode_router: RouterPolicy,
        interconnect: InterconnectSpec,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
    ) -> Result<ClusterRun> {
        let reference = validate_pool_replica(&prefill[0], "prefill")?.clone();
        let pool_members = prefill
            .iter()
            .map(|s| (s, "prefill"))
            .chain(decode.iter().map(|s| (s, "decode")));
        for (spec, role) in pool_members {
            let model = validate_pool_replica(spec, role)?;
            if *model != reference {
                return Err(Error::invalid_config(format!(
                    "disaggregated pools must host one common model: '{}' hosts {}, \
                     expected {}",
                    spec.name,
                    model.name(),
                    reference.name()
                )));
            }
        }
        // The cache that crosses the wire is the full (unsharded) footprint,
        // whatever the pool sharding.
        let full_fp = KvFootprint::of(&reference);

        let p_sessions: Vec<EngineSession> = prefill
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let d_sessions: Vec<EngineSession> = decode
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let mut punits: Vec<PrefillUnit<'_>> = p_sessions
            .iter()
            .zip(prefill)
            .map(|(s, spec)| {
                Ok(PrefillUnit {
                    pricer: s.pricer(),
                    alloc: s.allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    free_at: Seconds::ZERO,
                    queue: std::collections::VecDeque::new(),
                    pending_release: Vec::new(),
                    link_free: Seconds::ZERO,
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    prefills: 0,
                })
            })
            .collect::<Result<_>>()?;
        let mut dunits: Vec<DecodeUnit<'_>> = d_sessions
            .iter()
            .zip(decode)
            .map(|(s, spec)| {
                Ok(DecodeUnit {
                    pricer: s.pricer(),
                    alloc: s.allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    t: Seconds::ZERO,
                    pending: Vec::new(),
                    active: Vec::new(),
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    queue_full: Seconds::ZERO,
                    completed: 0,
                })
            })
            .collect::<Result<_>>()?;

        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut arouter = router.build();
        let mut drouter = decode_router.build();
        let mut p_assigned = vec![0u64; prefill.len()];
        let mut d_assigned = vec![0u64; decode.len()];
        let mut transfers = KvTransferStats::default();
        let mut completions: Vec<Completion> = Vec::new();

        loop {
            // The earliest event wins; ties go arrival → prefill → decode,
            // then lowest index — a fixed order, so runs replay exactly.
            let mut best: Option<(Seconds, u8, usize)> = None;
            let mut offer = |t: Seconds, class: u8, idx: usize| {
                if best.is_none_or(|(bt, bc, bi)| {
                    t < bt || (t == bt && (class, idx) < (bc, bi))
                }) {
                    best = Some((t, class, idx));
                }
            };
            if let Some(ta) = stream.peek() {
                offer(ta, 0, 0);
            }
            for (i, u) in punits.iter().enumerate() {
                if let Some(t) = u.candidate() {
                    offer(t, 1, i);
                }
            }
            for (i, u) in dunits.iter().enumerate() {
                if let Some(t) = u.candidate() {
                    offer(t, 2, i);
                }
            }
            let Some((_, class, idx)) = best else {
                if stream.exhausted() {
                    break;
                }
                return Err(Error::invalid_config(
                    "disaggregated driver stalled: requests pending but no unit can act",
                ));
            };
            match class {
                0 => {
                    let request = stream.pop();
                    let snaps: Vec<ReplicaSnapshot> = punits
                        .iter()
                        .enumerate()
                        .map(|(i, u)| u.snapshot(i, p_assigned[i], false))
                        .collect();
                    let k = arouter.route(&request, &snaps).min(punits.len() - 1);
                    p_assigned[k] += 1;
                    punits[k].queue.push_back(request);
                }
                1 => {
                    let batch = punits[idx].step()?;
                    for req in batch.members {
                        // Route the handoff, serialize it on this replica's
                        // egress link, and gate the decode admission on the
                        // target's allocator (via its pending queue).
                        let snaps: Vec<ReplicaSnapshot> = dunits
                            .iter()
                            .enumerate()
                            .map(|(i, u)| u.snapshot(i, d_assigned[i], false))
                            .collect();
                        let k = drouter.route(&req, &snaps).min(dunits.len() - 1);
                        d_assigned[k] += 1;
                        let bytes =
                            full_fp.handoff_bytes(req.prompt_len, punits[idx].alloc.block_tokens());
                        let duration = interconnect.transfer_time(bytes);
                        let t_start = batch.end.max(punits[idx].link_free);
                        let t_end = t_start + duration;
                        punits[idx].link_free = t_end;
                        punits[idx].pending_release.push((t_end, req.id));
                        transfers.record(bytes.get(), duration, interconnect.transfer_energy(bytes));
                        dunits[k].pending.push(PendingDecode {
                            req,
                            first_token: batch.end,
                            ready: t_end,
                        });
                    }
                }
                _ => {
                    let finished = dunits[idx].step()?;
                    for c in &finished {
                        stream.on_complete(c);
                    }
                    completions.extend(finished);
                }
            }
        }

        completions.sort_by_key(|c| c.id);
        let mut rows = Vec::with_capacity(prefill.len() + decode.len());
        let mut chip_energy = Joules::ZERO;
        let mut queue_full_s = 0.0;
        for (spec, unit) in prefill.iter().zip(&punits) {
            chip_energy += unit.energy;
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "prefill".to_owned(),
                chips: spec.chips(),
                requests: unit.prefills,
                busy_s: unit.busy.get(),
                utilization: 0.0,
                energy_j: unit.energy.get(),
                kv_hwm_frac: unit.alloc.high_water_frac(),
            });
        }
        for (spec, unit) in decode.iter().zip(&dunits) {
            chip_energy += unit.energy;
            queue_full_s += unit.queue_full.get();
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "decode".to_owned(),
                chips: spec.chips(),
                requests: unit.completed,
                busy_s: unit.busy.get(),
                utilization: 0.0,
                energy_j: unit.energy.get(),
                kv_hwm_frac: unit.alloc.high_water_frac(),
            });
        }
        let report = ClusterReport::build(
            label,
            "disaggregated",
            format!("{}\u{2192}{}", router.name(), decode_router.name()),
            offered,
            &completions,
            &FleetTotals { chip_energy, queue_full_s, transfers, ..FleetTotals::default() },
            rows,
            slo_ms,
            None,
        );
        for session in p_sessions.iter().chain(&d_sessions) {
            session.persist_cache();
        }
        Ok(ClusterRun {
            report,
            replica_reports: Vec::new(),
            completions,
            prefix: cimtpu_serving::PrefixStats::default(),
        })
    }

    /// The failure-aware pipeline as it was before the [`ActionHeap`]
    /// port, scan loop and all.
    #[allow(clippy::too_many_arguments)] // mirrors the driver it pins
    #[allow(clippy::too_many_lines)] // verbatim copy of the old driver
    fn run_disaggregated_faulty_oracle(
        prefill: &[ReplicaSpec],
        decode: &[ReplicaSpec],
        router: RouterPolicy,
        decode_router: RouterPolicy,
        interconnect: InterconnectSpec,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
        plan: &FaultPlan,
    ) -> Result<ClusterRun> {
        let recovery = *plan.recovery();
        // Crash events index the DECODE pool; prefill replicas are the
        // stateless front of the pipeline here and cannot crash.
        let mut crash_timeline: Vec<(Seconds, usize, Seconds)> = Vec::new();
        let mut windows: Vec<(Seconds, Seconds, f64, f64)> = Vec::new();
        for event in plan.resolve(decode.len())? {
            match event {
                FaultEvent::Crash { at, replica, repair } => crash_timeline.push((at, replica, repair)),
                FaultEvent::DegradedLink { from, until, bandwidth_factor, energy_factor } => {
                    windows.push((from, until, bandwidth_factor, energy_factor));
                }
                FaultEvent::Straggler { .. } => {
                    return Err(Error::invalid_config(
                        "straggler faults apply to colocated replicas; disaggregated pools price \
                         whole phases — degrade the link instead",
                    ));
                }
            }
        }
        crash_timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
        let mut next_crash = 0usize;

        let reference = validate_pool_replica(&prefill[0], "prefill")?.clone();
        let pool_members = prefill
            .iter()
            .map(|s| (s, "prefill"))
            .chain(decode.iter().map(|s| (s, "decode")));
        for (spec, role) in pool_members {
            let model = validate_pool_replica(spec, role)?;
            if *model != reference {
                return Err(Error::invalid_config(format!(
                    "disaggregated pools must host one common model: '{}' hosts {}, \
                     expected {}",
                    spec.name,
                    model.name(),
                    reference.name()
                )));
            }
        }
        let full_fp = KvFootprint::of(&reference);

        let p_sessions: Vec<EngineSession> = prefill
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let d_sessions: Vec<EngineSession> = decode
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let mut punits: Vec<PrefillUnit<'_>> = p_sessions
            .iter()
            .zip(prefill)
            .map(|(s, spec)| {
                Ok(PrefillUnit {
                    pricer: s.pricer(),
                    alloc: s.allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    free_at: Seconds::ZERO,
                    queue: std::collections::VecDeque::new(),
                    pending_release: Vec::new(),
                    link_free: Seconds::ZERO,
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    prefills: 0,
                })
            })
            .collect::<Result<_>>()?;
        let mut dunits: Vec<DecodeUnit<'_>> = d_sessions
            .iter()
            .zip(decode)
            .map(|(s, spec)| {
                Ok(DecodeUnit {
                    pricer: s.pricer(),
                    alloc: s.allocator()?,
                    cap: spec.policy.max_concurrency() as usize,
                    t: Seconds::ZERO,
                    pending: Vec::new(),
                    active: Vec::new(),
                    busy: Seconds::ZERO,
                    energy: Joules::ZERO,
                    queue_full: Seconds::ZERO,
                    completed: 0,
                })
            })
            .collect::<Result<_>>()?;

        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut arouter = router.build();
        let mut drouter = decode_router.build();
        let mut p_assigned = vec![0u64; prefill.len()];
        let mut d_assigned = vec![0u64; decode.len()];
        let mut transfers = KvTransferStats::default();
        let mut completions: Vec<Completion> = Vec::new();
        let mut dhealth = HealthView::all_up(decode.len());
        let mut waiting: Vec<DisaggRetry> = Vec::new();
        let mut origin: FxHashMap<u64, f64> = FxHashMap::default();
        let mut attempts_of: FxHashMap<u64, u32> = FxHashMap::default();
        let mut avail = AvailabilityStats::zero();
        let mut crash_log: Vec<CrashRecord> = Vec::new();

        // Transfer cost at `t_start`, with every open degraded-link window
        // applied: wire time divided by the bandwidth factor (the hop stands),
        // energy multiplied by the energy factor.
        let priced_transfer = |t_start: Seconds, bytes: Bytes| -> (Seconds, Joules) {
            let base = interconnect.transfer_time(bytes);
            let mut bw = 1.0;
            let mut en = 1.0;
            for &(from, until, b, e) in &windows {
                if t_start >= from && t_start < until {
                    bw *= b;
                    en *= e;
                }
            }
            let duration = if bw == 1.0 {
                base
            } else {
                interconnect.hop_latency
                    + Seconds::new((base - interconnect.hop_latency).get() / bw)
            };
            (duration, Joules::new(interconnect.transfer_energy(bytes).get() * en))
        };

        // Hands one finished-prefill request off to a decode replica (a fresh
        // handoff or a re-handoff): serializes on the source's egress link,
        // holds the source cache until the transfer ends, and enqueues on the
        // routed target. Returns the ready time.
        // (Written as a macro-free block at both call sites below: the borrow
        // sets differ.)

        loop {
            // The run is over when nothing can produce or receive work;
            // trailing fault events on an idle fleet are dropped.
            let punit_candidates: Vec<Option<Seconds>> =
                punits.iter().map(PrefillUnit::candidate).collect();
            let dunit_candidates: Vec<Option<Seconds>> =
                dunits.iter().map(DecodeUnit::candidate).collect();
            let any_unit = punit_candidates.iter().chain(&dunit_candidates).any(Option::is_some);
            if stream.exhausted() && waiting.is_empty() && !any_unit {
                break;
            }

            // Earliest event wins; ties resolve fault → arrival → retry →
            // prefill → decode, then lowest index.
            let mut best: Option<(Seconds, u8, usize)> = None;
            let mut offer = |t: Seconds, class: u8, idx: usize| {
                if best.is_none_or(|(bt, bc, bi)| t < bt || (t == bt && (class, idx) < (bc, bi))) {
                    best = Some((t, class, idx));
                }
            };
            let scripted = (next_crash < crash_timeline.len()).then(|| crash_timeline[next_crash].0);
            match (scripted, dhealth.next_transition()) {
                (Some(a), Some(b)) => offer(a.min(b), 0, 0),
                (Some(a), None) => offer(a, 0, 0),
                (None, Some(b)) => offer(b, 0, 0),
                (None, None) => {}
            }
            if let Some(ta) = stream.peek() {
                offer(ta, 1, 0);
            }
            if let Some((i, w)) = waiting
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    (a.fire.get(), a.request.id, *ai)
                        .partial_cmp(&(b.fire.get(), b.request.id, *bi))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            {
                offer(w.fire, 2, i);
            }
            for (i, t) in punit_candidates.iter().enumerate() {
                if let Some(t) = t {
                    offer(*t, 3, i);
                }
            }
            for (i, t) in dunit_candidates.iter().enumerate() {
                if let Some(t) = t {
                    offer(*t, 4, i);
                }
            }
            let Some((now, class, idx)) = best else {
                if stream.exhausted() {
                    break;
                }
                return Err(Error::invalid_config(
                    "disaggregated driver stalled: requests pending but no unit can act",
                ));
            };
            match class {
                // Faults: restores first, then crashes due now.
                0 => {
                    dhealth.advance(now, recovery.warmup, recovery.warmup);
                    for rec in crash_log.iter_mut() {
                        if rec.up_again.is_none() && dhealth.is_up(rec.replica) {
                            rec.up_again = Some(now);
                        }
                    }
                    while next_crash < crash_timeline.len() && crash_timeline[next_crash].0 <= now {
                        let (_, replica, repair) = crash_timeline[next_crash];
                        next_crash += 1;
                        if matches!(dhealth.state(replica), ReplicaHealth::Down { .. }) {
                            continue; // already down: nothing left to kill
                        }
                        // Everything resident on or inbound to the replica is
                        // lost; the allocator empties (high-water survives).
                        let mut lost: Vec<(Request, Seconds)> = Vec::new();
                        for p in dunits[replica].pending.drain(..) {
                            lost.push((p.req, p.first_token));
                        }
                        for s in dunits[replica].active.drain(..) {
                            lost.push((s.req, s.first_token));
                        }
                        dunits[replica].alloc.release_all();
                        dhealth.set(replica, ReplicaHealth::Down { until: now + repair });
                        avail.crashes += 1;
                        crash_log.push(CrashRecord {
                            replica,
                            at: now,
                            up_again: None,
                            first_completion: None,
                        });
                        for (r, ft) in lost {
                            // Where is the cache now? If the source prefill
                            // replica has not released the blocks yet, pin
                            // them and re-handoff (transfer-only — always
                            // cheaper than recompute + transfer); otherwise
                            // the prompt recomputes through the prefill pool.
                            let mut source = None;
                            for (pi, pu) in punits.iter_mut().enumerate() {
                                if let Some(pos) = pu
                                    .pending_release
                                    .iter()
                                    .position(|&(t, id)| id == r.id && t > now)
                                {
                                    pu.pending_release.remove(pos);
                                    source = Some(pi);
                                    break;
                                }
                            }
                            let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                            let attempts = attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
                            let drop_blocks =
                                |punits: &mut Vec<PrefillUnit<'_>>, source: Option<usize>| {
                                    if let Some(p) = source {
                                        punits[p].alloc.release(r.id);
                                    }
                                };
                            if attempts > recovery.max_attempts {
                                avail.shed += 1;
                                drop_blocks(&mut punits, source);
                                release_client(&mut stream, r.id, orig, now);
                                continue;
                            }
                            let fire = now + recovery.backoff_for(attempts);
                            if fire.get() > orig + recovery.deadline.get() {
                                avail.timed_out += 1;
                                drop_blocks(&mut punits, source);
                                release_client(&mut stream, r.id, orig, now);
                                continue;
                            }
                            attempts_of.insert(r.id, attempts);
                            waiting.push(DisaggRetry {
                                fire,
                                request: r,
                                attempts,
                                source,
                                first_token: source.is_some().then_some(ft),
                            });
                        }
                    }
                }
                // Arrival: routes across the (always-healthy) prefill pool.
                1 => {
                    let request = stream.pop();
                    origin.insert(request.id, request.arrival_s);
                    let snaps: Vec<ReplicaSnapshot> = punits
                        .iter()
                        .enumerate()
                        .map(|(i, u)| u.snapshot(i, p_assigned[i], false))
                        .collect();
                    let k = arouter.route(&request, &snaps).min(punits.len() - 1);
                    p_assigned[k] += 1;
                    punits[k].queue.push_back(request);
                }
                // Retry fire: re-handoff, recompute, or repark.
                2 => {
                    let item = waiting.remove(idx);
                    let r = item.request;
                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                    if now.get() > orig + recovery.deadline.get() {
                        avail.timed_out += 1;
                        if let Some(p) = item.source {
                            punits[p].alloc.release(r.id);
                        }
                        release_client(&mut stream, r.id, orig, now);
                        continue;
                    }
                    match item.source {
                        Some(p) => {
                            let up: Vec<usize> =
                                (0..decode.len()).filter(|&k| dhealth.is_up(k)).collect();
                            if up.is_empty() {
                                // Whole decode pool down: park until the next
                                // repair finishes (no retry charged).
                                let fire = dhealth.next_transition().ok_or_else(|| {
                                    Error::internal(
                                        "every decode replica is down and none is scheduled to \
                                         restart",
                                    )
                                })?;
                                waiting.push(DisaggRetry { fire, ..item });
                                continue;
                            }
                            let snaps: Vec<ReplicaSnapshot> = up
                                .iter()
                                .enumerate()
                                .map(|(pos, &k)| dunits[k].snapshot(pos, d_assigned[k], false))
                                .collect();
                            let pos = drouter.route(&r, &snaps).min(up.len() - 1);
                            let k = up[pos];
                            d_assigned[k] += 1;
                            if item.attempts > 0 {
                                avail.retries += 1;
                            }
                            let bytes =
                                full_fp.handoff_bytes(r.prompt_len, punits[p].alloc.block_tokens());
                            let t_start = now.max(punits[p].link_free);
                            let (duration, energy) = priced_transfer(t_start, bytes);
                            let t_end = t_start + duration;
                            punits[p].link_free = t_end;
                            // The source cache is held until the re-transfer
                            // lands, then released as usual.
                            punits[p].pending_release.push((t_end, r.id));
                            punits[p].pending_release.sort_by(|a, b| {
                                a.0.get().total_cmp(&b.0.get()).then(a.1.cmp(&b.1))
                            });
                            transfers.record(bytes.get(), duration, energy);
                            dunits[k].pending.push(PendingDecode {
                                req: r,
                                first_token: item.first_token.unwrap_or(t_end),
                                ready: t_end,
                            });
                        }
                        None => {
                            // Recompute: the cache is gone — back through the
                            // prefill pool; admission restarts at the fire
                            // time, TTFT is re-earned.
                            let snaps: Vec<ReplicaSnapshot> = punits
                                .iter()
                                .enumerate()
                                .map(|(i, u)| u.snapshot(i, p_assigned[i], false))
                                .collect();
                            let mut rr = r;
                            rr.arrival_s = now.get();
                            let k = arouter.route(&rr, &snaps).min(punits.len() - 1);
                            p_assigned[k] += 1;
                            if item.attempts > 0 {
                                avail.retries += 1;
                            }
                            punits[k].queue.push_back(rr);
                        }
                    }
                }
                // Prefill batch: hand each member off (or park it if the
                // whole decode pool is down).
                3 => {
                    let batch = punits[idx].step()?;
                    for req in batch.members {
                        let up: Vec<usize> =
                            (0..decode.len()).filter(|&k| dhealth.is_up(k)).collect();
                        if up.is_empty() {
                            let fire = dhealth.next_transition().ok_or_else(|| {
                                Error::internal(
                                    "every decode replica is down and none is scheduled to restart",
                                )
                            })?;
                            // The cache stays resident at the source (no
                            // release is scheduled until a transfer is).
                            waiting.push(DisaggRetry {
                                fire,
                                request: req,
                                attempts: attempts_of.get(&req.id).copied().unwrap_or(0),
                                source: Some(idx),
                                first_token: Some(batch.end),
                            });
                            continue;
                        }
                        let snaps: Vec<ReplicaSnapshot> = up
                            .iter()
                            .enumerate()
                            .map(|(pos, &k)| dunits[k].snapshot(pos, d_assigned[k], false))
                            .collect();
                        let pos = drouter.route(&req, &snaps).min(up.len() - 1);
                        let k = up[pos];
                        d_assigned[k] += 1;
                        let bytes =
                            full_fp.handoff_bytes(req.prompt_len, punits[idx].alloc.block_tokens());
                        let t_start = batch.end.max(punits[idx].link_free);
                        let (duration, energy) = priced_transfer(t_start, bytes);
                        let t_end = t_start + duration;
                        punits[idx].link_free = t_end;
                        punits[idx].pending_release.push((t_end, req.id));
                        transfers.record(bytes.get(), duration, energy);
                        dunits[k].pending.push(PendingDecode {
                            req,
                            first_token: batch.end,
                            ready: t_end,
                        });
                    }
                }
                // Decode round (atomic: a crash never lands mid-round).
                _ => {
                    let finished = dunits[idx].step()?;
                    for c in &finished {
                        if attempts_of.get(&c.id).copied().unwrap_or(0) > 0 {
                            avail.retried_ok += 1;
                        }
                        for rec in crash_log.iter_mut() {
                            if rec.replica == idx
                                && rec.first_completion.is_none()
                                && c.finish > rec.at
                            {
                                rec.first_completion = Some(c.finish);
                            }
                        }
                        stream.on_complete(c);
                    }
                    completions.extend(finished);
                }
            }
        }

        // Recomputed requests were re-admitted at their retry fire time;
        // report latency against the original arrival.
        for c in &mut completions {
            if let Some(orig) = origin.get(&c.id) {
                c.arrival = Seconds::new(*orig);
            }
        }
        completions.sort_by_key(|c| c.id);
        debug_assert_eq!(
            completions.len() as u64 + avail.shed + avail.timed_out,
            offered,
            "request conservation: arrived == completed + shed + timed out"
        );

        let finish = completions.iter().map(|c| c.finish).fold(Seconds::ZERO, Seconds::max);
        let first_arrival = completions.iter().map(|c| c.arrival).fold(finish, Seconds::min);
        let makespan = (finish - first_arrival).get().max(f64::MIN_POSITIVE);
        let fleet = (prefill.len() + decode.len()) as f64;
        let mut downtime = 0.0;
        for rec in &crash_log {
            let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
            let start = clip(rec.at.get());
            let end = clip(rec.up_again.map_or(finish.get(), |u| u.get()));
            downtime += (end - start).max(0.0);
            avail
                .time_to_recover_s
                .push((rec.first_completion.unwrap_or(finish).get() - rec.at.get()).max(0.0));
        }
        avail.downtime_s = downtime;
        avail.availability = (1.0 - downtime / (fleet * makespan)).clamp(0.0, 1.0);

        let mut rows = Vec::with_capacity(prefill.len() + decode.len());
        let mut chip_energy = Joules::ZERO;
        let mut queue_full_s = 0.0;
        for (spec, unit) in prefill.iter().zip(&punits) {
            chip_energy += unit.energy;
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "prefill".to_owned(),
                chips: spec.chips(),
                requests: unit.prefills,
                busy_s: unit.busy.get(),
                utilization: 0.0,
                energy_j: unit.energy.get(),
                kv_hwm_frac: unit.alloc.high_water_frac(),
            });
        }
        for (spec, unit) in decode.iter().zip(&dunits) {
            chip_energy += unit.energy;
            queue_full_s += unit.queue_full.get();
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "decode".to_owned(),
                chips: spec.chips(),
                requests: unit.completed,
                busy_s: unit.busy.get(),
                utilization: 0.0,
                energy_j: unit.energy.get(),
                kv_hwm_frac: unit.alloc.high_water_frac(),
            });
        }
        let report = ClusterReport::build(
            label,
            "disaggregated",
            format!("{}\u{2192}{}", router.name(), decode_router.name()),
            offered,
            &completions,
            &FleetTotals { chip_energy, queue_full_s, transfers, ..FleetTotals::default() },
            rows,
            slo_ms,
            Some(avail),
        );
        for session in p_sessions.iter().chain(&d_sessions) {
            session.persist_cache();
        }
        Ok(ClusterRun {
            report,
            replica_reports: Vec::new(),
            completions,
            prefix: cimtpu_serving::PrefixStats::default(),
        })
    }

    fn tiny() -> ServingModel {
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
    }

    /// A small heterogeneous pool: two prefill replicas with different
    /// admission caps feeding two decode replicas.
    fn pools() -> (Vec<ReplicaSpec>, Vec<ReplicaSpec>) {
        (
            vec![
                ReplicaSpec::new("p-0", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
                ReplicaSpec::new("p-1", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 2 }),
            ],
            vec![
                ReplicaSpec::new("d-0", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
                ReplicaSpec::new("d-1", TpuConfig::tpuv4i(), tiny())
                    .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ],
        )
    }

    fn traffics(seed: u64) -> [TrafficSpec; 2] {
        let base = TrafficSpec {
            requests: 16,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 16, hi: 48 },
            steps: LenDist::Uniform { lo: 4, hi: 12 },
            prefix: PrefixTraffic::None,
            seed,
        };
        [
            base.clone(),
            TrafficSpec {
                arrival: ArrivalPattern::ClosedLoop { clients: 3, think_ms: 1.0 },
                ..base
            },
        ]
    }

    /// Arrival-router → decode-router pairings under test.
    const PAIRS: [(RouterPolicy, RouterPolicy); 4] = [
        (RouterPolicy::RoundRobin, RouterPolicy::LeastKv),
        (RouterPolicy::LeastOutstanding, RouterPolicy::LeastOutstanding),
        (RouterPolicy::PassThrough, RouterPolicy::RoundRobin),
        (RouterPolicy::SessionAffinity, RouterPolicy::LeastOutstanding),
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The heap-scheduled pipeline under an empty plan replays the
        /// zero-fault scan oracle bit-for-bit for every router pairing,
        /// in open and closed loop.
        #[test]
        fn heap_plain_matches_scan_oracle(seed in 0u64..1_000) {
            let (prefill, decode) = pools();
            for traffic in traffics(seed) {
                for (ap, dp) in PAIRS {
                    let fast = run_disaggregated::<()>(
                        &prefill, &decode, ap, dp, InterconnectSpec::ici(), "eq", &traffic,
                        Some(50.0), &FaultPlan::none(), None, &(),
                    )
                    .unwrap();
                    let slow = run_disaggregated_plain_oracle(
                        &prefill, &decode, ap, dp, InterconnectSpec::ici(), "eq", &traffic,
                        Some(50.0),
                    )
                    .unwrap();
                    prop_assert_eq!(&fast, &slow, "{}→{}", ap.name(), dp.name());
                }
            }
        }

        /// The heap-scheduled failure-aware pipeline replays the scan
        /// oracle bit-for-bit under a scripted decode crash + degraded
        /// link window and under seeded chaos.
        #[test]
        fn heap_faulty_matches_scan_oracle(seed in 0u64..1_000) {
            let (prefill, decode) = pools();
            let scripted = FaultPlan::none()
                .with_event(FaultEvent::Crash {
                    at: Seconds::new(0.000_4),
                    replica: 0,
                    repair: Seconds::new(0.002),
                })
                .with_event(FaultEvent::DegradedLink {
                    from: Seconds::new(0.000_2),
                    until: Seconds::new(0.003),
                    bandwidth_factor: 0.5,
                    energy_factor: 1.5,
                });
            let chaos = FaultPlan::seeded(seed ^ 0xD15A6).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            });
            for traffic in traffics(seed) {
                for plan in [&scripted, &chaos] {
                    for (ap, dp) in PAIRS {
                        let fast = run_disaggregated::<()>(
                            &prefill, &decode, ap, dp, InterconnectSpec::ici(), "eq",
                            &traffic, None, plan, None, &(),
                        )
                        .unwrap();
                        let slow = run_disaggregated_faulty_oracle(
                            &prefill, &decode, ap, dp, InterconnectSpec::ici(), "eq",
                            &traffic, None, plan,
                        )
                        .unwrap();
                        prop_assert_eq!(&fast, &slow, "{}→{}", ap.name(), dp.name());
                    }
                }
            }
        }
    }
}
