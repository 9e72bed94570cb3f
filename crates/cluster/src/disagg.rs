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
//!   sees it again. A handoff that finds the whole pool down parks, its
//!   cache held at the source, until a decode replica is up. Faults land
//!   on scheduling-round boundaries: a decode round that started before
//!   the crash completes atomically and its completions stand. Each lost
//!   request retries under the plan's
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

use std::collections::VecDeque;

use cimtpu_kv::{KvFootprint, PagedKvAllocator};
use cimtpu_obs::EventKind;
use cimtpu_serving::{
    ActionHeap, ArrivalStream, Completion, EngineSession, EventKey, Parallelism, PhasePricer,
    Request, RequestTenants, ServingModel, TenantReport, TenantSet, TrafficSpec,
};
use cimtpu_units::{Bandwidth, Bytes, Error, Joules, Result, Seconds};

use crate::engine::{earliest, EventQueue};
use crate::fault::{FaultEvent, FaultPlan, RetryLedger};
use crate::observe::FleetObserver;
use crate::replica::{fleet_sessions, ReplicaSpec};
use crate::report::{
    ClusterReport, FleetTotals, KvTransferStats, ReplicaAccum, ReplicaUtilization,
};
use crate::router::{HealthView, ReplicaHealth, ReplicaSnapshot, RouterPolicy};
use crate::ClusterRun;

/// The link KV caches migrate over between prefill and decode replicas:
/// bandwidth plus a per-transfer hop latency, and a serdes energy cost
/// per byte.
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

    /// Time to move `bytes` over the link.
    pub(crate) fn transfer_time(&self, bytes: Bytes) -> Seconds {
        self.link_bandwidth.transfer_time(bytes) + self.hop_latency
    }

    /// Energy to move `bytes` over the link.
    pub(crate) fn transfer_energy(&self, bytes: Bytes) -> Joules {
        Joules::new(bytes.get() as f64 * self.energy_pj_per_byte * 1e-12)
    }
}

/// One prefill-pool replica: an FCFS prompt-ingestion engine.
pub(crate) struct PrefillUnit<'a> {
    pricer: PhasePricer<'a>,
    pub(crate) alloc: PagedKvAllocator,
    cap: usize,
    free_at: Seconds,
    pub(crate) queue: VecDeque<Request>,
    /// KV holdings awaiting their outbound transfer, in release-time
    /// order: each transfer starts once the egress link frees and takes a
    /// positive time, so every push lands after the one before.
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
pub(crate) struct PrefillBatch {
    pub(crate) members: Vec<Request>,
    start: Seconds,
    pub(crate) end: Seconds,
}

impl<'a> PrefillUnit<'a> {
    /// An idle unit for replica `spec`, pricing through `session`.
    pub(crate) fn new(session: &'a EngineSession, spec: &ReplicaSpec) -> Result<Self> {
        Ok(PrefillUnit {
            pricer: session.pricer(),
            alloc: session.allocator()?,
            cap: spec.policy.max_concurrency() as usize,
            free_at: Seconds::ZERO,
            queue: VecDeque::new(),
            pending_release: Vec::new(),
            link_free: Seconds::ZERO,
            busy: Seconds::ZERO,
            energy: Joules::ZERO,
            prefills: 0,
        })
    }

    /// When this unit can start its next prefill batch: the head of the
    /// queue has arrived, the executor is free, and — under a bounded KV
    /// budget — enough earlier caches have migrated out for the head
    /// prompt to fit.
    pub(crate) fn candidate(&self) -> Option<Seconds> {
        let head = self.queue.front()?;
        let base = self.free_at.max(head.arrival());
        let Some(_) = self.alloc.capacity_blocks() else {
            return Some(base);
        };
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
    pub(crate) fn step(&mut self) -> Result<PrefillBatch> {
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
        Ok(PrefillBatch {
            members,
            start,
            end,
        })
    }

    /// Moves `r`'s cache out over this unit's egress link from `at`, or
    /// once the link frees, booking the transfer on `link`; the blocks
    /// stay held until it lands. Returns the transfer's start and end.
    ///
    /// # Errors
    ///
    /// As for [`Link::price`].
    pub(crate) fn send(
        &mut self,
        r: &Request,
        at: Seconds,
        link: &mut Link,
    ) -> Result<(Seconds, Seconds)> {
        let bytes = link
            .footprint
            .handoff_bytes(r.prompt_len, self.alloc.block_tokens());
        let start = at.max(self.link_free);
        let (duration, energy) = link.price(start, bytes)?;
        link.transfers.record(bytes.get(), duration, energy);
        self.link_free = start + duration;
        self.pending_release.push((self.link_free, r.id));
        Ok((start, self.link_free))
    }

    /// Whether this unit still holds request `id`'s cache at `now` (its
    /// outbound transfer has not landed); if so the pending release is
    /// cancelled and the caller owns the blocks: it re-sends or releases
    /// them.
    pub(crate) fn unpin(&mut self, id: u64, now: Seconds) -> bool {
        let held = self
            .pending_release
            .iter()
            .position(|&(t, h)| h == id && t > now);
        held.map(|pos| self.pending_release.remove(pos)).is_some()
    }

    pub(crate) fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
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
            kv_frac: self.alloc.used_frac(),
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
pub(crate) struct DecodeUnit<'a> {
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
    /// An idle unit for replica `spec`, pricing through `session`.
    pub(crate) fn new(session: &'a EngineSession, spec: &ReplicaSpec) -> Result<Self> {
        Ok(DecodeUnit {
            pricer: session.pricer(),
            alloc: session.allocator()?,
            cap: spec.policy.max_concurrency() as usize,
            t: Seconds::ZERO,
            pending: Vec::new(),
            active: Vec::new(),
            busy: Seconds::ZERO,
            energy: Joules::ZERO,
            queue_full: Seconds::ZERO,
            completed: 0,
        })
    }

    pub(crate) fn candidate(&self) -> Option<Seconds> {
        if !self.active.is_empty() {
            return Some(self.t);
        }
        self.pending
            .iter()
            .map(|p| p.ready)
            .min_by(|a, b| a.get().total_cmp(&b.get()))
            .map(|ready| self.t.max(ready))
    }

    /// Queues `req`'s handed-off cache, landing at `ready`; the request
    /// produced its first token at `first_token`.
    pub(crate) fn receive(&mut self, req: Request, first_token: Seconds, ready: Seconds) {
        self.pending.push(PendingDecode {
            req,
            first_token,
            ready,
        });
    }

    /// Kills the replica: everything resident on or inbound to it is lost,
    /// returned with the TTFT each had earned, and the allocator empties
    /// (its high-water mark survives).
    pub(crate) fn crash(&mut self) -> Vec<(Request, Seconds)> {
        let pending = self.pending.drain(..).map(|p| (p.req, p.first_token));
        let lost = pending
            .chain(self.active.drain(..).map(|s| (s.req, s.first_token)))
            .collect();
        self.alloc.release_all();
        lost
    }

    /// One decode round: admit ready transfers (KV permitting), then one
    /// generation step for the whole batch.
    pub(crate) fn step(&mut self) -> Result<Vec<Completion>> {
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
            if self
                .alloc
                .try_grow(p.req.id, p.req.prompt_len + p.req.steps)
            {
                let p = self.pending.remove(pos);
                self.active.push(DecodeSlot {
                    req: p.req,
                    first_token: p.first_token,
                    done: 0,
                });
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

    pub(crate) fn snapshot(&self, index: usize, assigned: u64, classed: bool) -> ReplicaSnapshot {
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
            kv_frac: self.alloc.used_frac(),
            assigned,
            class_outstanding,
        }
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

/// The KV handoff path: what crosses the wire per request, what the
/// interconnect charges for it under the plan's degraded-link windows,
/// and the transfers booked so far.
pub(crate) struct Link {
    spec: InterconnectSpec,
    /// The full (unsharded) cache footprint, whatever the pool sharding.
    footprint: KvFootprint,
    /// Degraded windows as (from, until, bandwidth factor, energy factor).
    windows: Vec<(Seconds, Seconds, f64, f64)>,
    pub(crate) transfers: KvTransferStats,
}

impl Link {
    /// Transfer cost at `start`, with every open degraded-link window
    /// applied: wire time divided by the bandwidth factor (the hop
    /// stands), energy multiplied by the energy factor.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the open windows when the
    /// degraded time or energy is not finite (a subnormal bandwidth
    /// factor divides the wire time to infinity).
    fn price(&self, start: Seconds, bytes: Bytes) -> Result<(Seconds, Joules)> {
        let base = self.spec.transfer_time(bytes);
        let open = || {
            self.windows
                .iter()
                .filter(|&&(from, until, ..)| start >= from && start < until)
        };
        let (bw, en) = open().fold((1.0, 1.0), |(bw, en), &(_, _, b, e)| (bw * b, en * e));
        let duration = if bw == 1.0 {
            base
        } else {
            self.spec.hop_latency + Seconds::new((base - self.spec.hop_latency).get() / bw)
        };
        let energy = self.spec.transfer_energy(bytes).get() * en;
        if !(duration.get().is_finite() && energy.is_finite()) {
            let windows: Vec<String> = open()
                .map(|(from, until, b, e)| {
                    format!(
                        "link@{:?}s-{:?}s:x{b:?}:energy=x{e:?}",
                        from.get(),
                        until.get()
                    )
                })
                .collect();
            return Err(Error::invalid_config(format!(
                "degraded-link window {} prices a {bytes} KV transfer at {:?} s and {energy:?} J; \
                 the factors must leave both finite",
                windows.join(" + "),
                duration.get()
            )));
        }
        Ok((duration, Joules::new(energy)))
    }
}

/// A decode replica's crash: (at, replica, repair).
pub(crate) type DecodeCrash = (Seconds, usize, Seconds);

/// Checks a disaggregated fleet's pools (one common LLM, no feature the
/// pools lack) and resolves `plan` against it: the decode-crash timeline
/// (in time order, as `resolve` sorts it), and the handoff link with the
/// plan's degraded windows.
pub(crate) fn pipeline(
    prefill: &[ReplicaSpec],
    decode: &[ReplicaSpec],
    interconnect: InterconnectSpec,
    plan: &FaultPlan,
) -> Result<(Vec<DecodeCrash>, Link)> {
    // Crash events index the DECODE pool; prefill replicas are the
    // stateless front of the pipeline here and cannot crash.
    let mut crashes = Vec::new();
    let mut windows = Vec::new();
    for event in plan.resolve("the decode pool", decode.len())? {
        match event {
            FaultEvent::Crash {
                at,
                replica,
                repair,
            } => crashes.push((at, replica, repair)),
            FaultEvent::DegradedLink {
                from,
                until,
                bandwidth_factor,
                energy_factor,
            } => {
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

    let reference = validate_pool_replica(&prefill[0], "prefill")?;
    let pool_members = prefill
        .iter()
        .map(|s| (s, "prefill"))
        .chain(decode.iter().map(|s| (s, "decode")));
    for (spec, role) in pool_members {
        let model = validate_pool_replica(spec, role)?;
        if model != reference {
            return Err(Error::invalid_config(format!(
                "disaggregated pools must host one common model: '{}' hosts {}, \
                 expected {}",
                spec.name,
                model.name(),
                reference.name()
            )));
        }
    }
    let footprint = KvFootprint::of(reference);
    let transfers = KvTransferStats::default();
    Ok((
        crashes,
        Link {
            spec: interconnect,
            footprint,
            windows,
            transfers,
        },
    ))
}

/// A disaggregated run's report rows — each prefill unit, then each
/// decode unit — and the fleet sums over them.
pub(crate) fn pool_books(
    prefill: &[ReplicaSpec],
    decode: &[ReplicaSpec],
    punits: &[PrefillUnit<'_>],
    dunits: &[DecodeUnit<'_>],
    transfers: KvTransferStats,
) -> (Vec<ReplicaUtilization>, FleetTotals) {
    let p = prefill.iter().zip(punits);
    let p = p.map(|(s, u)| {
        (
            s,
            "prefill",
            u.prefills,
            u.busy,
            u.energy,
            Seconds::ZERO,
            &u.alloc,
        )
    });
    let d = decode.iter().zip(dunits);
    let d = d.map(|(s, u)| {
        (
            s,
            "decode",
            u.completed,
            u.busy,
            u.energy,
            u.queue_full,
            &u.alloc,
        )
    });
    // No preemptions: worst-case decode reservation never preempts.
    let mut totals = FleetTotals {
        transfers,
        ..FleetTotals::default()
    };
    let rows = p
        .chain(d)
        .map(|(spec, role, requests, busy, energy, queue_full, alloc)| {
            let books = ReplicaAccum {
                busy_s: busy.get(),
                energy_j: energy.get(),
                queue_full_s: queue_full.get(),
                kv_hwm: alloc.high_water_frac(),
                ..ReplicaAccum::default()
            };
            totals.row(spec, &books, requests, role)
        })
        .collect();
    (rows, totals)
}

/// Re-keys every unit's slot of `heap` (prefill `i` → slot `i`, then the
/// decode units) to its next candidate time.
fn rekey(heap: &mut ActionHeap, punits: &[PrefillUnit<'_>], dunits: &[DecodeUnit<'_>]) {
    let p = punits.iter().map(PrefillUnit::candidate);
    for (slot, at) in p
        .chain(dunits.iter().map(DecodeUnit::candidate))
        .enumerate()
    {
        heap.set(slot, at);
    }
}

/// A request waiting to re-enter the disaggregated pipeline after a
/// decode crash, or parked because the whole decode pool is down.
struct DisaggRetry {
    /// When the retry fires.
    fire: Seconds,
    request: Request,
    /// Retries already charged against the request's budget.
    attempts: u32,
    /// The prefill unit still holding the cache (re-handoff) and the TTFT
    /// its prefill produced, or `None` to recompute the prompt.
    source: Option<(usize, Seconds)>,
}

/// The disaggregated event loop. An empty `plan` resolves to no crashes
/// and no link windows, so every decode replica stays up, nothing
/// retries, and the report carries no availability section. `O` observes
/// the run over slots prefill ++ decode, the index space of `unit_heap`.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)] // one call site, in `dispatch`
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
    tenants: Option<&TenantSet>,
    sink: &O::Sink,
) -> Result<ClusterRun> {
    // The pools run FCFS/continuous-batching queues, not `EngineCore`, so
    // a multi-tenant run keeps tenant identity at the traffic and report
    // level: classed router snapshots, tagged trace events, and per-tenant
    // sheds and timeouts — no WFQ inside the pools.
    let classed = tenants.is_some_and(|set| set.sched().multi_tenant());
    let (crashes, mut link) = pipeline(prefill, decode, interconnect, plan)?;
    let mut next_crash = 0usize;

    let slots: Vec<ReplicaSpec> = prefill.iter().chain(decode).cloned().collect();
    let obs = O::open(sink, &slots, None);
    let sessions = fleet_sessions(&slots)?;
    let (p_sessions, d_sessions) = sessions.split_at(prefill.len());
    let mut punits: Vec<PrefillUnit<'_>> = p_sessions
        .iter()
        .zip(prefill)
        .map(|(s, r)| PrefillUnit::new(s, r))
        .collect::<Result<_>>()?;
    let mut dunits: Vec<DecodeUnit<'_>> = d_sessions
        .iter()
        .zip(decode)
        .map(|(s, r)| DecodeUnit::new(s, r))
        .collect::<Result<_>>()?;

    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    // At most one completion per offered request: one allocation, no
    // doubling.
    let mut completions: Vec<Completion> = Vec::with_capacity(offered as usize);
    let mut dhealth = HealthView::all_up(decode.len());
    // Retries fire in (fire, id) order, ties in push order.
    let mut waiting = EventQueue::new(|w: &DisaggRetry| (EventKey::new(w.fire), w.request.id));
    let mut parked: Vec<DisaggRetry> = Vec::new();
    let mut ledger = RetryLedger::new(*plan.recovery(), tenants, &obs);

    // Routes `r` across the (always-healthy) prefill pool and queues it
    // on the chosen unit, returned.
    let mut arouter = router.build();
    let mut p_assigned = vec![0u64; prefill.len()];
    let mut psnaps: Vec<ReplicaSnapshot> = Vec::with_capacity(prefill.len());
    let mut to_prefill = |punits: &mut [PrefillUnit<'_>], r: Request| {
        psnaps.clear();
        let snap = |(i, u): (usize, &PrefillUnit<'_>)| u.snapshot(i, p_assigned[i], classed);
        psnaps.extend(punits.iter().enumerate().map(snap));
        let k = arouter.route(&r, &psnaps).min(punits.len() - 1);
        p_assigned[k] += 1;
        punits[k].queue.push_back(r);
        k
    };
    // Routes `req`'s cache from prefill unit `p` to an up decode unit and
    // hands it off from `at` (its first token came at `first_token`): the
    // decode unit, or `None` while the whole decode pool is down; an
    // error when the link cannot price the transfer.
    let mut drouter = decode_router.build();
    let mut d_assigned = vec![0u64; decode.len()];
    let (mut up, mut dsnaps) = (
        Vec::with_capacity(decode.len()),
        Vec::with_capacity(decode.len()),
    );
    let mut hand_off = |punits: &mut [PrefillUnit<'_>],
                        dunits: &mut [DecodeUnit<'_>],
                        dhealth: &HealthView,
                        p: usize,
                        at: Seconds,
                        req: Request,
                        first_token: Seconds| {
        let snap = |k: usize| dunits[k].snapshot(k, d_assigned[k], classed);
        dhealth.routable(0..dunits.len(), snap, &mut up, &mut dsnaps);
        if up.is_empty() {
            return Ok(None);
        }
        let k = up[drouter.route(&req, &dsnaps).min(up.len() - 1)];
        d_assigned[k] += 1;
        let (start, end) = punits[p].send(&req, at, &mut link)?;
        obs.span(p, EventKind::KvHandoff, req.id, start, end);
        dunits[k].receive(req, first_token, end);
        Ok(Some(k))
    };

    // One event queue spans both pools (prefill `i` → slot `i`, decode
    // `j` → slot `pn + j`), in (time, lowest-slot) order — prefill before
    // decode on a tie; the fault / arrival / retry classes go before it.
    // The test-only reference model (`crate::reference`) re-derives every
    // event by a linear scan and pins this loop against it.
    let pn = punits.len();
    let mut unit_heap = ActionHeap::new(pn + dunits.len());
    rekey(&mut unit_heap, &punits, &dunits);

    loop {
        // The run is over when nothing can produce or receive work;
        // trailing fault events on an idle fleet are dropped.
        let unit_at = unit_heap.peek();
        if stream.exhausted() && waiting.peek().is_none() && unit_at.is_none() && parked.is_empty()
        {
            break;
        }

        // Earliest event wins; ties resolve fault → arrival → retry →
        // unit, and the units by lowest slot (prefill before decode).
        let scripted = (next_crash < crashes.len()).then(|| crashes[next_crash].0);
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
                    match left {
                        ReplicaHealth::Down { .. } => obs.instant(pn + k, EventKind::Repair, now),
                        // Routable: the parked requests re-enter the retry
                        // queue (no retry is charged), as in the colocated
                        // loop.
                        ReplicaHealth::Warming { .. } => {
                            for w in parked.drain(..) {
                                waiting.push(DisaggRetry { fire: now, ..w });
                            }
                        }
                        _ => {}
                    }
                }
                ledger.on_health(&dhealth, now);
                while next_crash < crashes.len() && crashes[next_crash].0 <= now {
                    let (_, replica, repair) = crashes[next_crash];
                    next_crash += 1;
                    if matches!(dhealth.state(replica), ReplicaHealth::Down { .. }) {
                        continue; // already down: nothing left to kill
                    }
                    let lost = dunits[replica].crash();
                    dhealth.set(
                        replica,
                        ReplicaHealth::Down {
                            until: now + repair,
                        },
                    );
                    ledger.on_crash(replica, now, false);
                    obs.instant(pn + replica, EventKind::Crash, now);
                    for (r, ft) in lost {
                        // If a prefill unit still holds the cache, the retry
                        // re-hands it off (transfer-only — always cheaper
                        // than recompute + transfer); otherwise the prompt
                        // recomputes through the prefill pool.
                        let source = punits
                            .iter_mut()
                            .position(|pu| pu.unpin(r.id, now))
                            .map(|p| (p, ft));
                        if let Some((fire, attempts)) = ledger.on_lost(&r, now, &mut stream) {
                            waiting.push(DisaggRetry {
                                fire,
                                request: r,
                                attempts,
                                source,
                            });
                        } else if let Some((p, _)) = source {
                            punits[p].alloc.release(r.id);
                        }
                    }
                }
                // A crash empties a decode unit and can unpin caches on
                // any prefill unit (releases change their admission
                // starts): refresh every slot. Fault events are rare, so
                // the `O(fleet)` refresh is off the hot path.
                rekey(&mut unit_heap, &punits, &dunits);
            }
            // Arrival.
            1 => {
                let request = stream.pop();
                let k = to_prefill(&mut punits, request);
                obs.arrival(Some(k), &request);
                let u = &punits[k];
                obs.sample(
                    k,
                    request.arrival(),
                    u.queue.len() as f64,
                    u.alloc.used_frac(),
                );
                unit_heap.set(k, u.candidate());
            }
            // Retry fire: re-handoff, recompute, or park.
            2 => {
                let item = waiting
                    .pop()
                    .ok_or_else(|| Error::internal("class 2 implies a retry"))?;
                let r = item.request;
                if ledger.expired(&r, now, &mut stream) {
                    if let Some((p, _)) = item.source {
                        punits[p].alloc.release(r.id);
                        unit_heap.set(p, punits[p].candidate());
                    }
                    continue;
                }
                match item.source {
                    Some((p, ft)) => {
                        let Some(k) = hand_off(&mut punits, &mut dunits, &dhealth, p, now, r, ft)?
                        else {
                            ledger.on_park(&r, now);
                            parked.push(item);
                            continue;
                        };
                        ledger.on_placed(item.attempts);
                        unit_heap.set(p, punits[p].candidate());
                        unit_heap.set(pn + k, dunits[k].candidate());
                    }
                    None => {
                        // Recompute: the cache is gone — back through the
                        // prefill pool; admission restarts at the fire
                        // time, TTFT is re-earned.
                        let rr = Request {
                            arrival_s: now.get(),
                            ..r
                        };
                        ledger.readmit(&r, rr.arrival_s);
                        let k = to_prefill(&mut punits, rr);
                        ledger.on_placed(item.attempts);
                        unit_heap.set(k, punits[k].candidate());
                    }
                }
            }
            // Prefill batch: hand each member off, or park it (its cache
            // held at the source) while the whole decode pool is down.
            3 => {
                let batch = punits[idx].step()?;
                for req in batch.members {
                    obs.span(idx, EventKind::Prefill, req.id, batch.start, batch.end);
                    let end = batch.end;
                    match hand_off(&mut punits, &mut dunits, &dhealth, idx, end, req, end)? {
                        Some(k) => unit_heap.set(pn + k, dunits[k].candidate()),
                        None => {
                            ledger.on_park(&req, now);
                            let attempts = ledger.attempts(req.id);
                            let source = Some((idx, end));
                            parked.push(DisaggRetry {
                                fire: now,
                                request: req,
                                attempts,
                                source,
                            });
                        }
                    }
                }
                let u = &punits[idx];
                obs.sample(idx, batch.end, u.queue.len() as f64, u.alloc.used_frac());
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
                    obs.delivered(pn + idx, c);
                }
                let u = &dunits[idx];
                let queued = (u.pending.len() + u.active.len()) as f64;
                obs.sample(pn + idx, u.t, queued, u.alloc.used_frac());
                completions.extend(finished);
            }
        }
    }

    completions.sort_unstable_by_key(|c| c.id);
    let avail = ledger.finish(&completions, offered, prefill.len() + decode.len());
    let (rows, totals) = pool_books(prefill, decode, &punits, &dunits, link.transfers);
    let mut report = ClusterReport::build(
        label,
        "disaggregated",
        format!("{}\u{2192}{}", router.name(), decode_router.name()),
        offered,
        &completions,
        &totals,
        rows,
        slo_ms,
        (!plan.is_empty()).then_some(avail),
    );
    // Worst-case decode reservation never preempts: no tenant has any.
    report.tenants = tenants.map(|set| {
        let requests = RequestTenants::new(traffic);
        let (shed, timed_out) = (&ledger.tenant_shed, &ledger.tenant_timed_out);
        let done = &completions;
        TenantReport::new(set, requests, done, report.makespan_s, shed, timed_out, &[])
    });
    Ok(ClusterRun {
        report,
        completions,
        prefix: cimtpu_serving::PrefixStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic};
    use proptest::prelude::*;

    use super::*;
    use crate::fault::{ChaosSpec, RecoveryPolicy};
    use crate::reference::run_reference;
    use crate::reference::tests::{crash, tiny};
    use crate::ClusterEngine;

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

    /// A small heterogeneous pool: two prefill replicas with different
    /// admission caps feeding two decode replicas.
    fn pools() -> (Vec<ReplicaSpec>, Vec<ReplicaSpec>) {
        let replica = |name, max_batch| {
            ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch })
        };
        (
            vec![replica("p-0", 4), replica("p-1", 2)],
            vec![replica("d-0", 4), replica("d-1", 4)],
        )
    }

    /// The open-loop traffic of `check` (which also runs it closed-loop).
    fn open_loop(seed: u64) -> TrafficSpec {
        TrafficSpec {
            requests: 16,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 16, hi: 48 },
            steps: LenDist::Uniform { lo: 4, hi: 12 },
            prefix: PrefixTraffic::None,
            seed,
        }
    }

    /// The pipeline's loop run and reference run agree under `plan` for
    /// every router pairing, in open and closed loop.
    fn check(plan: &FaultPlan, seed: u64) {
        let base = open_loop(seed);
        let closed = ArrivalPattern::ClosedLoop {
            clients: 3,
            think_ms: 1.0,
        };
        let pairs = [
            (RouterPolicy::RoundRobin, RouterPolicy::LeastKv),
            (
                RouterPolicy::LeastOutstanding,
                RouterPolicy::LeastOutstanding,
            ),
            (RouterPolicy::PassThrough, RouterPolicy::RoundRobin),
            (
                RouterPolicy::SessionAffinity,
                RouterPolicy::LeastOutstanding,
            ),
        ];
        for traffic in [
            base.clone(),
            TrafficSpec {
                arrival: closed,
                ..base
            },
        ] {
            for (ap, dp) in pairs {
                let (prefill, decode) = pools();
                let link = InterconnectSpec::ici();
                let engine = ClusterEngine::disaggregated(prefill, decode, ap, dp, link).unwrap();
                let engine = engine.with_slo_ms(50.0).with_faults(plan.clone());
                let run = engine.run("eq", &traffic).unwrap();
                let reference = run_reference(&engine, "eq", &traffic).unwrap();
                assert_eq!(&run, &reference, "{}→{}", ap.name(), dp.name());
            }
        }
    }

    /// A decode crash one backoff before a seeded arrival, while that
    /// unit holds work, makes a lost request's retry fire at exactly the
    /// arrival's instant: the tie rule (arrival before retry) is pinned
    /// against the reference.
    #[test]
    fn retry_tied_with_arrival_matches_scan_oracle() {
        let (seed, arrival, replica) = (0, 9, 0);
        let at = open_loop(seed).generate()[arrival].arrival();
        let backoff = RecoveryPolicy::default().backoff_for(1);
        assert_eq!(
            at - backoff + backoff,
            at,
            "the retry must fire at the arrival's instant"
        );
        let plan = FaultPlan::none().with_event(FaultEvent::Crash {
            at: at - backoff,
            replica,
            repair: Seconds::new(0.002),
        });
        let (prefill, decode) = pools();
        let (rr, kv) = (RouterPolicy::RoundRobin, RouterPolicy::LeastKv);
        let engine = ClusterEngine::disaggregated(prefill, decode, rr, kv, InterconnectSpec::ici());
        let run = engine
            .unwrap()
            .with_faults(plan.clone())
            .run("tie", &open_loop(seed))
            .unwrap();
        assert!(
            run.report.availability.unwrap().retries > 0,
            "the crash must lose work"
        );
        check(&plan, seed);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The heap-scheduled pipeline under an empty plan replays the
        /// reference bit-for-bit.
        #[test]
        fn heap_plain_matches_scan_oracle(seed in 0u64..1_000) {
            check(&FaultPlan::none(), seed);
        }

        /// The heap-scheduled failure-aware pipeline replays the
        /// reference bit-for-bit under a scripted decode crash with a
        /// degraded link window, under seeded chaos, and with the whole
        /// decode pool down at once (staggered repairs: handoffs park
        /// until a decode replica is up, and time out then if their
        /// deadline has passed).
        #[test]
        fn heap_faulty_matches_scan_oracle(seed in 0u64..1_000) {
            let scripted = FaultPlan::none().with_event(crash(0, 0.000_4, 0.002)).with_event(
                FaultEvent::DegradedLink {
                    from: Seconds::new(0.000_2),
                    until: Seconds::new(0.003),
                    bandwidth_factor: 0.5,
                    energy_factor: 1.5,
                },
            );
            let chaos = FaultPlan::seeded(seed ^ 0xD15A6).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            });
            let deadline = Seconds::new(0.002_5);
            let whole = FaultPlan::none()
                .with_events([crash(0, 0.000_6, 0.003), crash(1, 0.000_6, 0.004)])
                .with_recovery(RecoveryPolicy { deadline, ..RecoveryPolicy::default() });
            for plan in [&scripted, &chaos, &whole] {
                check(plan, seed);
            }
        }
    }
}
