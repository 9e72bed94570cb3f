//! The incremental serving engine: the same event-driven scheduler as
//! [`ServingEngine::run`](crate::ServingEngine::run), exposed as a
//! push/step state machine an external driver can interleave with other
//! engines.
//!
//! [`EngineCore`] owns one engine's scheduling state (queue, batching
//! policy, and one executor record per chip: its clock, KV allocator and
//! prefix index) and advances one scheduling decision per
//! [`step`](EngineCore::step). A driver feeds it arrivals with
//! [`push`](EngineCore::push) (in arrival order), declares the stream
//! finished with [`close`](EngineCore::close), and asks
//! [`next_action`](EngineCore::next_action) when the engine can next make
//! progress on its own; the answer is derived from the state on every
//! call, not memoized. This is what makes fleet-level simulation
//! possible: the `cimtpu-cluster` crate runs one core per replica and a
//! router decides which core each arrival is pushed into, while
//! closed-loop traffic couples completions back into the arrival stream.
//!
//! Queued arrivals wait in one FIFO queue per tenant. Every core starts
//! with a single `Standard` tenant, which schedules every request (tag or
//! no tag) in arrival order;
//! [`set_tenancy`](EngineCore::set_tenancy) arms a tenant set, and
//! continuous batching then admits among the queue heads by weighted-fair
//! deficit. One admission path serves both.
//!
//! Scheduling decisions depend only on the queue contents, the closed
//! flag, and the engine's own clocks — never on *when* the driver happens
//! to push or step — so a core fed incrementally produces bit-identical
//! results to one fed its whole trace up front. The single-engine
//! [`ServingEngine::run`](crate::ServingEngine::run) and the cluster
//! driver both lean on that invariant (and the equivalence tests pin it).

use std::collections::VecDeque;

use cimtpu_kv::{PagedKvAllocator, PrefixIndex, PrefixStats};
use cimtpu_obs::{EventKind, TraceHandle};
use cimtpu_units::{Error, Joules, Result, Seconds};
use rustc_hash::FxHashMap;

use crate::heap::ActionHeap;

use crate::memory::MemoryConfig;
use crate::metrics::{Completion, MemoryStats, ServingReport};
use crate::policy::BatchPolicy;
use crate::pricer::PhasePricer;
use crate::request::{ArrivalStream, Request};
use crate::tenant::{SloClass, TenantSched};
use crate::ServingRun;

/// One serving engine as an incremental state machine. See
/// [`drive`](crate::drive) for the driver protocol; obtain one from
/// [`EngineSession::core`](crate::EngineSession::core).
///
/// A core holds a pushed request only while it may still read it, so its
/// memory scales with the requests in flight, not with the run's length.
/// A request retires once it has completed *and* a later
/// [`step`](Self::step) was taken at or after its completion's finish.
/// Until then a [`crash`](Self::crash), which may come at any instant no
/// earlier than the latest step, can revoke the completion and must hand
/// the request back: run-to-completion batches price their whole future
/// at launch, and a continuous round's completions finish at the round's
/// end.
///
/// A completion stays in the core until a driver takes it
/// ([`take_completions`](Self::take_completions), as the fleet loops do
/// after every step) or for the whole run (under [`drive`], which reads
/// them through [`completions`](Self::completions)). Its finish time
/// stays for the whole run either way: it is what
/// [`outstanding_at`](Self::outstanding_at) counts.
#[derive(Debug)]
pub struct EngineCore<'a> {
    pricer: PhasePricer<'a>,
    policy: BatchPolicy,
    memory: MemoryConfig,
    has_prefill: bool,
    chips: u64,
    /// The pushed requests the core may still read, by arrival index; the
    /// ones still queued are indexed by `tenancy`'s per-tenant queues.
    window: Window,
    closed: bool,
    /// The completions not yet taken, in completion order.
    completions: Vec<Completion>,
    /// Every completion's finish time, ascending per tier, so
    /// [`outstanding_at`](Self::outstanding_at) and
    /// [`outstanding_by_class_at`](Self::outstanding_by_class_at) count
    /// the completions still in flight at any instant by binary search.
    finishes: Finishes,
    /// Completions produced, less the ones a crash revoked: as many as
    /// `finishes` holds.
    completed: usize,
    energy: Joules,
    busy: Seconds,
    /// Multiplier on priced step latency (a straggler window sets it
    /// above 1.0; energy is unaffected — a slow chip still computes the
    /// same FLOPs).
    slowdown: f64,
    /// Set once by [`crash`](EngineCore::crash); the core is inert after.
    crashed: bool,
    trace: Emitter,
    tenancy: TenantQueues,
    /// One record per executor, for both batching families.
    executors: Vec<Executor>,
    /// What only one batching family keeps.
    state: State,
}

/// One executor (chip) of a core: its clock, KV allocator and prefix
/// index. Both batching families keep exactly this per executor.
#[derive(Debug)]
struct Executor {
    /// When the executor is next free (run-to-completion) or the start of
    /// its latest round, advanced as the round runs (continuous).
    clock: Seconds,
    alloc: PagedKvAllocator,
    /// Prefix index over this executor's cached prompt blocks (`None`
    /// when sharing is off).
    prefix: Option<PrefixIndex>,
}

/// The tenant schedule and its per-tenant queues and ledgers. A core
/// starts with one `Standard` tenant; [`EngineCore::set_tenancy`]
/// replaces it.
#[derive(Debug)]
struct TenantQueues {
    /// By tenant index. Everything admission reads sits in one entry, so
    /// a pick touches one allocation plus each non-empty queue.
    tenants: Vec<TenantQueue>,
    /// Preemptions absorbed per tenant.
    preempted: Vec<u64>,
}

/// One tenant's schedule entry, service ledger and FIFO queue.
#[derive(Debug)]
struct TenantQueue {
    /// Service tier.
    class: SloClass,
    /// Fair-share weight (positive, finite).
    weight: f64,
    /// Tokens of service charged (prompt + decode tokens, charged once at
    /// first admission; resumption after preemption is free — the tenant
    /// already paid for the work being redone).
    service: u64,
    /// Queued arrivals, as arrival indices into the core's window, in
    /// arrival order.
    queue: VecDeque<usize>,
}

impl TenantQueue {
    /// Whether this tenant's head admits before `other`'s: the more
    /// senior class first, then the lower weighted service (deficit).
    fn precedes(&self, other: &TenantQueue) -> bool {
        let deficit = |t: &TenantQueue| t.service as f64 / t.weight;
        let by_class = self.class.rank().cmp(&other.class.rank());
        by_class
            .then(deficit(self).total_cmp(&deficit(other)))
            .is_lt()
    }
}

impl TenantQueues {
    fn new(sched: &TenantSched) -> Self {
        let tenants = sched
            .classes
            .iter()
            .zip(&sched.weights)
            .map(|(&class, &weight)| TenantQueue {
                class,
                weight,
                service: 0,
                queue: VecDeque::new(),
            })
            .collect();
        TenantQueues {
            tenants,
            preempted: vec![0; sched.classes.len()],
        }
    }

    /// The tenant `request` is scheduled as: its tag under a multi-tenant
    /// schedule, the only tenant otherwise (whatever the tag says).
    fn of(&self, request: &Request) -> usize {
        if self.tenants.len() == 1 {
            0
        } else {
            request.tenant as usize
        }
    }

    /// Every queued arrival's index, tenant by tenant.
    fn queued(&self) -> impl Iterator<Item = usize> + '_ {
        self.tenants.iter().flat_map(|t| t.queue.iter().copied())
    }

    /// The oldest queued arrival's index, if any.
    fn oldest(&self) -> Option<usize> {
        self.tenants
            .iter()
            .filter_map(|t| t.queue.front().copied())
            .min()
    }

    /// The queue head that admits next among heads arrived by `t`, as
    /// `(tenant, arrival index)`: most senior class, then lowest weighted
    /// service (deficit), then lowest tenant id (the scan runs in id
    /// order and a tie keeps the earlier tenant). One tenant admits FIFO.
    fn pick(&self, window: &Window, t: Seconds) -> Option<(usize, usize)> {
        let mut pick: Option<(usize, usize)> = None;
        for (tenant, tq) in self.tenants.iter().enumerate() {
            let Some(&idx) = tq.queue.front() else {
                continue;
            };
            if window[idx].request.arrival() <= t
                && pick.is_none_or(|(best, _)| tq.precedes(&self.tenants[best]))
            {
                pick = Some((tenant, idx));
            }
        }
        pick
    }

    /// Dequeues `tenant`'s head and charges its service.
    fn admit(&mut self, tenant: usize, window: &Window) -> usize {
        let tq = &mut self.tenants[tenant];
        let idx = tq
            .queue
            .pop_front()
            .expect("admitting tenant has a queued head");
        tq.service += window[idx].request.prompt_len + window[idx].request.steps;
        idx
    }
}

/// The core's flight-recorder emitter
/// ([`attach_trace`](EngineCore::attach_trace)). Request-lifecycle
/// events carry their tenant when `tagged`
/// ([`TenantSched::multi_tenant`]). Without a handle each emission is
/// one branch.
#[derive(Debug, Default)]
struct Emitter {
    handle: Option<TraceHandle>,
    tagged: bool,
}

impl Emitter {
    fn tenant(&self, r: &Request) -> Option<u32> {
        self.tagged.then_some(r.tenant)
    }

    fn span(&self, kind: EventKind, r: &Request, start: Seconds, end: Seconds) {
        if let Some(h) = &self.handle {
            h.span(kind, r.id, start.get(), end.get(), self.tenant(r));
        }
    }

    fn instant(&self, kind: EventKind, r: &Request, at: Seconds) {
        if let Some(h) = &self.handle {
            h.instant(kind, r.id, at.get(), self.tenant(r));
        }
    }
}

#[derive(Debug)]
enum State {
    /// Static / dynamic batching: batches run to completion.
    Rtc(RtcState),
    /// Continuous batching: requests admitted/retired between steps.
    Cont(ContState),
}

#[derive(Debug)]
struct RtcState {
    /// First time each request was turned away by KV admission (it may
    /// still launch promptly on another executor — only the deferral
    /// actually experienced is charged, at launch).
    kv_deferred_at: FxHashMap<u64, Seconds>,
    queue_full: Seconds,
}

#[derive(Debug)]
struct ContState {
    chips: Vec<ContChip>,
    max_batch: u64,
    /// Scratch reused by every [`cont_round`](EngineCore::cont_round), so
    /// a round allocates nothing: the round's admissions as
    /// `(idx, done, shared)`, then positions in the executor's `active`
    /// list of the members still prefilling and of those decoding.
    admitted: Vec<(usize, u64, u64)>,
    prefilling: Vec<usize>,
    decoders: Vec<usize>,
}

/// One resident request: `done` generated tokens survive preemption;
/// `prefilled` / `target` track prompt (re)computation in the current
/// residency.
#[derive(Debug)]
struct Active {
    idx: usize,
    done: u64,
    prefilled: u64,
    target: u64,
}

/// What continuous batching keeps per executor beyond its [`Executor`]
/// record.
#[derive(Debug, Default)]
struct ContChip {
    active: Vec<Active>,
    /// Preempted requests awaiting re-admission (FIFO, ahead of new
    /// arrivals): request index + tokens generated so far.
    resume: VecDeque<(usize, u64)>,
    queue_full: Seconds,
    preemptions: u64,
}

/// Completion finish times, one ascending list per service tier
/// (indexed by [`SloClass::rank`]).
#[derive(Debug, Default)]
struct Finishes([Vec<Seconds>; 3]);

impl Finishes {
    /// Records a completion of tier `class` finishing at `finish`.
    /// Finish times arrive almost in order (executors interleave), so the
    /// insertion point is at or near the end.
    fn record(&mut self, finish: Seconds, class: SloClass) {
        let list = &mut self.0[class.rank()];
        let at = list.partition_point(|&f| f <= finish);
        list.insert(at, finish);
    }

    /// Drops every finish after `at` (a crash revokes those completions).
    fn revoke_after(&mut self, at: Seconds) {
        for list in &mut self.0 {
            list.truncate(list.partition_point(|&f| f <= at));
        }
    }

    /// Per tier, how many completions finish after `t`.
    fn after(&self, t: Seconds) -> [u64; 3] {
        self.0
            .each_ref()
            .map(|list| (list.len() - list.partition_point(|&f| f <= t)) as u64)
    }

    /// Every finish after `t`, tier by tier, each ascending.
    fn iter_after(&self, t: Seconds) -> impl Iterator<Item = Seconds> + '_ {
        self.0
            .iter()
            .flat_map(move |list| &list[list.partition_point(|&f| f <= t)..])
            .copied()
    }

    fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// The pushed requests a core may still read, by global arrival index:
/// request `i` sits at `entries[i - base]`. Tenant queues, resident lists
/// and `revocable` hold global indices and read through `Index`.
/// Retired entries are marked in place; once the retired prefix reaches
/// half the window it is drained, so each retirement costs amortized
/// `O(1)` and the entries from any live index on stay one slice.
#[derive(Debug, Default)]
struct Window {
    /// Global arrival index of `entries[0]`.
    base: usize,
    entries: Vec<Entry>,
    /// Global index of the oldest entry not yet retired.
    live_from: usize,
    /// Completed entries a crash could still revoke, as (finish, index).
    revocable: Vec<(Seconds, usize)>,
    /// The latest instant retirement ran through (the latest step's).
    stepped_at: Seconds,
    /// The latest pushed arrival (kept past its entry's retirement).
    newest: Option<f64>,
}

/// One pushed request and what the core tracks about it.
#[derive(Debug)]
struct Entry {
    request: Request,
    /// When continuous batching produced its first token (run-to-completion
    /// batches track first tokens locally).
    first_token: Option<Seconds>,
    /// Completed past any crash's reach: nothing reads the entry again.
    retired: bool,
}

impl Window {
    /// Requests pushed so far (the next arrival index).
    fn pushed(&self) -> usize {
        self.base + self.entries.len()
    }

    /// Appends `request` and returns its arrival index.
    fn push(&mut self, request: Request) -> usize {
        self.newest = Some(request.arrival_s);
        self.entries.push(Entry {
            request,
            first_token: None,
            retired: false,
        });
        self.pushed() - 1
    }

    /// The entries from arrival index `idx` to the newest push.
    fn since(&self, idx: usize) -> &[Entry] {
        &self.entries[idx - self.base..]
    }

    /// Records that request `idx` completes at `finish`.
    fn complete(&mut self, idx: usize, finish: Seconds) {
        self.revocable.push((finish, idx));
    }

    /// Retires every completion finishing at or before `at`, the instant
    /// of a step: no crash can come before it.
    fn retire_through(&mut self, at: Seconds) {
        self.stepped_at = self.stepped_at.max(at);
        let Window {
            base,
            entries,
            revocable,
            ..
        } = self;
        revocable.retain(|&(finish, idx)| {
            let retire = finish <= at;
            entries[idx - *base].retired |= retire;
            !retire
        });
        while self.live_from < self.pushed() && self[self.live_from].retired {
            self.live_from += 1;
        }
        let dead = self.live_from - self.base;
        if dead > 0 && 2 * dead >= self.entries.len() {
            self.entries.drain(..dead);
            self.base = self.live_from;
        }
    }

    /// Moves the indices of the completions finishing after `at` (a crash
    /// at `at` revokes them) into `lost`.
    fn revoke_after(&mut self, at: Seconds, lost: &mut Vec<usize>) {
        self.revocable.retain(|&(finish, idx)| {
            let revoke = finish > at;
            if revoke {
                lost.push(idx);
            }
            !revoke
        });
    }
}

impl std::ops::Index<usize> for Window {
    type Output = Entry;

    fn index(&self, idx: usize) -> &Entry {
        &self.entries[idx - self.base]
    }
}

impl std::ops::IndexMut<usize> for Window {
    fn index_mut(&mut self, idx: usize) -> &mut Entry {
        &mut self.entries[idx - self.base]
    }
}

/// A decided run-to-completion launch.
struct RtcLaunch {
    chip: usize,
    take: usize,
    start: Seconds,
}

enum RtcPlan {
    /// Launch a batch now.
    Launch(RtcLaunch),
    /// The decision resolves at `at` unless more arrivals land first
    /// (dynamic batching waiting out its batching window).
    Wait { at: Seconds },
}

impl<'a> EngineCore<'a> {
    pub(crate) fn new(
        pricer: PhasePricer<'a>,
        policy: BatchPolicy,
        memory: MemoryConfig,
        chips: u64,
        allocs: Vec<PagedKvAllocator>,
    ) -> Self {
        let has_prefill = pricer.model().has_prefill();
        // Prefix sharing needs a prefill phase to share; a DiT engine
        // simply never builds an index.
        let sharing = memory.prefix_sharing && has_prefill;
        let executors: Vec<Executor> = allocs
            .into_iter()
            .map(|alloc| Executor {
                clock: Seconds::ZERO,
                prefix: sharing.then(|| PrefixIndex::new(alloc.block_tokens())),
                alloc,
            })
            .collect();
        let state = match policy {
            BatchPolicy::Static { .. } | BatchPolicy::Dynamic { .. } => State::Rtc(RtcState {
                kv_deferred_at: FxHashMap::default(),
                queue_full: Seconds::ZERO,
            }),
            BatchPolicy::Continuous { max_batch } => State::Cont(ContState {
                chips: executors.iter().map(|_| ContChip::default()).collect(),
                max_batch: max_batch.max(1),
                admitted: Vec::new(),
                prefilling: Vec::new(),
                decoders: Vec::new(),
            }),
        };
        EngineCore {
            pricer,
            policy,
            memory,
            has_prefill,
            chips,
            window: Window::default(),
            closed: false,
            completions: Vec::new(),
            finishes: Finishes::default(),
            completed: 0,
            energy: Joules::ZERO,
            busy: Seconds::ZERO,
            slowdown: 1.0,
            crashed: false,
            trace: Emitter::default(),
            tenancy: TenantQueues::new(&TenantSched {
                classes: vec![SloClass::Standard],
                weights: vec![1.0],
            }),
            executors,
            state,
        }
    }

    /// Attaches a flight-recorder handle: from now on the core emits
    /// request-lifecycle events (queue/prefill/decode spans, preemptions)
    /// on the handle's track; arrivals and completions are the driver's
    /// to trace. Emission never feeds back
    /// into scheduling, so a traced core's report is bit-identical to
    /// an untraced one.
    pub fn attach_trace(&mut self, trace: TraceHandle) {
        self.trace.handle = Some(trace);
    }

    /// Replaces the core's one-tenant `Standard` schedule with `sched`:
    /// each tenant gets its own FIFO queue, keyed by request tenant tag.
    /// Continuous batching admits among the queue heads by (class
    /// priority, deficit-weighted service, tenant id), and preemption
    /// evicts the lowest-priority (then youngest) resident. A
    /// single-tenant schedule behaves exactly like the default one.
    /// Run-to-completion policies keep FIFO batch formation but keep the
    /// same per-tenant ledgers. Trace events carry tenant tags from now
    /// on if `sched` has more than one tenant.
    ///
    /// # Panics
    ///
    /// Panics if any arrival was already pushed, or the schedule's
    /// classes and weights disagree in length.
    pub fn set_tenancy(&mut self, sched: &TenantSched) {
        assert!(
            self.window.pushed() == 0,
            "set_tenancy must precede the first push"
        );
        assert_eq!(
            sched.classes.len(),
            sched.weights.len(),
            "tenant classes and weights must align"
        );
        self.tenancy = TenantQueues::new(sched);
        self.trace.tagged = sched.multi_tenant();
    }

    /// Enqueues an arrival. Pushes must be in non-decreasing arrival
    /// order, and must precede [`close`](EngineCore::close).
    ///
    /// # Panics
    ///
    /// Panics if the core is closed or the arrival order is violated.
    pub fn push(&mut self, request: Request) {
        assert!(!self.closed, "push after close");
        if let Some(newest) = self.window.newest {
            assert!(
                request.arrival_s >= newest,
                "arrivals must be pushed in time order"
            );
        }
        let tenant = self.tenancy.of(&request);
        let idx = self.window.push(request);
        self.tenancy.tenants[tenant].queue.push_back(idx);
        #[cfg(debug_assertions)]
        self.check_conservation(0);
    }

    /// Declares the arrival stream finished: tail batches smaller than a
    /// static batch size may now launch.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// When the engine can next make progress without new arrivals:
    /// the start of the next decided batch, the end of a dynamic batching
    /// window, or the next continuous scheduling round. `None` means the
    /// engine is blocked until a push or [`close`](EngineCore::close) —
    /// or finished.
    pub fn next_action(&self) -> Option<Seconds> {
        match &self.state {
            State::Rtc(_) => self.rtc_decide(None).map(|p| match p {
                RtcPlan::Launch(l) => l.start,
                RtcPlan::Wait { at } => at,
            }),
            State::Cont(_) => self.cont_pick().map(|(_, t)| t),
        }
    }

    /// Performs the next scheduling action (see
    /// [`next_action`](EngineCore::next_action)).
    ///
    /// # Errors
    ///
    /// Returns an error if no action is runnable, an operator cannot be
    /// mapped, or the KV budget cannot hold even a single request.
    pub fn step(&mut self) -> Result<()> {
        let idle = || Error::invalid_config("EngineCore::step called with no runnable action");
        // Each arm first retires what no crash can revoke any more: a
        // crash comes no earlier than this step's instant.
        match self.state {
            State::Rtc(_) => {
                let (at, plan) = match self.rtc_decide(None) {
                    Some(RtcPlan::Launch(l)) => (l.start, l),
                    Some(RtcPlan::Wait { at }) => match self.rtc_decide(Some(at)) {
                        Some(RtcPlan::Launch(l)) => (at, l),
                        _ => unreachable!("a batching window resolves at its deadline"),
                    },
                    None => return Err(idle()),
                };
                self.window.retire_through(at);
                self.rtc_launch(plan)?;
            }
            State::Cont(_) => {
                let (ci, t) = self.cont_pick().ok_or_else(idle)?;
                self.window.retire_through(t);
                self.cont_round(ci, t)?;
            }
        }
        #[cfg(debug_assertions)]
        self.check_conservation(0);
        Ok(())
    }

    /// Launches a stalled partial batch: a static-batching engine whose
    /// queue can no longer fill (every closed-loop client is waiting on a
    /// completion this engine holds) launches what it has. Returns whether
    /// anything launched; a no-op for engines that are not stalled.
    ///
    /// # Errors
    ///
    /// Propagates pricing/allocation errors from the launch.
    pub fn flush_stalled(&mut self) -> Result<bool> {
        if matches!(self.state, State::Cont(_))
            || self.closed
            || self.tenancy.oldest().is_none()
            || self.rtc_decide(None).is_some()
        {
            return Ok(false);
        }
        // Only a static engine waiting for a full batch reaches here.
        let take = self.queued() as usize;
        let chip = earliest(&self.executors);
        let newest = self.window.newest.expect("a stalled batch was pushed");
        let start = self.executors[chip].clock.max(Seconds::new(newest));
        self.rtc_launch(RtcLaunch { chip, take, start })?;
        #[cfg(debug_assertions)]
        self.check_conservation(0);
        Ok(true)
    }

    /// Reverses [`close`](EngineCore::close) so a fault-aware driver can
    /// re-inject lost requests after the original stream exhausted (a
    /// retry arrives later than every organic arrival, so push-order
    /// monotonicity still holds). Callers re-close immediately after the
    /// push; the zero-fault [`drive`] loop never needs this.
    ///
    /// # Panics
    ///
    /// Panics on a crashed core (a dead replica takes no retries — the
    /// driver restarts it as a fresh core instead).
    pub fn reopen(&mut self) {
        assert!(!self.crashed, "reopen on a crashed core");
        self.closed = false;
    }

    /// Sets the straggler multiplier applied to priced step latency from
    /// the next scheduling round on (`1.0` restores full speed). Energy
    /// is unchanged: a slowed chip computes the same work, only later.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite factor.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "straggler slowdown must be a positive finite factor"
        );
        self.slowdown = factor;
    }

    /// Kills the replica at simulated time `at`: every request still in
    /// flight is lost, along with all of its KV blocks and the prefix
    /// index contents. Returns the lost requests (queued, resident, and —
    /// because run-to-completion batches price their entire future at
    /// launch — requests whose completion would only have materialized
    /// after `at`, which are revoked), sorted by arrival order, for the
    /// driver to retry elsewhere. Completions that finished at or before
    /// `at` stand. Energy and busy time already accrued stay on the
    /// books: work a crash destroys was still computed and paid for.
    ///
    /// The core is inert afterwards — [`next_action`](Self::next_action)
    /// returns `None` and `is_done` holds — and the
    /// driver models the restart by building a fresh core (empty
    /// allocator and prefix index) from the session after the repair
    /// delay.
    ///
    /// `at` must be no earlier than the instant of the core's latest
    /// [`step`](Self::step) (a driver crashes a core when simulated time
    /// reaches `at`, before any step after it): the core has already let
    /// go of requests whose completions finished by then.
    ///
    /// # Panics
    ///
    /// Panics if the core already crashed.
    pub fn crash(&mut self, at: Seconds) -> Vec<Request> {
        assert!(!self.crashed, "crash on an already-crashed core");
        debug_assert!(
            at >= self.window.stepped_at,
            "crash before the core's latest step"
        );
        self.crashed = true;
        // Revoke completions scheduled past the crash instant; their
        // requests are still in the window. A driver that took them
        // revokes its own copies: they are the `lost` returned.
        self.completions.retain(|c| c.finish <= at);
        self.finishes.revoke_after(at);
        let mut lost_idx: Vec<usize> = Vec::new();
        self.window.revoke_after(at, &mut lost_idx);
        self.completed -= lost_idx.len();
        for x in &mut self.executors {
            x.alloc.release_all();
            if let Some(index) = &mut x.prefix {
                index.clear();
            }
        }
        match &mut self.state {
            State::Rtc(st) => st.kv_deferred_at.clear(),
            State::Cont(st) => {
                for chip in &mut st.chips {
                    lost_idx.extend(chip.active.drain(..).map(|a| a.idx));
                    lost_idx.extend(chip.resume.drain(..).map(|(idx, _)| idx));
                }
            }
        }
        for tq in &mut self.tenancy.tenants {
            lost_idx.extend(tq.queue.drain(..));
        }
        self.closed = true;
        lost_idx.sort_unstable();
        #[cfg(debug_assertions)]
        self.check_conservation(lost_idx.len());
        lost_idx
            .into_iter()
            .map(|i| self.window[i].request)
            .collect()
    }

    /// Whether every pushed request has been completed and the stream is
    /// closed.
    pub(crate) fn is_done(&self) -> bool {
        self.closed && self.queued() == 0 && self.resident() == 0
    }

    /// Requests currently resident on an executor (being computed or
    /// awaiting resumption); always zero between run-to-completion
    /// launches, whose batches complete within one step.
    pub(crate) fn resident(&self) -> u64 {
        match &self.state {
            State::Rtc(_) => 0,
            State::Cont(st) => st
                .chips
                .iter()
                .map(|c| (c.active.len() + c.resume.len()) as u64)
                .sum(),
        }
    }

    /// Requests pushed but not yet scheduled.
    pub fn queued(&self) -> u64 {
        self.tenancy
            .tenants
            .iter()
            .map(|t| t.queue.len() as u64)
            .sum()
    }

    /// Requests in flight at simulated time `t`: queued, resident, or
    /// already scheduled with a completion time after `t` (run-to-
    /// completion batches compute their whole future at launch). Exact
    /// for any `t`, including times before the core's latest event, in
    /// `O(log completions)`.
    pub fn outstanding_at(&self, t: Seconds) -> u64 {
        debug_assert_eq!(self.finishes.len(), self.completed);
        self.queued() + self.resident() + self.finishes.after(t).iter().sum::<u64>()
    }

    /// The finish times after `t` of every completion the core produced
    /// (taken or not; revoked ones excluded), tier by tier, each
    /// ascending: the scheduled completions
    /// [`outstanding_at`](Self::outstanding_at) counts. Costs
    /// `O(log completions)` plus one step per finish returned.
    pub fn finishes_after(&self, t: Seconds) -> impl Iterator<Item = Seconds> + '_ {
        self.finishes.iter_after(t)
    }

    /// Requests in flight at simulated time `t`, broken out by service
    /// tier (indexed by [`SloClass::rank`]; untenanted requests count as
    /// their default `Standard` class). Entries always sum to
    /// [`outstanding_at`](Self::outstanding_at). Costs
    /// `O(queued + resident + log completions)`.
    pub fn outstanding_by_class_at(&self, t: Seconds) -> [u64; 3] {
        let mut out = self.finishes.after(t);
        for idx in self.tenancy.queued().chain(self.resident_indices()) {
            out[self.window[idx].request.class.rank()] += 1;
        }
        out
    }

    /// The arrival indices of every resident request (none between
    /// run-to-completion launches).
    fn resident_indices(&self) -> impl Iterator<Item = usize> + '_ {
        let chips = match &self.state {
            State::Rtc(_) => &[][..],
            State::Cont(st) => &st.chips[..],
        };
        chips.iter().flat_map(|chip| {
            let active = chip.active.iter().map(|a| a.idx);
            active.chain(chip.resume.iter().map(|&(idx, _)| idx))
        })
    }

    /// Checks request conservation: every pushed request is retired,
    /// completed but revocable, queued, resident or (after a crash) one of
    /// the `lost` returned; the completions produced are exactly the
    /// retired and revocable ones; and every index the core holds reads a
    /// live entry.
    #[cfg(debug_assertions)]
    fn check_conservation(&self, lost: usize) {
        let w = &self.window;
        let retired = w.base + w.entries.iter().filter(|e| e.retired).count();
        let (queued, resident) = (self.queued() as usize, self.resident() as usize);
        assert_eq!(
            w.pushed(),
            retired + w.revocable.len() + queued + resident + lost,
            "pushed == retired + revocable + queued + resident + lost"
        );
        assert_eq!(self.completed, retired + w.revocable.len());
        let held = self.tenancy.queued().chain(self.resident_indices());
        for idx in held.chain(w.revocable.iter().map(|&(_, idx)| idx)) {
            assert!(
                (w.live_from..w.pushed()).contains(&idx),
                "index {idx} left the window"
            );
            assert!(!w[idx].retired, "index {idx} is retired but still held");
        }
    }

    /// [`outstanding_by_class_at`](Self::outstanding_by_class_at) by
    /// linear scan of `pushed`, every request pushed so far in order, and
    /// the completions: the test oracle. Until a crash, a pushed request
    /// is queued unless it is resident or completed.
    #[cfg(test)]
    fn outstanding_by_class_scan(&self, pushed: &[Request], t: Seconds) -> [u64; 3] {
        let mut out = [0u64; 3];
        let resident: Vec<usize> = self.resident_indices().collect();
        for (i, r) in pushed.iter().enumerate() {
            let completed = self.completions.iter().any(|c| c.id == r.id);
            if resident.contains(&i) || !(self.crashed || completed) {
                out[r.class.rank()] += 1;
            }
        }
        let class_of = |id: u64| {
            pushed
                .iter()
                .find(|r| r.id == id)
                .expect("completed requests arrived")
                .class
        };
        for c in self.completions.iter().filter(|c| c.finish > t) {
            out[class_of(c.id).rank()] += 1;
        }
        out
    }

    /// Entries the window holds, retired ones not yet drained included.
    #[cfg(test)]
    fn window_len(&self) -> usize {
        self.window.entries.len()
    }

    /// Per-tenant preemption counts, by tenant index of the schedule
    /// ([`set_tenancy`](Self::set_tenancy); one entry by default).
    pub fn tenant_preemptions(&self) -> &[u64] {
        &self.tenancy.preempted
    }

    /// Live KV occupancy as a fraction of capacity (max over executors;
    /// 0 when the budget is unlimited).
    pub fn kv_frac(&self) -> f64 {
        self.executors
            .iter()
            .map(|x| x.alloc.used_frac())
            .fold(0.0, f64::max)
    }

    /// The completions the core still holds, in completion order: every
    /// one so far unless a driver [took](Self::take_completions) them.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// Moves the completions the core holds, in completion order, to the
    /// end of `out`; the core keeps their finish times. A fleet driver
    /// calls this after every step, so each completion lives in one list:
    /// the driver's.
    pub fn take_completions(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// Total chip energy so far.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Total time executors spent computing (priced segment latency, not
    /// idle gaps) — the numerator of a utilization metric.
    pub fn busy(&self) -> Seconds {
        self.busy
    }

    /// Memory-subsystem counters so far.
    pub fn memory_stats(&self) -> MemoryStats {
        let hwm = self.executors.iter().map(|x| x.alloc.high_water_frac());
        let mut memory = MemoryStats {
            kv_hwm_frac: hwm.fold(0.0, f64::max),
            ..MemoryStats::NONE
        };
        match &self.state {
            State::Rtc(st) => memory.queue_full_s = st.queue_full.get(),
            State::Cont(st) => {
                for c in &st.chips {
                    memory.preemptions += c.preemptions;
                    memory.queue_full_s += c.queue_full.get();
                }
            }
        }
        memory
    }

    /// Prefix-sharing counters so far, summed over executors (all zero
    /// when sharing is off).
    pub fn prefix_stats(&self) -> PrefixStats {
        let mut total = PrefixStats::default();
        for index in self.executors.iter().filter_map(|x| x.prefix.as_ref()) {
            total.absorb(&index.stats());
        }
        total
    }

    /// Builds the aggregate report over the completions the core holds
    /// (everything completed, unless a driver took some), consuming the
    /// core so the run's completion list moves, not copies.
    ///
    /// # Panics
    ///
    /// Panics if the core holds no completion.
    pub(crate) fn finish(self, label: &str) -> ServingRun {
        let (memory, prefix) = (self.memory_stats(), self.prefix_stats());
        let mut completions = self.completions;
        completions.sort_unstable_by_key(|c| c.id);
        let report = ServingReport::from_completions(
            label,
            self.policy.name(),
            self.chips,
            &completions,
            self.energy,
            memory,
        );
        ServingRun {
            report,
            completions,
            prefix,
        }
    }

    /// Batch formation at the queue head. `now` is the current driver
    /// time when resolving a batching window (`None` while merely
    /// querying): a dynamic window commits at its deadline because every
    /// arrival at or before it has been pushed by then (driver protocol).
    fn rtc_decide(&self, now: Option<Seconds>) -> Option<RtcPlan> {
        // Batch formation is FIFO, so everything from the oldest queued
        // arrival on is still queued.
        let queue = self.window.since(self.tenancy.oldest()?);
        let chip = earliest(&self.executors);
        let free = self.executors[chip].clock;
        match self.policy {
            BatchPolicy::Static { batch } => {
                // Wait for a full batch (the stream tail may be smaller).
                let b = batch.max(1) as usize;
                let take = if queue.len() >= b {
                    b
                } else if self.closed {
                    queue.len()
                } else {
                    return None; // blocked until more arrivals or close
                };
                let start = free.max(queue[take - 1].request.arrival());
                Some(RtcPlan::Launch(RtcLaunch { chip, take, start }))
            }
            BatchPolicy::Dynamic {
                max_batch,
                max_wait_ms,
            } => {
                // Launch when `max_batch` have queued or the oldest waiter
                // has waited `max_wait_ms`, whichever happens first.
                let cap = max_batch.max(1) as usize;
                let t0 = free.max(queue[0].request.arrival());
                let deadline =
                    t0.max(queue[0].request.arrival() + Seconds::from_millis(max_wait_ms));
                let take = queue
                    .iter()
                    .take(cap)
                    .take_while(|e| e.request.arrival() <= deadline)
                    .count();
                // The take is final once the batch is full, a queued
                // arrival already fell past the deadline, the stream is
                // closed, or the window itself has elapsed.
                let committed = take == cap
                    || queue.len() > take
                    || self.closed
                    || now.is_some_and(|n| n >= deadline);
                if committed {
                    let start = t0.max(queue[take - 1].request.arrival());
                    Some(RtcPlan::Launch(RtcLaunch { chip, take, start }))
                } else {
                    Some(RtcPlan::Wait { at: deadline })
                }
            }
            BatchPolicy::Continuous { .. } => unreachable!("continuous has its own loop"),
        }
    }

    /// Executes one decided run-to-completion launch: KV admission may
    /// shrink the policy's batch; the surviving members run to completion
    /// on the chosen executor.
    fn rtc_launch(&mut self, plan: RtcLaunch) -> Result<()> {
        let RtcLaunch {
            chip,
            take: policy_take,
            start: policy_start,
        } = plan;
        let next = self.tenancy.oldest().expect("a launch has queued members");
        let queue = &self.window.since(next)[..policy_take];
        let x = &mut self.executors[chip];
        // Admission control: shrink the batch until its worst-case
        // footprint fits the (empty) allocator.
        let take = kv_admissible_prefix(&x.alloc, queue)?;
        let start = if take == policy_take {
            policy_start
        } else {
            x.clock.max(queue[take - 1].request.arrival())
        };
        let State::Rtc(st) = &mut self.state else {
            unreachable!("rtc_launch on continuous")
        };
        for e in &queue[take..] {
            st.kv_deferred_at.entry(e.request.id).or_insert(start);
        }
        for r in queue[..take].iter().map(|e| &e.request) {
            if let Some(since) = st.kv_deferred_at.remove(&r.id) {
                // Ready since `since` (or its arrival, if later), held
                // back by KV until this launch.
                st.queue_full += (start - since.max(r.arrival())).max(Seconds::ZERO);
            }
        }
        let members: Vec<Request> = queue[..take].iter().map(|e| e.request).collect();
        for r in &members {
            self.trace.span(EventKind::Queue, r, r.arrival(), start);
            // Run-to-completion batch formation stays FIFO: each member
            // heads its tenant's queue. The ledgers still charge service.
            let admitted = self.tenancy.admit(self.tenancy.of(r), &self.window);
            debug_assert_eq!(self.window[admitted].request.id, r.id);
        }
        // Between run-to-completion batches only index-held prefix
        // blocks occupy the allocator; admission reserved the worst
        // case against an *empty* one, so evict (last-reference, LRU)
        // until the batch's worst case fits. Members re-match whatever
        // survives when they are admitted below.
        if let (Some(index), Some(_)) = (x.prefix.as_mut(), x.alloc.capacity_blocks()) {
            let alloc = &mut x.alloc;
            let worst: u64 = members
                .iter()
                .map(|r| alloc.blocks_for(r.prompt_len + r.steps))
                .sum();
            let free = alloc.free_blocks().unwrap_or(u64::MAX);
            if worst > free {
                index.evict(alloc, worst - free);
            }
        }
        self.executors[chip].clock = self.run_batch(&members, next, start, chip)?;
        Ok(())
    }

    /// Runs one formed batch to completion: grouped prefill (prompt padded
    /// to the longest member, optionally split into chunks), then one step
    /// per generated token. Static batching pads — finished requests hold
    /// their slot; dynamic shrinks the step batch as requests finish. KV
    /// blocks grow with each generated token and release when the batch
    /// retires. `members` are the arrivals from index `first` on.
    fn run_batch(
        &mut self,
        members: &[Request],
        first: usize,
        start: Seconds,
        chip: usize,
    ) -> Result<Seconds> {
        let b = members.len() as u64;
        let max_prompt = members
            .iter()
            .map(|r| r.prompt_len)
            .max()
            .expect("non-empty");
        let max_steps = members.iter().map(|r| r.steps).max().expect("non-empty");
        let pads = self.policy.pads_to_batch_end();

        // Prefill KV lands as the prompt is ingested. With prefix sharing
        // on, each member first matches the chip's prefix index: fully
        // matched blocks attach by reference, and the member's uncached
        // full prompt blocks are promoted into the index (no speculative
        // tail copies — admission reserved exactly the worst case).
        let mut shared = vec![0u64; members.len()];
        let Executor { alloc, prefix, .. } = &mut self.executors[chip];
        match prefix {
            None => {
                for r in members {
                    let ok = alloc.try_grow(r.id, r.prompt_len);
                    debug_assert!(ok, "admission reserved the worst case");
                }
            }
            Some(index) => {
                for (i, r) in members.iter().enumerate() {
                    let tokens = r.prompt_tokens();
                    let m = index.lookup(&tokens);
                    let ok = alloc.try_admit(r.id, m.blocks(), r.prompt_len);
                    debug_assert!(ok, "admission reserved the worst case");
                    if ok {
                        index.commit(&tokens, &m, r.id, alloc, false);
                        shared[i] = m.matched_tokens().min(r.prompt_len.saturating_sub(1));
                    }
                }
            }
        }
        let mut t = start;
        let mut first_token = vec![Seconds::ZERO; members.len()];
        if self.has_prefill {
            // Cold members prefill as one padded group; prefix-hit members
            // compute only their tails as a second group, padded to the
            // longest tail and deepest cached past. The whole batch's
            // first token stands at the end of all prefill, per
            // run-to-completion semantics.
            for hit in [false, true] {
                let group = members.iter().zip(&shared).filter(|(_, &s)| (s > 0) == hit);
                let n = group.clone().count() as u64;
                if n > 0 {
                    let past = group.clone().map(|(_, &s)| s).max().expect("non-empty");
                    let tail = group
                        .map(|(r, &s)| r.prompt_len - s)
                        .max()
                        .expect("non-empty");
                    self.price_prefill_span(&mut t, n, past, past + tail)?;
                }
            }
            first_token.fill(t);
            for r in members {
                self.trace.span(EventKind::Prefill, r, start, t);
            }
        }
        let mut finish = vec![Seconds::ZERO; members.len()];
        for s in 0..max_steps {
            let active = if pads {
                b
            } else {
                members.iter().filter(|r| r.steps > s).count() as u64
            };
            let alloc = &mut self.executors[chip].alloc;
            for r in members.iter().filter(|r| r.steps > s) {
                let ok = alloc.try_grow(r.id, r.prompt_len + s + 1);
                debug_assert!(ok, "admission reserved the worst case");
            }
            let step = self.pricer.step(active, max_prompt + s + 1)?;
            t += stretch(step.latency, self.slowdown);
            self.energy += step.total_energy();
            if s == 0 && !self.has_prefill {
                first_token.fill(t);
            }
            for (i, r) in members.iter().enumerate() {
                if r.steps == s + 1 {
                    finish[i] = t;
                }
            }
        }
        let alloc = &mut self.executors[chip].alloc;
        for (i, r) in members.iter().enumerate() {
            alloc.release(r.id);
            // Padded batches release results when the batch completes.
            let release = if pads { t } else { finish[i] };
            self.trace
                .span(EventKind::Decode, r, first_token[i], release);
            self.completions.push(Completion {
                id: r.id,
                arrival: r.arrival(),
                first_token: first_token[i],
                finish: release,
                steps: r.steps,
            });
            self.finishes.record(release, r.class);
            self.completed += 1;
            self.window.complete(first + i, release);
        }
        self.busy += t - start;
        Ok(t)
    }

    /// Prices `batch` members ingesting prompt positions `past..target`
    /// (their cached prefix ends at `past`): one pass per configured
    /// chunk window, or a single pass covering the whole span. Each pass
    /// advances the clock `t` and accumulates energy.
    fn price_prefill_span(
        &mut self,
        t: &mut Seconds,
        batch: u64,
        past: u64,
        target: u64,
    ) -> Result<()> {
        let mut at = past;
        let span = self.memory.chunk_tokens.unwrap_or(u64::MAX);
        while at < target {
            let c = span.min(target - at);
            let cost = self.pricer.prefill_chunk(batch, c, at)?;
            *t += stretch(cost.latency, self.slowdown);
            self.energy += cost.total_energy();
            at += c;
        }
        Ok(())
    }

    /// Next continuous scheduling round: a chip with resident work steps
    /// now; an idle chip waits for the next queued arrival (ties pick the
    /// lowest index, keeping the schedule deterministic).
    fn cont_pick(&self) -> Option<(usize, Seconds)> {
        let State::Cont(st) = &self.state else {
            unreachable!("cont_pick on rtc")
        };
        let mut pick: Option<(usize, Seconds)> = None;
        for (i, (chip, x)) in st.chips.iter().zip(&self.executors).enumerate() {
            let candidate = if !chip.active.is_empty() || !chip.resume.is_empty() {
                x.clock
            } else if let Some(idx) = self.tenancy.oldest() {
                x.clock.max(self.window[idx].request.arrival())
            } else {
                continue;
            };
            if pick.is_none_or(|(_, best)| candidate < best) {
                pick = Some((i, candidate));
            }
        }
        pick
    }

    /// One continuous-batching round on chip `ci` at time `t`: admit into
    /// free slots (KV permitting), advance prefill (monolithic or one
    /// chunk), then one generation step for everything past its prefill,
    /// evicting the youngest resident request when KV blocks run out
    /// (recompute-on-resume).
    fn cont_round(&mut self, ci: usize, t: Seconds) -> Result<()> {
        let has_prefill = self.has_prefill;
        let chunking = self.memory.chunk_tokens;
        let slowdown = self.slowdown;
        let State::Cont(ContState {
            chips,
            max_batch,
            admitted,
            prefilling,
            decoders,
        }) = &mut self.state
        else {
            unreachable!("cont_round on rtc")
        };
        let max_batch = *max_batch;
        let (chip, x) = (&mut chips[ci], &mut self.executors[ci]);
        x.clock = t;
        let round_start = x.clock;

        // Admit into free slots, KV permitting: preempted requests first
        // (their whole recomputed context must fit), then the queue head
        // the tenant schedule picks (its prompt must fit): the most senior
        // class, then the lowest weighted service (deficit), then the
        // lowest tenant id, among tenants with an arrival queued by now;
        // FIFO within a tenant. Head-of-line blocking on KV is what the
        // queue-full metric measures. With prefix sharing on, admission
        // matches the chip's prefix index (attaching cached blocks by
        // reference, evicting index-only blocks before giving up) and
        // records how many prompt tokens the member skips.
        admitted.clear();
        let mut kv_blocked = false;
        while chip.active.len() + admitted.len() < max_batch as usize {
            let (idx, done, tenant) = match chip.resume.front() {
                Some(&(idx, done)) => (idx, done, None),
                None => match self.tenancy.pick(&self.window, x.clock) {
                    Some((tenant, idx)) => (idx, 0, Some(tenant)),
                    None => break,
                },
            };
            let Some(shared) = cont_admit(x, &self.window[idx].request, done) else {
                kv_blocked = true;
                break;
            };
            match tenant {
                None => {
                    chip.resume.pop_front();
                }
                Some(tenant) => {
                    self.tenancy.admit(tenant, &self.window);
                }
            }
            admitted.push((idx, done, shared));
        }
        if kv_blocked && chip.active.is_empty() && admitted.is_empty() {
            // Nothing resident to retire or preempt: the head request can
            // never fit.
            return Err(Error::invalid_config(format!(
                "KV budget too small: a single request needs more than the {} block(s) \
                 of {} tokens available",
                x.alloc.capacity_blocks().unwrap_or(0),
                x.alloc.block_tokens(),
            )));
        }
        // Fresh admissions close their queue span; resumed requests
        // already emitted theirs on first admission.
        for &(idx, done, _) in admitted.iter() {
            if done == 0 {
                let r = &self.window[idx].request;
                self.trace
                    .span(EventKind::Queue, r, r.arrival(), round_start);
            }
        }

        // Prefill the admitted group. Monolithic: resumed members
        // recompute their full context; cold members prefill as one
        // padded group, and prefix-hit members compute only their tails,
        // grouped into one chunk padded to the longest tail and deepest
        // cached past (the same padding rule). Chunked: members enter
        // mid-prefill — at their cached-prefix boundary when sharing —
        // and advance below.
        match chunking {
            None => {
                for hit in [false, true] {
                    let group = admitted.iter().filter(|&&(_, _, s)| (s > 0) == hit);
                    let n = group.clone().count() as u64;
                    if n == 0 || !has_prefill {
                        continue;
                    }
                    let past = group.clone().map(|&(_, _, s)| s).max().expect("non-empty");
                    let tail = group
                        .clone()
                        .map(|&(idx, done, s)| self.window[idx].request.prompt_len + done - s)
                        .max()
                        .expect("non-empty");
                    let cost = self.pricer.prefill_chunk(n, tail, past)?;
                    let before = x.clock;
                    x.clock += stretch(cost.latency, slowdown);
                    self.energy += cost.total_energy();
                    for &(idx, _, _) in group {
                        let e = &mut self.window[idx];
                        e.first_token.get_or_insert(x.clock);
                        self.trace
                            .span(EventKind::Prefill, &e.request, before, x.clock);
                    }
                }
                chip.active.extend(admitted.drain(..).map(|(idx, done, _)| {
                    let target = self.window[idx].request.prompt_len + done;
                    Active {
                        idx,
                        done,
                        prefilled: target,
                        target,
                    }
                }));
            }
            Some(chunk) => {
                chip.active
                    .extend(admitted.drain(..).map(|(idx, done, shared)| {
                        let target = self.window[idx].request.prompt_len + done;
                        Active {
                            idx,
                            done,
                            // A model with no prefill phase (DiT) has no
                            // prompt to chunk: it enters decode directly,
                            // whatever its nominal prompt length. A cached
                            // prefix skips straight to its divergence point.
                            prefilled: if has_prefill { shared } else { target },
                            target,
                        }
                    }));
                // One prefill chunk for everything still ingesting its
                // prompt, padded to the group's longest chunk/context.
                prefilling.clear();
                prefilling.extend(
                    (0..chip.active.len())
                        .filter(|&p| chip.active[p].prefilled < chip.active[p].target),
                );
                if has_prefill && !prefilling.is_empty() {
                    let c = prefilling
                        .iter()
                        .map(|&p| (chip.active[p].target - chip.active[p].prefilled).min(chunk))
                        .max()
                        .expect("non-empty");
                    let past = prefilling
                        .iter()
                        .map(|&p| chip.active[p].prefilled)
                        .max()
                        .expect("non-empty");
                    let before = x.clock;
                    let cost = self
                        .pricer
                        .prefill_chunk(prefilling.len() as u64, c, past)?;
                    x.clock += stretch(cost.latency, slowdown);
                    self.energy += cost.total_energy();
                    let now = x.clock;
                    for &p in prefilling.iter() {
                        let a = &mut chip.active[p];
                        a.prefilled = (a.prefilled + chunk).min(a.target);
                        let e = &mut self.window[a.idx];
                        if a.prefilled == a.target {
                            e.first_token.get_or_insert(now);
                        }
                        self.trace.span(EventKind::Prefill, &e.request, before, now);
                    }
                }
            }
        }

        // One generation step for every request past its prefill. Each
        // needs one more token of KV; when blocks run out, evict the
        // youngest resident request (recompute-on-resume) until the rest
        // fit.
        loop {
            decoders.clear();
            decoders.extend(
                (0..chip.active.len())
                    .filter(|&p| chip.active[p].prefilled >= chip.active[p].target),
            );
            if decoders.is_empty() {
                break;
            }
            let fits = decoders.iter().all(|&p| {
                let r = &self.window[chip.active[p].idx].request;
                x.alloc
                    .try_grow(r.id, r.prompt_len + chip.active[p].done + 1)
            });
            if !fits {
                // Cheapest relief first: evict cached prefix blocks whose
                // last reference is the index (never a resident request's
                // blocks), then retry the round before preempting anyone.
                if let Some(index) = &mut x.prefix {
                    if index.evict(&mut x.alloc, decoders.len() as u64) > 0 {
                        continue;
                    }
                }
                // The lowest-priority tenant class goes first — batch-tier
                // residents absorb preemptions before any interactive-tier
                // KV is touched — then the youngest (latest arrival; ids
                // are arrival-ordered).
                let tenancy = &mut self.tenancy;
                let victim_pos = (0..chip.active.len())
                    .max_by_key(|&p| {
                        let idx = chip.active[p].idx;
                        (
                            tenancy.tenants[tenancy.of(&self.window[idx].request)]
                                .class
                                .rank(),
                            idx,
                        )
                    })
                    .expect("non-empty");
                let victim = chip.active.remove(victim_pos);
                let r = &self.window[victim.idx].request;
                x.alloc.release(r.id);
                let tenant = tenancy.of(r);
                tenancy.preempted[tenant] += 1;
                self.trace.instant(EventKind::Preempt, r, x.clock);
                chip.resume.push_back((victim.idx, victim.done));
                chip.preemptions += 1;
                kv_blocked = true;
                if chip.active.is_empty() {
                    return Err(Error::invalid_config(
                        "KV budget too small to sustain a single running request",
                    ));
                }
                continue;
            }
            let b = decoders.len() as u64;
            let ctx = decoders
                .iter()
                .map(|&p| {
                    let a = &chip.active[p];
                    self.window[a.idx].request.prompt_len + a.done
                })
                .max()
                .expect("non-empty")
                + 1;
            let step = self.pricer.step(b, ctx)?;
            x.clock += stretch(step.latency, slowdown);
            self.energy += step.total_energy();
            let now = x.clock;
            for &p in decoders.iter() {
                let a = &mut chip.active[p];
                a.done += 1;
                if a.done == 1 && !has_prefill {
                    self.window[a.idx].first_token.get_or_insert(now);
                }
            }
            let (active, alloc) = (&mut chip.active, &mut x.alloc);
            let window = &mut self.window;
            let completions = &mut self.completions;
            let (finishes, completed) = (&mut self.finishes, &mut self.completed);
            let trace = &self.trace;
            active.retain(|a| {
                let Entry {
                    request: r,
                    first_token,
                    ..
                } = &window[a.idx];
                if a.prefilled < a.target || a.done < r.steps {
                    return true;
                }
                let first_token = first_token.unwrap_or(Seconds::ZERO);
                alloc.release(r.id);
                trace.span(EventKind::Decode, r, first_token, now);
                completions.push(Completion {
                    id: r.id,
                    arrival: r.arrival(),
                    first_token,
                    finish: now,
                    steps: r.steps,
                });
                finishes.record(now, r.class);
                *completed += 1;
                window.complete(a.idx, now);
                false
            });
            break;
        }
        // A round that held a ready request back on KV charges its
        // duration to the queue-full clock.
        if kv_blocked {
            chip.queue_full += x.clock - round_start;
        }
        debug_assert!(
            x.clock > round_start || !chip.active.is_empty() || !chip.resume.is_empty(),
            "a scheduled round must make progress"
        );
        self.busy += x.clock - round_start;
        Ok(())
    }
}

/// The longest queue prefix whose worst-case KV footprint (prompt + every
/// generated token) fits an empty allocator — run-to-completion admission
/// control.
///
/// # Errors
///
/// Returns an error if even the first request can never fit.
fn kv_admissible_prefix(alloc: &PagedKvAllocator, queue: &[Entry]) -> Result<usize> {
    let Some(capacity) = alloc.capacity_blocks() else {
        return Ok(queue.len());
    };
    let mut blocks = 0;
    let mut take = 0;
    for r in queue.iter().map(|e| &e.request) {
        let need = alloc.blocks_for(r.prompt_len + r.steps);
        if blocks + need > capacity {
            break;
        }
        blocks += need;
        take += 1;
    }
    if take == 0 {
        let r = &queue[0].request;
        return Err(Error::invalid_config(format!(
            "KV budget too small: request {} needs {} blocks but capacity is {capacity}",
            r.id,
            alloc.blocks_for(r.prompt_len + r.steps),
        )));
    }
    Ok(take)
}

/// Tries to admit `request` (resumed with `done` already-generated
/// tokens) onto a continuous-batching executor, covering `prompt + done`
/// tokens of KV. With prefix sharing on, cached blocks attach by
/// reference, index-only blocks are evicted before giving up, and the
/// admitted request's uncached prompt blocks are committed back into the
/// index (including a best-effort partial-tail copy). Returns the
/// shareable token count — how much of the prefill the scheduler may
/// skip, capped so the prompt's final token is always computed — or
/// `None` if the request does not fit.
fn cont_admit(x: &mut Executor, request: &Request, done: u64) -> Option<u64> {
    let target = request.prompt_len + done;
    let Some(index) = &mut x.prefix else {
        return x.alloc.try_grow(request.id, target).then_some(0);
    };
    let tokens = request.prompt_tokens();
    let m = index.lookup(&tokens);
    let mut admitted = x.alloc.try_admit(request.id, m.blocks(), target);
    if !admitted {
        // Evict cached blocks nobody references (LRU) and retry once,
        // pinning every block the match reads — the attached full blocks
        // *and* the partial copy-on-write source — so eviction cannot
        // take the very prefix this request is about to use.
        let pinned = m.blocks().iter().copied().chain(m.partial_block());
        for b in pinned.clone() {
            x.alloc.retain_shared(b);
        }
        let need = x
            .alloc
            .blocks_for(target)
            .saturating_sub(m.blocks().len() as u64);
        let free = x.alloc.free_blocks().unwrap_or(u64::MAX);
        let evicted = index.evict(&mut x.alloc, need.saturating_sub(free));
        for b in pinned {
            x.alloc.release_shared(b);
        }
        if evicted > 0 {
            admitted = x.alloc.try_admit(request.id, m.blocks(), target);
        }
    }
    if !admitted {
        return None;
    }
    index.commit(&tokens, &m, request.id, &mut x.alloc, true);
    Some(m.matched_tokens().min(request.prompt_len.saturating_sub(1)))
}

/// Applies a straggler multiplier to a priced latency. The factor 1.0
/// short-circuits so un-faulted runs see bit-identical arithmetic.
fn stretch(latency: Seconds, slowdown: f64) -> Seconds {
    if slowdown == 1.0 {
        latency
    } else {
        Seconds::new(latency.get() * slowdown)
    }
}

/// Index of the executor that frees earliest (ties pick the lowest index,
/// keeping the schedule deterministic).
fn earliest(executors: &[Executor]) -> usize {
    let mut best = 0;
    for (i, x) in executors.iter().enumerate().skip(1) {
        if x.clock < executors[best].clock {
            best = i;
        }
    }
    best
}

/// Driver-side observers for the [`drive_with`] event loop.
///
/// `route` picks the core an arrival is pushed into; the remaining hooks
/// let a fleet driver maintain incremental state (router snapshots,
/// per-replica ledgers) without rescanning the cores on every event. A
/// plain `FnMut(&Request, &[EngineCore]) -> usize` routing closure
/// implements the trait with no-op observers, so single-engine callers
/// keep using [`drive`].
pub trait DriveHooks {
    /// Chooses the core index for `request` (out-of-range clamps).
    fn route(&mut self, request: &Request, cores: &[EngineCore<'_>]) -> usize;

    /// Called after `request`-routing pushed into (clamped) core `k`.
    fn on_push(&mut self, k: usize, cores: &[EngineCore<'_>]) {
        let _ = (k, cores);
    }

    /// Called after core `k` stepped (or flushed a stalled batch), with
    /// the completions the step produced.
    fn on_step(&mut self, k: usize, cores: &[EngineCore<'_>], new: &[Completion]) {
        let _ = (k, cores, new);
    }
}

/// Adapts a routing closure into no-op [`DriveHooks`].
struct RouteOnly<F>(F);

impl<F: FnMut(&Request, &[EngineCore<'_>]) -> usize> DriveHooks for RouteOnly<F> {
    fn route(&mut self, request: &Request, cores: &[EngineCore<'_>]) -> usize {
        (self.0)(request, cores)
    }
}

/// Drives one or more engine cores against an arrival stream until both
/// are drained: the shared event loop of single-engine closed-loop runs
/// and fleet-level (cluster) simulation.
///
/// Protocol, in simulated-time order: the earliest pending event wins.
/// An arrival at or before every engine's next action is routed (the
/// `route` callback picks a core index; out-of-range indices clamp) and
/// pushed; otherwise the earliest-action engine steps (ties pick the
/// lowest core index) and its new completions feed the stream (closed-loop
/// clients schedule their next request). When the stream exhausts, every
/// core is closed. If nothing can act and the stream still holds requests
/// (static batching waiting for a batch that closed-loop clients can no
/// longer fill), stalled cores flush their partial batches.
///
/// Next-action times live in an [`ActionHeap`], so each event costs
/// `O(log n)` instead of an `O(n)` rescan of every core; the heap's
/// tie-break (lowest core index at equal times) reproduces the original
/// scan bit-for-bit.
///
/// # Errors
///
/// Propagates engine errors, and reports a deadlock if no engine can make
/// progress on a non-exhausted stream (cannot happen with the built-in
/// policies; the flush rule above resolves the static-batching stall).
pub fn drive(
    cores: &mut [EngineCore<'_>],
    stream: &mut ArrivalStream<'_>,
    route: impl FnMut(&Request, &[EngineCore<'_>]) -> usize,
) -> Result<()> {
    drive_with(cores, stream, RouteOnly(route))
}

/// [`drive`] with full [`DriveHooks`] — the entry point fleet drivers use
/// to observe pushes and completions incrementally.
///
/// # Errors
///
/// As for [`drive`].
pub fn drive_with(
    cores: &mut [EngineCore<'_>],
    stream: &mut ArrivalStream<'_>,
    mut hooks: impl DriveHooks,
) -> Result<()> {
    assert!(!cores.is_empty(), "drive needs at least one core");
    let mut heap = ActionHeap::new(cores.len());
    for (i, core) in cores.iter().enumerate() {
        heap.set(i, core.next_action());
    }
    // The cores keep their completions; `seen[i]` counts the ones core
    // `i`'s steps have already reported. New ones copy into a scratch
    // buffer reused across steps — the closed-loop feedback path
    // allocates nothing per event.
    let mut seen = vec![0usize; cores.len()];
    let mut scratch: Vec<Completion> = Vec::new();
    loop {
        let action = heap.peek();
        let arrival = stream.peek();
        match (arrival, action) {
            (Some(ta), act) if act.is_none_or(|(_, t)| ta <= t) => {
                let request = stream.pop();
                let k = hooks.route(&request, cores).min(cores.len() - 1);
                cores[k].push(request);
                heap.set(k, cores[k].next_action());
                hooks.on_push(k, cores);
                if stream.exhausted() {
                    for core in cores.iter_mut() {
                        core.close();
                    }
                    for (i, core) in cores.iter().enumerate() {
                        heap.set(i, core.next_action());
                    }
                }
            }
            (_, Some((i, _))) => {
                cores[i].step()?;
                heap.set(i, cores[i].next_action());
                scratch.clear();
                scratch.extend_from_slice(&cores[i].completions()[seen[i]..]);
                seen[i] = cores[i].completions().len();
                for c in &scratch {
                    stream.on_complete(c);
                }
                hooks.on_step(i, cores, &scratch);
            }
            // `(Some, None)` is caught by the first arm (its guard is
            // vacuously true with no pending action).
            (_, None) => {
                if stream.exhausted() {
                    debug_assert!(cores.iter().all(EngineCore::is_done));
                    return Ok(());
                }
                // Closed-loop stall: clients wait on completions held in
                // partial batches. Flush the lowest stalled core and
                // re-enter the loop (its completions may unblock clients).
                let mut progressed = false;
                for i in 0..cores.len() {
                    if cores[i].flush_stalled()? {
                        heap.set(i, cores[i].next_action());
                        scratch.clear();
                        scratch.extend_from_slice(&cores[i].completions()[seen[i]..]);
                        seen[i] = cores[i].completions().len();
                        for c in &scratch {
                            stream.on_complete(c);
                        }
                        hooks.on_step(i, cores, &scratch);
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    return Err(Error::invalid_config(
                        "serving driver stalled: closed-loop clients wait on completions \
                         no engine can produce",
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ArrivalPattern, BatchPolicy, LenDist, Parallelism, ServingEngine, ServingModel, TrafficSpec,
    };
    use cimtpu_core::TpuConfig;
    use cimtpu_models::TransformerConfig;

    fn tiny_engine(policy: BatchPolicy) -> ServingEngine {
        tiny_engine_on(policy, 1)
    }

    /// The tiny engine replicated over `chips` executors.
    fn tiny_engine_on(policy: BatchPolicy, chips: u64) -> ServingEngine {
        ServingEngine::new(
            TpuConfig::tpuv4i(),
            ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()),
            Parallelism::Replicated { chips },
            policy,
        )
        .unwrap()
    }

    fn burst(requests: u64) -> TrafficSpec {
        TrafficSpec {
            requests,
            arrival: ArrivalPattern::Burst,
            prompt: LenDist::Fixed(16),
            steps: LenDist::Fixed(4),
            prefix: crate::PrefixTraffic::None,
            seed: 1,
        }
    }

    #[test]
    fn incremental_core_matches_batch_run() {
        // Pushing arrivals one by one (with interleaved stepping, as the
        // cluster driver does) must reproduce the push-all result.
        for policy in [
            BatchPolicy::Static { batch: 2 },
            BatchPolicy::Dynamic {
                max_batch: 2,
                max_wait_ms: 5.0,
            },
            BatchPolicy::Continuous { max_batch: 2 },
        ] {
            let engine = tiny_engine(policy);
            let traffic = TrafficSpec {
                arrival: ArrivalPattern::OpenLoop { rate_rps: 500.0 },
                ..burst(5)
            };
            let reference = engine.run("ref", &traffic).unwrap();

            let session = crate::EngineSession::new(&engine).unwrap();
            let mut core = session.core().unwrap();
            let mut stream = ArrivalStream::new(&traffic).unwrap();
            drive(std::slice::from_mut(&mut core), &mut stream, |_, _| 0).unwrap();
            let run = core.finish("ref");
            assert_eq!(run.report, reference.report, "{}", policy.name());
            assert_eq!(run.completions, reference.completions);
        }
    }

    /// The continuous scheduler reuses its round buffers across rounds.
    /// Drive a two-chip core fed incrementally through every branch that
    /// fills them — chunked prefill, prefix sharing with cold and hit
    /// members admitted in one round, a KV budget tight enough to
    /// preempt — and match the push-all batch run.
    #[test]
    fn reused_round_buffers_match_batch_run_on_every_branch() {
        let base = MemoryConfig::unlimited();
        // 4 blocks of 16 tokens per chip: a 32-token prompt plus 8 steps
        // needs 3, so two residents cannot both grow.
        let tight = base.with_budget_bytes(cimtpu_units::Bytes::from_kib(64));
        let cases = [
            ("chunked", base.with_chunked_prefill(8)),
            ("shared", base.with_prefix_sharing()),
            (
                "shared+chunked",
                base.with_prefix_sharing().with_chunked_prefill(8),
            ),
            ("tight", tight),
            ("tight+shared", tight.with_prefix_sharing()),
            (
                "tight+shared+chunked",
                tight.with_prefix_sharing().with_chunked_prefill(8),
            ),
        ];
        // A burst admits four at once onto chip 0: with two heads
        // alternating by id, members 0 and 1 prefill cold and members 2
        // and 3 hit the blocks 0 and 1 just committed.
        let bursty = TrafficSpec {
            requests: 12,
            arrival: ArrivalPattern::Burst,
            prompt: LenDist::Fixed(32),
            steps: LenDist::Fixed(8),
            prefix: crate::PrefixTraffic::SharedHead {
                tokens: 24,
                groups: 2,
            },
            seed: 7,
        };
        let open = TrafficSpec {
            arrival: ArrivalPattern::OpenLoop { rate_rps: 20_000.0 },
            ..bursty.clone()
        };
        for (name, memory) in cases {
            for traffic in [&bursty, &open] {
                let engine =
                    tiny_engine_on(BatchPolicy::Continuous { max_batch: 4 }, 2).with_memory(memory);
                let reference = engine.run("ref", traffic).unwrap();
                let session = crate::EngineSession::new(&engine).unwrap();
                let mut core = session.core().unwrap();
                let mut stream = ArrivalStream::new(traffic).unwrap();
                drive(std::slice::from_mut(&mut core), &mut stream, |_, _| 0).unwrap();
                let run = core.finish("ref");
                let what = format!("{name}, {:?}", traffic.arrival);
                assert_eq!(run, reference, "{what}");
                assert_eq!(run.completions.len(), 12, "{what}");
                if memory.prefix_sharing {
                    assert!(run.prefix.hits > 0, "{what}: no prefix hit");
                }
                if memory.budget != base.budget {
                    assert!(run.report.preemptions > 0, "{what}: no preemption");
                }
            }
        }
    }

    /// An untenanted core schedules every request as its one tenant: tags
    /// 0..=2 with mixed classes still admit in arrival order (a
    /// tenant-aware core reorders the same requests), and the run matches
    /// the same requests with every tag zeroed.
    #[test]
    fn untenanted_core_admits_in_arrival_order_whatever_the_tags() {
        let classes = [SloClass::Batch, SloClass::Standard, SloClass::Interactive];
        let mut tagged = burst(9).generate();
        for r in &mut tagged {
            r.tenant = (r.id % 3) as u32;
            r.class = classes[r.tenant as usize];
        }
        let run = |requests: &[Request], sched: Option<&TenantSched>| {
            let engine = tiny_engine(BatchPolicy::Continuous { max_batch: 1 });
            let session = crate::EngineSession::new(&engine).unwrap();
            let mut core = session.core().unwrap();
            if let Some(sched) = sched {
                core.set_tenancy(sched);
            }
            for r in requests {
                core.push(*r);
            }
            core.close();
            while core.next_action().is_some() {
                core.step().unwrap();
            }
            core.completions().to_vec()
        };
        let order = |run: &[Completion]| run.iter().map(|c| c.id).collect::<Vec<_>>();
        let untenanted = run(&tagged, None);
        assert_eq!(order(&untenanted), (0..9).collect::<Vec<_>>());
        let zeroed: Vec<Request> = tagged.iter().map(|r| Request { tenant: 0, ..*r }).collect();
        assert_eq!(untenanted, run(&zeroed, None));
        let sched = TenantSched {
            classes: classes.to_vec(),
            weights: vec![1.0; 3],
        };
        assert_ne!(
            order(&run(&tagged, Some(&sched))),
            order(&untenanted),
            "tenancy reorders"
        );
    }

    #[test]
    fn static_core_waits_until_closed() {
        let engine = tiny_engine(BatchPolicy::Static { batch: 4 });
        let session = crate::EngineSession::new(&engine).unwrap();
        let mut core = session.core().unwrap();
        for r in burst(2).generate() {
            core.push(r);
        }
        // Two of four queued: blocked until the stream closes.
        assert_eq!(core.next_action(), None);
        assert_eq!(core.queued(), 2);
        core.close();
        assert!(core.next_action().is_some());
        core.step().unwrap();
        assert!(core.is_done());
        assert_eq!(core.completions().len(), 2);
        assert_eq!(core.outstanding_at(Seconds::new(1e9)), 0);
        assert!(
            core.outstanding_at(Seconds::ZERO) > 0,
            "batch finishes after t=0"
        );
    }

    #[test]
    fn flush_launches_a_stalled_partial_batch() {
        let engine = tiny_engine(BatchPolicy::Static { batch: 4 });
        let session = crate::EngineSession::new(&engine).unwrap();
        let mut core = session.core().unwrap();
        for r in burst(3).generate() {
            core.push(r);
        }
        assert_eq!(core.next_action(), None);
        assert!(core.flush_stalled().unwrap());
        assert_eq!(core.completions().len(), 3);
        // Nothing left to flush.
        assert!(!core.flush_stalled().unwrap());
    }

    #[test]
    fn crash_loses_exactly_the_in_flight_set() {
        let engine = tiny_engine(BatchPolicy::Continuous { max_batch: 2 });
        let session = crate::EngineSession::new(&engine).unwrap();
        let mut core = session.core().unwrap();
        for r in burst(6).generate() {
            core.push(r);
        }
        core.close();
        // Step until some (not all) requests completed: 2 resident, rest
        // queued.
        while core.completions().is_empty() {
            core.step().unwrap();
        }
        let done: Vec<u64> = core.completions().iter().map(|c| c.id).collect();
        let at = core
            .completions()
            .iter()
            .map(|c| c.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let lost = core.crash(at);
        // Conservation: every pushed request is either completed or lost,
        // never both, never dropped.
        assert_eq!(done.len() + lost.len(), 6);
        for c in core.completions() {
            assert!(!lost.iter().any(|r| r.id == c.id), "lost xor completed");
        }
        assert!(core.is_done(), "a crashed core is inert");
        assert_eq!(core.next_action(), None);
        assert_eq!(core.kv_frac(), 0.0, "all KV blocks released");
        assert_eq!(core.outstanding_at(Seconds::ZERO), done.len() as u64);
        assert!(core.energy().get() > 0.0, "spent energy stays on the books");
    }

    /// A core whose completions a driver takes after every step counts
    /// the same requests in flight, and loses the same ones to a crash,
    /// as one that keeps them.
    #[test]
    fn taking_completions_keeps_outstanding_and_crash_losses() {
        let policies = [
            BatchPolicy::Static { batch: 2 },
            BatchPolicy::Continuous { max_batch: 2 },
        ];
        let mut revoked_any = false;
        for policy in policies {
            let engine = tiny_engine(policy);
            let session = crate::EngineSession::new(&engine).unwrap();
            for steps in 1..4 {
                let [mut kept, mut taker] = [(); 2].map(|_| session.core().unwrap());
                for core in [&mut kept, &mut taker] {
                    for r in burst(6).generate() {
                        core.push(r);
                    }
                    core.close();
                }
                let (mut taken, mut now) = (Vec::new(), Seconds::ZERO);
                for _ in 0..steps {
                    now = kept.next_action().expect("work left");
                    kept.step().unwrap();
                    taker.step().unwrap();
                    taker.take_completions(&mut taken);
                }
                let what = format!("{} after {steps} steps", policy.name());
                assert!(taker.completions().is_empty(), "{what}");
                assert_eq!(taken, kept.completions(), "{what}");
                let mut instants: Vec<Seconds> = taken.iter().map(|c| c.finish).collect();
                instants.extend([Seconds::ZERO, now, Seconds::new(1e9)]);
                for t in instants {
                    assert_eq!(taker.outstanding_at(t), kept.outstanding_at(t), "{what}");
                    assert_eq!(
                        taker.outstanding_by_class_at(t),
                        kept.outstanding_by_class_at(t),
                        "{what}"
                    );
                    assert!(taker.finishes_after(t).eq(kept.finishes_after(t)), "{what}");
                }
                let lost = taker.crash(now);
                assert_eq!(lost, kept.crash(now), "{what}");
                // The lost requests are exactly the taken completions
                // finishing after the crash, plus what was still queued or
                // resident.
                let revoked = taken.iter().filter(|c| c.finish > now);
                assert!(revoked.clone().all(|c| lost.iter().any(|r| r.id == c.id)));
                let revoked = revoked.count();
                revoked_any |= revoked > 0;
                let standing = taken.len() - revoked;
                assert_eq!(standing + lost.len(), 6, "{what}");
                assert_eq!(
                    taker.outstanding_at(Seconds::ZERO),
                    standing as u64,
                    "{what}"
                );
                assert!(taker.completions().is_empty(), "{what}");
            }
        }
        assert!(revoked_any, "some crash revokes a taken completion");
    }

    #[test]
    fn rtc_crash_revokes_future_completions() {
        // A static batch prices its whole future at launch; a crash at
        // t=0 revokes all of it.
        let engine = tiny_engine(BatchPolicy::Static { batch: 2 });
        let session = crate::EngineSession::new(&engine).unwrap();
        let mut core = session.core().unwrap();
        for r in burst(2).generate() {
            core.push(r);
        }
        core.close();
        core.step().unwrap();
        assert_eq!(core.completions().len(), 2);
        let lost = core.crash(Seconds::ZERO);
        assert_eq!(core.completions().len(), 0);
        assert_eq!(lost.len(), 2);
    }

    #[test]
    fn slowdown_stretches_latency_not_energy() {
        let run = |factor: f64| {
            let engine = tiny_engine(BatchPolicy::Continuous { max_batch: 4 });
            let session = crate::EngineSession::new(&engine).unwrap();
            let mut core = session.core().unwrap();
            core.set_slowdown(factor);
            for r in burst(4).generate() {
                core.push(r);
            }
            core.close();
            while core.next_action().is_some() {
                core.step().unwrap();
            }
            (core.busy(), core.energy())
        };
        let (busy1, energy1) = run(1.0);
        let (busy3, energy3) = run(3.0);
        assert!((busy3.get() - 3.0 * busy1.get()).abs() < 1e-12 * busy3.get());
        assert_eq!(energy1, energy3, "a straggler burns time, not extra energy");
    }

    #[test]
    fn busy_time_tracks_compute() {
        let engine = tiny_engine(BatchPolicy::Continuous { max_batch: 4 });
        let session = crate::EngineSession::new(&engine).unwrap();
        let mut core = session.core().unwrap();
        for r in burst(2).generate() {
            core.push(r);
        }
        core.close();
        while core.next_action().is_some() {
            core.step().unwrap();
        }
        let (busy, energy) = (core.busy(), core.energy());
        let run = core.finish("busy");
        // One executor, burst arrivals: busy time equals the makespan.
        assert!((busy.get() - run.report.makespan_s).abs() < 1e-12);
        assert!(energy.get() > 0.0);
    }

    /// Feeds `requests` into `core` as [`drive`] does (an arrival goes in
    /// when it is due no later than the core's next action). From step
    /// `crash_from` on, the first step whose newest completion finishes
    /// after the step's instant is followed by a crash at that instant,
    /// which revokes it. After every event it checks that the window holds
    /// less than twice the live span: the pushed requests from the oldest
    /// one still in flight (queued, resident, or completed at a finish a
    /// crash could still revoke — after the latest step's instant, or
    /// produced by that step) to the newest. Returns the largest window
    /// seen and the crash's lost requests.
    fn drive_retaining(
        core: &mut EngineCore<'_>,
        requests: &[Request],
        crash_from: Option<usize>,
    ) -> (usize, Vec<Request>) {
        let mut pushed = 0;
        let mut steps = 0;
        let mut stepped_at = Seconds::ZERO;
        let mut fresh: Vec<u64> = Vec::new();
        let mut widest = 0;
        let mut check = |core: &EngineCore<'_>, pushed: usize, stepped_at, fresh: &[u64]| {
            let settled: Vec<u64> = core
                .completions()
                .iter()
                .filter(|c| c.finish <= stepped_at && !fresh.contains(&c.id))
                .map(|c| c.id)
                .collect();
            let oldest = requests[..pushed]
                .iter()
                .position(|r| !settled.contains(&r.id));
            let span = oldest.map_or(0, |i| pushed - i);
            let len = core.window_len();
            assert!(
                len < 2 * span || len == 0,
                "window {len} for a live span of {span}"
            );
            widest = widest.max(len);
        };
        loop {
            let action = core.next_action();
            match (requests.get(pushed), action) {
                (Some(r), act) if act.is_none_or(|t| r.arrival() <= t) => {
                    core.push(*r);
                    pushed += 1;
                    if pushed == requests.len() {
                        core.close();
                    }
                }
                (_, Some(now)) => {
                    let before = core.completions().len();
                    core.step().unwrap();
                    steps += 1;
                    stepped_at = now;
                    fresh = core.completions()[before..].iter().map(|c| c.id).collect();
                    let running = core.completions().last().filter(|c| c.finish > now);
                    let due = crash_from.is_some_and(|from| from <= steps);
                    if let Some(&revoked) = running.filter(|_| due) {
                        let lost = core.crash(now);
                        assert!(lost.iter().any(|r| r.id == revoked.id), "revoked, not lost");
                        check(core, pushed, stepped_at, &fresh);
                        return (widest, lost);
                    }
                }
                (_, None) => return (widest, Vec::new()),
            }
            check(core, pushed, stepped_at, &fresh);
        }
    }

    /// 400 open-loop requests, Poisson at `rate_rps`, tagged round-robin
    /// with the three service tiers.
    fn retention_traffic(rate_rps: f64) -> Vec<Request> {
        let traffic = TrafficSpec {
            requests: 400,
            arrival: ArrivalPattern::OpenLoop { rate_rps },
            prompt: LenDist::Uniform { lo: 16, hi: 32 },
            steps: LenDist::Uniform { lo: 1, hi: 8 },
            ..burst(0)
        };
        let classes = [SloClass::Interactive, SloClass::Standard, SloClass::Batch];
        let mut requests = traffic.generate();
        for r in &mut requests {
            r.tenant = (r.id % 3) as u32;
            r.class = classes[r.tenant as usize];
        }
        requests
    }

    /// A core lets go of finished requests: under continuous FIFO, 3-tenant
    /// weighted-fair admission and KV-pressure preemption, its window stays
    /// within twice the live span after every event and at most a quarter
    /// of the 400 requests pushed.
    #[test]
    fn continuous_window_holds_only_live_requests() {
        let tight = MemoryConfig::unlimited().with_budget_bytes(cimtpu_units::Bytes::from_kib(64));
        let sched = TenantSched {
            classes: vec![SloClass::Interactive, SloClass::Standard, SloClass::Batch],
            weights: vec![1.0, 2.0, 1.0],
        };
        let cases = [
            ("fifo", MemoryConfig::unlimited(), None),
            ("wfq", MemoryConfig::unlimited(), Some(&sched)),
            ("kv-pressure", tight, None),
        ];
        for (name, memory, tenancy) in cases {
            let engine =
                tiny_engine_on(BatchPolicy::Continuous { max_batch: 4 }, 2).with_memory(memory);
            let session = crate::EngineSession::new(&engine).unwrap();
            let mut core = session.core().unwrap();
            if let Some(sched) = tenancy {
                core.set_tenancy(sched);
            }
            let requests = retention_traffic(40_000.0);
            let (widest, _) = drive_retaining(&mut core, &requests, None);
            assert_eq!(core.completions().len(), 400, "{name}");
            assert!(widest <= 100, "{name}: the window reached {widest} entries");
            if memory.budget != MemoryConfig::unlimited().budget {
                assert!(core.memory_stats().preemptions > 0, "{name}: no preemption");
            }
        }
    }

    /// Static and dynamic batches stay in the window while a crash can
    /// revoke them, so a crash right after a launch hands back exactly the
    /// requests without a standing completion, revoked ones included.
    #[test]
    fn batch_window_keeps_revocable_members_for_a_crash() {
        for policy in [
            BatchPolicy::Static { batch: 3 },
            BatchPolicy::Dynamic {
                max_batch: 3,
                max_wait_ms: 0.5,
            },
        ] {
            let requests = retention_traffic(4_000.0);
            let mut widest = 0;
            for crash_from in [None, Some(40)] {
                let engine = tiny_engine_on(policy, 2);
                let session = crate::EngineSession::new(&engine).unwrap();
                let mut core = session.core().unwrap();
                let (wide, lost) = drive_retaining(&mut core, &requests, crash_from);
                widest = widest.max(wide);
                let done: Vec<u64> = core.completions().iter().map(|c| c.id).collect();
                let what = format!("{}, crash from step {crash_from:?}", policy.name());
                if crash_from.is_some() {
                    // Every pushed request (ids 0..n, pushed in order) is
                    // either done or lost, never both.
                    let mut ids: Vec<u64> = done
                        .iter()
                        .copied()
                        .chain(lost.iter().map(|r| r.id))
                        .collect();
                    ids.sort_unstable();
                    assert!(
                        ids.iter().copied().eq(0..ids.len() as u64),
                        "{what}: conservation"
                    );
                } else {
                    assert_eq!(done.len(), 400, "{what}");
                }
            }
            assert!(
                widest <= 100,
                "{}: the window reached {widest} entries",
                policy.name()
            );
        }
    }

    /// Runs a mixed-policy fleet through the given driver and returns
    /// every core's finished run.
    use proptest::prelude::*;

    /// The reference count by linear scan: queued + resident + every
    /// completion finishing after `t`.
    fn outstanding_scan(core: &EngineCore<'_>, t: Seconds) -> u64 {
        core.queued()
            + core.resident()
            + core.completions().iter().filter(|c| c.finish > t).count() as u64
    }

    /// Compares [`EngineCore::outstanding_at`] and
    /// [`EngineCore::outstanding_by_class_at`] with their scans over
    /// `pushed` at t = 0, at every arrival, at every completion's finish
    /// time and a hair on either side of it, and far past the latest
    /// event.
    fn check_outstanding(core: &EngineCore<'_>, pushed: &[Request]) {
        let mut probes = vec![Seconds::ZERO, Seconds::new(1e9)];
        probes.extend(pushed.iter().map(Request::arrival));
        for c in core.completions() {
            let f = c.finish.get();
            probes.extend([f, f * (1.0 - 1e-12), f * (1.0 + 1e-12) + 1e-300].map(Seconds::new));
        }
        for t in probes {
            let total = core.outstanding_at(t);
            assert_eq!(total, outstanding_scan(core, t), "t = {t}");
            let by_class = core.outstanding_by_class_at(t);
            assert_eq!(
                by_class,
                core.outstanding_by_class_scan(pushed, t),
                "t = {t}"
            );
            assert_eq!(by_class.iter().sum::<u64>(), total, "t = {t}");
        }
    }

    /// Runs 16 seeded requests through every batch policy on one- and
    /// two-chip replicas, checking the outstanding counts before the
    /// first step, after every step, and after a crash at step
    /// `crash_at_step` (no earlier than that step's instant, as a driver
    /// crashes a core). Requests cycle through the three service tiers;
    /// `tenancy` arms tenant-aware scheduling with one tenant per tier.
    fn check_outstanding_run(seed: u64, crash_at_step: usize, tenancy: bool) {
        let policies = [
            BatchPolicy::Static { batch: 2 },
            BatchPolicy::Dynamic {
                max_batch: 3,
                max_wait_ms: 0.5,
            },
            BatchPolicy::Continuous { max_batch: 2 },
        ];
        let traffic = TrafficSpec {
            requests: 16,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 8, hi: 32 },
            steps: LenDist::Uniform { lo: 2, hi: 8 },
            prefix: crate::PrefixTraffic::None,
            seed,
        };
        let sched = TenantSched {
            classes: vec![SloClass::Interactive, SloClass::Standard, SloClass::Batch],
            weights: vec![1.0, 2.0, 1.0],
        };
        let mut requests = traffic.generate();
        for r in &mut requests {
            r.tenant = (r.id % 3) as u32;
            r.class = sched.classes[r.tenant as usize];
        }
        for policy in policies {
            for chips in [1, 2] {
                let engine = tiny_engine_on(policy, chips);
                let session = crate::EngineSession::new(&engine).unwrap();
                let mut core = session.core().unwrap();
                if tenancy {
                    core.set_tenancy(&sched);
                }
                for r in &requests {
                    core.push(*r);
                }
                core.close();
                check_outstanding(&core, &requests);
                let mut steps = 0;
                while let Some(now) = core.next_action() {
                    core.step().unwrap();
                    steps += 1;
                    check_outstanding(&core, &requests);
                    if steps == crash_at_step {
                        // Crash mid-run, at the median finish so far or
                        // the step's instant, whichever is later: later
                        // finishes are revoked.
                        let mut finishes: Vec<Seconds> =
                            core.completions().iter().map(|c| c.finish).collect();
                        finishes.sort_by(|a, b| a.get().total_cmp(&b.get()));
                        let at = finishes
                            .get(finishes.len() / 2)
                            .copied()
                            .unwrap_or(requests[steps % requests.len()].arrival());
                        core.crash(at.max(now));
                        check_outstanding(&core, &requests);
                    }
                }
            }
        }
    }

    /// The counters a core folds over its executors, as bits: memory
    /// stats, prefix stats, `kv_frac`, busy time and energy. A seeded
    /// burst on two- and three-executor replicas under every batch policy,
    /// with a KV budget tight enough to defer launches and preempt and
    /// with prefix sharing on, so every executor holds allocator, index
    /// and clock state. The folds run in executor order: on three
    /// continuous executors this seed's queue-full sum differs in its
    /// last bits when folded in reverse.
    #[test]
    fn multi_executor_aggregation_is_pinned() {
        // 6 blocks of 16 tokens per executor: a request (at most 32
        // prompt tokens plus 8 steps) needs up to 3, so two fit a
        // run-to-completion batch and three continuous residents cannot
        // all grow.
        let memory = MemoryConfig::unlimited()
            .with_budget_bytes(cimtpu_units::Bytes::from_kib(96))
            .with_prefix_sharing();
        let traffic = TrafficSpec {
            requests: 24,
            arrival: ArrivalPattern::Burst,
            prompt: LenDist::Uniform { lo: 20, hi: 32 },
            steps: LenDist::Uniform { lo: 2, hi: 8 },
            prefix: crate::PrefixTraffic::SharedHead {
                tokens: 16,
                groups: 3,
            },
            seed: 12,
        };
        let policies = [
            BatchPolicy::Static { batch: 4 },
            BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait_ms: 1.0,
            },
            BatchPolicy::Continuous { max_batch: 4 },
        ];
        let mut got = Vec::new();
        for chips in [2, 3] {
            for policy in policies {
                let engine = tiny_engine_on(policy, chips).with_memory(memory);
                let session = crate::EngineSession::new(&engine).unwrap();
                let mut core = session.core().unwrap();
                let mut stream = ArrivalStream::new(&traffic).unwrap();
                drive(std::slice::from_mut(&mut core), &mut stream, |_, _| 0).unwrap();
                let m = core.memory_stats();
                let p = core.prefix_stats();
                got.push([
                    m.preemptions,
                    m.queue_full_s.to_bits(),
                    m.kv_hwm_frac.to_bits(),
                    p.lookups,
                    p.hits,
                    p.shared_blocks,
                    p.shared_tokens,
                    p.cow_copies,
                    p.inserted_blocks,
                    p.evicted_blocks,
                    core.kv_frac().to_bits(),
                    core.busy().get().to_bits(),
                    core.energy().get().to_bits(),
                ]);
            }
        }
        // Per row: preemptions, queue-full s, KV high water; prefix lookups,
        // hits, shared blocks, shared tokens, CoW copies, inserted, evicted;
        // kv_frac, busy s, energy J. Two executors, then three.
        #[rustfmt::skip]
        let expected: [[u64; 13]; 6] = [
            // static
            [0, 4560311566709376600, 4607182418800017408,
             24, 3, 3, 48, 0, 22, 17,
             4602678819172646912, 4562683618290898234, 4585236248404987257],
            // dynamic
            [0, 4560104840197457227, 4607182418800017408,
             24, 3, 3, 48, 0, 22, 17,
             4602678819172646912, 4562483804915924580, 4585037133402607341],
            // continuous
            [10, 4558704992001000322, 4607182418800017408,
             34, 25, 28, 448, 13, 23, 18,
             4602678819172646912, 4561440500585612624, 4584010022543709008],
            // static
            [0, 4557944881596596584, 4607182418800017408,
             24, 3, 3, 48, 0, 22, 16,
             4599676419421066581, 4562684250750695046, 4585238465476486205],
            // dynamic
            [0, 4557724486925734978, 4607182418800017408,
             24, 3, 3, 48, 0, 22, 16,
             4599676419421066581, 4562484437375721393, 4585039350474106289],
            // continuous
            [9, 4559166704790301810, 4607182418800017408,
             33, 22, 22, 352, 14, 27, 21,
             4599676419421066581, 4561830423188300079, 4584470675921516583],
        ];
        assert_eq!(got, expected);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The binary-searched `outstanding_at` (and its per-tier split)
        /// equals the linear scan after every step and after a crash, for
        /// every batch policy on one- and two-chip replicas (two
        /// executors finish out of order).
        #[test]
        fn outstanding_at_matches_linear_scan(seed in 0u64..1_000, crash_at_step in 1usize..8) {
            check_outstanding_run(seed, crash_at_step, false);
        }

        /// The same under tenant-aware scheduling, where weighted-fair
        /// admission leaves earlier arrivals queued behind later ones.
        #[test]
        fn outstanding_by_class_at_matches_linear_scan(
            seed in 0u64..1_000,
            crash_at_step in 1usize..8,
        ) {
            check_outstanding_run(seed, crash_at_step, true);
        }
    }
}
