//! Request routing: which replica group an arriving request lands on.
//!
//! # Router contract
//!
//! A [`Router`] is consulted exactly once per request, at its arrival
//! instant, with a [`ReplicaSnapshot`] per replica describing what the
//! fleet knows *at that moment* (outstanding work, queue depth, live KV
//! occupancy, cumulative assignments). It returns the index of the chosen
//! replica; out-of-range indices are clamped by the driver. Routers may
//! keep internal state (round-robin cursors) but must be deterministic —
//! equal snapshot sequences must produce equal choices — because every
//! cluster run is replayed bit-for-bit in CI. Routing is *not* revisited:
//! once pushed, a request stays on its replica (no work stealing).
//!
//! # Affinity routing
//!
//! Two policies route by request *identity* instead of replica load, so
//! that cache state accumulated on a replica gets re-used:
//!
//! - [`RouterPolicy::SessionAffinity`] hashes [`Request::session`] — a
//!   session's requests land together (multi-turn conversations).
//! - [`RouterPolicy::PrefixAffinity`] hashes the request's prompt-prefix
//!   identity ([`Request::prefix`] — the shared-head seed and length), so
//!   every request carrying the same shared system prompt lands on the
//!   replica whose [prefix index](cimtpu_kv::PrefixIndex) already holds
//!   those KV blocks. Pair it with
//!   [`MemoryConfig::with_prefix_sharing`](cimtpu_serving::MemoryConfig::with_prefix_sharing)
//!   on the replicas: affinity concentrates the hits that sharing makes
//!   cheap, where load-oriented routing would scatter each head across
//!   the fleet and re-prefill it once per replica. Requests with no
//!   shared head (`head_len == 0`) fall back to the session hash, so
//!   mixed traffic still spreads.
//!
//! Both hash with a fixed 64-bit finalizer — no RNG, no load feedback —
//! so placement is reproducible whatever the interleaving.
//!
//! # Health view (failure-aware and elastic runs)
//!
//! The colocated driver keeps a [`HealthView`] — one [`ReplicaHealth`]
//! per replica slot — and consults the router with snapshots of the
//! **routable subset only**, re-indexed `0..k` (the driver maps the
//! choice back to real slot indices). Re-indexing keeps every policy's
//! contract intact whether it returns a snapshot's `index` or a
//! position: the two coincide. A crashed replica is
//! [`Down`](ReplicaHealth::Down) (drained — it takes no traffic), then
//! [`Warming`](ReplicaHealth::Warming) for the recovery policy's warmup
//! after its restart, and only then [`Up`](ReplicaHealth::Up) and
//! routable again. An elastic slot walks the same path from
//! [`Provisioning`](ReplicaHealth::Provisioning), leaves through
//! [`Draining`](ReplicaHealth::Draining), and holds no machine while
//! [`Offline`](ReplicaHealth::Offline). Affinity hashes mod the routable
//! count, so sessions fail over while a replica is out and may re-home
//! when it returns.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use cimtpu_serving::{Completion, EngineCore, EventKey, Request};
use cimtpu_units::Seconds;

/// What a router sees about one replica at a routing instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaSnapshot {
    /// Replica index (what [`Router::route`] returns).
    pub index: usize,
    /// Requests in flight at this instant: queued, resident, or already
    /// scheduled to complete in the future.
    pub outstanding: u64,
    /// Requests pushed but not yet scheduled.
    pub queued: u64,
    /// Live KV occupancy as a fraction of capacity (0 for unlimited
    /// budgets, and between run-to-completion batches).
    pub kv_frac: f64,
    /// Requests ever assigned to this replica.
    pub assigned: u64,
    /// Outstanding requests split by SLO class rank (interactive,
    /// standard, batch) at this instant. Maintained only when a run is
    /// multi-tenant — single-tenant drivers leave the zeros, and every
    /// policy except [`RouterPolicy::SloAware`] ignores the field.
    pub class_outstanding: [u64; 3],
}

/// A routing strategy (see the [module docs](self) for the contract).
pub trait Router {
    /// The router's display name (reports, CLI).
    fn name(&self) -> &'static str;

    /// Picks the replica for `request` given the fleet state.
    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize;
}

/// The built-in routing strategies, as a configuration value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Everything to replica 0 — the degenerate router that makes a
    /// 1-replica cluster reproduce its single engine bit-for-bit (the
    /// equivalence anchor).
    PassThrough,
    /// Cycle through replicas in index order.
    RoundRobin,
    /// The replica with the fewest outstanding requests (ties pick the
    /// lowest index) — the classic least-loaded policy.
    LeastOutstanding,
    /// The replica with the lowest live KV occupancy, breaking ties by
    /// outstanding requests then index — memory-pressure-aware routing.
    LeastKv,
    /// Hash the request's session onto a replica, so a session's requests
    /// always land together (a session's later requests re-use cache
    /// state where the first one ran).
    SessionAffinity,
    /// Hash the request's prompt-prefix identity onto a replica, so
    /// requests sharing a system-prompt head land where its KV blocks are
    /// already resident (falls back to the session hash for requests with
    /// no shared head). See the [module docs](self) on affinity routing.
    PrefixAffinity,
    /// Tier-aware least-loaded routing for multi-tenant fleets: each
    /// request goes to the replica with the fewest in-flight requests of
    /// its *own* SLO class (ties break by total outstanding, then index),
    /// so interactive traffic lands on the healthy replica least busy
    /// with interactive work instead of queueing behind another tenant's
    /// batch backlog. In a single-tenant run every
    /// [`ReplicaSnapshot::class_outstanding`] is zero and the policy
    /// degenerates to [`RouterPolicy::LeastOutstanding`].
    SloAware,
}

impl RouterPolicy {
    /// The policy's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::PassThrough => "pass-through",
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::LeastOutstanding => "least-outstanding",
            RouterPolicy::LeastKv => "least-kv",
            RouterPolicy::SessionAffinity => "session-affinity",
            RouterPolicy::PrefixAffinity => "prefix-affinity",
            RouterPolicy::SloAware => "slo-aware",
        }
    }

    /// Instantiates the router.
    pub(crate) fn build(&self) -> Box<dyn Router> {
        match self {
            RouterPolicy::PassThrough => Box::new(PassThrough),
            RouterPolicy::RoundRobin => Box::new(RoundRobin { next: 0 }),
            RouterPolicy::LeastOutstanding => Box::new(LeastOutstanding),
            RouterPolicy::LeastKv => Box::new(LeastKv),
            RouterPolicy::SessionAffinity => Box::new(SessionAffinity),
            RouterPolicy::PrefixAffinity => Box::new(PrefixAffinity),
            RouterPolicy::SloAware => Box::new(SloAware),
        }
    }
}

struct PassThrough;

impl Router for PassThrough {
    fn name(&self) -> &'static str {
        RouterPolicy::PassThrough.name()
    }

    fn route(&mut self, _request: &Request, _replicas: &[ReplicaSnapshot]) -> usize {
        0
    }
}

struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        RouterPolicy::RoundRobin.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let pick = self.next % replicas.len().max(1);
        self.next = self.next.wrapping_add(1);
        pick
    }
}

struct LeastOutstanding;

impl Router for LeastOutstanding {
    fn name(&self) -> &'static str {
        RouterPolicy::LeastOutstanding.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        replicas
            .iter()
            .min_by_key(|r| (r.outstanding, r.index))
            .map_or(0, |r| r.index)
    }
}

struct LeastKv;

impl Router for LeastKv {
    fn name(&self) -> &'static str {
        RouterPolicy::LeastKv.name()
    }

    fn route(&mut self, _request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        // total_cmp instead of partial_cmp: occupancy fractions are never
        // NaN today, but a router consulted mid-fault must not be able to
        // panic the simulator on one.
        replicas
            .iter()
            .min_by(|a, b| {
                a.kv_frac
                    .total_cmp(&b.kv_frac)
                    .then(a.outstanding.cmp(&b.outstanding))
                    .then(a.index.cmp(&b.index))
            })
            .map_or(0, |r| r.index)
    }
}

struct SessionAffinity;

impl Router for SessionAffinity {
    fn name(&self) -> &'static str {
        RouterPolicy::SessionAffinity.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        (splitmix64(request.session) % replicas.len().max(1) as u64) as usize
    }
}

struct PrefixAffinity;

impl Router for PrefixAffinity {
    fn name(&self) -> &'static str {
        RouterPolicy::PrefixAffinity.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let key = if request.prefix.head_len > 0 {
            // Mix length into the seed so distinct heads that happen to
            // share a seed prefix still spread.
            request.prefix.head_seed ^ request.prefix.head_len.rotate_left(32)
        } else {
            request.session
        };
        (splitmix64(key) % replicas.len().max(1) as u64) as usize
    }
}

struct SloAware;

impl Router for SloAware {
    fn name(&self) -> &'static str {
        RouterPolicy::SloAware.name()
    }

    fn route(&mut self, request: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let rank = request.class.rank();
        replicas
            .iter()
            .min_by_key(|r| (r.class_outstanding[rank], r.outstanding, r.index))
            .map_or(0, |r| r.index)
    }
}

/// One replica slot's place in its lifecycle (see the
/// [module docs](self) on the health view). A crash and a scale-up share
/// one path: `Down` or `Provisioning` → `Warming` (a fresh core) → `Up`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplicaHealth {
    /// Serving normally; routable.
    Up,
    /// Crashed and drained; restarts (enters warmup) at `until`.
    Down {
        /// When the repair completes.
        until: Seconds,
    },
    /// Scaling up: the machine is ready (enters warmup) at `until`.
    Provisioning {
        /// When provisioning completes.
        until: Seconds,
    },
    /// Restarted or provisioned with an empty KV cache; routable again at
    /// `until`.
    Warming {
        /// When warmup ends.
        until: Seconds,
    },
    /// Scaling down: takes no arrivals and finishes its in-flight work,
    /// then retires.
    Draining,
    /// Holds no machine: an elastic slot not yet booted, or retired.
    Offline,
}

impl ReplicaHealth {
    /// The pending timed transition, if any.
    fn until(self) -> Option<Seconds> {
        match self {
            ReplicaHealth::Down { until }
            | ReplicaHealth::Provisioning { until }
            | ReplicaHealth::Warming { until } => Some(until),
            _ => None,
        }
    }
}

/// The driver's view of which replica slots can take traffic — a small
/// deterministic state machine over [`ReplicaHealth`]. Timed transitions
/// happen only in `advance`, at times the driver
/// controls, so two runs with the same fault timeline and scaling
/// decisions see identical health histories.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthView {
    states: Vec<ReplicaHealth>,
    /// Maintained min over every pending `until` — updated when a state
    /// is set and recomputed on [`advance`](HealthView::advance), so
    /// [`next_transition`](HealthView::next_transition) is `O(1)` on the
    /// drivers' per-event path.
    next: Option<Seconds>,
}

impl HealthView {
    /// Every replica up.
    pub(crate) fn all_up(replicas: usize) -> Self {
        HealthView {
            states: vec![ReplicaHealth::Up; replicas],
            next: None,
        }
    }

    /// The replica's current state.
    pub(crate) fn state(&self, replica: usize) -> ReplicaHealth {
        self.states[replica]
    }

    /// Whether the replica is routable.
    pub(crate) fn is_up(&self, replica: usize) -> bool {
        matches!(self.states[replica], ReplicaHealth::Up)
    }

    /// Whether the replica runs a live core: `Up`, `Warming`, or
    /// `Draining` (a crashed core is dead, and a provisioning or offline
    /// slot has none).
    pub(crate) fn is_live(&self, replica: usize) -> bool {
        matches!(
            self.states[replica],
            ReplicaHealth::Up | ReplicaHealth::Warming { .. } | ReplicaHealth::Draining
        )
    }

    /// Puts a replica into `state` (a crash, a scale-up or -down).
    pub(crate) fn set(&mut self, replica: usize, state: ReplicaHealth) {
        self.states[replica] = state;
        if let Some(t) = state.until() {
            self.next = Some(self.next.map_or(t, |n| n.min(t)));
        }
    }

    /// Fills `up` with the routable replicas among `slots` and `snaps`
    /// with their router view (`snapshot` of each), re-indexed
    /// `0..up.len()` so index-returning and positional routers agree
    /// (see the [module docs](self) on the health view).
    pub(crate) fn routable(
        &self,
        slots: Range<usize>,
        snapshot: impl Fn(usize) -> ReplicaSnapshot,
        up: &mut Vec<usize>,
        snaps: &mut Vec<ReplicaSnapshot>,
    ) {
        up.clear();
        snaps.clear();
        for k in slots.filter(|&k| self.is_up(k)) {
            snaps.push(ReplicaSnapshot {
                index: up.len(),
                ..snapshot(k)
            });
            up.push(k);
        }
    }

    /// The earliest pending transition (a restart, a provisioning end or
    /// a warmup end), if any — the driver schedules a lifecycle event
    /// there.
    pub(crate) fn next_transition(&self) -> Option<Seconds> {
        self.next
    }

    /// Applies every transition due at or before `now` (in replica-index
    /// order): a `Down` replica whose repair completed warms for
    /// `repair_warmup`, a `Provisioning` one for `boot_warmup`, and a
    /// warmed replica comes back `Up`. Returns each transition as the
    /// replica and the state it left: a `Down` or `Provisioning` entry
    /// asks the driver for a fresh core (empty KV allocator and prefix
    /// index), a `Warming` entry reports the replica routable. A zero
    /// warmup reports both in one call.
    pub(crate) fn advance(
        &mut self,
        now: Seconds,
        repair_warmup: Seconds,
        boot_warmup: Seconds,
    ) -> Vec<(usize, ReplicaHealth)> {
        let mut moved = Vec::new();
        for (i, state) in self.states.iter_mut().enumerate() {
            let warmed = match *state {
                ReplicaHealth::Down { until } if now >= until => Some(until + repair_warmup),
                ReplicaHealth::Provisioning { until } if now >= until => Some(until + boot_warmup),
                _ => None,
            };
            if let Some(until) = warmed {
                moved.push((i, *state));
                *state = ReplicaHealth::Warming { until };
            }
            if let ReplicaHealth::Warming { until } = *state {
                if now >= until {
                    moved.push((i, *state));
                    *state = ReplicaHealth::Up;
                }
            }
        }
        self.next = self
            .states
            .iter()
            .filter_map(|s| s.until())
            .reduce(Seconds::min);
        moved
    }
}

/// Incrementally-maintained router snapshots for the colocated event
/// loop: the `O(1)`-per-event replacement for rebuilding a
/// [`ReplicaSnapshot`] vector (one `O(log completions)`
/// `outstanding_at` per replica) at every arrival.
///
/// The tracker exploits the identity `outstanding_at(t) = pushed −
/// #{completions with finish ≤ t}`: it counts pushes up and expires
/// scheduled completions through a global `(finish, replica)` min-heap as
/// routing time advances. Routing instants are nondecreasing in the
/// discrete-event loop (each arrival is the earliest pending event when
/// it routes), so expiry is a forward-only sweep — with one exception: a
/// stall flush launches a static batch *in the past* (its start is the
/// batch's own arrival window, which can predate already-routed
/// arrivals), and the flushed completions can re-arm closed-loop clients
/// below the tracker's clock. The driver handles that rare case by
/// [`resync`](SnapshotTracker::resync)ing from the cores' finish times
/// instead of advancing. A core replaced by a boot or a restart
/// is [`reset`](SnapshotTracker::reset) alone: each pending expiry
/// carries its replica's epoch, and a reset bumps the epoch so the old
/// core's expiries are skipped. `queued` and `kv_frac` are refreshed
/// from the replica's own `O(1)`/`O(chips)` getters after each event
/// that can move them.
#[derive(Debug)]
pub(crate) struct SnapshotTracker {
    snaps: Vec<ReplicaSnapshot>,
    /// Scheduled completions not yet counted out of `outstanding`, with
    /// the epoch of the core that scheduled them.
    expiry: BinaryHeap<Reverse<(EventKey, usize, u32)>>,
    /// Per-replica core epochs, bumped by every reset.
    epochs: Vec<u32>,
    /// The last routing instant (monotone; debug-asserted).
    now: Seconds,
}

impl SnapshotTracker {
    /// A tracker over `replicas` idle replicas.
    pub(crate) fn new(replicas: usize) -> Self {
        SnapshotTracker {
            snaps: (0..replicas)
                .map(|index| ReplicaSnapshot {
                    index,
                    outstanding: 0,
                    queued: 0,
                    kv_frac: 0.0,
                    assigned: 0,
                    class_outstanding: [0; 3],
                })
                .collect(),
            expiry: BinaryHeap::new(),
            epochs: vec![0; replicas],
            now: Seconds::ZERO,
        }
    }

    /// The last routing instant.
    pub(crate) fn now(&self) -> Seconds {
        self.now
    }

    /// Moves routing time forward to `t`: completions with `finish <= t`
    /// stop counting as outstanding, matching
    /// [`outstanding_at`](cimtpu_serving::EngineCore::outstanding_at)'s
    /// strict `finish > t` rule. `t` must not precede
    /// [`now`](SnapshotTracker::now) — rewind with
    /// [`resync`](SnapshotTracker::resync) instead.
    pub(crate) fn advance_to(&mut self, t: Seconds) {
        debug_assert!(
            t >= self.now,
            "routing instants regressed: {t:?} < {:?}",
            self.now
        );
        self.now = t;
        let limit = EventKey::new(t);
        while let Some(&Reverse((finish, k, epoch))) = self.expiry.peek() {
            if finish > limit {
                break;
            }
            self.expiry.pop();
            if epoch == self.epochs[k] {
                self.snaps[k].outstanding -= 1;
            }
        }
    }

    /// The current per-replica snapshots (valid for the instant last
    /// passed to [`advance_to`](SnapshotTracker::advance_to)).
    pub(crate) fn snapshots(&self) -> &[ReplicaSnapshot] {
        &self.snaps
    }

    /// Rewinds routing time to `t < now` by rebuilding the outstanding
    /// sets from the cores' finish times — the slow exact path for the
    /// one event that moves routing instants backwards (a stall flush,
    /// see the type docs). One [`reset`](SnapshotTracker::reset) per
    /// replica, paid only when a regression actually happens; `assigned` counts are preserved
    /// (they are cumulative, not time-indexed).
    pub(crate) fn resync(&mut self, t: Seconds, cores: &[EngineCore<'_>]) {
        self.now = t;
        self.expiry.clear();
        for (k, core) in cores.iter().enumerate() {
            self.reset(k, core);
        }
    }

    /// Rebuilds replica `k`'s snapshot from `core` (a boot or restart
    /// replaced its core, or a resync rewinds) at the current routing
    /// instant; the other replicas are untouched. The core's scheduled
    /// completions come from its finish times, which it keeps after the
    /// driver took the completions. `O(log completions)` plus one heap
    /// push per completion finishing after the routing instant — nothing
    /// for a fresh core. `assigned` is preserved.
    pub(crate) fn reset(&mut self, k: usize, core: &EngineCore<'_>) {
        self.epochs[k] = self.epochs[k].wrapping_add(1);
        let s = &mut self.snaps[k];
        s.outstanding = core.outstanding_at(self.now);
        s.queued = core.queued();
        s.kv_frac = core.kv_frac();
        for finish in core.finishes_after(self.now) {
            self.expiry
                .push(Reverse((EventKey::new(finish), k, self.epochs[k])));
        }
    }

    /// Refreshes every snapshot's per-class outstanding split from the
    /// cores' ledgers at the current routing instant. Multi-tenant
    /// drivers call this before consulting a router; single-tenant runs
    /// skip it (the zeros stand, and no policy reads them), keeping the
    /// tracker's `O(1)`-per-event path intact. `O(replicas × residents +
    /// future completions)` per call — paid only when tenancy is armed.
    pub(crate) fn refresh_classes(&mut self, cores: &[EngineCore<'_>]) {
        for (k, core) in cores.iter().enumerate() {
            self.snaps[k].class_outstanding = core.outstanding_by_class_at(self.now);
        }
    }

    /// Records a request pushed into replica `k` (whose queue depth is
    /// now `queued`).
    pub(crate) fn on_push(&mut self, k: usize, queued: u64) {
        let s = &mut self.snaps[k];
        s.assigned += 1;
        s.outstanding += 1;
        s.queued = queued;
    }

    /// Records a scheduling step on replica `k`: refreshed queue depth
    /// and KV occupancy, plus the completions the step scheduled (each
    /// stays outstanding until routing time passes its finish).
    pub(crate) fn on_step(&mut self, k: usize, queued: u64, kv_frac: f64, new: &[Completion]) {
        let s = &mut self.snaps[k];
        s.queued = queued;
        s.kv_frac = kv_frac;
        for c in new {
            if c.finish.get() > self.now.get() {
                self.expiry
                    .push(Reverse((EventKey::new(c.finish), k, self.epochs[k])));
            } else {
                // Already in the past at the current routing instant:
                // it would expire on the next advance anyway.
                s.outstanding -= 1;
            }
        }
    }
}

/// A stable 64-bit finalizer (splitmix64), so nearby session ids spread
/// across replicas while every run hashes identically.
pub(crate) fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(index: usize, outstanding: u64, kv_frac: f64) -> ReplicaSnapshot {
        ReplicaSnapshot {
            index,
            outstanding,
            queued: 0,
            kv_frac,
            assigned: 0,
            class_outstanding: [0; 3],
        }
    }

    fn req(id: u64, session: u64) -> Request {
        Request {
            id,
            arrival_s: 0.0,
            prompt_len: 8,
            steps: 4,
            session,
            tenant: 0,
            class: cimtpu_serving::SloClass::Standard,
            prefix: cimtpu_serving::PromptPrefix::UNIQUE,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RouterPolicy::RoundRobin.build();
        let snaps = [snap(0, 0, 0.0), snap(1, 0, 0.0), snap(2, 0, 0.0)];
        let picks: Vec<usize> = (0..6).map(|i| r.route(&req(i, i), &snaps)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn pass_through_always_zero() {
        let mut r = RouterPolicy::PassThrough.build();
        let snaps = [snap(0, 9, 0.9), snap(1, 0, 0.0)];
        assert_eq!(r.route(&req(0, 0), &snaps), 0);
    }

    #[test]
    fn least_outstanding_picks_min_with_index_ties() {
        let mut r = RouterPolicy::LeastOutstanding.build();
        assert_eq!(
            r.route(
                &req(0, 0),
                &[snap(0, 3, 0.0), snap(1, 1, 0.0), snap(2, 1, 0.0)]
            ),
            1
        );
        assert_eq!(r.route(&req(0, 0), &[snap(0, 0, 0.0), snap(1, 0, 0.0)]), 0);
    }

    #[test]
    fn least_kv_breaks_ties_by_outstanding() {
        let mut r = RouterPolicy::LeastKv.build();
        assert_eq!(r.route(&req(0, 0), &[snap(0, 1, 0.8), snap(1, 5, 0.2)]), 1);
        assert_eq!(r.route(&req(0, 0), &[snap(0, 5, 0.5), snap(1, 1, 0.5)]), 1);
        assert_eq!(r.route(&req(0, 0), &[snap(0, 1, 0.5), snap(1, 1, 0.5)]), 0);
    }

    #[test]
    fn session_affinity_is_sticky_and_spreads() {
        let mut r = RouterPolicy::SessionAffinity.build();
        let snaps = [
            snap(0, 0, 0.0),
            snap(1, 0, 0.0),
            snap(2, 0, 0.0),
            snap(3, 0, 0.0),
        ];
        // Same session always lands on the same replica, whatever the id.
        for session in 0..16 {
            let first = r.route(&req(0, session), &snaps);
            for id in 1..4 {
                assert_eq!(r.route(&req(id, session), &snaps), first);
            }
        }
        // Different sessions cover more than one replica.
        let covered: rustc_hash::FxHashSet<usize> =
            (0..16).map(|s| r.route(&req(0, s), &snaps)).collect();
        assert!(covered.len() > 1, "16 sessions all hashed to one replica");
    }

    #[test]
    fn prefix_affinity_is_sticky_per_head_and_falls_back_to_session() {
        let mut r = RouterPolicy::PrefixAffinity.build();
        let snaps = [
            snap(0, 0, 0.0),
            snap(1, 0, 0.0),
            snap(2, 0, 0.0),
            snap(3, 0, 0.0),
        ];
        let headed = |id: u64, seed: u64| Request {
            prefix: cimtpu_serving::PromptPrefix {
                head_seed: seed,
                head_len: 64,
            },
            ..req(id, id)
        };
        // Same head always lands together, whatever the id/session; load
        // never enters the decision.
        for seed in 0..16 {
            let first = r.route(&headed(0, seed), &snaps);
            let busy = [
                snap(0, 99, 0.9),
                snap(1, 99, 0.9),
                snap(2, 99, 0.9),
                snap(3, 99, 0.9),
            ];
            for id in 1..4 {
                assert_eq!(r.route(&headed(id, seed), &busy), first);
            }
        }
        // Distinct heads cover more than one replica.
        let covered: rustc_hash::FxHashSet<usize> =
            (0..16).map(|s| r.route(&headed(0, s), &snaps)).collect();
        assert!(covered.len() > 1, "16 heads all hashed to one replica");
        // No shared head: behaves exactly like session affinity.
        let mut sa = RouterPolicy::SessionAffinity.build();
        for session in 0..8 {
            assert_eq!(
                r.route(&req(0, session), &snaps),
                sa.route(&req(0, session), &snaps),
            );
        }
    }

    #[test]
    fn slo_aware_routes_by_own_class_then_total_load() {
        use cimtpu_serving::SloClass;
        let mut r = RouterPolicy::SloAware.build();
        let classed = |index: usize, outstanding: u64, split: [u64; 3]| ReplicaSnapshot {
            class_outstanding: split,
            ..snap(index, outstanding, 0.0)
        };
        let by_class = |class: SloClass| Request { class, ..req(0, 0) };
        // Replica 0 is drowning in batch work but idle on interactive;
        // interactive traffic still lands there, batch traffic avoids it.
        let snaps = [classed(0, 9, [0, 0, 9]), classed(1, 3, [2, 0, 1])];
        assert_eq!(r.route(&by_class(SloClass::Interactive), &snaps), 0);
        assert_eq!(r.route(&by_class(SloClass::Batch), &snaps), 1);
        // Equal own-class load: total outstanding breaks the tie.
        let snaps = [classed(0, 9, [1, 0, 8]), classed(1, 3, [1, 0, 2])];
        assert_eq!(r.route(&by_class(SloClass::Interactive), &snaps), 1);
        // All-zero splits (a single-tenant run): degenerates to
        // least-outstanding.
        let snaps = [snap(0, 3, 0.0), snap(1, 1, 0.0), snap(2, 1, 0.0)];
        let mut lo = RouterPolicy::LeastOutstanding.build();
        assert_eq!(r.route(&req(0, 0), &snaps), lo.route(&req(0, 0), &snaps));
    }

    #[test]
    fn health_view_walks_down_warming_up() {
        let (w, never) = (Seconds::new(1.0), Seconds::new(99.0));
        let mut h = HealthView::all_up(3);
        assert!(h.is_up(1));
        assert_eq!(h.next_transition(), None);
        h.set(
            1,
            ReplicaHealth::Down {
                until: Seconds::new(5.0),
            },
        );
        assert!(!h.is_up(1));
        assert!(h.is_up(0) && h.is_up(2));
        assert_eq!(h.next_transition(), Some(Seconds::new(5.0)));
        // Too early: nothing moves.
        assert!(h.advance(Seconds::new(4.0), w, never).is_empty());
        // Repair completes: the replica restarts but warms up first.
        let down = ReplicaHealth::Down {
            until: Seconds::new(5.0),
        };
        assert_eq!(h.advance(Seconds::new(5.0), w, never), vec![(1, down)]);
        assert_eq!(
            h.state(1),
            ReplicaHealth::Warming {
                until: Seconds::new(6.0)
            }
        );
        assert!(!h.is_up(1), "warming replicas take no traffic");
        assert_eq!(h.next_transition(), Some(Seconds::new(6.0)));
        // Warmup ends: routable again; no second "restart" is reported.
        let warming = ReplicaHealth::Warming {
            until: Seconds::new(6.0),
        };
        assert_eq!(h.advance(Seconds::new(6.0), w, never), vec![(1, warming)]);
        assert!(h.is_up(1));
        assert_eq!(h.next_transition(), None);
        // A zero warmup goes Down → Up in one call, still reporting the
        // restart.
        h.set(
            0,
            ReplicaHealth::Down {
                until: Seconds::new(7.0),
            },
        );
        let moved = h.advance(Seconds::new(7.0), Seconds::ZERO, never);
        assert_eq!(moved.iter().map(|m| m.0).collect::<Vec<_>>(), vec![0, 0]);
        assert!(h.is_up(0));
    }

    #[test]
    fn health_view_walks_the_scaling_lifecycle() {
        let (repair_w, boot_w) = (Seconds::new(9.0), Seconds::new(0.5));
        let mut h = HealthView::all_up(2);
        h.set(1, ReplicaHealth::Offline);
        assert!(!h.is_up(1) && !h.is_live(1));
        assert_eq!(h.next_transition(), None, "offline slots wait on no clock");
        // Scale-up: provisioning, then the boot warmup (not the repair one).
        h.set(
            1,
            ReplicaHealth::Provisioning {
                until: Seconds::new(1.0),
            },
        );
        assert!(!h.is_live(1), "a provisioning slot has no core yet");
        let moved = h.advance(Seconds::new(1.0), repair_w, boot_w);
        assert_eq!(
            moved,
            vec![(
                1,
                ReplicaHealth::Provisioning {
                    until: Seconds::new(1.0)
                }
            )]
        );
        assert_eq!(
            h.state(1),
            ReplicaHealth::Warming {
                until: Seconds::new(1.5)
            }
        );
        assert!(h.is_live(1) && !h.is_up(1));
        h.advance(Seconds::new(1.5), repair_w, boot_w);
        assert!(h.is_up(1));
        // Scale-down: draining keeps the core but takes no traffic.
        h.set(0, ReplicaHealth::Draining);
        assert!(h.is_live(0) && !h.is_up(0));
        h.set(0, ReplicaHealth::Offline);
        assert!(!h.is_live(0) && !h.is_up(0));
    }

    /// Resetting one replica's snapshot after its core is replaced, then
    /// advancing, gives exactly what a full resync at the later instant
    /// gives — the replaced core's pending expiries are skipped.
    #[test]
    fn tracker_reset_then_advance_equals_resync() {
        use cimtpu_core::TpuConfig;
        use cimtpu_serving::{EngineSession, ServingModel};
        let spec = crate::ReplicaSpec::new(
            "t",
            TpuConfig::tpuv4i(),
            ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
        );
        let sessions: Vec<EngineSession> = (0..2)
            .map(|_| EngineSession::new(&spec.engine().unwrap()).unwrap())
            .collect();
        // Each core takes `n` requests and steps until they are scheduled.
        fn run(session: &EngineSession, n: u64) -> EngineCore<'_> {
            let mut core = session.core().unwrap();
            for id in 0..n {
                core.push(Request {
                    arrival_s: id as f64 * 1e-4,
                    ..req(id, id)
                });
            }
            core.close();
            while core.next_action().is_some() {
                core.step().unwrap();
            }
            core
        }
        let mut cores = vec![run(&sessions[0], 5), run(&sessions[1], 7)];
        let t0 = Seconds::new(2e-4);
        let mut tracker = SnapshotTracker::new(2);
        tracker.resync(t0, &cores);
        // Replica 1 crashes and comes back as a core with other history.
        cores[1] = run(&sessions[1], 3);
        tracker.reset(1, &cores[1]);
        for t in [Seconds::new(3e-4), Seconds::new(1.0)] {
            tracker.advance_to(t);
            let mut fresh = SnapshotTracker::new(2);
            fresh.resync(t, &cores);
            assert_eq!(tracker.snapshots(), fresh.snapshots(), "at {t:?}");
        }
    }

    #[test]
    fn least_kv_survives_nan_occupancy() {
        // A NaN must not panic routing mid-fault; the exact pick is
        // unimportant, determinism and in-range are.
        let mut r = RouterPolicy::LeastKv.build();
        let snaps = [snap(0, 1, f64::NAN), snap(1, 1, 0.5)];
        let pick = r.route(&req(0, 0), &snaps);
        assert!(pick < 2);
        assert_eq!(pick, r.route(&req(1, 1), &snaps));
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            RouterPolicy::PassThrough,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::LeastKv,
            RouterPolicy::SessionAffinity,
            RouterPolicy::PrefixAffinity,
            RouterPolicy::SloAware,
        ] {
            assert_eq!(p.build().name(), p.name());
        }
    }
}
