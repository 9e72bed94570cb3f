//! Seeded, deterministic fault injection for the fleet simulator.
//!
//! A [`FaultPlan`] holds the failures one run will suffer: explicit
//! [`FaultEvent`]s (a crash at 2 s, a straggler window, a degraded
//! interconnect) plus an optional seeded [`ChaosSpec`] whose events are
//! drawn from an RNG stream keyed only by the plan's seed — **separate
//! from the traffic seed**, so a zero-fault plan replays today's runs
//! bit-for-bit and re-seeding the faults never perturbs the arrivals.
//!
//! The plan also carries the [`RecoveryPolicy`] the failure-aware driver
//! serves under: how often a lost request retries (capped exponential
//! backoff), when it times out (a deadline from its *original* arrival),
//! how long a restarted replica warms up before taking traffic again,
//! and when admission sheds load instead of queueing unboundedly.
//!
//! What a run suffered is summarized in [`AvailabilityStats`], the
//! availability section of the fleet report. Both failure-aware drivers
//! (colocated and disaggregated) keep those books through one
//! `RetryLedger`.

use cimtpu_obs::EventKind;
use cimtpu_serving::{ArrivalStream, Completion, Request, TenantSet};
use cimtpu_units::{parse_time, spec, Error, Result, Seconds};
use rustc_hash::FxHashMap;
use serde::{Deserialize, Serialize};

use crate::observe::FleetObserver;
use crate::router::HealthView;

/// One injected failure, in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// The replica dies at `at`: every in-flight request and all of its
    /// KV/prefix blocks are lost. It restarts `repair` later with an
    /// empty KV allocator and prefix index, then warms up for the recovery
    /// policy's warmup before taking traffic again.
    Crash {
        /// When the replica dies.
        at: Seconds,
        /// Which replica (decode-pool index for disaggregated fleets).
        replica: usize,
        /// How long the restart takes.
        repair: Seconds,
    },
    /// The replica's priced step latency is multiplied by `slowdown` for
    /// the window (energy is unchanged: a slow chip computes the same
    /// FLOPs, only later).
    Straggler {
        /// Which replica.
        replica: usize,
        /// Window start.
        from: Seconds,
        /// Window end.
        until: Seconds,
        /// Latency multiplier (> 1 slows the replica down).
        slowdown: f64,
    },
    /// The disaggregated handoff interconnect degrades for the window:
    /// effective bandwidth is multiplied by `bandwidth_factor` (< 1 slows
    /// transfers; hop latency is unaffected) and transfer energy by
    /// `energy_factor` (retransmissions burn extra joules).
    DegradedLink {
        /// Window start.
        from: Seconds,
        /// Window end.
        until: Seconds,
        /// Bandwidth multiplier in (0, ∞); < 1 degrades.
        bandwidth_factor: f64,
        /// Transfer-energy multiplier in (0, ∞).
        energy_factor: f64,
    },
}

impl FaultEvent {
    /// When the event takes effect (crash instant or window start) —
    /// the timeline sort key.
    pub(crate) fn at(&self) -> Seconds {
        match *self {
            FaultEvent::Crash { at, .. } => at,
            FaultEvent::Straggler { from, .. } | FaultEvent::DegradedLink { from, .. } => from,
        }
    }

    /// Why the event is invalid on any fleet (a non-finite or negative
    /// time, an empty window, a factor that is not positive and finite),
    /// or `None`. The replica index is checked against the fleet size at
    /// [`FaultPlan::resolve`].
    fn invalid(&self) -> Option<String> {
        let factor = |what: &str, x: f64| {
            (!(x.is_finite() && x > 0.0))
                .then(|| format!("{what} must be a positive finite factor"))
        };
        // `is_finite` rejects NaN and ±inf: comparisons alone let NaN through.
        let finite_from_zero = |t: Seconds| t.get().is_finite() && t.get() >= 0.0;
        let window = |what: &str, from: Seconds, until: Seconds| {
            (!(finite_from_zero(from) && finite_from_zero(until) && until > from))
                .then(|| format!("{what} window must be finite, non-negative and non-empty"))
        };
        match *self {
            FaultEvent::Crash { at, repair, .. } => {
                let ok = finite_from_zero(at) && finite_from_zero(repair);
                (!ok).then(|| "crash times must be finite, non-negative".to_owned())
            }
            FaultEvent::Straggler {
                from,
                until,
                slowdown,
                ..
            } => {
                factor("straggler slowdown", slowdown).or_else(|| window("straggler", from, until))
            }
            FaultEvent::DegradedLink {
                from,
                until,
                bandwidth_factor,
                energy_factor,
            } => factor("link bandwidth factor", bandwidth_factor)
                .or_else(|| factor("link energy factor", energy_factor))
                .or_else(|| window("degraded-link", from, until)),
        }
    }
}

/// How the failure-aware driver recovers lost work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retry budget per request: how many times a lost request may be
    /// re-injected before it is accounted as shed.
    pub max_attempts: u32,
    /// Base retry backoff; attempt `n` waits `backoff * 2^(n-1)`.
    pub backoff: Seconds,
    /// Cap on the exponential backoff.
    pub max_backoff: Seconds,
    /// Deadline from a request's *original* arrival; a retry that cannot
    /// fire (or land) before it is accounted as timed out.
    pub deadline: Seconds,
    /// How long a restarted replica warms up (re-loading weights,
    /// re-JITting) before the router re-admits it.
    pub warmup: Seconds,
    /// Admission sheds load when every healthy replica already has at
    /// least this many requests outstanding (`None` = never shed). The
    /// oldest waiting request (original arrival, then id) is dropped —
    /// oldest-first, so a burst degrades to fresh work instead of
    /// head-of-line retries.
    pub shed_outstanding: Option<u64>,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_attempts: 3,
            backoff: Seconds::new(0.002),
            max_backoff: Seconds::new(1.0),
            deadline: Seconds::new(60.0),
            warmup: Seconds::new(0.001),
            shed_outstanding: None,
        }
    }
}

impl RecoveryPolicy {
    /// The backoff before retry attempt `attempt` (1-based), capped.
    pub(crate) fn backoff_for(&self, attempt: u32) -> Seconds {
        let factor = 2.0f64.powi(attempt.saturating_sub(1).min(62) as i32);
        Seconds::new((self.backoff.get() * factor).min(self.max_backoff.get()))
    }
}

/// A seeded crash generator: `crashes` crash events drawn uniformly from
/// `window`, each targeting a replica drawn from the same stream, all
/// repaired after `repair`. Re-seeding the owning [`FaultPlan`] redraws
/// the events; the traffic stream never sees these RNG draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosSpec {
    /// How many crashes to draw.
    pub crashes: u32,
    /// The window crash instants are drawn from.
    pub window: (Seconds, Seconds),
    /// Repair delay for every drawn crash.
    pub repair: Seconds,
}

/// The complete fault configuration of one run. An empty plan (no
/// events, no chaos spec) injects nothing: the run is bit-for-bit
/// identical to a run without any plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
    chaos: Option<ChaosSpec>,
    recovery: RecoveryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, today's behaviour.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
            chaos: None,
            recovery: RecoveryPolicy::default(),
        }
    }

    /// An empty plan carrying `seed` for chaos draws added later.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::none()
        }
    }

    /// Adds one explicit event.
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Adds explicit events (e.g. from [`parse_faults`]).
    #[must_use]
    pub fn with_events(mut self, events: impl IntoIterator<Item = FaultEvent>) -> Self {
        self.events.extend(events);
        self
    }

    /// Sets the seeded chaos generator.
    #[must_use]
    pub fn with_chaos(mut self, chaos: ChaosSpec) -> Self {
        self.chaos = Some(chaos);
        self
    }

    /// Sets the recovery policy.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replaces the fault seed (what `cluster_sim --fault-seed` applies):
    /// chaos-generated events are redrawn, explicit events stand.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The recovery policy.
    pub(crate) fn recovery(&self) -> &RecoveryPolicy {
        &self.recovery
    }

    /// The seeded chaos generator, if any: the only part of the plan a
    /// new [seed](Self::with_seed) redraws.
    pub fn chaos(&self) -> Option<&ChaosSpec> {
        self.chaos.as_ref()
    }

    /// Whether the plan injects nothing. The event loops then run with no
    /// fault timeline and an all-up health view, the recovery policy
    /// never engages (no retries, no load shedding), and the report has
    /// no availability section.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty() && self.chaos.is_none()
    }

    /// Materializes the timeline for `pool` — the replicas a fault index
    /// counts (`"the fleet"`, or a disaggregated fleet's `"the decode
    /// pool"`), `replicas` of them: explicit events plus chaos draws,
    /// validated, sorted by effect time (ties keep insertion order, chaos
    /// draws after explicit events).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an event targeting a replica
    /// outside the pool (the message names `pool`), an empty/negative
    /// window, or a non-positive factor.
    pub(crate) fn resolve(&self, pool: &str, replicas: usize) -> Result<Vec<FaultEvent>> {
        if replicas == 0 {
            return Err(Error::invalid_config(
                "cannot inject faults into an empty fleet",
            ));
        }
        let mut events = self.events.clone();
        if let Some(chaos) = &self.chaos {
            let (from, until) = chaos.window;
            if !(from.get().is_finite() && until.get().is_finite()) || until < from {
                return Err(Error::invalid_config(
                    "chaos window must be finite and not reversed",
                ));
            }
            let mut rng = FaultRng::new(self.seed);
            for _ in 0..chaos.crashes {
                let at = Seconds::new(from.get() + rng.next_f64() * (until.get() - from.get()));
                let replica = (rng.next_u64() % replicas as u64) as usize;
                events.push(FaultEvent::Crash {
                    at,
                    replica,
                    repair: chaos.repair,
                });
            }
        }
        for event in &events {
            if let FaultEvent::Crash { replica, .. } | FaultEvent::Straggler { replica, .. } =
                *event
            {
                if replica >= replicas {
                    return Err(Error::invalid_config(format!(
                        "fault targets replica {replica} but {pool} has {replicas} replica(s)"
                    )));
                }
            }
            if let Some(why) = event.invalid() {
                return Err(Error::invalid_config(why));
            }
        }
        events.sort_by(|a, b| a.at().get().total_cmp(&b.at().get()));
        Ok(events)
    }

    /// [`resolve`](FaultPlan::resolve)s the plan for a colocated fleet of
    /// `n` slots into point actions, sorted by time; a degraded-link event
    /// is an error, as a colocated fleet has no handoff link.
    pub(crate) fn colocated_timeline(&self, n: usize) -> Result<Vec<(Seconds, FaultAction)>> {
        let mut timeline = Vec::new();
        for event in self.resolve("the fleet", n)? {
            match event {
                FaultEvent::Crash {
                    at,
                    replica,
                    repair,
                } => {
                    timeline.push((at, FaultAction::Crash { replica, repair }));
                }
                FaultEvent::Straggler {
                    replica,
                    from,
                    until,
                    slowdown,
                } => {
                    timeline.push((
                        from,
                        FaultAction::Slow {
                            replica,
                            factor: Some(slowdown),
                        },
                    ));
                    timeline.push((
                        until,
                        FaultAction::Slow {
                            replica,
                            factor: None,
                        },
                    ));
                }
                FaultEvent::DegradedLink { .. } => {
                    return Err(Error::invalid_config(
                        "degraded-link faults apply to the disaggregated interconnect; \
                         a colocated fleet has no handoff link",
                    ));
                }
            }
        }
        timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
        Ok(timeline)
    }
}

/// A point action on a colocated fleet's fault timeline (a straggler
/// window expands into a `Slow` action with its factor at the start and
/// one with `None` at the end).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultAction {
    Crash { replica: usize, repair: Seconds },
    Slow { replica: usize, factor: Option<f64> },
}

/// The availability/robustness section of a fleet report — what the run
/// suffered and how serving degraded. Present only for runs with a
/// non-empty [`FaultPlan`]; zero-fault reports omit it so the committed
/// baselines stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityStats {
    /// Replica crashes suffered.
    pub crashes: u64,
    /// Total replica downtime (crash to end of warmup), clipped to the
    /// run's makespan, summed over crashes, in seconds.
    pub downtime_s: f64,
    /// Fraction of fleet capacity that was up: `1 - downtime / (replicas
    /// × makespan)`.
    pub availability: f64,
    /// Retry attempts fired (re-injections of lost requests).
    pub retries: u64,
    /// Requests that completed after at least one retry — the measure of
    /// the recovery path actually working.
    pub retried_ok: u64,
    /// Requests dropped by admission when surviving capacity was
    /// insufficient or the retry budget ran out.
    pub shed: u64,
    /// Requests that missed their deadline before a retry could land.
    pub timed_out: u64,
    /// Per-crash recovery time: crash instant to the replica's first
    /// completion after restart (end of run if it never completed
    /// another request), in timeline order, seconds.
    pub time_to_recover_s: Vec<f64>,
}

impl AvailabilityStats {
    /// The all-zero section (a plan with only benign events, e.g. a
    /// straggler window, reports full availability).
    pub(crate) fn zero() -> Self {
        AvailabilityStats {
            crashes: 0,
            downtime_s: 0.0,
            availability: 1.0,
            retries: 0,
            retried_ok: 0,
            shed: 0,
            timed_out: 0,
            time_to_recover_s: Vec::new(),
        }
    }
}

/// One crash on the books, for downtime and time-to-recover accounting.
pub(crate) struct CrashRecord {
    pub(crate) replica: usize,
    pub(crate) at: Seconds,
    /// When the replica came back `Up` (end of warmup).
    pub(crate) up_again: Option<Seconds>,
    /// Finish time of the replica's first completion after restart.
    pub(crate) first_completion: Option<Seconds>,
}

/// Releases a shed or timed-out request's closed-loop client: the client
/// observes the failure at `at` and thinks before reissuing, so dropping
/// a request never deadlocks a closed loop. Open-loop and burst streams
/// ignore the synthetic completion.
pub(crate) fn release_client(
    stream: &mut ArrivalStream<'_>,
    id: u64,
    orig_arrival: f64,
    at: Seconds,
) {
    stream.on_complete(&Completion {
        id,
        arrival: Seconds::new(orig_arrival),
        first_token: at,
        finish: at,
        steps: 0,
    });
}

/// The retry and availability books the failure-aware drivers share: each
/// request's original arrival and retry count, the shed / time-out /
/// retry verdict for a lost request, the deadline check at admission, the
/// crash log, and the [`AvailabilityStats`] they add up to, with the
/// sheds and timeouts also counted per tenant. Sheds, timeouts, retries
/// and parks go to the loop's observer `O`. A request's entries are
/// dropped once it completes, is shed or times out, so the books hold
/// requests in flight only.
pub(crate) struct RetryLedger<'o, O> {
    recovery: RecoveryPolicy,
    /// Original arrival of each request the driver re-admitted with a
    /// different `arrival_s`; absent means `arrival_s` is the original.
    origin: FxHashMap<u64, f64>,
    /// Retries charged per request; absent means none.
    attempts: FxHashMap<u64, u32>,
    crashes: Vec<CrashRecord>,
    stats: AvailabilityStats,
    /// Sheds and timeouts by tenant index (empty for an untenanted run).
    pub(crate) tenant_shed: Vec<u64>,
    pub(crate) tenant_timed_out: Vec<u64>,
    obs: &'o O,
}

impl<'o, O: FleetObserver> RetryLedger<'o, O> {
    /// Empty books under `recovery` for a run of `tenants`, reporting to
    /// `obs`.
    pub(crate) fn new(recovery: RecoveryPolicy, tenants: Option<&TenantSet>, obs: &'o O) -> Self {
        let tenants = tenants.map_or(0, |set| set.tenants.len());
        RetryLedger {
            recovery,
            origin: FxHashMap::default(),
            attempts: FxHashMap::default(),
            crashes: Vec::new(),
            stats: AvailabilityStats::zero(),
            tenant_shed: vec![0; tenants],
            tenant_timed_out: vec![0; tenants],
            obs,
        }
    }

    /// `r`'s original arrival.
    pub(crate) fn origin(&self, r: &Request) -> f64 {
        self.origin.get(&r.id).copied().unwrap_or(r.arrival_s)
    }

    /// Retries already charged to request `id`.
    pub(crate) fn attempts(&self, id: u64) -> u32 {
        self.attempts.get(&id).copied().unwrap_or(0)
    }

    /// Notes that the driver admits `r` with arrival `pushed`: the
    /// original is remembered whenever the two differ, so deadlines and
    /// reported latencies keep measuring from it.
    pub(crate) fn readmit(&mut self, r: &Request, pushed: f64) {
        let orig = self.origin(r);
        if pushed != orig {
            self.origin.insert(r.id, orig);
        }
    }

    /// Counts a placement after `attempts` retries as a retry fired
    /// (a first placement is not one).
    pub(crate) fn on_placed(&mut self, attempts: u32) {
        if attempts > 0 {
            self.stats.retries += 1;
        }
    }

    /// Charges a crash-lost request one retry. It is shed once its retry
    /// budget is spent and timed out when the backoff would fire past its
    /// deadline; otherwise the retry is traced and `(fire time, attempts)`
    /// returned.
    pub(crate) fn on_lost(
        &mut self,
        r: &Request,
        now: Seconds,
        stream: &mut ArrivalStream<'_>,
    ) -> Option<(Seconds, u32)> {
        let attempts = self.attempts(r.id) + 1;
        if attempts > self.recovery.max_attempts {
            self.shed(r, now, stream);
            return None;
        }
        let fire = now + self.recovery.backoff_for(attempts);
        if fire.get() > self.origin(r) + self.recovery.deadline.get() {
            self.time_out(r, now, stream);
            return None;
        }
        self.obs.request(EventKind::Retry, r, now, Some(fire));
        self.attempts.insert(r.id, attempts);
        Some((fire, attempts))
    }

    /// The deadline check at admission: times `r` out (and returns
    /// `true`) when `now` is past its deadline.
    pub(crate) fn expired(
        &mut self,
        r: &Request,
        now: Seconds,
        stream: &mut ArrivalStream<'_>,
    ) -> bool {
        let expired = now.get() > self.origin(r) + self.recovery.deadline.get();
        if expired {
            self.time_out(r, now, stream);
        }
        expired
    }

    /// Drops `r` as shed.
    pub(crate) fn shed(&mut self, r: &Request, now: Seconds, stream: &mut ArrivalStream<'_>) {
        self.stats.shed += 1;
        if let Some(n) = self.tenant_shed.get_mut(r.tenant as usize) {
            *n += 1;
        }
        self.drop_request(EventKind::Shed, r, now, stream);
    }

    fn time_out(&mut self, r: &Request, now: Seconds, stream: &mut ArrivalStream<'_>) {
        self.stats.timed_out += 1;
        if let Some(n) = self.tenant_timed_out.get_mut(r.tenant as usize) {
            *n += 1;
        }
        self.drop_request(EventKind::Timeout, r, now, stream);
    }

    /// Clears `r`'s books, traces its drop and releases its closed-loop
    /// client, measuring from its original arrival.
    fn drop_request(
        &mut self,
        kind: EventKind,
        r: &Request,
        now: Seconds,
        stream: &mut ArrivalStream<'_>,
    ) {
        let orig = self.origin(r);
        self.origin.remove(&r.id);
        self.attempts.remove(&r.id);
        self.obs.request(kind, r, now, None);
        release_client(stream, r.id, orig, now);
    }

    /// Traces `r` parked at `now`.
    pub(crate) fn on_park(&self, r: &Request, now: Seconds) {
        self.obs.request(EventKind::Park, r, now, None);
    }

    /// Books a crash of `replica` at `at`. A `retiring` replica (an
    /// elastic slot crashed while draining) retires instead of
    /// restarting: it costs no downtime and has nothing to recover.
    pub(crate) fn on_crash(&mut self, replica: usize, at: Seconds, retiring: bool) {
        self.stats.crashes += 1;
        let back = retiring.then_some(at);
        self.crashes.push(CrashRecord {
            replica,
            at,
            up_again: back,
            first_completion: back,
        });
    }

    /// Stamps `now` on every crash whose replica `health` shows up again.
    pub(crate) fn on_health(&mut self, health: &HealthView, now: Seconds) {
        for rec in &mut self.crashes {
            if rec.up_again.is_none() && health.is_up(rec.replica) {
                rec.up_again = Some(now);
            }
        }
    }

    /// Books `replica`'s delivered completion `c`: restores its original
    /// arrival, counts a retried request that made it, forgets the
    /// request, and stops the replica's time-to-recover clocks.
    pub(crate) fn on_complete(&mut self, replica: usize, c: &mut Completion) {
        if let Some(orig) = self.origin.remove(&c.id) {
            c.arrival = Seconds::new(orig);
        }
        if self.attempts.remove(&c.id).is_some() {
            self.stats.retried_ok += 1;
        }
        for rec in &mut self.crashes {
            if rec.replica == replica && rec.first_completion.is_none() && c.finish > rec.at {
                rec.first_completion = Some(c.finish);
            }
        }
    }

    /// The availability section of a finished fleet of `replicas`
    /// replicas that was offered `offered` requests and delivered
    /// `completions` (original arrivals restored): each crash's downtime
    /// is clipped to the span from the first arrival to the last finish.
    pub(crate) fn finish(
        &self,
        completions: &[Completion],
        offered: u64,
        replicas: usize,
    ) -> AvailabilityStats {
        let mut avail = self.stats.clone();
        debug_assert_eq!(
            completions.len() as u64 + avail.shed + avail.timed_out,
            offered,
            "request conservation: arrived == completed + shed + timed out"
        );
        debug_assert!(
            self.origin.is_empty() && self.attempts.is_empty(),
            "every offered request left the books: {} origins, {} attempt counts remain",
            self.origin.len(),
            self.attempts.len()
        );
        let (first_arrival, finish, makespan) = Completion::span(completions);
        let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
        let mut downtime = 0.0;
        for rec in &self.crashes {
            let start = clip(rec.at.get());
            let end = clip(rec.up_again.map_or(finish.get(), |u| u.get()));
            downtime += (end - start).max(0.0);
            avail
                .time_to_recover_s
                .push((rec.first_completion.unwrap_or(finish).get() - rec.at.get()).max(0.0));
        }
        avail.downtime_s = downtime;
        avail.availability = (1.0 - downtime / (replicas as f64 * makespan)).clamp(0.0, 1.0);
        avail
    }
}

/// A splitmix64 stream for fault draws — deliberately distinct from the
/// traffic RNG so fault seeds never perturb arrivals.
struct FaultRng(u64);

impl FaultRng {
    fn new(seed: u64) -> Self {
        // Offset the state so seed 0 still produces a lively stream.
        FaultRng(seed ^ 0xFA17_FA17_FA17_FA17)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Parses a `--faults` spec: comma-separated events.
///
/// Grammar (case-insensitive, whitespace-free):
///
/// - `crash@<time>:<replica>[:repair=<time>]` — e.g.
///   `crash@2s:replica1:repair=5s` (repair defaults to `1s`)
/// - `straggler@<from>-<until>:<replica>:x<factor>` — e.g.
///   `straggler@1s-3s:r0:x4`
/// - `link@<from>-<until>:x<factor>[:energy=x<factor>]` — e.g.
///   `link@0s-2s:x0.1` (energy factor defaults to 1)
///
/// `<time>` is a number with an optional `s` (default) or `ms` suffix;
/// times, windows and factors are the shared tokens of
/// [`cimtpu_units::spec`]. `<replica>` is an index, optionally prefixed
/// `replica` or `r` (in an elastic fleet, a slot: see [`crate::elastic`]).
/// Times, windows and factors are validated here; replica indices are
/// validated against the fleet size at `FaultPlan::resolve` time.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the malformed event.
///
/// # Examples
///
/// ```
/// use cimtpu_cluster::{parse_faults, FaultEvent};
/// let events = parse_faults("crash@2s:replica1:repair=5s,link@1s-2s:x0.1").unwrap();
/// assert_eq!(events.len(), 2);
/// assert!(matches!(events[0], FaultEvent::Crash { replica: 1, .. }));
/// ```
pub fn parse_faults(spec: &str) -> Result<Vec<FaultEvent>> {
    let bad = |part: &str, why: &str| {
        Error::invalid_config(format!(
            "invalid fault spec '{part}': {why} (expected e.g. 'crash@2s:replica1:repair=5s', \
             'straggler@1s-3s:r0:x4', or 'link@0s-2s:x0.1')"
        ))
    };
    let mut events = Vec::new();
    for part in spec::entries(spec) {
        let lower = part.to_ascii_lowercase();
        let (kind, rest) = lower
            .split_once('@')
            .ok_or_else(|| bad(part, "missing '@<time>'"))?;
        let mut fields = rest.split(':');
        let when = fields.next().unwrap_or_default();
        let window = |what: &str| spec::parse_window(when).ok_or_else(|| bad(part, what));
        let replica = |field: Option<&str>| {
            field
                .and_then(parse_replica)
                .ok_or_else(|| bad(part, "missing or bad replica"))
        };
        let factor = |field: Option<&str>| {
            let factor = field.and_then(spec::parse_factor);
            factor.ok_or_else(|| bad(part, "missing or bad ':x<factor>'"))
        };
        let event = match kind {
            "crash" => FaultEvent::Crash {
                at: parse_time(when).ok_or_else(|| bad(part, "bad crash time"))?,
                replica: replica(fields.next())?,
                repair: match fields.next() {
                    None => Seconds::new(1.0),
                    Some(f) => f
                        .strip_prefix("repair=")
                        .and_then(parse_time)
                        .ok_or_else(|| bad(part, "bad repair delay"))?,
                },
            },
            "straggler" => {
                let (from, until) = window("bad straggler window")?;
                let replica = replica(fields.next())?;
                FaultEvent::Straggler {
                    replica,
                    from,
                    until,
                    slowdown: factor(fields.next())?,
                }
            }
            "link" => {
                let (from, until) = window("bad link window")?;
                let bandwidth_factor = factor(fields.next())?;
                let energy_factor = match fields.next() {
                    None => 1.0,
                    Some(f) => f
                        .strip_prefix("energy=")
                        .and_then(spec::parse_factor)
                        .ok_or_else(|| bad(part, "bad ':energy=x<factor>'"))?,
                };
                FaultEvent::DegradedLink {
                    from,
                    until,
                    bandwidth_factor,
                    energy_factor,
                }
            }
            other => return Err(bad(part, &format!("unknown fault kind '{other}'"))),
        };
        if let Some(extra) = fields.next() {
            return Err(bad(part, &format!("trailing field '{extra}'")));
        }
        if let Some(why) = event.invalid() {
            return Err(bad(part, &why));
        }
        events.push(event);
    }
    if events.is_empty() {
        return Err(Error::invalid_config("fault spec contains no events"));
    }
    Ok(events)
}

/// Parses `replica3`, `r3`, or `3` as a replica index.
fn parse_replica(s: &str) -> Option<usize> {
    let digits = s
        .strip_prefix("replica")
        .or_else(|| s.strip_prefix('r'))
        .unwrap_or(s);
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert!(plan.resolve("the fleet", 2).unwrap().is_empty());
        assert!(!plan
            .clone()
            .with_chaos(ChaosSpec {
                crashes: 1,
                window: (Seconds::ZERO, Seconds::new(1.0)),
                repair: Seconds::new(0.5),
            })
            .is_empty());
    }

    #[test]
    fn chaos_draws_are_seed_deterministic() {
        let plan = |seed| {
            FaultPlan::seeded(seed).with_chaos(ChaosSpec {
                crashes: 3,
                window: (Seconds::new(1.0), Seconds::new(2.0)),
                repair: Seconds::new(0.25),
            })
        };
        let a = plan(7).resolve("the fleet", 4).unwrap();
        let b = plan(7).resolve("the fleet", 4).unwrap();
        assert_eq!(a, b, "same seed, same timeline");
        let c = plan(8).resolve("the fleet", 4).unwrap();
        assert_ne!(a, c, "a different seed redraws the crashes");
        assert_eq!(plan(7).chaos().map(|c| c.crashes), Some(3));
        assert!(FaultPlan::seeded(7).chaos().is_none());
        for e in &a {
            let FaultEvent::Crash {
                at,
                replica,
                repair,
            } = *e
            else {
                panic!("chaos draws crashes only")
            };
            assert!(at >= Seconds::new(1.0) && at < Seconds::new(2.0));
            assert!(replica < 4);
            assert_eq!(repair, Seconds::new(0.25));
        }
    }

    #[test]
    fn resolve_sorts_and_validates() {
        let plan = FaultPlan::none()
            .with_event(FaultEvent::Crash {
                at: Seconds::new(3.0),
                replica: 0,
                repair: Seconds::new(1.0),
            })
            .with_event(FaultEvent::Straggler {
                replica: 1,
                from: Seconds::new(1.0),
                until: Seconds::new(2.0),
                slowdown: 4.0,
            });
        let events = plan.resolve("the fleet", 2).unwrap();
        assert!(
            matches!(events[0], FaultEvent::Straggler { .. }),
            "sorted by effect time"
        );
        assert!(
            plan.resolve("the fleet", 1).is_err(),
            "replica 1 out of range"
        );
        assert!(FaultPlan::none()
            .with_event(FaultEvent::Straggler {
                replica: 0,
                from: Seconds::new(2.0),
                until: Seconds::new(1.0),
                slowdown: 4.0,
            })
            .resolve("the fleet", 1)
            .is_err());
        assert!(FaultPlan::none()
            .with_event(FaultEvent::DegradedLink {
                from: Seconds::ZERO,
                until: Seconds::new(1.0),
                bandwidth_factor: 0.0,
                energy_factor: 1.0,
            })
            .resolve("the fleet", 1)
            .is_err());
    }

    /// An out-of-range fault index names the pool it indexes: the fleet
    /// for a colocated fleet, the decode pool for a disaggregated one.
    #[test]
    fn out_of_range_fault_names_its_pool() {
        use crate::{InterconnectSpec, ReplicaSpec};
        use cimtpu_core::TpuConfig;
        use cimtpu_serving::ServingModel;

        let crash = FaultPlan::none().with_event(FaultEvent::Crash {
            at: Seconds::new(0.001),
            replica: 9,
            repair: Seconds::new(1.0),
        });
        let message = |r: Result<Vec<FaultEvent>>| match r {
            Err(Error::InvalidConfig(m)) => m,
            other => panic!("expected a configuration error, got {other:?}"),
        };
        assert_eq!(
            message(crash.resolve("the fleet", 2)),
            "fault targets replica 9 but the fleet has 2 replica(s)"
        );
        let tiny = || {
            ReplicaSpec::new(
                "tiny",
                TpuConfig::tpuv4i(),
                ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
            )
        };
        let disagg = crate::disagg::pipeline(&[tiny()], &[tiny()], InterconnectSpec::ici(), &crash);
        let Err(Error::InvalidConfig(m)) = disagg else {
            panic!("replica 9 is outside a one-replica decode pool");
        };
        assert_eq!(
            m,
            "fault targets replica 9 but the decode pool has 1 replica(s)"
        );
    }

    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    /// `x` seconds. `Seconds::new` refuses NaN in debug builds, but
    /// arithmetic does not: this is how a NaN time reaches a plan.
    fn secs(x: f64) -> Seconds {
        Seconds::new(1.0) * x
    }

    /// Whether resolving `event` on a 2-replica fleet is a typed
    /// configuration error.
    fn rejected(event: FaultEvent) -> bool {
        matches!(
            FaultPlan::none().with_event(event).resolve("the fleet", 2),
            Err(Error::InvalidConfig(_))
        )
    }

    #[test]
    fn crash_rejects_non_finite_times() {
        let crash = |at: f64, repair: f64| FaultEvent::Crash {
            at: secs(at),
            replica: 0,
            repair: secs(repair),
        };
        assert!(!rejected(crash(1.0, 0.5)));
        for bad in NON_FINITE {
            assert!(rejected(crash(bad, 0.5)), "at = {bad}");
            assert!(rejected(crash(1.0, bad)), "repair = {bad}");
        }
    }

    #[test]
    fn straggler_rejects_non_finite_windows() {
        let straggler = |from: f64, until: f64| FaultEvent::Straggler {
            replica: 1,
            from: secs(from),
            until: secs(until),
            slowdown: 2.0,
        };
        assert!(!rejected(straggler(1.0, 2.0)));
        for bad in NON_FINITE {
            assert!(rejected(straggler(bad, 2.0)), "from = {bad}");
            assert!(rejected(straggler(1.0, bad)), "until = {bad}");
        }
    }

    #[test]
    fn degraded_link_rejects_non_finite_windows() {
        let link = |from: f64, until: f64| FaultEvent::DegradedLink {
            from: secs(from),
            until: secs(until),
            bandwidth_factor: 0.5,
            energy_factor: 1.0,
        };
        assert!(!rejected(link(1.0, 2.0)));
        for bad in NON_FINITE {
            assert!(rejected(link(bad, 2.0)), "from = {bad}");
            assert!(rejected(link(1.0, bad)), "until = {bad}");
        }
    }

    /// A non-finite chaos window is rejected before any crash instant is
    /// drawn from it (a NaN bound would draw NaN instants).
    #[test]
    fn chaos_rejects_a_non_finite_window() {
        let chaos = |from: f64, until: f64| {
            FaultPlan::seeded(3).with_chaos(ChaosSpec {
                crashes: 2,
                window: (secs(from), secs(until)),
                repair: secs(0.5),
            })
        };
        assert!(chaos(0.0, 1.0).resolve("the fleet", 2).is_ok());
        for bad in NON_FINITE {
            assert!(matches!(
                chaos(bad, 1.0).resolve("the fleet", 2),
                Err(Error::InvalidConfig(_))
            ));
            assert!(matches!(
                chaos(0.0, bad).resolve("the fleet", 2),
                Err(Error::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let policy = RecoveryPolicy {
            backoff: Seconds::new(0.010),
            max_backoff: Seconds::new(0.050),
            ..RecoveryPolicy::default()
        };
        assert_eq!(policy.backoff_for(1), Seconds::new(0.010));
        assert_eq!(policy.backoff_for(2), Seconds::new(0.020));
        assert_eq!(policy.backoff_for(3), Seconds::new(0.040));
        assert_eq!(policy.backoff_for(4), Seconds::new(0.050), "capped");
        assert_eq!(policy.backoff_for(100), Seconds::new(0.050), "no overflow");
    }

    #[test]
    fn fault_parsing() {
        let events = parse_faults("crash@2s:replica1:repair=5s").unwrap();
        assert_eq!(
            events,
            vec![FaultEvent::Crash {
                at: Seconds::new(2.0),
                replica: 1,
                repair: Seconds::new(5.0),
            }]
        );
        // Default repair, bare replica index, ms times, case folding.
        assert_eq!(
            parse_faults("CRASH@150ms:0").unwrap(),
            vec![FaultEvent::Crash {
                at: Seconds::new(0.150),
                replica: 0,
                repair: Seconds::new(1.0),
            }]
        );
        assert_eq!(
            parse_faults("straggler@1s-3s:r0:x4").unwrap(),
            vec![FaultEvent::Straggler {
                replica: 0,
                from: Seconds::new(1.0),
                until: Seconds::new(3.0),
                slowdown: 4.0,
            }]
        );
        assert_eq!(
            parse_faults("link@0s-2s:x0.1").unwrap(),
            vec![FaultEvent::DegradedLink {
                from: Seconds::ZERO,
                until: Seconds::new(2.0),
                bandwidth_factor: 0.1,
                energy_factor: 1.0,
            }]
        );
        assert_eq!(
            parse_faults("link@0-2:x0.5:energy=x2").unwrap(),
            vec![FaultEvent::DegradedLink {
                from: Seconds::ZERO,
                until: Seconds::new(2.0),
                bandwidth_factor: 0.5,
                energy_factor: 2.0,
            }]
        );
        // Multiple events, whitespace tolerated around commas.
        let multi = parse_faults("crash@2s:r1, link@1s-2s:x0.1").unwrap();
        assert_eq!(multi.len(), 2);

        for bad in [
            "",
            "crash",
            "crash@",
            "crash@two:r0",
            "crash@2s",
            "crash@2s:rx",
            "crash@2s:r0:repair=",
            "crash@2s:r0:mend=1s",
            "crash@2s:r0:repair=1s:extra",
            "crash@-1s:r0",
            "straggler@1s:r0:x4",
            "straggler@1s-3s:r0",
            "straggler@1s-3s:r0:4",
            "link@1s-2s",
            "link@1s-2s:0.1",
            "link@1s-2s:x0.1:energy=2",
            "flood@1s-2s:x0.1",
            // Well-formed, but invalid on any fleet.
            "link@0s-2s:x0",
            "link@0s-2s:x0.5:energy=x-1",
            "link@2s-2s:x0.5",
            "straggler@1ms-3ms:r0:xnan",
            "straggler@1s-3s:r0:xinf",
            "straggler@3s-1s:r0:x2",
        ] {
            assert!(parse_faults(bad).is_err(), "'{bad}' should not parse");
        }
    }

    /// Each fault kind's pieces in grammar order (the last is optional),
    /// for near-grammar specs.
    const EVENTS: [[&str; 4]; 3] = [
        ["crash@", "150ms", ":replica1", ":repair=5s"],
        ["straggler@", "1s-3s", ":r0", ":x4"],
        ["link@", "0-2", ":x1e-320", ":energy=x2"],
    ];
    /// Near misses a piece may be swapped for: an unknown kind, an
    /// uppercase one, reversed, empty and negative windows, a bad
    /// replica, NaN and zero factors, an empty repair, a dropped piece.
    const MISSES: [&str; 10] = [
        "flood@", "CRASH@", "3s-1s", "2s-2s", "-1s", ":rx", ":xnan", ":x0", ":repair=", "",
    ];

    /// One near-grammar spec: each `u64` draws one event, each of its
    /// pieces swapped for a near miss one time in four.
    fn near_grammar(draws: &[u64]) -> String {
        let mut spec = String::new();
        for &d in draws {
            for (i, piece) in EVENTS[(d % 3) as usize].iter().enumerate() {
                let digit = (d >> (2 + 8 * i)) & 0xFF;
                let miss = MISSES[(digit / 4) as usize % MISSES.len()];
                spec += if digit % 4 == 0 { miss } else { piece };
            }
            spec += if (d >> 40) & 1 == 0 { "," } else { ", " };
        }
        spec
    }

    /// Parses `spec`: nothing panics, and every accepted event is valid
    /// on any fleet.
    fn check_fault_spec(spec: &str) {
        match parse_faults(spec) {
            Ok(events) => {
                assert!(!events.is_empty(), "{spec:?}");
                for e in &events {
                    assert_eq!(e.invalid(), None, "{spec:?}: {e:?}");
                }
            }
            Err(Error::InvalidConfig(_)) => {}
            Err(e) => panic!("{spec:?}: untyped error {e:?}"),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Arbitrary strings (any Unicode scalar values) never panic the
        /// parser.
        #[test]
        fn parse_faults_survives_arbitrary_strings(
            chars in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..24),
        ) {
            let spec: String = chars
                .iter()
                .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                .collect();
            check_fault_spec(&spec);
        }

        /// Near-grammar strings: events built from valid and near-miss
        /// pieces.
        #[test]
        fn parse_faults_survives_near_grammar_strings(
            draws in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..4),
        ) {
            check_fault_spec(&near_grammar(&draws));
        }
    }

    #[test]
    fn availability_serializes_in_declaration_order() {
        let stats = AvailabilityStats {
            crashes: 1,
            ..AvailabilityStats::zero()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let keys = [
            "\"crashes\"",
            "\"downtime_s\"",
            "\"availability\"",
            "\"retries\"",
            "\"retried_ok\"",
            "\"shed\"",
            "\"timed_out\"",
            "\"time_to_recover_s\"",
        ];
        let positions: Vec<usize> = keys
            .iter()
            .map(|k| {
                json.find(k)
                    .unwrap_or_else(|| panic!("{k} missing from {json}"))
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "field order drifted: {json}"
        );
    }
}
