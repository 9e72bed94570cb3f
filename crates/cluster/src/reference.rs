//! The reference model the fleet event loops are pinned against (test
//! only). [`run_reference`] replays a static colocated or disaggregated
//! fleet under any [`FaultPlan`]: each iteration lists every pending event
//! of every class and takes the earliest by a linear scan, same-instant
//! events ranking by class, then the class's key, then list order:
//!
//! - colocated: faults and lifecycle transitions → deliveries →
//!   admissions, keyed `(fire, arrival, id)` (the stream's next request
//!   ranks after every request issued before it) → steps, lowest slot;
//! - disaggregated: faults → arrivals → retries, keyed `(fire, id)` →
//!   prefill batches → decode rounds, lowest unit first.
//!
//! It drives the production [`EngineCore`], [`PrefillUnit`] and
//! [`DecodeUnit`], rebuilds each router view from them when it routes, and
//! keeps its own retry and availability book: no heap, event queue,
//! snapshot tracker or `RetryLedger`. Every completion is delivered at its
//! finish, before that instant's admissions, under every plan (the
//! colocated loop delivers at once under an empty plan). A request that
//! finds no routable replica parks until one is up, then re-enters
//! admission at that instant.

use cimtpu_serving::{
    ArrivalStream, Completion, EngineCore, EngineSession, Offered, Request, TrafficSpec,
};
use cimtpu_units::{Error, Result, Seconds};
use rustc_hash::FxHashMap;

use crate::disagg::{pipeline, pool_books, DecodeCrash, DecodeUnit, InterconnectSpec, PrefillUnit};
use crate::fault::{release_client, AvailabilityStats, CrashRecord, FaultAction, RecoveryPolicy};
use crate::replica::fleet_sessions;
use crate::report::{ClusterReport, FleetTotals, ReplicaAccum};
use crate::router::{HealthView, ReplicaHealth, ReplicaSnapshot, RouterPolicy};
use crate::{ClusterEngine, ClusterRun, ClusterTopology, FaultPlan, ReplicaSpec};

/// Runs `engine` on `offered` through the reference model.
///
/// # Errors
///
/// As for [`ClusterEngine::run`]; and for an autoscale policy or a tenant
/// set, which the reference does not model.
pub(crate) fn run_reference<'t>(
    engine: &ClusterEngine,
    label: &str,
    offered: impl Into<Offered<'t>>,
) -> Result<ClusterRun> {
    let offered = offered.into();
    if engine.autoscale().is_some() || offered.tenants().is_some() {
        return Err(Error::invalid_config(
            "the reference models static untenanted fleets only",
        ));
    }
    let traffic = offered.spec()?;
    let plan = engine.faults();
    match engine.topology() {
        ClusterTopology::Colocated { replicas, router } => {
            colocated(replicas, *router, label, &traffic, engine.slo_ms, plan)
        }
        ClusterTopology::Disaggregated {
            prefill,
            decode,
            router,
            decode_router,
            interconnect,
        } => {
            let (routers, slo) = ((*router, *decode_router), engine.slo_ms);
            disaggregated(
                prefill,
                decode,
                routers,
                *interconnect,
                label,
                &traffic,
                slo,
                plan,
            )
        }
    }
}

/// A pending event `(at, class, key, what)`: due `at`; same-instant
/// events rank by `class`, then `key`, then list order.
type Event<W> = (Seconds, u8, (f64, u64), W);

/// The key of events a class ranks by list order alone.
const NONE: (f64, u64) = (0.0, 0);

/// The earliest event of `events`.
fn next<W: Copy>(events: &[Event<W>]) -> Option<(Seconds, W)> {
    let first = |&(at, ac, (a0, a1), _): &Event<W>, &(bt, bc, (b0, b1), _): &Event<W>| {
        let time = at.get().total_cmp(&bt.get());
        time.then(ac.cmp(&bc))
            .then(a0.total_cmp(&b0))
            .then(a1.cmp(&b1))
    };
    events
        .iter()
        .min_by(|a, b| first(a, b))
        .map(|&(at, _, _, what)| (at, what))
}

/// The next fault-timeline instant: the next scripted fault or lifecycle
/// transition.
fn fault_at(scripted: Option<Seconds>, health: &HealthView) -> Option<Seconds> {
    [scripted, health.next_transition()]
        .into_iter()
        .flatten()
        .reduce(Seconds::min)
}

/// The router's view of the `up` replicas at `t`, re-indexed
/// `0..up.len()`, rebuilt from their cores.
fn view(
    cores: &[EngineCore<'_>],
    up: &[usize],
    t: Seconds,
    assigned: &[u64],
) -> Vec<ReplicaSnapshot> {
    let snap = |(index, &k): (usize, &usize)| ReplicaSnapshot {
        index,
        outstanding: cores[k].outstanding_at(t),
        queued: cores[k].queued(),
        kv_frac: cores[k].kv_frac(),
        assigned: assigned[k],
        class_outstanding: [0; 3],
    };
    up.iter().enumerate().map(snap).collect()
}

/// The retry and availability book: original arrivals, retries charged,
/// the crash log and the counters they add up to.
struct Book {
    recovery: RecoveryPolicy,
    origin: FxHashMap<u64, f64>,
    attempts: FxHashMap<u64, u32>,
    crashes: Vec<CrashRecord>,
    stats: AvailabilityStats,
}

impl Book {
    fn new(recovery: RecoveryPolicy) -> Self {
        Book {
            recovery,
            origin: FxHashMap::default(),
            attempts: FxHashMap::default(),
            crashes: Vec::new(),
            stats: AvailabilityStats::zero(),
        }
    }

    fn origin(&self, r: &Request) -> f64 {
        self.origin.get(&r.id).copied().unwrap_or(r.arrival_s)
    }

    fn attempts(&self, id: u64) -> u32 {
        self.attempts.get(&id).copied().unwrap_or(0)
    }

    /// Drops `r` at `now` (shed, or timed out), releasing its client.
    fn drop(&mut self, shed: bool, r: &Request, now: Seconds, stream: &mut ArrivalStream<'_>) {
        *if shed {
            &mut self.stats.shed
        } else {
            &mut self.stats.timed_out
        } += 1;
        release_client(stream, r.id, self.origin(r), now);
    }

    /// A crash lost `r` at `now`: when its retry fires and its attempts so
    /// far, or `None` once it is shed (budget spent) or timed out (the
    /// backoff overruns its deadline).
    fn lost(
        &mut self,
        r: &Request,
        now: Seconds,
        s: &mut ArrivalStream<'_>,
    ) -> Option<(Seconds, u32)> {
        let attempts = self.attempts(r.id) + 1;
        let fire = now + self.recovery.backoff_for(attempts);
        if attempts > self.recovery.max_attempts {
            self.drop(true, r, now, s);
        } else if fire.get() > self.origin(r) + self.recovery.deadline.get() {
            self.drop(false, r, now, s);
        } else {
            self.attempts.insert(r.id, attempts);
            return Some((fire, attempts));
        }
        None
    }

    /// Times `r` out if `now` is past its deadline.
    fn expired(&mut self, r: &Request, now: Seconds, stream: &mut ArrivalStream<'_>) -> bool {
        let late = now.get() > self.origin(r) + self.recovery.deadline.get();
        if late {
            self.drop(false, r, now, stream);
        }
        late
    }

    /// `r` is placed after `attempts` retries, with arrival `arrival`.
    fn placed(&mut self, r: &Request, attempts: u32, arrival: f64) {
        self.stats.retries += u64::from(attempts > 0);
        let orig = self.origin(r);
        if arrival != orig {
            self.origin.insert(r.id, orig);
        }
    }

    fn crash(&mut self, replica: usize, at: Seconds) {
        self.stats.crashes += 1;
        self.crashes.push(CrashRecord {
            replica,
            at,
            up_again: None,
            first_completion: None,
        });
    }

    fn on_health(&mut self, health: &HealthView, now: Seconds) {
        for rec in self.crashes.iter_mut().filter(|rec| rec.up_again.is_none()) {
            if health.is_up(rec.replica) {
                rec.up_again = Some(now);
            }
        }
    }

    fn complete(&mut self, replica: usize, c: &mut Completion) {
        c.arrival = Seconds::new(self.origin.get(&c.id).copied().unwrap_or(c.arrival.get()));
        self.stats.retried_ok += u64::from(self.attempts.contains_key(&c.id));
        for rec in &mut self.crashes {
            if rec.replica == replica && rec.first_completion.is_none() && c.finish > rec.at {
                rec.first_completion = Some(c.finish);
            }
        }
    }

    /// The availability section for a fleet of `replicas` that delivered
    /// `done` (sorted, original arrivals).
    fn finish(mut self, done: &[Completion], replicas: usize) -> AvailabilityStats {
        let finish = done
            .iter()
            .map(|c| c.finish)
            .fold(Seconds::ZERO, Seconds::max);
        let first = done.iter().map(|c| c.arrival).fold(finish, Seconds::min);
        let span = (finish - first).get().max(f64::MIN_POSITIVE);
        let clip = |t: Seconds| t.get().clamp(first.get(), finish.get());
        for rec in &self.crashes {
            let down = clip(rec.up_again.unwrap_or(finish)) - clip(rec.at);
            self.stats.downtime_s += down.max(0.0);
            let recover = rec.first_completion.unwrap_or(finish) - rec.at;
            self.stats.time_to_recover_s.push(recover.get().max(0.0));
        }
        let down = self.stats.downtime_s / (replicas as f64 * span);
        self.stats.availability = (1.0 - down).clamp(0.0, 1.0);
        self.stats
    }
}

/// A request up for colocated admission.
#[derive(Clone, Copy)]
struct Admission {
    fire: Seconds,
    request: Request,
    attempts: u32,
}

/// Colocated events: `Admit(None)` takes the stream's next request,
/// `Admit(Some(i))` takes `waiting[i]`.
#[derive(Clone, Copy)]
enum Colo {
    Fault,
    Deliver(usize),
    Admit(Option<usize>),
    Step(usize),
}

#[allow(clippy::too_many_lines)] // one reference loop
fn colocated(
    replicas: &[ReplicaSpec],
    policy: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
) -> Result<ClusterRun> {
    let n = replicas.len();
    let timeline = plan.colocated_timeline(n)?;
    let recovery = *plan.recovery();
    let faulty = !plan.is_empty();
    let sessions = fleet_sessions(replicas)?;
    let mut cores: Vec<EngineCore<'_>> = sessions
        .iter()
        .map(EngineSession::core)
        .collect::<Result<_>>()?;
    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut router = policy.build();
    let mut health = HealthView::all_up(n);
    let mut book = Book::new(recovery);
    let mut next_fault = 0;
    let mut assigned = vec![0u64; n];
    let mut slow: Vec<Option<f64>> = vec![None; n];
    let mut last_push = vec![f64::NEG_INFINITY; n];
    // Set once the stream's final request has been through admission.
    let mut closed = false;
    let mut deliveries: Vec<(usize, Completion)> = Vec::new();
    let mut waiting: Vec<Admission> = Vec::new();
    let mut parked: Vec<Admission> = Vec::new();
    let mut delivered: Vec<Completion> = Vec::new();
    let mut delivered_by = vec![0u64; n];
    // A step's completions, taken from its core (reused across events).
    let mut taken: Vec<Completion> = Vec::new();
    let mut accum: Vec<ReplicaAccum> = (0..n).map(|_| ReplicaAccum::default()).collect();

    loop {
        let fault = fault_at(timeline.get(next_fault).map(|f| f.0), &health);
        let mut events: Vec<_> = fault
            .map(|at| (at, 0, NONE, Colo::Fault))
            .into_iter()
            .collect();
        let due = deliveries.iter().enumerate();
        events.extend(due.map(|(i, (_, c))| (c.finish, 1, NONE, Colo::Deliver(i))));
        events.extend(
            stream
                .peek()
                .map(|at| (at, 2, (at.get(), u64::MAX), Colo::Admit(None))),
        );
        for (i, w) in waiting.iter().enumerate() {
            events.push((
                w.fire,
                2,
                (w.request.arrival_s, w.request.id),
                Colo::Admit(Some(i)),
            ));
        }
        let live = cores.iter().enumerate().filter(|&(k, _)| health.is_live(k));
        events.extend(live.filter_map(|(k, c)| Some((c.next_action()?, 3, NONE, Colo::Step(k)))));
        // Faults alone keep an idle fleet running only while it has
        // requests parked.
        if stream.exhausted() && events.iter().all(|e| e.1 == 0) && parked.is_empty() {
            break;
        }
        let Some((now, what)) = next(&events) else {
            // Closed-loop stall: flush the lowest stalled core.
            let mut live = (0..n).filter(|&k| health.is_live(k));
            let k = loop {
                let k = live
                    .next()
                    .ok_or_else(|| Error::invalid_config("reference stalled"))?;
                if cores[k].flush_stalled()? {
                    break k;
                }
            };
            cores[k].take_completions(&mut taken);
            deliveries.extend(taken.drain(..).map(|c| (k, c)));
            continue;
        };
        match what {
            Colo::Fault => {
                for (k, left) in health.advance(now, recovery.warmup, recovery.warmup) {
                    if let ReplicaHealth::Warming { .. } = left {
                        last_push[k] = now.get();
                        waiting.extend(parked.drain(..).map(|w| Admission { fire: now, ..w }));
                        continue;
                    }
                    accum[k].harvest(&cores[k]);
                    cores[k] = sessions[k].core()?;
                    if let Some(factor) = slow[k] {
                        cores[k].set_slowdown(factor);
                    }
                    if closed {
                        cores[k].close();
                    }
                }
                book.on_health(&health, now);
                while let Some(&(_, action)) = timeline.get(next_fault).filter(|f| f.0 <= now) {
                    next_fault += 1;
                    match action {
                        FaultAction::Crash { replica, repair } if health.is_live(replica) => {
                            let lost = cores[replica].crash(now);
                            health.set(
                                replica,
                                ReplicaHealth::Down {
                                    until: now + repair,
                                },
                            );
                            book.crash(replica, now);
                            let ids: Vec<u64> = lost.iter().map(|r| r.id).collect();
                            deliveries.retain(|(k, c)| *k != replica || !ids.contains(&c.id));
                            for r in lost {
                                if let Some((fire, attempts)) = book.lost(&r, now, &mut stream) {
                                    waiting.push(Admission {
                                        fire,
                                        request: r,
                                        attempts,
                                    });
                                }
                            }
                        }
                        FaultAction::Crash { .. } => {}
                        FaultAction::Slow { replica, factor } => {
                            slow[replica] = factor;
                            if health.is_live(replica) {
                                cores[replica].set_slowdown(factor.unwrap_or(1.0));
                            }
                        }
                    }
                }
            }
            Colo::Deliver(i) => {
                let (k, mut c) = deliveries.remove(i);
                book.complete(k, &mut c);
                stream.on_complete(&c);
                delivered_by[k] += 1;
                delivered.push(c);
            }
            Colo::Admit(from) => {
                let item = match from {
                    Some(i) => waiting.remove(i),
                    None => Admission {
                        fire: now,
                        request: stream.pop(),
                        attempts: 0,
                    },
                };
                let r = item.request;
                'admit: {
                    if faulty && book.expired(&r, now, &mut stream) {
                        break 'admit;
                    }
                    let up: Vec<usize> = (0..n).filter(|&k| health.is_up(k)).collect();
                    if up.is_empty() {
                        parked.push(item);
                        break 'admit;
                    }
                    let snaps = view(&cores, &up, now, &assigned);
                    let shed_at = recovery.shed_outstanding.filter(|_| faulty);
                    if shed_at.is_some_and(|t| snaps.iter().all(|s| s.outstanding >= t)) {
                        // Saturated: shed `r` and every waiting request
                        // with an older (origin, id).
                        let key = (book.origin(&r), r.id);
                        let (older, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut waiting)
                            .into_iter()
                            .partition(|w| (book.origin(&w.request), w.request.id) <= key);
                        waiting = rest;
                        for w in std::iter::once(item).chain(older) {
                            book.drop(true, &w.request, now, &mut stream);
                        }
                        break 'admit;
                    }
                    let k = up[router.route(&r, &snaps).min(up.len() - 1)];
                    let at = if item.attempts > 0 {
                        now.get()
                    } else {
                        r.arrival_s
                    };
                    let arrival = at.max(last_push[k]);
                    book.placed(&r, item.attempts, arrival);
                    last_push[k] = arrival;
                    assigned[k] += 1;
                    cores[k].reopen();
                    cores[k].push(Request {
                        arrival_s: arrival,
                        ..r
                    });
                    if closed {
                        cores[k].close();
                    }
                }
                if from.is_none() && stream.exhausted() {
                    closed = true;
                    for k in (0..n).filter(|&k| health.is_live(k)) {
                        cores[k].close();
                    }
                }
            }
            Colo::Step(k) => {
                cores[k].step()?;
                cores[k].take_completions(&mut taken);
                deliveries.extend(taken.drain(..).map(|c| (k, c)));
            }
        }
    }

    for (k, core) in cores.iter().enumerate() {
        accum[k].harvest(core);
    }
    delivered.sort_by_key(|c| c.id);
    let mut totals = FleetTotals::default();
    let rows = (0..n)
        .map(|k| totals.row(&replicas[k], &accum[k], delivered_by[k], "serve"))
        .collect();
    let (name, avail) = (
        policy.name().to_owned(),
        faulty.then(|| book.finish(&delivered, n)),
    );
    let report = ClusterReport::build(
        label,
        "colocated",
        name,
        offered,
        &delivered,
        &totals,
        rows,
        slo_ms,
        avail,
    );
    Ok(ClusterRun {
        report,
        completions: delivered,
        prefix: totals.prefix,
    })
}

/// A disaggregated retry: fires at `.0`; `.1` with `.2` retries charged;
/// `.3` is the prefill unit still holding its cache and the TTFT it
/// earned, or `None` to recompute.
type Retry = (Seconds, Request, u32, Option<(usize, Seconds)>);

/// Disaggregated event kinds.
#[derive(Clone, Copy)]
enum Disagg {
    Fault,
    Arrive,
    Retry(usize),
    Prefill(usize),
    Decode(usize),
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)] // one reference loop
fn disaggregated(
    prefill: &[ReplicaSpec],
    decode: &[ReplicaSpec],
    (router, decode_router): (RouterPolicy, RouterPolicy),
    interconnect: InterconnectSpec,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
) -> Result<ClusterRun> {
    let (crashes, mut link) = pipeline(prefill, decode, interconnect, plan)?;
    let recovery = *plan.recovery();
    let slots: Vec<ReplicaSpec> = prefill.iter().chain(decode).cloned().collect();
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
    let (mut arouter, mut drouter) = (router.build(), decode_router.build());
    let mut p_assigned = vec![0u64; prefill.len()];
    let mut d_assigned = vec![0u64; decode.len()];
    let mut health = HealthView::all_up(decode.len());
    let mut book = Book::new(recovery);
    let mut next_crash = 0;
    let mut waiting: Vec<Retry> = Vec::new();
    let mut parked: Vec<Retry> = Vec::new();
    let mut completions: Vec<Completion> = Vec::new();

    loop {
        let fault = fault_at(crashes.get(next_crash).map(|c| c.0), &health);
        let mut events: Vec<_> = fault
            .map(|at| (at, 0, NONE, Disagg::Fault))
            .into_iter()
            .collect();
        events.extend(stream.peek().map(|at| (at, 1, NONE, Disagg::Arrive)));
        let retries = waiting.iter().enumerate();
        events.extend(retries.map(|(i, &(at, r, ..))| (at, 2, (0.0, r.id), Disagg::Retry(i))));
        let prefills = punits.iter().map(PrefillUnit::candidate).enumerate();
        events.extend(prefills.filter_map(|(i, at)| Some((at?, 3, NONE, Disagg::Prefill(i)))));
        let decodes = dunits.iter().map(DecodeUnit::candidate).enumerate();
        events.extend(decodes.filter_map(|(j, at)| Some((at?, 4, NONE, Disagg::Decode(j)))));
        if stream.exhausted() && events.iter().all(|e| e.1 == 0) && parked.is_empty() {
            break;
        }
        let Some((now, what)) = next(&events) else {
            return Err(Error::invalid_config("reference stalled"));
        };
        // Hands `r`'s cache off from prefill unit `p` at `at` to an up
        // decode unit; `false` if none is up.
        let mut hand_off =
            |punits: &mut [PrefillUnit<'_>], p: usize, at: Seconds, r: Request, ft| {
                let up: Vec<usize> = (0..dunits.len()).filter(|&k| health.is_up(k)).collect();
                let snap = |(i, &k): (usize, &usize)| dunits[k].snapshot(i, d_assigned[k], false);
                let snaps: Vec<ReplicaSnapshot> = up.iter().enumerate().map(snap).collect();
                let Some(pos) = (!up.is_empty()).then(|| drouter.route(&r, &snaps)) else {
                    return Ok(false);
                };
                let k = up[pos.min(up.len() - 1)];
                d_assigned[k] += 1;
                let (_, end) = punits[p].send(&r, at, &mut link)?;
                dunits[k].receive(r, ft, end);
                Ok::<_, Error>(true)
            };
        let mut to_prefill = |punits: &mut [PrefillUnit<'_>], r: Request| {
            let snap = |(i, u): (usize, &PrefillUnit<'_>)| u.snapshot(i, p_assigned[i], false);
            let snaps: Vec<ReplicaSnapshot> = punits.iter().enumerate().map(snap).collect();
            let k = arouter.route(&r, &snaps).min(punits.len() - 1);
            p_assigned[k] += 1;
            punits[k].queue.push_back(r);
        };
        match what {
            Disagg::Fault => {
                for (_, left) in health.advance(now, recovery.warmup, recovery.warmup) {
                    if let ReplicaHealth::Warming { .. } = left {
                        waiting.extend(parked.drain(..).map(|(_, r, a, s)| (now, r, a, s)));
                    }
                }
                book.on_health(&health, now);
                let due = |c: &&DecodeCrash| c.0 <= now;
                while let Some(&(_, replica, repair)) = crashes.get(next_crash).filter(due) {
                    next_crash += 1;
                    if let ReplicaHealth::Down { .. } = health.state(replica) {
                        continue;
                    }
                    let lost = dunits[replica].crash();
                    health.set(
                        replica,
                        ReplicaHealth::Down {
                            until: now + repair,
                        },
                    );
                    book.crash(replica, now);
                    for (r, ft) in lost {
                        let source = punits.iter_mut().position(|u| u.unpin(r.id, now));
                        match book.lost(&r, now, &mut stream) {
                            Some((fire, a)) => waiting.push((fire, r, a, source.map(|p| (p, ft)))),
                            None => {
                                if let Some(p) = source {
                                    punits[p].alloc.release(r.id);
                                }
                            }
                        }
                    }
                }
            }
            Disagg::Arrive => to_prefill(&mut punits, stream.pop()),
            Disagg::Retry(i) => {
                let item = waiting.remove(i);
                let (_, r, attempts, source) = item;
                if book.expired(&r, now, &mut stream) {
                    if let Some((p, _)) = source {
                        punits[p].alloc.release(r.id);
                    }
                } else if let Some((p, ft)) = source {
                    if hand_off(&mut punits, p, now, r, ft)? {
                        book.placed(&r, attempts, r.arrival_s);
                    } else {
                        parked.push(item);
                    }
                } else {
                    book.placed(&r, attempts, now.get());
                    to_prefill(
                        &mut punits,
                        Request {
                            arrival_s: now.get(),
                            ..r
                        },
                    );
                }
            }
            Disagg::Prefill(i) => {
                let batch = punits[i].step()?;
                for r in batch.members {
                    if !hand_off(&mut punits, i, batch.end, r, batch.end)? {
                        parked.push((now, r, book.attempts(r.id), Some((i, batch.end))));
                    }
                }
            }
            Disagg::Decode(j) => {
                for mut c in dunits[j].step()? {
                    book.complete(j, &mut c);
                    stream.on_complete(&c);
                    completions.push(c);
                }
            }
        }
    }

    completions.sort_by_key(|c| c.id);
    let (rows, totals) = pool_books(prefill, decode, &punits, &dunits, link.transfers);
    let avail = (!plan.is_empty()).then(|| book.finish(&completions, slots.len()));
    let name = format!("{}\u{2192}{}", router.name(), decode_router.name());
    let report = ClusterReport::build(
        label,
        "disaggregated",
        name,
        offered,
        &completions,
        &totals,
        rows,
        slo_ms,
        avail,
    );
    let prefix = cimtpu_serving::PrefixStats::default();
    Ok(ClusterRun {
        report,
        completions,
        prefix,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{
        drive, ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel,
    };
    use proptest::prelude::*;

    use super::*;
    use crate::FaultEvent;

    pub(crate) fn tiny() -> ServingModel {
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
    }

    /// A three-replica fleet mixing batching policies (continuous,
    /// static, dynamic) so the equivalence runs cross every scheduler
    /// state machine, including the static stall-flush path.
    pub(crate) fn mixed_fleet() -> Vec<ReplicaSpec> {
        vec![
            ReplicaSpec::new("cont", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ReplicaSpec::new("stat", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Static { batch: 2 }),
            ReplicaSpec::new("dyn", TpuConfig::design_a(), tiny()).with_policy(
                BatchPolicy::Dynamic {
                    max_batch: 4,
                    max_wait_ms: 0.5,
                },
            ),
        ]
    }

    /// A crash of `replica` at `at` for a `repair`, in seconds.
    pub(crate) fn crash(replica: usize, at: f64, repair: f64) -> FaultEvent {
        FaultEvent::Crash {
            at: Seconds::new(at),
            replica,
            repair: Seconds::new(repair),
        }
    }

    pub(crate) const POLICIES: [RouterPolicy; 6] = [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastKv,
        RouterPolicy::SessionAffinity,
        RouterPolicy::PrefixAffinity,
    ];

    /// Open-loop, closed-loop and burst traffic.
    pub(crate) fn traffics(seed: u64) -> [TrafficSpec; 3] {
        let base = TrafficSpec {
            requests: 24,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 8, hi: 48 },
            steps: LenDist::Uniform { lo: 2, hi: 10 },
            prefix: PrefixTraffic::None,
            seed,
        };
        let closed = ArrivalPattern::ClosedLoop {
            clients: 5,
            think_ms: 0.2,
        };
        let burst = TrafficSpec {
            arrival: ArrivalPattern::Burst,
            ..base.clone()
        };
        [
            base.clone(),
            TrafficSpec {
                arrival: closed,
                ..base
            },
            burst,
        ]
    }

    /// The fleet served by `drive` — the single-engine loop, independent
    /// of both the colocated loop and the reference — with a router view
    /// rebuilt at each arrival.
    fn drive_run(fleet: &[ReplicaSpec], policy: RouterPolicy, traffic: &TrafficSpec) -> ClusterRun {
        let sessions = fleet_sessions(fleet).unwrap();
        let mut cores: Vec<EngineCore<'_>> = sessions
            .iter()
            .map(EngineSession::core)
            .collect::<Result<_>>()
            .unwrap();
        let mut stream = ArrivalStream::new(traffic).unwrap();
        let offered = stream.total();
        let mut router = policy.build();
        let mut assigned = vec![0u64; fleet.len()];
        let all: Vec<usize> = (0..fleet.len()).collect();
        drive(&mut cores, &mut stream, |request, cores| {
            let snaps = view(cores, &all, request.arrival(), &assigned);
            let k = router.route(request, &snaps).min(cores.len() - 1);
            assigned[k] += 1;
            k
        })
        .unwrap();
        let (mut totals, mut rows, mut done) = (FleetTotals::default(), Vec::new(), Vec::new());
        for (spec, core) in fleet.iter().zip(&cores) {
            let mut accum = ReplicaAccum::default();
            accum.harvest(core);
            rows.push(totals.row(spec, &accum, core.completions().len() as u64, "serve"));
            done.extend_from_slice(core.completions());
        }
        done.sort_by_key(|c| c.id);
        let (name, eq) = (policy.name().to_owned(), "eq");
        let report = ClusterReport::build(
            eq,
            "colocated",
            name,
            offered,
            &done,
            &totals,
            rows,
            None,
            None,
        );
        ClusterRun {
            report,
            completions: done,
            prefix: totals.prefix,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// `drive` and the reference serve the mixed fleet identically
        /// under an empty plan — per-replica reports included — for every
        /// router policy and open-loop, closed-loop and burst traffic: the
        /// reference's deliver-at-finish rule replays `drive`'s deliveries
        /// at step time.
        #[test]
        fn drive_matches_reference(seed in 0u64..1_000) {
            let fleet = mixed_fleet();
            for traffic in traffics(seed) {
                for policy in POLICIES {
                    let engine = ClusterEngine::colocated(fleet.clone(), policy).unwrap();
                    let reference = run_reference(&engine, "eq", &traffic).unwrap();
                    let driven = drive_run(&fleet, policy, &traffic);
                    prop_assert_eq!(&driven, &reference, "policy {}", policy.name());
                }
            }
        }
    }
}
