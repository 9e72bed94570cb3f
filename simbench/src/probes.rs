//! The traced run: times calls into each crate's public functions from
//! the benchmark's own code, one layer at a time.
//!
//! Every probe here drives public API only. Timing lives in the
//! benchmark (around calls, or in [`DriveHooks`] callbacks), never inside
//! the simulator, so the probes observe without changing what is
//! simulated; the checks they return prove it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use cimtpu_cluster::scenario::Scenario;
use cimtpu_cluster::{ClusterRun, Recorder};
use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_serving::{
    drive_with, ArrivalStream, Completion, DriveHooks, EngineCore, EngineSession, LenDist,
    PhasePricer, Request, ServingModel, TrafficSpec,
};
use cimtpu_units::Result;

use crate::workloads::{self, Sweep, Workload};

/// Samples per per-layer metric, one per probe round.
pub type Layers = BTreeMap<&'static str, Vec<f64>>;

/// One checked batch of simulated operations.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub label: &'static str,
    /// The workload whose pinned output `digest` is compared against,
    /// when the check has one.
    pub workload: Option<Workload>,
    /// Operations the check covers.
    pub ops: u64,
    /// Digest of the simulated output, when it is pinned.
    pub digest: Option<String>,
    /// Whether the benchmark's own comparison held.
    pub ok: bool,
    /// The simulator error, if the call failed.
    pub error: Option<String>,
}

impl Check {
    fn failed(
        label: &'static str,
        workload: Option<Workload>,
        ops: u64,
        e: &cimtpu_units::Error,
    ) -> Check {
        Check {
            label,
            workload,
            ops,
            digest: None,
            ok: false,
            error: Some(e.to_string()),
        }
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Runs one probe round for `workload` at `seed`, appending one sample to
/// every per-layer metric and the round's checks.
pub fn round(workload: Workload, seed: u64, layers: &mut Layers, checks: &mut Vec<Check>) {
    let mut put = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);

    // cimtpu-core / cimtpu-mapper on benchmark-owned simulators.
    match core_probe(seed) {
        Ok((m, check)) => {
            for (k, v) in m {
                put(k, v);
            }
            checks.push(check);
        }
        Err(e) => checks.push(Check::failed(
            "design points",
            Some(Workload::DesignSweep),
            0,
            &e,
        )),
    }

    // The fleet this workload runs (fleet-day's for the design sweep,
    // which has none): its shape sizes the pricer-fill probe.
    let own = match workload {
        Workload::FleetDay | Workload::DesignSweep => Ok(workloads::fleet_day(seed)),
        Workload::FleetElastic => workloads::fleet_elastic(seed, false),
        Workload::DisaggKv => workloads::disagg_kv(seed),
    };
    let own = match own {
        Ok(s) => s,
        Err(e) => {
            checks.push(Check::failed("set-up", Some(workload), 0, &e));
            return;
        }
    };
    match pricer_fill(&own.traffic) {
        Ok((fill_s, queries, misses)) => {
            put("serving.pricer_fill_s", fill_s);
            put("serving.pricer_queries", queries as f64);
            put("serving.pricer_misses", misses as f64);
        }
        Err(e) => checks.push(Check::failed("pricer fill", None, 0, &e)),
    }

    // fleet-day's fleet, untraced, traced through the public drive loop,
    // and with the flight recorder attached.
    let day = workloads::fleet_day(seed);
    let (base, run_s) = timed(|| day.engine.run(day.name, &day.traffic));
    let base = match base {
        Ok(run) => run,
        Err(e) => {
            checks.push(Check::failed(
                "fleet-day run",
                Some(Workload::FleetDay),
                day.traffic.requests,
                &e,
            ));
            return;
        }
    };
    checks.push(fleet_check(
        "fleet-day run",
        Some(Workload::FleetDay),
        &day,
        &base,
    ));
    event_loop_probe(&day, &base, run_s, &mut put, checks);
    recorder_probe(&day, &base, run_s, &mut put, checks);

    // The workload's own fleet, where it has one.
    let mut scale_ups = 0.0;
    let mut cluster_run_s = 0.0;
    let mut stats = FleetStats::default();
    match workload {
        Workload::DesignSweep => {}
        Workload::FleetDay => {
            cluster_run_s = run_s;
            stats = FleetStats::of(&base);
        }
        Workload::FleetElastic | Workload::DisaggKv => {
            let (run, s) = timed(|| own.engine.run(own.name, &own.traffic));
            match run {
                Ok(run) => {
                    checks.push(fleet_check("workload run", Some(workload), &own, &run));
                    cluster_run_s = s;
                    stats = FleetStats::of(&run);
                }
                Err(e) => checks.push(Check::failed(
                    "workload run",
                    Some(workload),
                    own.traffic.requests,
                    &e,
                )),
            }
        }
    }
    let mut elastic_overhead_s = 0.0;
    if workload == Workload::FleetElastic {
        scale_ups = stats.scale_ups;
        match workloads::fleet_elastic(seed, true) {
            Ok(pinned) => {
                let (run, s) = timed(|| pinned.engine.run(pinned.name, &pinned.traffic));
                match run {
                    Ok(run) => {
                        checks.push(fleet_check("pinned-at-peak run", None, &pinned, &run));
                        elastic_overhead_s = cluster_run_s - s;
                    }
                    Err(e) => checks.push(Check::failed(
                        "pinned-at-peak run",
                        None,
                        pinned.traffic.requests,
                        &e,
                    )),
                }
            }
            Err(e) => checks.push(Check::failed("pinned-at-peak set-up", None, 0, &e)),
        }
    }
    put("cluster.run_s", cluster_run_s);
    put("cluster.kv_transfers", stats.kv_transfers);
    put("cluster.kv_transfer_bytes", stats.kv_transfer_bytes);
    put("kv.queue_full_s", stats.queue_full_s);
    put("kv.hwm_frac", stats.hwm_frac);
    put("kv.preemptions", stats.preemptions);
    put("autoscale.scale_ups", stats.scale_ups);
    put("autoscale.scale_downs", stats.scale_downs);
    put("autoscale.reconciles", stats.reconciles);
    put("autoscale.elastic_overhead_s", elastic_overhead_s);
    let fill = layers_last(layers, "serving.pricer_fill_s");
    layers
        .entry("autoscale.refill_estimate_s")
        .or_default()
        .push(scale_ups * fill);
}

fn layers_last(layers: &Layers, name: &str) -> f64 {
    layers
        .get(name)
        .and_then(|v| v.last().copied())
        .unwrap_or(0.0)
}

/// Checks a fleet run against the workload's invariants; its digest is
/// kept for comparison with `workload`'s pinned output, if given.
fn fleet_check(
    label: &'static str,
    workload: Option<Workload>,
    s: &Scenario,
    run: &ClusterRun,
) -> Check {
    let (digest, ok) = workloads::check_fleet(run, s.traffic.requests);
    Check {
        label,
        workload,
        ops: s.traffic.requests,
        digest: workload.map(|_| digest),
        ok,
        error: None,
    }
}

/// Simulated KV, cluster and autoscale counters of one fleet run.
#[derive(Debug, Default)]
struct FleetStats {
    kv_transfers: f64,
    kv_transfer_bytes: f64,
    queue_full_s: f64,
    hwm_frac: f64,
    preemptions: f64,
    scale_ups: f64,
    scale_downs: f64,
    reconciles: f64,
}

impl FleetStats {
    fn of(run: &ClusterRun) -> FleetStats {
        let r = &run.report;
        let scaling = r.scaling.as_ref();
        FleetStats {
            kv_transfers: r.kv_transfers as f64,
            kv_transfer_bytes: r.kv_transfer_bytes as f64,
            queue_full_s: r.queue_full_s,
            hwm_frac: r
                .per_replica
                .iter()
                .map(|p| p.kv_hwm_frac)
                .fold(0.0, f64::max),
            preemptions: r.preemptions as f64,
            scale_ups: scaling.map_or(0.0, |s| s.scale_ups as f64),
            scale_downs: scaling.map_or(0.0, |s| s.scale_downs as f64),
            reconciles: scaling.map_or(0.0, |s| s.reconciles as f64),
        }
    }
}

/// Prices every design point of the seed's sweep cold (fresh simulator)
/// and again warm (same simulator), reading the mapping cache's counters
/// between the two.
fn core_probe(seed: u64) -> Result<(Vec<(&'static str, f64)>, Check)> {
    let sweep = Sweep::new(seed)?;
    let n = sweep.configs.len();
    let (mut new_s, mut cold_s, mut warm_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut rows = Vec::with_capacity(n);
    let mut same = true;
    for cfg in &sweep.configs {
        let (sim, s) = timed(|| Simulator::new(cfg.clone()));
        let sim = sim?;
        new_s.push(s);
        let (cold, s) = timed(|| sweep.eval(&sim));
        let cold = cold?;
        cold_s.push(s);
        let stats = sim.cache_stats();
        hits += stats.hits;
        misses += stats.misses;
        let (warm, s) = timed(|| sweep.eval(&sim));
        warm_s.push(s);
        same &= warm? == cold;
        rows.push(cold);
    }
    let (digest, sane) = workloads::check_sweep(&rows);
    let queries = (hits + misses).max(1) as f64;
    let metrics = vec![
        ("core.sim_new_s", median(&mut new_s)),
        ("mapper.cold_price_s", median(&mut cold_s)),
        ("core.warm_price_s", median(&mut warm_s)),
        ("core.cache_misses", misses as f64 / n as f64),
        ("core.cache_hits", hits as f64 / n as f64),
        ("core.cache_hit_rate", hits as f64 / queries),
    ];
    let check = Check {
        label: "design points, cold and warm",
        workload: Some(Workload::DesignSweep),
        ops: n as u64,
        digest: Some(digest),
        ok: sane && same,
        error: None,
    };
    Ok((metrics, check))
}

fn bounds(d: LenDist) -> (u64, u64) {
    match d {
        LenDist::Fixed(n) => (n, n),
        LenDist::Uniform { lo, hi } => (lo, hi),
    }
}

/// A fresh `PhasePricer::single` on a fresh TPUv4i simulator pricing a
/// tiny replica's reachable grid: prefill at every batch up to 8 and
/// every prompt length of `traffic`, and decode steps at every context
/// up to prompt plus generated tokens. Returns (seconds, pricer queries,
/// map-space searches).
fn pricer_fill(traffic: &TrafficSpec) -> Result<(f64, u64, u64)> {
    let model = ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
    let sim = Simulator::new(TpuConfig::tpuv4i())?;
    let (lo, hi) = bounds(traffic.prompt);
    let (_, steps) = bounds(traffic.steps);
    let t = Instant::now();
    let pricer = PhasePricer::single(&model, &sim);
    let mut queries = 0u64;
    for batch in 1..=8 {
        for prompt in lo..=hi {
            std::hint::black_box(pricer.prefill(batch, prompt)?);
            queries += 1;
        }
        for ctx in lo..=hi + steps {
            std::hint::black_box(pricer.step(batch, ctx)?);
            queries += 1;
        }
    }
    Ok((secs(t), queries, sim.cache_stats().misses))
}

/// Per-callback host time of the shared drive loop, accumulated by
/// [`TimingHooks`].
#[derive(Debug, Default)]
struct DriveProfile {
    route_s: f64,
    push_s: f64,
    step_s: f64,
    routes: u64,
    pushes: u64,
    steps: u64,
}

/// Round-robin [`DriveHooks`] (the `cluster-day` router) that time the
/// loop between callbacks: the time from the previous callback to
/// `on_push` is the push (plus its heap update), and the time from the
/// previous callback to `on_step` is the step (plus the heap peeks, the
/// heap update and the closed-loop feedback).
struct TimingHooks<'p> {
    next: usize,
    last: Instant,
    profile: &'p mut DriveProfile,
}

impl DriveHooks for TimingHooks<'_> {
    fn route(&mut self, _request: &Request, cores: &[EngineCore<'_>]) -> usize {
        let t = Instant::now();
        let pick = self.next % cores.len().max(1);
        self.next = self.next.wrapping_add(1);
        self.profile.routes += 1;
        self.last = Instant::now();
        self.profile.route_s += (self.last - t).as_secs_f64();
        pick
    }

    fn on_push(&mut self, _k: usize, _cores: &[EngineCore<'_>]) {
        let t = Instant::now();
        self.profile.push_s += (t - self.last).as_secs_f64();
        self.profile.pushes += 1;
        self.last = t;
    }

    fn on_step(&mut self, _k: usize, _cores: &[EngineCore<'_>], _new: &[Completion]) {
        let t = Instant::now();
        self.profile.step_s += (t - self.last).as_secs_f64();
        self.profile.steps += 1;
        self.last = t;
    }
}

/// Drives `s`'s colocated replicas through `EngineSession` /
/// `EngineCore` / `drive_with` with [`TimingHooks`], and checks that the
/// completions equal the untraced `ClusterEngine::run`'s.
fn event_loop_probe(
    s: &Scenario,
    base: &ClusterRun,
    base_s: f64,
    put: &mut impl FnMut(&'static str, f64),
    checks: &mut Vec<Check>,
) {
    let start = Instant::now();
    let traced = traced_drive(s);
    let total_s = secs(start);
    let (completions, build_s, drive_s, profile) = match traced {
        Ok(t) => t,
        Err(e) => {
            checks.push(Check::failed("traced drive", None, s.traffic.requests, &e));
            return;
        }
    };
    checks.push(Check {
        label: "traced drive equals untraced run",
        workload: None,
        ops: s.traffic.requests,
        digest: None,
        ok: completions == base.completions,
        error: None,
    });
    let events = (profile.pushes + profile.steps).max(1) as f64;
    put("serving.session_build_s", build_s);
    put("serving.drive_s", drive_s);
    put("serving.step_s", profile.step_s);
    put("serving.route_s", profile.route_s);
    put("serving.push_s", profile.push_s);
    put("serving.steps", profile.steps as f64);
    put("serving.pushes", profile.pushes as f64);
    put("serving.ns_per_event", drive_s / events * 1e9);
    put("bench.trace_overhead_frac", total_s / base_s - 1.0);
}

/// The traced drive: sessions, cores and the arrival stream built as the
/// colocated fleet driver builds them, then the shared event loop.
/// Returns the completions in id order, session build and drive seconds,
/// and the callback profile.
fn traced_drive(s: &Scenario) -> Result<(Vec<Completion>, f64, f64, DriveProfile)> {
    let t = Instant::now();
    let sessions: Vec<EngineSession> = workloads::replicas(&s.engine)
        .into_iter()
        .map(|r| EngineSession::new(&r.engine()?))
        .collect::<Result<_>>()?;
    let mut cores: Vec<EngineCore<'_>> = sessions
        .iter()
        .map(EngineSession::core)
        .collect::<Result<_>>()?;
    let mut stream = ArrivalStream::new(&s.traffic)?;
    let build_s = secs(t);
    let mut profile = DriveProfile::default();
    let t = Instant::now();
    drive_with(
        &mut cores,
        &mut stream,
        TimingHooks {
            next: 0,
            last: Instant::now(),
            profile: &mut profile,
        },
    )?;
    let drive_s = secs(t);
    let mut completions: Vec<Completion> = cores
        .iter()
        .flat_map(|c| c.completions().iter().copied())
        .collect();
    completions.sort_by_key(|c| c.id);
    Ok((completions, build_s, drive_s, profile))
}

/// `run_observed` with a flight recorder against the untraced run: the
/// report (less its timeseries section) and completions must match.
fn recorder_probe(
    s: &Scenario,
    base: &ClusterRun,
    base_s: f64,
    put: &mut impl FnMut(&'static str, f64),
    checks: &mut Vec<Check>,
) {
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let (observed, observed_s) = timed(|| s.engine.run_observed(s.name, &s.traffic, Some(&rec)));
    match observed {
        Ok(mut run) => {
            run.report.timeseries = None;
            checks.push(Check {
                label: "recorded run equals unrecorded run",
                workload: None,
                ops: s.traffic.requests,
                digest: None,
                ok: run == *base,
                error: None,
            });
            put("obs.recorder_overhead_frac", observed_s / base_s - 1.0);
            put("obs.events", rec.borrow().events().len() as f64);
        }
        Err(e) => checks.push(Check::failed("recorded run", None, s.traffic.requests, &e)),
    }
}

/// The median of `v` (the mean of the middle two for even lengths); 0
/// for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_drive_reproduces_the_cluster_run_and_a_change_is_caught() {
        let mut day = workloads::fleet_day(7);
        day.traffic.requests = 3_000;
        let base = day.engine.run(day.name, &day.traffic).unwrap();
        let (mut completions, _, _, profile) = traced_drive(&day).unwrap();
        assert_eq!(completions, base.completions);
        assert_eq!(profile.pushes, 3_000);
        assert_eq!(profile.routes, 3_000);
        assert!(profile.steps > 0);

        let mut checks = Vec::new();
        let mut layers = Layers::new();
        let mut put = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);
        event_loop_probe(&day, &base, 1.0, &mut put, &mut checks);
        assert!(checks.iter().all(|c| c.ok), "{checks:?}");

        // The comparison is exact: one request finishing a step later fails it.
        completions[0].steps += 1;
        assert_ne!(completions, base.completions);
        let mut tampered = base.clone();
        tampered.completions[0].steps += 1;
        event_loop_probe(&day, &tampered, 1.0, &mut put, &mut checks);
        assert!(!checks.last().unwrap().ok);
    }

    #[test]
    fn median_of_even_and_odd_lengths() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
