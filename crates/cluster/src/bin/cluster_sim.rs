//! Fleet-level serving simulation driver.
//!
//! ```text
//! cluster_sim [--scenario NAME|all] [--seed N] [--workers N] [--json PATH]
//!             [--kv-budget BUDGET] [--clients N] [--think-ms MS]
//!             [--tenants SPEC] [--trace-in PATH] [--trace-out PATH]
//!             [--fault-seed N] [--faults SPEC] [--autoscale SPEC]
//!             [--perf-json PATH] [--trace PATH] [--trace-filter SPEC]
//!             [--metrics-csv PATH] [--summary]
//! ```
//!
//! Runs the named cluster scenario (default: all headline scenarios) and
//! prints fleet throughput, goodput, latency/TTFT percentiles, KV-handoff
//! traffic, and per-replica utilization. The command line goes through
//! the front end it shares with `serve_sim` (`cimtpu_serving::cli`):
//! scenario selection, `--seed`, `--clients`, `--tenants`, `--trace-in`,
//! `--trace-out`, `--json` and the worker-pool fan-out (`--workers N`
//! overrides `CIMTPU_WORKERS`) behave as there, and `--kv-budget` reaches
//! every replica through `ClusterEngine`'s `Engine::with_kv_budget`. This
//! binary adds its fleet catalogue and the fleet-mode flags below: `--faults`, `--fault-seed`, `--autoscale`, `--trace`,
//! `--trace-filter`, `--metrics-csv`, `--perf-json` and `--summary`.
//! Output is deterministic for a fixed `--seed`.
//!
//! `--kv-budget BUDGET` overrides every replica's KV budget (both pools
//! of a disaggregated fleet): `unlimited`, `hbm` (HBM minus resident
//! weights), or a byte count with an optional `KiB`/`MiB`/`GiB`/`TiB` suffix —
//! see `cimtpu_serving::parse_kv_budget`. `--clients N` converts the
//! scenario's traffic to closed loop with `N` concurrent clients
//! (`--think-ms` sets their think time; default 10 ms).
//!
//! `--tenants SPEC` splits each scenario's traffic across SLO tenants
//! (comma-separated `name=class[:weight[:slo_ms]]`, grammar in
//! `cimtpu_cluster::parse_tenants`) and serves it tenant-aware:
//! colocated replicas schedule weighted-fair (priority admission,
//! deficit-weighted service, SLO-aware preemption evicting batch-tier
//! residents first), and reports gain a per-tenant section (goodput, SLO
//! attainment, Jain's fairness index). The multi-tenant headline
//! scenarios (`cluster-noisy-neighbor`, `cluster-launch-spike`) carry
//! their own tenant sets, which the flag replaces. A scenario whose
//! traffic cannot split fails the command line before anything runs.
//!
//! `--trace-out PATH` writes each selected scenario's offered traffic
//! (multi-tenant scenarios write their merged, tenant-tagged trace;
//! under `--seed`, exactly what a run serves) as a JSONL request trace
//! and exits without simulating. It reads only `--scenario`, `--seed`
//! and `--trace-in`: every fleet-mode flag, `--kv-budget`, `--json`,
//! `--workers`, `--clients`, `--think-ms` (closed-loop traffic cannot be
//! written as a trace) and `--tenants` exit 2 with it.
//! `--trace-in PATH` replaces each scenario's traffic with the trace at
//! PATH (replayed byte-identically; `--seed`, `--clients`, `--think-ms`
//! and `--tenants` exit 2 with it). See `cimtpu_serving::trace` for the
//! format.
//!
//! `--faults SPEC` replaces every selected scenario's fault plan with
//! the comma-separated events in `SPEC` (grammar in
//! `cimtpu_cluster::parse_faults`, e.g.
//! `crash@2s:replica1:repair=5s,link@0s-2s:x0.1`); `--fault-seed N`
//! reseeds the plan, redrawing chaos-generated crashes while explicit
//! events stand, and exits with status 2 when no selected scenario's plan
//! has a chaos spec to redraw. Reports from fault runs carry an extra
//! `availability` section; zero-fault output is byte-identical to builds
//! without these flags.
//!
//! `--autoscale SPEC` installs an autoscale policy on every selected
//! scenario (grammar in `cimtpu_autoscale::parse_autoscale`), making each
//! replica group an elastic pool the reconcile loop sizes to the traffic:
//! comma-separated, case-insensitive knobs `interval=1s` (reconcile
//! cadence), `provision=2s` / `warmup=500ms` (boot cost model),
//! `idle-w=30` (idle watts pricing held-but-idle chips), `replicas=LO..HI`
//! (every group's band; `LO=0` enables scale-to-zero), `group<K>=LO..HI`
//! (one group's band), `init=N` (initial size), `conc=N` (target
//! concurrency per replica), `up=0.75` / `down=0.25` (utilization
//! thresholds), `up-cd=2s` / `down-cd=5s` (cooldowns), `slo-floor=0.9`
//! (rolling-goodput trigger), and `swap` (allow model swaps between
//! groups). Reports gain a `scaling` section; a pinned band
//! (`LO == HI`, no `swap`) reproduces the plain run bit-for-bit plus
//! that section. Elastic policies compose with `--faults` /
//! `--fault-seed`: a fault's replica index then names a slot, counting
//! `{group}-{j}` in order across groups, and a crash on a slot with no
//! live core (offline, provisioning, or already down) is a no-op.
//! Elastic disaggregated scenarios are a typed error.
//!
//! `--json PATH` additionally writes the full `ClusterReport` list as
//! pretty-printed JSON (`-` writes JSON to stdout instead of the text
//! report). The committed `BENCH_cluster.json` baseline is exactly
//! `cluster_sim --json BENCH_cluster.json`.
//!
//! `--perf-json PATH` also writes one wall-clock [`PerfRecord`] per
//! scenario — how fast the discrete-event driver itself ran on this
//! machine (`requests_per_second`, `steps_per_second` against the host
//! clock). Wall times are machine-dependent, so CI checks a floor on the
//! `cluster-day-smoke` record rather than diffing bytes.
//!
//! `--trace PATH` attaches the `cimtpu-obs` flight recorder and writes a
//! Chrome trace-event JSON file per scenario (load it in Perfetto or
//! `chrome://tracing`; with several scenarios selected, the scenario
//! name is inserted before the extension). One track per replica slot
//! plus one per control plane; `--trace-filter crash,retry,...` keeps
//! only the named event kinds. `--metrics-csv PATH` writes the
//! downsampled gauge series (`scenario,series,t_s,value` rows), and
//! traced runs gain a `timeseries` section in the `--json` report.
//! Traces are keyed by simulated time, so a fixed `--seed` reproduces
//! them byte-for-byte; recorder-off output is byte-identical to builds
//! without these flags. Traced scenarios run sequentially (the recorder
//! is single-threaded state); leave these flags off for perf runs.
//!
//! `--summary` prints a one-screen table — one row per scenario with
//! goodput, availability, scaling-action counts, and latency
//! percentiles — instead of the full per-replica reports (rejected with
//! `--json -`, whose JSON replaces the text output).
//!
//! Every spec flag parses once, before any scenario runs; the tokens the
//! grammars share (times, windows, bands, `x<f>` factors, byte sizes)
//! live in `cimtpu_units::spec`.

use std::cell::RefCell;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use cimtpu_cluster::scenario::{self, Scenario};
use cimtpu_cluster::{
    parse_autoscale, parse_faults, ClusterEngine, ClusterReport, ClusterRun, ClusterTopology,
    FaultPlan, PerfRecord, Recorder, SharedRecorder,
};
use cimtpu_serving::cli::{self, Binary, SimFlags};
use cimtpu_units::{pool, Stdout};

/// The fleet binary: its catalogue plus what the fleet-mode flags leave
/// behind across the shared flow.
#[derive(Default)]
struct ClusterSim {
    /// `--perf-json` records, one per completed run.
    perf: Vec<PerfRecord>,
    /// `--metrics-csv` rows of every traced run, under one header.
    csv: String,
    /// Whether a `--trace` or `--metrics-csv` write failed.
    failed: bool,
}

/// Usage text for the fleet-mode flags.
const FLEET_HELP: &str = r"  --perf-json PATH     also write wall-clock driver-throughput records
                       (machine-dependent; kept out of the --json baseline)
  --fault-seed N       reseed each scenario's fault plan (chaos draws redraw; explicit events stand)
                       (rejected when no selected plan has chaos draws)
  --faults SPEC        replace each scenario's fault plan: comma-separated
                       'crash@<t>:<replica>[:repair=<t>]', 'straggler@<from>-<until>:<replica>:x<f>',
                       'link@<from>-<until>:x<f>[:energy=x<f>]' (times take an s/ms suffix)
  --autoscale SPEC     install an autoscale policy on each scenario: comma-separated
                       'interval=1s', 'provision=2s', 'warmup=500ms', 'idle-w=30', 'conc=4',
                       'replicas=LO..HI' (every group), 'group<K>=LO..HI', 'init=N', 'up=0.75',
                       'down=0.25', 'up-cd=2s', 'down-cd=5s', 'slo-floor=0.9', 'swap'
  --trace PATH         attach the flight recorder and write a Chrome trace-event
                       JSON file per scenario (Perfetto-loadable; runs sequentially)
  --trace-filter SPEC  keep only these comma-separated event kinds in --trace
                       (e.g. 'crash,retry,scale_up')
  --metrics-csv PATH   write downsampled gauge series as CSV (scenario,series,t_s,value)
  --summary            one-screen per-scenario table instead of full reports
";

impl Binary for ClusterSim {
    type Engine = ClusterEngine;
    const NAME: &'static str = "cluster_sim";
    const MODE: u8 = cli::FLEET;
    const KV_SCOPE: &'static str = "every replica's";
    const HELP: &'static str = FLEET_HELP;
    const LIST_WIDTH: usize = 22;

    const HEADLINE: fn() -> Vec<Scenario> = scenario::headline;
    const CHECKS: fn() -> Vec<Scenario> = scenario::checks;
    const BY_NAME: fn(&str) -> cimtpu_units::Result<Scenario> = scenario::by_name;

    /// `--faults` replaces each scenario's plan with the given explicit
    /// events; `--fault-seed` then reseeds whatever plan is in place
    /// (redrawing chaos-generated crashes, leaving explicit events
    /// alone); `--autoscale` expands per scenario, since each fleet has
    /// its own group count.
    fn prepare(&mut self, flags: &SimFlags, scenarios: &mut [Scenario]) -> Result<(), String> {
        let events = flags
            .faults
            .as_deref()
            .map(parse_faults)
            .transpose()
            .map_err(|e| e.to_string())?;
        let autoscale = flags
            .autoscale
            .as_deref()
            .map(parse_autoscale)
            .transpose()
            .map_err(|e| e.to_string())?;
        for s in scenarios.iter_mut() {
            if let Some(events) = &events {
                let plan = FaultPlan::none().with_events(events.clone());
                s.engine = s.engine.clone().with_faults(plan);
            }
            if let Some(fault_seed) = flags.fault_seed {
                let reseeded = s.engine.faults().clone().with_seed(fault_seed);
                s.engine = s.engine.clone().with_faults(reseeded);
            }
            if let Some(spec) = &autoscale {
                let groups = match s.engine.topology() {
                    ClusterTopology::Colocated { replicas, .. } => replicas.len(),
                    ClusterTopology::Disaggregated {
                        prefill, decode, ..
                    } => prefill.len() + decode.len(),
                };
                let policy = spec
                    .policy_for(groups)
                    .map_err(|e| format!("{}: {e}", s.name))?;
                s.engine = s.engine.clone().with_autoscale(policy);
            }
        }
        // A new fault seed only redraws chaos-generated crashes: with no
        // chaos spec in any selected plan the flag would change nothing.
        if flags.fault_seed.is_some()
            && scenarios
                .iter()
                .all(|s| s.engine.faults().chaos().is_none())
        {
            return Err(
                "--fault-seed has nothing to redraw: no selected scenario's fault plan \
                        has a chaos spec (explicit --faults events are not reseeded)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Traced runs attach an `Rc`-shared recorder, which is not `Send`:
    /// they run sequentially. Untraced runs keep the worker-pool fan-out.
    /// Each run is clocked on its own, so the `--perf-json` wall times
    /// are per-run driver times even under the fan-out.
    fn run(
        &mut self,
        flags: &SimFlags,
        scenarios: &[Scenario],
    ) -> Vec<cimtpu_units::Result<ClusterRun>> {
        let runs: Vec<_> = if flags.trace.is_some() || flags.metrics_csv.is_some() {
            let several = scenarios.len() > 1;
            scenarios
                .iter()
                .map(|s| timed(|| self.observe(flags, s, several)))
                .collect()
        } else {
            pool::parallel_map(scenarios, |s| timed(|| s.run(flags.seed)))
        };
        if let Some(path) = &flags.metrics_csv {
            self.failed |= cli::write_file(Self::NAME, path, &self.csv);
        }
        let timed_runs = scenarios.iter().zip(runs);
        timed_runs
            .map(|(s, (run, wall_s))| {
                if let Ok(run) = &run {
                    let record =
                        PerfRecord::measure(s.name, run.report.offered, &run.completions, wall_s);
                    self.perf.push(record);
                }
                run
            })
            .collect()
    }

    /// `--summary` prints one row per scenario instead of the full
    /// reports (`--json PATH` still writes them all); `--perf-json`
    /// writes the wall-clock records to their own file, never into the
    /// byte-diffed `--json` baseline.
    fn emit(&mut self, out: &mut Stdout, flags: &SimFlags, reports: Vec<ClusterReport>) -> bool {
        let mut failed = self.failed;
        if flags.summary {
            if let Some(path) = &flags.json {
                failed |= cli::write_json(Self::NAME, out, path, &reports);
            }
            print_summary(out, &reports);
        } else {
            failed |= cli::emit_reports(Self::NAME, out, &reports, flags.json.as_deref());
        }
        if let Some(path) = &flags.perf_json {
            failed |= cli::write_json(Self::NAME, out, path, &self.perf);
        }
        failed
    }
}

impl ClusterSim {
    /// Runs `s` with the flight recorder attached, then exports its
    /// `--trace` file and appends its `--metrics-csv` rows.
    fn observe(
        &mut self,
        flags: &SimFlags,
        s: &Scenario,
        several: bool,
    ) -> cimtpu_units::Result<ClusterRun> {
        let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new()));
        let mut run = s
            .engine
            .run_observed(s.name, &s.offered(flags.seed), Some(&rec))?;
        let rec = rec.borrow();
        run.report.timeseries = Some(rec.timeseries());
        if let Some(base) = &flags.trace {
            let path = cli::scenario_path(base, s.name, several);
            let filter = flags.trace_filter.clone().unwrap_or_default();
            self.failed |= cli::write_file(Self::NAME, &path, rec.to_chrome_json(&filter));
        }
        if flags.metrics_csv.is_some() {
            // One header for the whole file: strip it from every
            // scenario after the first.
            let body = rec.metrics_csv(s.name);
            if self.csv.is_empty() {
                self.csv.push_str(&body);
            } else if let Some((_, rows)) = body.split_once('\n') {
                self.csv.push_str(rows);
            }
        }
        Ok(run)
    }
}

/// `f`'s result and its wall-clock time in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    (f(), start.elapsed().as_secs_f64())
}

/// The `--summary` one-screen table: one row per scenario with goodput,
/// availability, scaling-action counts, and latency percentiles.
fn print_summary(out: &mut Stdout, reports: &[ClusterReport]) {
    writeln!(
        out,
        "{:<26} {:>9} {:>9} {:>13} {:>10} {:>10} {:>6}  scale(+/-/0/swap)",
        "scenario", "offered", "done", "goodput_rps", "p50_ms", "p99_ms", "avail"
    );
    for r in reports {
        let avail = r
            .availability
            .as_ref()
            .map_or_else(|| "-".to_owned(), |a| format!("{:.3}", a.availability));
        let scaling = r.scaling.as_ref().map_or_else(
            || "-".to_owned(),
            |s| {
                format!(
                    "{}/{}/{}/{}",
                    s.scale_ups, s.scale_downs, s.scale_to_zero, s.swaps
                )
            },
        );
        writeln!(
            out,
            "{:<26} {:>9} {:>9} {:>13.2} {:>10.3} {:>10.3} {:>6}  {}",
            r.label,
            r.offered,
            r.completed,
            r.goodput_rps,
            r.latency.p50_ms,
            r.latency.p99_ms,
            avail,
            scaling
        );
    }
}

fn main() -> ExitCode {
    cli::main(ClusterSim::default())
}
