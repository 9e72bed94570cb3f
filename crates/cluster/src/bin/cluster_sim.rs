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
//! traffic, and per-replica utilization. Scenarios are independent, so
//! they fan out over the `cimtpu_bench::sweep` worker pool; `--workers N`
//! overrides the `CIMTPU_WORKERS` environment variable. Output is
//! deterministic for a fixed `--seed`.
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
//! their own tenant sets, which the flag replaces. Single-tenant output
//! is byte-identical to builds without the flag.
//!
//! `--trace-out PATH` writes each selected scenario's synthesized
//! traffic as a JSONL request trace and exits without simulating
//! (multi-tenant scenarios write their merged, tenant-tagged trace);
//! `--trace-in PATH` replaces each scenario's traffic with the trace at
//! PATH (replayed byte-identically; `--seed`, `--clients`, `--think-ms`
//! and `--tenants` are rejected with it, as is `--tenants` with
//! `--trace-out`). See `cimtpu_serving::trace` for the format.
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
//! clock). The committed `BENCH_cluster_perf.json` snapshot is
//! `cluster_sim --perf-json BENCH_cluster_perf.json` on the dev box;
//! wall times are machine-dependent, so CI checks a floor on the
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
use std::rc::Rc;

use cimtpu_bench::sweep;
use cimtpu_cluster::scenario::{self, Scenario};
use cimtpu_cluster::{
    parse_autoscale, parse_faults, ClusterReport, ClusterTopology, FaultPlan, PerfRecord,
    Recorder, SharedRecorder, TenantSet,
};
use cimtpu_serving::cli::{self, SimFlags};
use cimtpu_serving::ArrivalPattern;

/// The `--summary` one-screen table: one row per scenario with goodput,
/// availability, scaling-action counts, and latency percentiles.
fn print_summary(reports: &[ClusterReport]) {
    println!(
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
            |s| format!("{}/{}/{}/{}", s.scale_ups, s.scale_downs, s.scale_to_zero, s.swaps),
        );
        println!(
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

fn main() {
    cli::finish("cluster_sim", run());
}

/// Runs the command line: `Ok(true)` when a scenario or a write failed
/// (reported as it happened), `Err` for a command line that cannot run.
fn run() -> Result<bool, String> {
    let flags = SimFlags::parse("cluster_sim", "every replica's", true, || {
        for s in scenario::headline() {
            println!("  {:<22} {}", s.name, s.description);
        }
        let smoke = [
            scenario::smoke_cluster(),
            scenario::cluster_day_smoke(),
            scenario::smoke_autoscale(),
        ];
        for s in smoke {
            println!("  {:<22} {}", s.name, s.description);
        }
    })?;
    // `--faults` replaces each scenario's plan with the given explicit
    // events; `--fault-seed` then reseeds whatever plan is in place
    // (redrawing chaos-generated crashes, leaving explicit events alone).
    // `--autoscale` parses here too; the per-group policy expansion
    // happens per scenario, since each fleet has its own group count.
    let cli_events =
        flags.faults.as_deref().map(parse_faults).transpose().map_err(|e| e.to_string())?;
    let cli_autoscale =
        flags.autoscale.as_deref().map(parse_autoscale).transpose().map_err(|e| e.to_string())?;

    let mut scenarios: Vec<Scenario> = if flags.scenario == "all" {
        scenario::headline()
    } else {
        vec![scenario::by_name(&flags.scenario).map_err(|e| e.to_string())?]
    };
    for s in &mut scenarios {
        if let Some(budget) = flags.kv_budget {
            s.engine = s.engine.clone().with_kv_budget(budget);
        }
        if let Some(clients) = flags.clients {
            s.traffic.arrival =
                ArrivalPattern::ClosedLoop { clients, think_ms: flags.think_ms };
        }
        if let Some(events) = &cli_events {
            s.engine =
                s.engine.clone().with_faults(FaultPlan::none().with_events(events.clone()));
        }
        if let Some(seed) = flags.fault_seed {
            let reseeded = s.engine.faults().clone().with_seed(seed);
            s.engine = s.engine.clone().with_faults(reseeded);
        }
        if let Some(spec) = &cli_autoscale {
            let ngroups = match s.engine.topology() {
                ClusterTopology::Colocated { replicas, .. } => replicas.len(),
                ClusterTopology::Disaggregated { prefill, decode, .. } => {
                    prefill.len() + decode.len()
                }
            };
            let policy = spec.policy_for(ngroups).map_err(|e| format!("{}: {e}", s.name))?;
            s.engine = s.engine.clone().with_autoscale(policy);
        }
    }
    // A new fault seed only redraws chaos-generated crashes: with no
    // chaos spec in any selected plan the flag would change nothing.
    if flags.fault_seed.is_some() && scenarios.iter().all(|s| s.engine.faults().chaos().is_none()) {
        return Err("--fault-seed has nothing to redraw: no selected scenario's fault plan \
                    has a chaos spec (explicit --faults events are not reseeded)"
            .into());
    }

    // `--trace-in` replaces each scenario's traffic wholesale (the trace
    // carries arrivals, lengths, sessions, tenants, and classes), so it
    // composes with neither `--clients` nor `--seed` (both rejected by
    // `SimFlags`) — and it clears scenario tenant sets (a replayed trace
    // is served as-is).
    if let Some(path) = flags.trace_in.as_deref() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec = cimtpu_serving::parse_jsonl(&text)
            .and_then(cimtpu_serving::replay_spec)
            .map_err(|e| e.to_string())?;
        for s in &mut scenarios {
            s.traffic = spec.clone();
            s.tenants = None;
        }
    }
    let seed = flags.seed;
    // `--trace-out` is the seeded synthesis tool: write each scenario's
    // materialized traffic (the merged tenant-tagged trace for
    // multi-tenant scenarios) as a JSONL trace and exit without
    // simulating.
    if let Some(path) = flags.trace_out.as_deref() {
        let mut traffics: Vec<(&str, cimtpu_serving::TrafficSpec)> = Vec::new();
        for s in &scenarios {
            let spec = match (&s.tenants, seed) {
                (Some(set), Some(seed)) => set.with_seed(seed).merged_spec(),
                (Some(set), None) => set.merged_spec(),
                (None, _) => {
                    let mut traffic = s.traffic.clone();
                    if let Some(seed) = seed {
                        traffic.seed = seed;
                    }
                    Ok(traffic)
                }
            };
            traffics.push((s.name, spec.map_err(|e| format!("{}: {e}", s.name))?));
        }
        return Ok(cli::emit_traces("cluster_sim", path, &traffics));
    }
    // `--tenants` overlays each scenario's base traffic across the given
    // SLO tiers (replacing any scenario-carried tenant set); the run path
    // reseeds every tenant's stream under `--seed`.
    if let Some(parts) = &flags.tenants {
        for s in &mut scenarios {
            let set = TenantSet::overlay(&s.traffic, parts);
            s.tenants = Some(set.map_err(|e| format!("{}: {e}", s.name))?);
        }
    }
    let filter = flags.trace_filter.clone().unwrap_or_default();

    let observing = flags.trace.is_some() || flags.metrics_csv.is_some();
    let mut failed = false;
    let mut csv = String::new();
    // Traced runs attach an `Rc`-shared recorder, which is not `Send`:
    // they run sequentially, exporting each scenario's trace/CSV on the
    // spot. The untraced path keeps the worker-pool fan-out below —
    // scenarios are independent simulations that return in scenario
    // order, so output is stable, and each worker clocks its own
    // scenario so the wall times feeding `--perf-json` are per-run
    // driver times even under the fan-out.
    let results: Vec<_> = if observing {
        scenarios
            .iter()
            .map(|s| {
                let start = std::time::Instant::now();
                let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new()));
                let result = s.run_observed(seed, Some(&rec)).map(|mut run| {
                    let rec = rec.borrow();
                    run.report.timeseries = Some(rec.timeseries());
                    if let Some(base) = flags.trace.as_deref() {
                        let path = if scenarios.len() > 1 {
                            cli::per_scenario_path(base, s.name)
                        } else {
                            base.to_owned()
                        };
                        if let Err(e) = std::fs::write(&path, rec.to_chrome_json(&filter)) {
                            eprintln!("cluster_sim: writing {path}: {e}");
                            failed = true;
                        }
                    }
                    if flags.metrics_csv.is_some() {
                        let body = rec.metrics_csv(s.name);
                        // One header for the whole file: strip it from
                        // every scenario after the first.
                        if csv.is_empty() {
                            csv.push_str(&body);
                        } else if let Some((_, rows)) = body.split_once('\n') {
                            csv.push_str(rows);
                        }
                    }
                    run
                });
                (result, start.elapsed().as_secs_f64())
            })
            .collect()
    } else {
        sweep::parallel_map(&scenarios, |s| {
            let start = std::time::Instant::now();
            (s.run(seed), start.elapsed().as_secs_f64())
        })
    };
    if let Some(path) = flags.metrics_csv.as_deref() {
        if let Err(e) = std::fs::write(path, &csv) {
            eprintln!("cluster_sim: writing {path}: {e}");
            failed = true;
        }
    }

    let mut reports: Vec<ClusterReport> = Vec::new();
    let mut perf: Vec<PerfRecord> = Vec::new();
    let mut prefix_lines: Vec<(&str, cimtpu_serving::PrefixStats)> = Vec::new();
    for (s, (result, wall_s)) in scenarios.iter().zip(results) {
        match result {
            Ok(run) => {
                if run.prefix.lookups > 0 {
                    prefix_lines.push((s.name, run.prefix));
                }
                perf.push(PerfRecord::measure(
                    s.name,
                    run.report.offered,
                    &run.completions,
                    wall_s,
                ));
                reports.push(run.report);
            }
            Err(e) => {
                eprintln!("{}: {e}", s.name);
                failed = true;
            }
        }
    }

    if flags.summary {
        // One row per scenario instead of the full per-replica reports;
        // `--json PATH` still writes the complete report list.
        if let Some(path) = flags.json.as_deref() {
            let payload =
                serde_json::to_string_pretty(&reports).expect("reports serialize");
            if let Err(e) = std::fs::write(path, payload + "\n") {
                eprintln!("cluster_sim: writing {path}: {e}");
                failed = true;
            }
        }
        print_summary(&reports);
    } else {
        failed |= cli::emit_reports("cluster_sim", &reports, flags.json.as_deref());
    }
    // Wall-clock throughput goes to its own sidecar: the numbers are
    // machine-dependent, so they must never leak into the byte-diffed
    // `--json` baseline.
    if let Some(path) = flags.perf_json.as_deref() {
        let payload = serde_json::to_string_pretty(&perf).expect("perf records serialize");
        if let Err(e) = std::fs::write(path, payload + "\n") {
            eprintln!("cluster_sim: writing {path}: {e}");
            failed = true;
        }
    }
    // Prefix-sharing fleets append their cache counters (absent when
    // sharing is off, keeping default output and the JSON shape
    // unchanged).
    cli::emit_prefix_stats(&prefix_lines, flags.json.as_deref());
    Ok(failed)
}
