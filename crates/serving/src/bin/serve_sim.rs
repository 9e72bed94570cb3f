//! Request-level serving simulation driver.
//!
//! ```text
//! serve_sim [--scenario NAME|all] [--seed N] [--workers N] [--json PATH]
//!           [--kv-budget BUDGET] [--clients N] [--think-ms MS]
//!           [--tenants SPEC] [--trace-in PATH] [--trace-out PATH]
//! ```
//!
//! Runs the named serving scenario (default: all headline scenarios) and
//! prints throughput, latency percentiles, energy per request, and
//! KV-cache pressure counters (preemptions, queue-full time, occupancy
//! high-water mark). Scenarios are independent, so they fan out over the
//! `cimtpu_bench::sweep` worker pool; `--workers N` overrides the
//! `CIMTPU_WORKERS` environment variable (see `cimtpu_bench::sweep`).
//! Output is deterministic for a fixed `--seed`.
//!
//! `--kv-budget BUDGET` overrides the scenario's KV budget so
//! memory-pressure studies are tunable from the CLI: `unlimited`, `hbm`
//! (HBM capacity minus resident weights), or a byte count with an
//! optional `KiB`/`MiB`/`GiB`/`TiB` suffix (e.g. `1GiB`) — the grammar of
//! [`cimtpu_serving::parse_kv_budget`]. `--clients N` converts the
//! scenario's traffic to closed loop: `N` concurrent clients, each with
//! one request in flight, re-issuing after a think time (`--think-ms`,
//! default 10 ms).
//!
//! `--tenants SPEC` splits each scenario's traffic across SLO tenants
//! (comma-separated `name=class[:weight[:slo_ms]]`, grammar in
//! [`cimtpu_serving::parse_tenants`], parsed as the flag is read, on the
//! shared tokens of `cimtpu_units::spec`) and schedules it weighted-fair:
//! admission is priority-first then deficit-weighted-fair, KV preemption
//! evicts batch-tier residents before interactive ones, and reports gain
//! a per-tenant section (goodput, SLO attainment, Jain's fairness
//! index). Single-tenant output is byte-identical to builds without the
//! flag.
//!
//! `--trace-out PATH` writes each selected scenario's synthesized
//! traffic as a JSONL request trace and exits without simulating;
//! `--trace-in PATH` replaces each scenario's traffic with the trace at
//! PATH (replayed byte-identically; `--seed`, `--clients`, `--think-ms`
//! and `--tenants` are rejected with it, as is `--tenants` with
//! `--trace-out`). See [`cimtpu_serving::trace`] for the format.
//!
//! `--json PATH` additionally writes the full `ServingReport` list as
//! pretty-printed JSON (`-` writes JSON to stdout instead of the text
//! report). The committed `BENCH_serving.json` baseline is exactly
//! `serve_sim --json BENCH_serving.json`.

use cimtpu_bench::sweep;
use cimtpu_serving::cli::{self, SimFlags};
use cimtpu_serving::scenario::{self, Scenario};
use cimtpu_serving::{ArrivalPattern, ServingReport, TenantSet};

fn main() {
    cli::finish("serve_sim", run());
}

/// Runs the command line: `Ok(true)` when a scenario or a write failed
/// (reported as it happened), `Err` for a command line that cannot run.
fn run() -> Result<bool, String> {
    let flags = SimFlags::parse("serve_sim", "the scenario's", false, || {
        for s in scenario::headline() {
            println!("  {:<20} {}", s.name, s.description);
        }
        for s in [scenario::smoke(), scenario::smoke_kv(), scenario::smoke_prefix()] {
            println!("  {:<20} {}", s.name, s.description);
        }
    })?;

    let mut scenarios: Vec<Scenario> = if flags.scenario == "all" {
        scenario::headline()
    } else {
        vec![scenario::by_name(&flags.scenario).map_err(|e| e.to_string())?]
    };
    for s in &mut scenarios {
        if let Some(budget) = flags.kv_budget {
            s.memory.budget = budget;
        }
        if let Some(clients) = flags.clients {
            s.traffic.arrival =
                ArrivalPattern::ClosedLoop { clients, think_ms: flags.think_ms };
        }
    }
    // `--trace-in` replaces each scenario's traffic wholesale (the trace
    // carries arrivals, lengths, sessions, tenants, and classes), so it
    // composes with neither `--clients` nor `--seed` (both rejected by
    // `SimFlags`).
    if let Some(path) = flags.trace_in.as_deref() {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec = cimtpu_serving::parse_jsonl(&text)
            .and_then(cimtpu_serving::replay_spec)
            .map_err(|e| e.to_string())?;
        for s in &mut scenarios {
            s.traffic = spec.clone();
        }
    }
    let seed = flags.seed;
    // `--trace-out` is the seeded synthesis tool: write each scenario's
    // materialized traffic as a JSONL trace and exit without simulating.
    if let Some(path) = flags.trace_out.as_deref() {
        let traffics: Vec<(&str, cimtpu_serving::TrafficSpec)> = scenarios
            .iter()
            .map(|s| {
                let mut traffic = s.traffic.clone();
                if let Some(seed) = seed {
                    traffic.seed = seed;
                }
                (s.name, traffic)
            })
            .collect();
        return Ok(cli::emit_traces("serve_sim", path, &traffics));
    }

    // Scenarios are independent simulations: fan them out over the sweep
    // worker pool (results return in scenario order, so output is stable).
    // `--tenants` overlays each scenario's own traffic; a scenario whose
    // traffic cannot split reports the error like a failed run.
    let results = sweep::parallel_map(&scenarios, |s| match &flags.tenants {
        Some(parts) => TenantSet::overlay(&s.traffic, parts)
            .and_then(|set| Scenario { tenants: Some(set), ..s.clone() }.run(seed)),
        None => s.run(seed),
    });

    let mut reports: Vec<ServingReport> = Vec::new();
    let mut prefix_lines: Vec<(&str, cimtpu_serving::PrefixStats)> = Vec::new();
    let mut failed = false;
    for (s, result) in scenarios.iter().zip(results) {
        match result {
            Ok(run) => {
                if run.prefix.lookups > 0 {
                    prefix_lines.push((s.name, run.prefix));
                }
                reports.push(run.report);
            }
            Err(e) => {
                eprintln!("{}: {e}", s.name);
                failed = true;
            }
        }
    }

    failed |= cli::emit_reports("serve_sim", &reports, flags.json.as_deref());
    // Prefix-sharing scenarios append their cache counters (absent when
    // sharing is off, keeping default output and the JSON shape
    // unchanged). CI greps this line for >= 1 hit on smoke-prefix.
    cli::emit_prefix_stats(&prefix_lines, flags.json.as_deref());
    Ok(failed)
}
