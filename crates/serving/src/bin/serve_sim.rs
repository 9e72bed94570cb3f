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
//! high-water mark). The command line goes through the front end it
//! shares with `cluster_sim` ([`cimtpu_serving::cli`]): this binary adds
//! only its scenario catalogue (the single-engine `--kv-budget` override
//! is `ServingEngine`'s `scenario::Engine::with_kv_budget`). Scenarios
//! fan out over the `cimtpu_units::pool` worker pool
//! (`--workers N` overrides `CIMTPU_WORKERS`). Output is deterministic
//! for a fixed `--seed`.
//!
//! `--kv-budget BUDGET` overrides the scenario's KV budget: `unlimited`,
//! `hbm` (HBM capacity minus resident weights), or a byte count with an
//! optional `KiB`/`MiB`/`GiB`/`TiB` suffix (e.g. `1GiB`) — the grammar of
//! [`cimtpu_serving::parse_kv_budget`]. `--clients N` converts the
//! scenario's traffic to closed loop: `N` concurrent clients, each with
//! one request in flight, re-issuing after a think time (`--think-ms`,
//! default 10 ms).
//!
//! `--tenants SPEC` splits each scenario's traffic across SLO tenants
//! (comma-separated `name=class[:weight[:slo_ms]]`, grammar in
//! [`cimtpu_serving::parse_tenants`]) and schedules it weighted-fair:
//! admission is priority-first then deficit-weighted-fair, KV preemption
//! evicts batch-tier residents before interactive ones, and reports gain
//! a per-tenant section (goodput, SLO attainment, Jain's fairness
//! index). A scenario whose traffic cannot split (closed-loop or prefix
//! traffic) fails the command line before anything runs.
//!
//! `--trace-out PATH` writes each selected scenario's offered traffic
//! (under `--seed`, exactly what a run serves) as a JSONL request trace
//! and exits without simulating; it reads only `--scenario`, `--seed`
//! and `--trace-in`, and any other flag exits 2 (closed-loop traffic
//! cannot be written as a trace). `--trace-in PATH` replaces each scenario's traffic with the trace
//! at PATH (replayed byte-identically; `--seed`, `--clients`,
//! `--think-ms` and `--tenants` exit 2 with it). See
//! [`cimtpu_serving::trace`] for the format.
//!
//! `--json PATH` additionally writes the full `ServingReport` list as
//! pretty-printed JSON (`-` writes JSON to stdout instead of the text
//! report). The committed `BENCH_serving.json` baseline is exactly
//! `serve_sim --json BENCH_serving.json`.

use std::process::ExitCode;

use cimtpu_serving::cli::{self, Binary};
use cimtpu_serving::scenario::{self, Scenario};
use cimtpu_serving::ServingEngine;

/// The single-engine binary: its catalogue, nothing more.
struct ServeSim;

impl Binary for ServeSim {
    type Engine = ServingEngine;
    const NAME: &'static str = "serve_sim";
    const MODE: u8 = cli::SINGLE;
    const KV_SCOPE: &'static str = "the scenario's";
    const LIST_WIDTH: usize = 20;

    const HEADLINE: fn() -> Vec<Scenario> = scenario::headline;
    const CHECKS: fn() -> Vec<Scenario> = scenario::checks;
    const BY_NAME: fn(&str) -> cimtpu_units::Result<Scenario> = scenario::by_name;
}

fn main() -> ExitCode {
    cli::main(ServeSim)
}
