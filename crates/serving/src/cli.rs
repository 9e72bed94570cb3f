//! The one command-line front end of the simulation binaries
//! (`serve_sim`, `cluster_sim`). [`main`] runs the same flow for both:
//!
//! 1. parse the flags against one table of which modes read each flag
//!    (single-engine run, fleet run, `--trace-out`);
//! 2. pick the scenarios and apply `--kv-budget` and `--clients`, then
//!    the binary's own flags ([`Binary::prepare`]), then `--trace-in` and
//!    `--tenants`;
//! 3. under `--trace-out`, write each scenario's offered traffic and
//!    exit (closed-loop traffic has no trace: the headline set skips
//!    those scenarios, and naming one exits 2); otherwise run the
//!    scenarios ([`Binary::run`]) and emit their reports
//!    ([`Binary::emit`]) and prefix-cache counters.
//!
//! Both the run and `--trace-out` read [`Scenario::offered`], the one
//! `--seed` rule. A binary supplies only its own parts through
//! [`Binary`]: its catalogue, its run mode and, for a fleet, the fault,
//! autoscale and recorder flags. Each spec flag is parsed when it is
//! read; the tokens the spec grammars share live in
//! [`cimtpu_units::spec`].
//!
//! Everything the binaries print goes through one locked [`Stdout`]: a
//! reader that closed the pipe (`| head`) ends the output, not the run.

use std::process::ExitCode;

use cimtpu_units::Stdout;
use serde::Serialize;

use crate::scenario::{Engine, Scenario};
use crate::{parse_kv_budget, parse_tenants, KvBudget, Offered, TenantPart};
use cimtpu_obs::TraceFilter;

/// Mode bit: a run on one serving engine (`serve_sim`).
pub const SINGLE: u8 = 1;
/// Mode bit: a fleet run (`cluster_sim`).
pub const FLEET: u8 = 1 << 1;
/// Mode bit: `--trace-out`, which writes each scenario's offered traffic
/// and exits without simulating.
const TRACE_OUT: u8 = 1 << 2;
/// Read alongside `--trace-in`, whose replayed trace replaces each
/// scenario's traffic (arrivals, lengths, tenants): flags without this
/// bit reshape or reseed that traffic.
const REPLAY: u8 = 1 << 3;
const RUN: u8 = SINGLE | FLEET;

/// Every flag, in usage order: its value in the usage line (empty for a
/// switch), the mode bits that read it, and the flag it needs (if any).
/// A binary knows the flags its run mode or `--trace-out` reads; any
/// other is an unknown argument. A known flag that `--trace-out` does
/// not read, or that `--trace-in` would override, exits 2 with
/// `<flag> cannot be combined with <other>`.
const FLAGS: [(&str, &str, u8, &str); 18] = [
    ("--scenario", "NAME|all", RUN | TRACE_OUT | REPLAY, ""),
    ("--seed", "N", RUN | TRACE_OUT, ""),
    ("--workers", "N", RUN | REPLAY, ""),
    ("--json", "PATH", RUN | REPLAY, ""),
    ("--kv-budget", "BUDGET", RUN | REPLAY, ""),
    ("--clients", "N", RUN, ""),
    ("--think-ms", "MS", RUN, "--clients"),
    ("--tenants", "SPEC", RUN, ""),
    ("--trace-in", "PATH", RUN | TRACE_OUT | REPLAY, ""),
    ("--trace-out", "PATH", TRACE_OUT | REPLAY, ""),
    ("--fault-seed", "N", FLEET | REPLAY, ""),
    ("--faults", "SPEC", FLEET | REPLAY, ""),
    ("--autoscale", "SPEC", FLEET | REPLAY, ""),
    ("--perf-json", "PATH", FLEET | REPLAY, ""),
    ("--trace", "PATH", FLEET | REPLAY, ""),
    ("--trace-filter", "SPEC", FLEET | REPLAY, "--trace"),
    ("--metrics-csv", "PATH", FLEET | REPLAY, ""),
    ("--summary", "", FLEET | REPLAY, ""),
];

/// The usage text of the flags every binary reads; `{scope}` stands for
/// [`Binary::KV_SCOPE`].
const HELP: &str = r"  --kv-budget BUDGET   override {scope} KV budget: 'unlimited',
                       'hbm', or bytes with KiB/MiB/GiB/TiB suffix (e.g. 1GiB)
  --clients N          convert traffic to closed loop with N clients
  --think-ms MS        closed-loop think time (needs --clients; default 10)
  --tenants SPEC       split traffic across SLO tenants and schedule weighted-fair:
                       comma-separated name=class[:weight[:slo_ms]] (class: interactive,
                       standard, or batch; weight defaults to 1), e.g. 'chat=interactive:3,bulk=batch'
  --trace-in PATH      replay the JSONL request trace at PATH as each scenario's traffic
  --trace-out PATH     write each scenario's synthesized traffic as a JSONL trace and exit
  every SPEC reads times (150ms, 2s), windows (<t>-<t>), bands (LO..HI), factors (x<f>)
                       and byte sizes alike: the shared tokens of cimtpu_units::spec
";

/// The parsed command line.
#[derive(Debug, Clone, Default)]
pub struct SimFlags {
    /// `--help` / `-h`: print usage and exit.
    pub help: bool,
    /// `--scenario NAME|all` (default `all`).
    pub scenario: String,
    /// `--seed N`: traffic-seed override ([`Scenario::offered`]).
    pub seed: Option<u64>,
    /// `--json PATH`: also write reports as pretty JSON (`-` = stdout).
    pub json: Option<String>,
    /// `--kv-budget BUDGET`: KV-budget override (see [`parse_kv_budget`]).
    pub kv_budget: Option<KvBudget>,
    /// `--clients N`: convert traffic to closed loop with `N` clients.
    pub clients: Option<u64>,
    /// `--think-ms MS`: closed-loop think time (default 10 ms).
    pub think_ms: f64,
    /// `--fault-seed N`: fault-plan seed override.
    pub fault_seed: Option<u64>,
    /// `--faults SPEC`: fault events, raw — `cimtpu_cluster::parse_faults`
    /// owns the grammar and this crate cannot depend on it.
    pub faults: Option<String>,
    /// `--autoscale SPEC`: autoscale policy, raw —
    /// `cimtpu_autoscale::parse_autoscale` owns the grammar.
    pub autoscale: Option<String>,
    /// `--perf-json PATH`: also write wall-clock driver-throughput
    /// records (machine-dependent, so kept out of `--json`).
    pub perf_json: Option<String>,
    /// `--trace PATH`: write a Chrome trace-event JSON file per scenario.
    pub trace: Option<String>,
    /// `--trace-filter SPEC`: the event kinds `--trace` keeps (see
    /// [`TraceFilter::parse`]).
    pub trace_filter: Option<TraceFilter>,
    /// `--metrics-csv PATH`: write the downsampled gauge series as CSV.
    pub metrics_csv: Option<String>,
    /// `--summary`: one table row per scenario instead of full reports.
    pub summary: bool,
    /// `--tenants SPEC`: split each scenario's traffic across SLO tenants
    /// (see [`parse_tenants`]).
    pub tenants: Option<Vec<TenantPart>>,
    /// `--trace-in PATH`: replay the JSONL trace at PATH as each
    /// scenario's traffic.
    pub trace_in: Option<String>,
    /// `--trace-out PATH`: write each scenario's offered traffic as a
    /// JSONL trace and exit.
    pub trace_out: Option<String>,
}

impl SimFlags {
    /// Parses `args` (the arguments after the program name) for a binary
    /// whose run mode is `mode` ([`SINGLE`] or [`FLEET`]). Parsing stops
    /// at `--help`. `--workers N` is applied on the spot by setting
    /// `CIMTPU_WORKERS` (the [`cimtpu_units::pool`] reads it).
    ///
    /// # Errors
    ///
    /// Returns the message to print for a flag the binary does not know,
    /// a malformed value (`--workers 0`, `--clients 0`, a negative or
    /// non-finite `--think-ms`, a `--kv-budget`, `--tenants` or
    /// `--trace-filter` spec that does not parse), a flag without the flag
    /// it needs, a flag the selected mode does not read (see the flag
    /// table), or `--summary` with `--json -` (the JSON replaces the text
    /// output).
    pub(crate) fn parse_from(
        args: impl IntoIterator<Item = String>,
        mode: u8,
    ) -> Result<Self, String> {
        let mut flags = SimFlags {
            scenario: "all".to_owned(),
            think_ms: 10.0,
            ..SimFlags::default()
        };
        let mut given = [false; FLAGS.len()];
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                flags.help = true;
                return Ok(flags);
            }
            let i = FLAGS
                .iter()
                .position(|&(name, _, reads, _)| name == arg && reads & (mode | TRACE_OUT) != 0)
                .ok_or_else(|| format!("unknown argument {arg}"))?;
            given[i] = true;
            let (name, metavar, ..) = FLAGS[i];
            let value = match metavar {
                "" => String::new(),
                _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
            };
            let number = |what: &str| value.parse::<u64>().map_err(|e| format!("bad {what}: {e}"));
            match name {
                "--scenario" => flags.scenario = value,
                "--seed" => flags.seed = Some(number("--seed")?),
                "--workers" => match number("--workers")? {
                    0 => return Err("--workers needs a positive integer".into()),
                    n => std::env::set_var("CIMTPU_WORKERS", n.to_string()),
                },
                "--json" => flags.json = Some(value),
                "--kv-budget" => {
                    flags.kv_budget = Some(parse_kv_budget(&value).map_err(|e| e.to_string())?);
                }
                "--clients" => match number("--clients")? {
                    0 => return Err("bad --clients: closed loop needs >= 1 client".into()),
                    clients => flags.clients = Some(clients),
                },
                "--think-ms" => {
                    let ms: f64 = value.parse().map_err(|e| format!("bad --think-ms: {e}"))?;
                    if !(ms.is_finite() && ms >= 0.0) {
                        return Err(format!(
                            "bad --think-ms: {ms} is not a finite, non-negative time"
                        ));
                    }
                    flags.think_ms = ms;
                }
                "--tenants" => {
                    flags.tenants = Some(parse_tenants(&value).map_err(|e| e.to_string())?);
                }
                "--trace-in" => flags.trace_in = Some(value),
                "--trace-out" => flags.trace_out = Some(value),
                "--fault-seed" => flags.fault_seed = Some(number("--fault-seed")?),
                "--faults" => flags.faults = Some(value),
                "--autoscale" => flags.autoscale = Some(value),
                "--perf-json" => flags.perf_json = Some(value),
                "--trace" => flags.trace = Some(value),
                "--trace-filter" => {
                    let filter = TraceFilter::parse(&value)
                        .map_err(|e| format!("bad --trace-filter: {e}"))?;
                    flags.trace_filter = Some(filter);
                }
                "--metrics-csv" => flags.metrics_csv = Some(value),
                "--summary" => flags.summary = true,
                other => unreachable!("{other} is in FLAGS but has no arm"),
            }
        }
        // In table order, so the clash reported does not depend on the
        // order of the command line.
        let given: Vec<_> = FLAGS
            .into_iter()
            .zip(given)
            .filter_map(|(f, g)| g.then_some(f))
            .collect();
        let has = |flag: &str| given.iter().any(|&(name, ..)| name == flag);
        if let Some((name, .., needs)) = given
            .iter()
            .find(|&&(.., needs)| !needs.is_empty() && !has(needs))
        {
            return Err(format!("{name} needs {needs}"));
        }
        for (bit, by) in [(REPLAY, "--trace-in"), (TRACE_OUT, "--trace-out")] {
            if let Some((name, ..)) = given
                .iter()
                .find(|&&(_, _, reads, _)| has(by) && reads & bit == 0)
            {
                return Err(format!("{name} cannot be combined with {by}"));
            }
        }
        if flags.summary && flags.json.as_deref() == Some("-") {
            return Err("--summary cannot be combined with --json -".into());
        }
        Ok(flags)
    }
}

/// A simulation binary's own parts: its catalogue, its run mode and the
/// hooks through which its mode's flags join the shared flow of
/// [`main`].
pub trait Binary {
    /// What the binary's scenarios run on.
    type Engine: Engine;
    /// Program name, for the usage line and error messages.
    const NAME: &'static str;
    /// The run mode, [`SINGLE`] or [`FLEET`]: which flags the binary
    /// knows.
    const MODE: u8;
    /// Whose KV budget `--kv-budget` overrides, for the usage text.
    const KV_SCOPE: &'static str;
    /// Usage text for the flags only this mode reads.
    const HELP: &'static str = "";
    /// Width of the name column in the `--help` scenario list.
    const LIST_WIDTH: usize;

    /// The scenarios `--scenario all` runs.
    const HEADLINE: fn() -> Vec<Scenario<Self::Engine>>;
    /// The named checks `--help` lists after the headline set.
    const CHECKS: fn() -> Vec<Scenario<Self::Engine>>;
    /// One scenario by name.
    const BY_NAME: fn(&str) -> cimtpu_units::Result<Scenario<Self::Engine>>;

    /// Applies the mode's own flags to the selected scenarios.
    ///
    /// # Errors
    ///
    /// The message for a command line that cannot run (exit status 2).
    fn prepare(
        &mut self,
        _flags: &SimFlags,
        _scenarios: &mut [Scenario<Self::Engine>],
    ) -> Result<(), String> {
        Ok(())
    }

    /// Runs the scenarios under `--seed`, one result per scenario in
    /// order; by default on the [`cimtpu_units::pool`] worker pool.
    fn run(
        &mut self,
        flags: &SimFlags,
        scenarios: &[Scenario<Self::Engine>],
    ) -> Vec<cimtpu_units::Result<<Self::Engine as Engine>::Run>> {
        cimtpu_units::pool::parallel_map(scenarios, |s| s.run(flags.seed))
    }

    /// Emits the reports (by default [`emit_reports`]); returns whether a
    /// file write failed.
    fn emit(
        &mut self,
        out: &mut Stdout,
        flags: &SimFlags,
        reports: Vec<<Self::Engine as Engine>::Report>,
    ) -> bool {
        emit_reports(Self::NAME, out, &reports, flags.json.as_deref())
    }
}

/// Runs a simulation binary's command line and returns its exit status:
/// 0, 1 when a scenario or an output write failed (reported as it
/// happened), or 2 with `binary: message` on stderr for a command line
/// that cannot run (nothing simulated, nothing on stdout). A closed
/// stdout (`| head`) ends the output silently, not the run or its files
/// (see [`Stdout::finish`]).
pub fn main<B: Binary>(mut binary: B) -> ExitCode {
    let mut out = Stdout::lock();
    match run(&mut binary, &mut out) {
        Ok(failed) => out.finish(B::NAME, failed),
        Err(e) => {
            eprintln!("{}: {e}", B::NAME);
            ExitCode::from(2)
        }
    }
}

/// The shared flow (see the module docs): `Ok(true)` when a scenario or
/// a file write failed.
fn run<B: Binary>(binary: &mut B, out: &mut Stdout) -> Result<bool, String> {
    let flags = SimFlags::parse_from(std::env::args().skip(1), B::MODE)?;
    if flags.help {
        print_usage::<B>(out);
        return Ok(false);
    }
    let mut scenarios = if flags.scenario == "all" {
        (B::HEADLINE)()
    } else {
        vec![(B::BY_NAME)(&flags.scenario).map_err(|e| e.to_string())?]
    };
    for s in &mut scenarios {
        if let Some(budget) = flags.kv_budget {
            s.engine = s.engine.clone().with_kv_budget(budget);
        }
        if let Some(clients) = flags.clients {
            s.traffic.arrival = crate::ArrivalPattern::ClosedLoop {
                clients,
                think_ms: flags.think_ms,
            };
        }
    }
    binary.prepare(&flags, &mut scenarios)?;
    // A replayed trace carries arrivals, lengths, sessions, tenants and
    // classes: it replaces the traffic and any scenario tenant set.
    if let Some(path) = &flags.trace_in {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let spec = crate::parse_jsonl(&text)
            .and_then(crate::replay_spec)
            .map_err(|e| e.to_string())?;
        for s in &mut scenarios {
            s.traffic = spec.clone();
            s.tenants = None;
        }
    }
    // Every overlay is built before anything runs: one scenario whose
    // traffic cannot split fails the command line.
    if let Some(parts) = &flags.tenants {
        for s in &mut scenarios {
            let set = crate::TenantSet::overlay(&s.traffic, parts);
            s.tenants = Some(set.map_err(|e| format!("{}: {e}", s.name))?);
        }
    }
    if let Some(base) = &flags.trace_out {
        return write_traces(B::NAME, base, &scenarios, flags.seed);
    }

    let runs = binary.run(&flags, &scenarios);
    let (mut reports, mut prefix_lines, mut failed) = (Vec::new(), Vec::new(), false);
    for (s, run) in scenarios.iter().zip(runs) {
        match run {
            Ok(run) => {
                let (report, prefix) = B::Engine::report(run);
                // Only runs that looked prefixes up print counters, so
                // sharing-off output is unchanged.
                if prefix.lookups > 0 {
                    prefix_lines.push((s.name, prefix));
                }
                reports.push(report);
            }
            Err(e) => {
                eprintln!("{}: {e}", s.name);
                failed = true;
            }
        }
    }
    failed |= binary.emit(out, &flags, reports);
    // CI greps this exact format on smoke-prefix; `--json -` replaced
    // the text output on stdout.
    if flags.json.as_deref() != Some("-") {
        for (name, stats) in prefix_lines {
            writeln!(out, "prefix cache [{name}]  {stats}");
        }
    }
    Ok(failed)
}

/// Prints the usage line (from the flag table), the flag texts and the
/// scenario list.
fn print_usage<B: Binary>(out: &mut Stdout) {
    write!(out, "usage: {}", B::NAME);
    for (name, value, reads, _) in FLAGS {
        match value {
            _ if reads & (B::MODE | TRACE_OUT) == 0 => {}
            "" => write!(out, " [{name}]"),
            value => write!(out, " [{name} {value}]"),
        }
    }
    let help = HELP.replace("{scope}", B::KV_SCOPE);
    write!(out, "\n{help}{}scenarios:\n", B::HELP);
    for s in (B::HEADLINE)().into_iter().chain((B::CHECKS)()) {
        let w = B::LIST_WIDTH;
        writeln!(out, "  {:<w$} {}", s.name, s.description);
    }
}

/// `--trace-out`: writes each scenario's offered traffic
/// ([`Scenario::offered`]) as a JSONL request trace. Closed-loop arrivals
/// depend on service progress, so they have no trace: a named
/// closed-loop scenario is an error before anything is written, and the
/// headline set skips its closed-loop scenarios, naming each on stderr.
/// Returns whether a write failed.
fn write_traces<E>(
    binary: &str,
    base: &str,
    scenarios: &[Scenario<E>],
    seed: Option<u64>,
) -> Result<bool, String> {
    let several = scenarios.len() > 1;
    let mut failed = false;
    for s in scenarios {
        if s.tenants.is_none()
            && matches!(s.traffic.arrival, crate::ArrivalPattern::ClosedLoop { .. })
        {
            let why = format!(
                "{}: closed-loop traffic cannot be synthesized into a trace",
                s.name
            );
            if !several {
                return Err(why);
            }
            eprintln!("{binary}: skipped {why}");
            continue;
        }
        let load = s.offered(seed);
        match Offered::from(&load)
            .spec()
            .and_then(|spec| crate::synthesize(&spec))
        {
            Ok(records) => {
                let path = scenario_path(base, s.name, several);
                failed |= write_file(binary, &path, crate::to_jsonl(&records));
            }
            Err(e) => {
                eprintln!("{binary}: {}: {e}", s.name);
                failed = true;
            }
        }
    }
    Ok(failed)
}

/// The output path for `scenario` when `several` scenarios share one
/// `--trace` / `--trace-out` argument: `out.json` → `out.<scenario>.json`
/// (extensionless paths get the scenario appended).
pub fn scenario_path(base: &str, scenario: &str, several: bool) -> String {
    let p = std::path::Path::new(base);
    match (
        p.file_stem().and_then(|s| s.to_str()),
        p.extension().and_then(|e| e.to_str()),
    ) {
        _ if !several => base.to_owned(),
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}.{scenario}.{ext}"))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{base}.{scenario}"),
    }
}

/// Writes `contents` to `path`, reporting a failure on stderr; returns
/// whether it failed.
pub fn write_file(binary: &str, path: &str, contents: impl AsRef<[u8]>) -> bool {
    let written = std::fs::write(path, contents);
    if let Err(e) = &written {
        eprintln!("{binary}: writing {path}: {e}");
    }
    written.is_err()
}

/// Writes `value` as pretty JSON to `path` (`-` prints it to `out`);
/// returns whether a file write failed.
pub fn write_json<T: Serialize>(binary: &str, out: &mut Stdout, path: &str, value: &T) -> bool {
    let payload =
        serde_json::to_string_pretty(value).expect("reports and perf records serialize") + "\n";
    if path == "-" {
        write!(out, "{payload}");
        return false;
    }
    write_file(binary, path, payload)
}

/// Writes `--json` and prints the text reports, which `--json -`
/// replaces. Returns whether a file write failed.
#[allow(clippy::ptr_arg)] // the vendored serde implements Serialize for Vec, not slices
pub fn emit_reports<R: std::fmt::Display + Serialize>(
    binary: &str,
    out: &mut Stdout,
    reports: &Vec<R>,
    json: Option<&str>,
) -> bool {
    let failed = json.is_some_and(|path| write_json(binary, out, path, reports));
    if json != Some("-") {
        for report in reports {
            writeln!(out, "{report}");
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SimFlags, String> {
        SimFlags::parse_from(args.iter().map(|a| (*a).to_owned()), FLEET)
    }

    #[test]
    fn closed_loop_flags_parse() {
        let flags = parse(&["--clients", "4", "--think-ms", "2.5"]).unwrap();
        assert_eq!(flags.clients, Some(4));
        assert_eq!(flags.think_ms, 2.5);
        assert_eq!(parse(&["--clients", "4"]).unwrap().think_ms, 10.0);
    }

    #[test]
    fn closed_loop_values_are_checked_at_parse_time() {
        let err = parse(&["--clients", "0"]).unwrap_err();
        assert!(err.starts_with("bad --clients"), "{err}");
        for think in ["-1", "nan", "inf", "-inf"] {
            let err = parse(&["--clients", "2", "--think-ms", think]).unwrap_err();
            assert!(err.starts_with("bad --think-ms"), "{think}: {err}");
        }
        assert_eq!(
            parse(&["--clients", "1", "--think-ms", "0"])
                .unwrap()
                .think_ms,
            0.0
        );
    }

    #[test]
    fn think_ms_without_clients_is_rejected() {
        let err = parse(&["--think-ms", "5"]).unwrap_err();
        assert!(err.contains("--think-ms needs --clients"), "{err}");
    }

    #[test]
    fn trace_filter_without_trace_is_rejected() {
        let err = parse(&["--trace-filter", "crash"]).unwrap_err();
        assert!(err.contains("--trace-filter needs --trace"), "{err}");
        let flags = parse(&["--trace", "t.json", "--trace-filter", "crash"]).unwrap();
        let filter = flags.trace_filter.unwrap();
        assert!(
            filter.allows(cimtpu_obs::EventKind::Crash)
                && !filter.allows(cimtpu_obs::EventKind::Retry)
        );
    }

    #[test]
    fn spec_flags_parse_as_they_are_read() {
        let flags = parse(&["--tenants", "chat=interactive:3,bulk=batch"]).unwrap();
        let names: Vec<String> = flags.tenants.unwrap().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["chat", "bulk"]);
        let err = parse(&["--tenants", "garbage"]).unwrap_err();
        assert!(err.contains("tenant entry 'garbage'"), "{err}");
        let err = parse(&["--trace", "t.json", "--trace-filter", "bogus"]).unwrap_err();
        assert!(
            err.starts_with("bad --trace-filter: unknown trace event type"),
            "{err}"
        );
    }

    #[test]
    fn inapplicable_flags_are_rejected() {
        let clashes: [(&[&str], &str, &str); 3] = [
            (
                &["--trace-in", "t.jsonl", "--seed", "3"],
                "--seed",
                "--trace-in",
            ),
            (
                &["--tenants", "a=batch", "--trace-out", "t.jsonl"],
                "--tenants",
                "--trace-out",
            ),
            (&["--json", "-", "--summary"], "--summary", "--json -"),
        ];
        for (args, flag, other) in clashes {
            assert_eq!(
                parse(args).unwrap_err(),
                format!("{flag} cannot be combined with {other}")
            );
        }
        assert!(parse(&["--json", "out.json", "--summary"]).is_ok());
        assert!(parse(&["--seed", "3", "--trace-out", "t.jsonl"]).is_ok());
    }

    #[test]
    fn trace_in_rejects_traffic_reshaping_flags() {
        let clashes: [&[&str]; 3] = [
            &["--clients", "2"],
            &["--clients", "2", "--think-ms", "1"],
            &["--tenants", "a=batch"],
        ];
        for clash in clashes {
            let mut args = vec!["--trace-in", "t.jsonl"];
            args.extend_from_slice(clash);
            let err = parse(&args).unwrap_err();
            assert_eq!(
                err,
                format!("{} cannot be combined with --trace-in", clash[0])
            );
        }
        // Flag order does not matter, and flags that leave the traffic
        // alone still combine with a replay.
        let err = parse(&["--clients", "2", "--trace-in", "t.jsonl"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        assert!(parse(&["--trace-in", "t.jsonl", "--kv-budget", "1GiB"]).is_ok());
    }
}
