//! Shared command-line handling for the simulation binaries
//! (`serve_sim`, `cluster_sim`): both take the same flag set — scenario
//! selection, seed, worker count, JSON output, the `--kv-budget`
//! override, and the closed-loop `--clients` / `--think-ms` conversion —
//! so the parsing, report emission and exit path live here once. Each
//! spec flag is parsed when it is read; the tokens the spec grammars
//! share live in [`cimtpu_units::spec`].

use serde::Serialize;

use crate::{parse_kv_budget, parse_tenants, KvBudget, PrefixStats, TenantPart, TraceFilter};

/// The flag set shared by the simulation binaries.
#[derive(Debug, Clone)]
pub struct SimFlags {
    /// `--scenario NAME|all` (default `all`).
    pub scenario: String,
    /// `--seed N`: traffic-seed override.
    pub seed: Option<u64>,
    /// `--json PATH`: also write reports as pretty JSON (`-` = stdout).
    pub json: Option<String>,
    /// `--kv-budget BUDGET`: KV-budget override
    /// (see [`parse_kv_budget`]).
    pub kv_budget: Option<KvBudget>,
    /// `--clients N`: convert traffic to closed loop with `N` clients.
    pub clients: Option<u64>,
    /// `--think-ms MS`: closed-loop think time (default 10 ms); only
    /// with `--clients`.
    pub think_ms: f64,
    /// `--fault-seed N`: fault-plan seed override (fleet binaries only;
    /// a single engine has no fault plan).
    pub fault_seed: Option<u64>,
    /// `--faults SPEC`: comma-separated fault events, passed through raw
    /// — `cimtpu_cluster::parse_faults` owns the grammar and this crate
    /// cannot depend on it.
    pub faults: Option<String>,
    /// `--autoscale SPEC`: autoscale-policy override, passed through raw
    /// — `cimtpu_autoscale::parse_autoscale` owns the grammar (fleet
    /// binaries only).
    pub autoscale: Option<String>,
    /// `--perf-json PATH`: also write wall-clock driver-throughput
    /// records (fleet binaries only). Wall times are machine-dependent,
    /// so they go to a sidecar file, never into the byte-diffed
    /// `--json` baselines.
    pub perf_json: Option<String>,
    /// `--trace PATH`: attach the flight recorder and write a Chrome
    /// trace-event JSON file per scenario (Perfetto-loadable). With
    /// several scenarios selected, the scenario name is inserted before
    /// the extension (`out.json` → `out.<scenario>.json`).
    pub trace: Option<String>,
    /// `--trace-filter SPEC`: the event kinds to keep in the `--trace`
    /// export (comma-separated, e.g. `crash,retry,scale_up`; see
    /// [`TraceFilter::parse`]).
    pub trace_filter: Option<TraceFilter>,
    /// `--metrics-csv PATH`: attach the flight recorder and write the
    /// downsampled gauge series as CSV (`scenario,series,t_s,value`
    /// rows, all scenarios in one file).
    pub metrics_csv: Option<String>,
    /// `--summary`: print a one-screen per-scenario summary table
    /// (goodput, availability, scaling actions, latency percentiles)
    /// instead of the full per-replica reports.
    pub summary: bool,
    /// `--tenants SPEC`: split each scenario's traffic across SLO
    /// tenants and schedule it weighted-fair. Comma-separated
    /// `name=class[:weight[:slo_ms]]` entries (see [`parse_tenants`]).
    pub tenants: Option<Vec<TenantPart>>,
    /// `--trace-in PATH`: replace each scenario's traffic with the JSONL
    /// request trace at PATH (replayed byte-identically, so `--seed` is
    /// rejected with it).
    pub trace_in: Option<String>,
    /// `--trace-out PATH`: synthesize each selected scenario's traffic
    /// into a JSONL request trace at PATH and exit without simulating
    /// (with several scenarios selected the scenario name is inserted
    /// before the extension, as for `--trace`).
    pub trace_out: Option<String>,
}

impl SimFlags {
    /// Parses `std::env::args` (see [`parse_from`](Self::parse_from)).
    ///
    /// # Errors
    ///
    /// As for [`parse_from`](Self::parse_from).
    pub fn parse(
        binary: &str,
        budget_scope: &str,
        fleet_flags: bool,
        print_scenarios: impl Fn(),
    ) -> Result<SimFlags, String> {
        Self::parse_from(
            std::env::args().skip(1),
            binary,
            budget_scope,
            fleet_flags,
            print_scenarios,
        )
    }

    /// Parses `args` (the arguments after the program name). `binary`
    /// names the program and `budget_scope` phrases what `--kv-budget`
    /// overrides (e.g. "the scenario's" / "every replica's");
    /// `fleet_flags` accepts the
    /// fleet-only `--fault-seed` / `--faults` / `--perf-json` flags
    /// (single-engine binaries reject them as unknown);
    /// `print_scenarios` lists the binary's scenarios under `--help`
    /// (which prints usage and exits).
    ///
    /// `--workers N` is applied on the spot by setting `CIMTPU_WORKERS`
    /// (the `cimtpu_bench::sweep` pool reads it).
    ///
    /// # Errors
    ///
    /// Returns the message to print for an unknown flag, a malformed
    /// value (`--clients 0`, a negative or non-finite `--think-ms`, a
    /// `--kv-budget`, `--tenants` or `--trace-filter` spec that does not
    /// parse), or a flag that cannot apply: `--think-ms` without
    /// `--clients`; `--clients`, `--think-ms`, `--tenants` or `--seed`
    /// with `--trace-in` (a replayed trace carries its own arrivals and
    /// tenant assignments); `--tenants` with `--trace-out` (the written
    /// trace is the scenario's own traffic); and `--summary` with
    /// `--json -` (the JSON replaces the text output).
    pub fn parse_from(
        args: impl IntoIterator<Item = String>,
        binary: &str,
        budget_scope: &str,
        fleet_flags: bool,
        print_scenarios: impl Fn(),
    ) -> Result<SimFlags, String> {
        let mut flags = SimFlags {
            scenario: "all".to_owned(),
            seed: None,
            json: None,
            kv_budget: None,
            clients: None,
            think_ms: 10.0,
            fault_seed: None,
            faults: None,
            autoscale: None,
            perf_json: None,
            trace: None,
            trace_filter: None,
            metrics_csv: None,
            summary: false,
            tenants: None,
            trace_in: None,
            trace_out: None,
        };
        let mut think_ms_set = false;
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next().ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--scenario" => flags.scenario = value("--scenario")?,
                "--seed" => {
                    flags.seed = Some(
                        value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?,
                    );
                }
                "--workers" => {
                    let n: usize = value("--workers")?
                        .parse()
                        .map_err(|e| format!("bad --workers: {e}"))?;
                    // The sweep pool reads CIMTPU_WORKERS; the flag
                    // overrides it.
                    std::env::set_var("CIMTPU_WORKERS", n.max(1).to_string());
                }
                "--json" => flags.json = Some(value("--json")?),
                "--kv-budget" => {
                    flags.kv_budget = Some(
                        parse_kv_budget(&value("--kv-budget")?).map_err(|e| e.to_string())?,
                    );
                }
                "--clients" => {
                    let clients: u64 = value("--clients")?
                        .parse()
                        .map_err(|e| format!("bad --clients: {e}"))?;
                    if clients == 0 {
                        return Err("bad --clients: closed loop needs >= 1 client".into());
                    }
                    flags.clients = Some(clients);
                }
                "--think-ms" => {
                    flags.think_ms = value("--think-ms")?
                        .parse()
                        .map_err(|e| format!("bad --think-ms: {e}"))?;
                    if !(flags.think_ms.is_finite() && flags.think_ms >= 0.0) {
                        return Err(format!(
                            "bad --think-ms: {} is not a finite, non-negative time",
                            flags.think_ms
                        ));
                    }
                    think_ms_set = true;
                }
                "--fault-seed" if fleet_flags => {
                    flags.fault_seed = Some(
                        value("--fault-seed")?
                            .parse()
                            .map_err(|e| format!("bad --fault-seed: {e}"))?,
                    );
                }
                "--faults" if fleet_flags => flags.faults = Some(value("--faults")?),
                "--autoscale" if fleet_flags => {
                    flags.autoscale = Some(value("--autoscale")?);
                }
                "--perf-json" if fleet_flags => {
                    flags.perf_json = Some(value("--perf-json")?);
                }
                "--trace" if fleet_flags => flags.trace = Some(value("--trace")?),
                "--trace-filter" if fleet_flags => {
                    let filter = TraceFilter::parse(&value("--trace-filter")?)
                        .map_err(|e| format!("bad --trace-filter: {e}"))?;
                    flags.trace_filter = Some(filter);
                }
                "--metrics-csv" if fleet_flags => {
                    flags.metrics_csv = Some(value("--metrics-csv")?);
                }
                "--summary" if fleet_flags => flags.summary = true,
                "--tenants" => {
                    flags.tenants =
                        Some(parse_tenants(&value("--tenants")?).map_err(|e| e.to_string())?);
                }
                "--trace-in" => flags.trace_in = Some(value("--trace-in")?),
                "--trace-out" => flags.trace_out = Some(value("--trace-out")?),
                "--help" | "-h" => {
                    let fault_usage = if fleet_flags {
                        " [--fault-seed N] [--faults SPEC] [--autoscale SPEC] \
                         [--perf-json PATH] [--trace PATH] [--trace-filter SPEC] \
                         [--metrics-csv PATH] [--summary]"
                    } else {
                        ""
                    };
                    println!(
                        "usage: {binary} [--scenario NAME|all] [--seed N] [--workers N] \
                         [--json PATH] [--kv-budget BUDGET] [--clients N] \
                         [--think-ms MS] [--tenants SPEC] [--trace-in PATH] \
                         [--trace-out PATH]{fault_usage}"
                    );
                    println!(
                        "  --kv-budget BUDGET   override {budget_scope} KV budget: 'unlimited',"
                    );
                    println!(
                        "                       'hbm', or bytes with KiB/MiB/GiB/TiB suffix \
                         (e.g. 1GiB)"
                    );
                    println!(
                        "  --clients N          convert traffic to closed loop with N clients"
                    );
                    println!(
                        "  --think-ms MS        closed-loop think time (needs --clients; \
                         default 10)"
                    );
                    println!(
                        "  --tenants SPEC       split traffic across SLO tenants and schedule \
                         weighted-fair:"
                    );
                    println!(
                        "                       comma-separated name=class[:weight[:slo_ms]] \
                         (class: interactive,"
                    );
                    println!(
                        "                       standard, or batch; weight defaults to 1), \
                         e.g. 'chat=interactive:3,bulk=batch'"
                    );
                    println!(
                        "  --trace-in PATH      replay the JSONL request trace at PATH as each \
                         scenario's traffic"
                    );
                    println!(
                        "  --trace-out PATH     write each scenario's synthesized traffic as a \
                         JSONL trace and exit"
                    );
                    println!(
                        "  every SPEC reads times (150ms, 2s), windows (<t>-<t>), bands (LO..HI), \
                         factors (x<f>)"
                    );
                    println!(
                        "                       and byte sizes alike: the shared tokens of \
                         cimtpu_units::spec"
                    );
                    if fleet_flags {
                        println!(
                            "  --perf-json PATH     also write wall-clock driver-throughput \
                             records"
                        );
                        println!(
                            "                       (machine-dependent; kept out of the \
                             --json baseline)"
                        );
                        println!(
                            "  --fault-seed N       reseed each scenario's fault plan \
                             (chaos draws redraw; explicit events stand)"
                        );
                        println!(
                            "                       (rejected when no selected plan has \
                             chaos draws)"
                        );
                        println!(
                            "  --faults SPEC        replace each scenario's fault plan: \
                             comma-separated"
                        );
                        println!(
                            "                       'crash@<t>:<replica>[:repair=<t>]', \
                             'straggler@<from>-<until>:<replica>:x<f>',"
                        );
                        println!(
                            "                       'link@<from>-<until>:x<f>[:energy=x<f>]' \
                             (times take an s/ms suffix)"
                        );
                        println!(
                            "  --autoscale SPEC     install an autoscale policy on each \
                             scenario: comma-separated"
                        );
                        println!(
                            "                       'interval=1s', 'provision=2s', \
                             'warmup=500ms', 'idle-w=30', 'conc=4',"
                        );
                        println!(
                            "                       'replicas=LO..HI' (every group), \
                             'group<K>=LO..HI', 'init=N', 'up=0.75',"
                        );
                        println!(
                            "                       'down=0.25', 'up-cd=2s', 'down-cd=5s', \
                             'slo-floor=0.9', 'swap'"
                        );
                        println!(
                            "  --trace PATH         attach the flight recorder and write a \
                             Chrome trace-event"
                        );
                        println!(
                            "                       JSON file per scenario (Perfetto-loadable; \
                             runs sequentially)"
                        );
                        println!(
                            "  --trace-filter SPEC  keep only these comma-separated event \
                             kinds in --trace"
                        );
                        println!(
                            "                       (e.g. 'crash,retry,scale_up')"
                        );
                        println!(
                            "  --metrics-csv PATH   write downsampled gauge series as CSV \
                             (scenario,series,t_s,value)"
                        );
                        println!(
                            "  --summary            one-screen per-scenario table instead of \
                             full reports"
                        );
                    }
                    println!("scenarios:");
                    print_scenarios();
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if think_ms_set && flags.clients.is_none() {
            return Err("--think-ms needs --clients (it sets the closed-loop think time)".into());
        }
        if flags.trace_filter.is_some() && flags.trace.is_none() {
            return Err("--trace-filter needs --trace (it filters the trace export)".into());
        }
        // A replayed trace carries its own arrivals and tenant assignments,
        // so there is no base traffic left to reshape or reseed; a written
        // trace is the scenario's own traffic, which `--tenants` never
        // reaches; and `--json -` replaces the text output the summary
        // table would print.
        let (replay, synth) = (flags.trace_in.is_some(), flags.trace_out.is_some());
        let clashes = [
            ("--clients", "--trace-in", flags.clients.is_some() && replay),
            ("--tenants", "--trace-in", flags.tenants.is_some() && replay),
            ("--seed", "--trace-in", flags.seed.is_some() && replay),
            ("--tenants", "--trace-out", flags.tenants.is_some() && synth),
            ("--summary", "--json -", flags.summary && flags.json.as_deref() == Some("-")),
        ];
        if let Some((flag, other, _)) = clashes.iter().find(|clash| clash.2) {
            return Err(format!("{flag} cannot be combined with {other}"));
        }
        Ok(flags)
    }
}

/// Ends a simulation binary with its `run` outcome: status 0, status 1
/// when a scenario or an output write failed (`Ok(true)`; the failures
/// were reported as they happened), or status 2 with `binary: message`
/// on stderr for a command line that cannot run.
pub fn finish(binary: &str, outcome: Result<bool, String>) {
    match outcome {
        Ok(false) => {}
        Ok(true) => std::process::exit(1),
        Err(e) => {
            eprintln!("{binary}: {e}");
            std::process::exit(2);
        }
    }
}

/// Derives the per-scenario output path when several scenarios share one
/// `--trace` / `--trace-out` argument: `out.json` → `out.<scenario>.json`
/// (extensionless paths get the scenario appended).
pub fn per_scenario_path(base: &str, scenario: &str) -> String {
    let p = std::path::Path::new(base);
    match (p.file_stem().and_then(|s| s.to_str()), p.extension().and_then(|e| e.to_str())) {
        (Some(stem), Some(ext)) => p
            .with_file_name(format!("{stem}.{scenario}.{ext}"))
            .to_string_lossy()
            .into_owned(),
        _ => format!("{base}.{scenario}"),
    }
}

/// Implements `--trace-out` for the simulation binaries: synthesizes each
/// named traffic spec ([`synthesize`](crate::synthesize)) and writes it
/// as a JSONL request trace. With several scenarios selected, the
/// scenario name is inserted before the extension
/// ([`per_scenario_path`]). Returns whether anything failed.
pub fn emit_traces(binary: &str, path: &str, traffics: &[(&str, crate::TrafficSpec)]) -> bool {
    let mut failed = false;
    for (name, spec) in traffics {
        let body = match crate::synthesize(spec) {
            Ok(records) => crate::to_jsonl(&records),
            Err(e) => {
                eprintln!("{binary}: {name}: {e}");
                failed = true;
                continue;
            }
        };
        let target = if traffics.len() > 1 {
            per_scenario_path(path, name)
        } else {
            path.to_owned()
        };
        if let Err(e) = std::fs::write(&target, body) {
            eprintln!("{binary}: writing {target}: {e}");
            failed = true;
        }
    }
    failed
}

/// Prints the text reports and, with `--json`, writes them as pretty
/// JSON (`-` replaces the text output with JSON on stdout). Returns
/// whether writing failed.
#[allow(clippy::ptr_arg)] // the vendored serde implements Serialize for Vec, not slices
pub fn emit_reports<R: std::fmt::Display + Serialize>(
    binary: &str,
    reports: &Vec<R>,
    json: Option<&str>,
) -> bool {
    let payload = json.map(|path| {
        (path, serde_json::to_string_pretty(&reports).expect("reports serialize"))
    });
    match payload {
        Some(("-", payload)) => {
            println!("{payload}");
            false
        }
        Some((path, payload)) => {
            let failed = if let Err(e) = std::fs::write(path, payload + "\n") {
                eprintln!("{binary}: writing {path}: {e}");
                true
            } else {
                false
            };
            for report in reports {
                println!("{report}");
            }
            failed
        }
        None => {
            for report in reports {
                println!("{report}");
            }
            false
        }
    }
}

/// Prints one `prefix cache [scenario]  …` counter line per
/// prefix-sharing run, after the text reports. Callers pass only runs
/// that actually looked prefixes up, so sharing-off output is unchanged;
/// skipped entirely when `--json -` replaced the text output on stdout.
/// The CI `smoke-prefix` check greps this exact format — keep the two
/// binaries emitting it through this one function.
pub fn emit_prefix_stats(lines: &[(&str, PrefixStats)], json: Option<&str>) {
    if json == Some("-") {
        return;
    }
    for (name, stats) in lines {
        println!("prefix cache [{name}]  {stats}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SimFlags, String> {
        SimFlags::parse_from(args.iter().map(|a| (*a).to_owned()), "sim", "the", true, || {})
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
        assert_eq!(parse(&["--clients", "1", "--think-ms", "0"]).unwrap().think_ms, 0.0);
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
        assert!(filter.allows(crate::EventKind::Crash) && !filter.allows(crate::EventKind::Retry));
    }

    #[test]
    fn spec_flags_parse_as_they_are_read() {
        let flags = parse(&["--tenants", "chat=interactive:3,bulk=batch"]).unwrap();
        let names: Vec<String> = flags.tenants.unwrap().into_iter().map(|t| t.name).collect();
        assert_eq!(names, ["chat", "bulk"]);
        let err = parse(&["--tenants", "garbage"]).unwrap_err();
        assert!(err.contains("tenant entry 'garbage'"), "{err}");
        let err = parse(&["--trace", "t.json", "--trace-filter", "bogus"]).unwrap_err();
        assert!(err.starts_with("bad --trace-filter: unknown trace event type"), "{err}");
    }

    #[test]
    fn inapplicable_flags_are_rejected() {
        let clashes: [(&[&str], &str, &str); 3] = [
            (&["--trace-in", "t.jsonl", "--seed", "3"], "--seed", "--trace-in"),
            (&["--tenants", "a=batch", "--trace-out", "t.jsonl"], "--tenants", "--trace-out"),
            (&["--json", "-", "--summary"], "--summary", "--json -"),
        ];
        for (args, flag, other) in clashes {
            assert_eq!(parse(args).unwrap_err(), format!("{flag} cannot be combined with {other}"));
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
            assert_eq!(err, format!("{} cannot be combined with --trace-in", clash[0]));
        }
        // Flag order does not matter, and flags that leave the traffic
        // alone still combine with a replay.
        let err = parse(&["--clients", "2", "--trace-in", "t.jsonl"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        assert!(parse(&["--trace-in", "t.jsonl", "--kv-budget", "1GiB"]).is_ok());
    }
}
