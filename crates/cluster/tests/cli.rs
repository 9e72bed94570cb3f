//! `cluster_sim` rejects flags that cannot apply to the run, before
//! simulating: exit status 2, the clash on stderr, nothing on stdout.
//! `--trace-out` writes exactly the traffic a run with the same `--seed`
//! serves, and a traced run serves what the untraced one does. A closed
//! stdout ends the output, not the run.

use std::process::{Command, Output, Stdio};

use cimtpu_cluster::scenario::{by_name, headline};
use cimtpu_cluster::ClusterReport;
use cimtpu_serving::{synthesize, to_jsonl, ArrivalPattern, TrafficSpec};

fn cluster_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cluster_sim"))
        .args(args)
        .output()
        .expect("cluster_sim runs")
}

fn assert_rejected(args: &[&str], clash: &str) {
    let out = cluster_sim(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, format!("cluster_sim: {clash}\n"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
}

fn tmp(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("utf-8 path").to_owned()
}

/// `--trace-out` writes the scenario's own traffic, which `--tenants`
/// would not reach; a malformed spec is refused as it is read.
#[test]
fn tenants_with_trace_out_is_rejected() {
    let path = tmp("cli_tenants.jsonl");
    let args = [
        "--scenario",
        "smoke-cluster",
        "--tenants",
        "a=interactive,b=batch",
        "--trace-out",
        &path,
    ];
    assert_rejected(&args, "--tenants cannot be combined with --trace-out");
    let args = [
        "--scenario",
        "smoke-cluster",
        "--tenants",
        "garbage",
        "--trace-out",
        &path,
    ];
    let bad = "invalid configuration: tenant entry 'garbage' is not name=class[:weight[:slo_ms]]";
    assert_rejected(&args, bad);
}

/// `--trace-out` reads only `--scenario`, `--seed` and `--trace-in`:
/// every other flag, the fleet-mode ones included, exits 2 and writes
/// nothing.
#[test]
fn trace_out_rejects_the_flags_it_does_not_read() {
    let path = tmp("cli_unread.jsonl");
    let _ = std::fs::remove_file(&path);
    for flag in [
        &["--kv-budget", "1MiB"][..],
        &["--json", "-"],
        &["--workers", "2"],
        &["--clients", "2"],
        &["--clients", "2", "--think-ms", "1"],
        &["--faults", "crash@1ms:0"],
        &["--fault-seed", "3"],
        &["--autoscale", "replicas=1..2"],
        &["--perf-json", "p.json"],
        &["--summary"],
        &["--trace", "t.json"],
        &["--metrics-csv", "m.csv"],
    ] {
        let mut args = vec!["--scenario", "smoke-cluster", "--trace-out", &path];
        args.extend_from_slice(flag);
        assert_rejected(
            &args,
            &format!("{} cannot be combined with --trace-out", flag[0]),
        );
        assert!(
            !std::path::Path::new(&path).exists(),
            "{args:?} wrote a trace"
        );
    }
}

/// A replayed trace carries its own arrivals and tenants: the flags that
/// reshape or reseed the traffic exit 2 with `--trace-in`.
#[test]
fn trace_in_rejects_the_flags_it_overrides() {
    for flag in [
        &["--seed", "3"][..],
        &["--clients", "2"],
        &["--tenants", "a=batch"],
    ] {
        let mut args = vec!["--scenario", "smoke-cluster", "--trace-in", "t.jsonl"];
        args.extend_from_slice(flag);
        assert_rejected(
            &args,
            &format!("{} cannot be combined with --trace-in", flag[0]),
        );
    }
}

/// A `--tenants` overlay that cannot split a selected scenario's traffic
/// fails the command line before any scenario runs, as in `serve_sim`.
#[test]
fn tenant_overlay_failures_exit_before_running() {
    let spec = "a=batch,b=batch,c=batch,d=batch,e=batch,f=batch,g=batch";
    let bad = "smoke-cluster: invalid configuration: cannot split 6 requests across 7 tenants";
    assert_rejected(&["--scenario", "smoke-cluster", "--tenants", spec], bad);
    // The headline set holds closed-loop traffic, which an overlay
    // cannot merge: nothing runs.
    let bad = "closed-loop-c2: invalid configuration: tenant 'a' uses closed-loop traffic, \
               which cannot be merged into a trace (arrivals depend on service progress)";
    assert_rejected(&["--tenants", "a=interactive,b=batch"], bad);
    let bad = "invalid configuration: duplicate tenant name 'a'";
    assert_rejected(
        &[
            "--scenario",
            "smoke-cluster",
            "--tenants",
            "a=batch,a=interactive",
        ],
        bad,
    );
}

/// The one seed rule: `--trace-out` writes the scenario's traffic with
/// `--seed` replacing its own, and a multi-tenant scenario's merged
/// trace with every tenant reseeded.
#[test]
fn trace_out_writes_the_offered_traffic() {
    for name in ["smoke-cluster", "cluster-noisy-neighbor"] {
        let s = by_name(name).unwrap();
        for seed in [None, Some(11)] {
            let path = tmp(&format!("cli_offered_{name}_{seed:?}.jsonl"));
            let mut args = vec!["--scenario", name, "--trace-out", &path];
            let seed_arg = seed.map(|s: u64| s.to_string());
            if let Some(seed) = &seed_arg {
                args.extend(["--seed", seed]);
            }
            let out = cluster_sim(&args);
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let offered = match (&s.tenants, seed) {
                (Some(set), Some(seed)) => set.with_seed(seed).merged_spec().unwrap(),
                (Some(set), None) => set.merged_spec().unwrap(),
                (None, _) => TrafficSpec {
                    seed: seed.unwrap_or(s.traffic.seed),
                    ..s.traffic.clone()
                },
            };
            let want = to_jsonl(&synthesize(&offered).unwrap());
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                want,
                "{name} seed {seed:?}"
            );
        }
    }
}

/// A traced run follows the seed rule: `--seed 7 --trace T` reports
/// what `--seed 7` alone does, plus the recorder's `timeseries`.
#[test]
fn traced_run_follows_the_seed_rule() {
    let trace = tmp("cli_seeded_trace.json");
    let _ = std::fs::remove_file(&trace);
    let base = [
        "--scenario",
        "cluster-chaos-crash",
        "--seed",
        "7",
        "--json",
        "-",
    ];
    let reports = |args: &[&str]| -> Vec<ClusterReport> {
        let out = cluster_sim(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(out.stderr.is_empty(), "{args:?}");
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("report JSON")
    };
    let plain = reports(&base);
    let mut traced = reports(&[&base[..], &["--trace", &trace]].concat());
    assert!(std::path::Path::new(&trace).is_file(), "trace written");
    for report in &mut traced {
        assert!(report.timeseries.take().is_some(), "{}", report.label);
    }
    assert_eq!(traced, plain);
    let unseeded = reports(&["--scenario", "cluster-chaos-crash", "--json", "-"]);
    assert_ne!(unseeded, plain, "seed 7 changes the offered load");
}

/// The trace files `--trace-out` wrote into the fresh directory `dir`.
fn written(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Closed-loop arrivals depend on service progress, so they have no
/// trace. Without `--scenario`, `--trace-out` writes one file per
/// open-loop headline scenario, names each closed-loop one on stderr and
/// exits 0; naming a closed-loop scenario exits 2 and writes nothing.
#[test]
fn trace_out_skips_or_rejects_closed_loop_scenarios() {
    let dir = std::path::PathBuf::from(tmp("cluster_sim_trace_out_all"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("t.jsonl");
    let out = cluster_sim(&["--trace-out", base.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(out.stdout.is_empty());
    let (closed, open): (Vec<_>, Vec<_>) = headline()
        .into_iter()
        .partition(|s| matches!(s.traffic.arrival, ArrivalPattern::ClosedLoop { .. }));
    assert!(!closed.is_empty() && !open.is_empty());
    let skipped: String = closed
        .iter()
        .map(|s| {
            format!(
                "cluster_sim: skipped {}: closed-loop traffic cannot be synthesized into a trace\n",
                s.name
            )
        })
        .collect();
    assert_eq!(stderr, skipped);
    let mut want: Vec<String> = open.iter().map(|s| format!("t.{}.jsonl", s.name)).collect();
    want.sort();
    assert_eq!(written(&dir), want);

    let path = tmp("cli_closed_loop.jsonl");
    let _ = std::fs::remove_file(&path);
    let args = ["--scenario", closed[0].name, "--trace-out", &path];
    let why = format!(
        "{}: closed-loop traffic cannot be synthesized into a trace",
        closed[0].name
    );
    assert_rejected(&args, &why);
    assert!(!std::path::Path::new(&path).exists());
}

/// A replayed trace carries its own arrivals: a seed would change nothing.
#[test]
fn seed_with_trace_in_is_rejected() {
    let path = tmp("cli_seed.jsonl");
    let out = cluster_sim(&["--scenario", "smoke-cluster", "--trace-out", &path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay = [
        "--scenario",
        "smoke-cluster",
        "--trace-in",
        &path,
        "--summary",
    ];
    assert!(cluster_sim(&replay).status.success());
    let mut seeded = replay.to_vec();
    seeded.extend(["--seed", "7"]);
    assert_rejected(&seeded, "--seed cannot be combined with --trace-in");
}

/// `--json -` replaces the text output, so there is no summary to print.
/// A run needs at least one worker: `--workers 0` is refused, not
/// quietly run on one.
#[test]
fn zero_workers_is_rejected() {
    assert_rejected(
        &["--scenario", "smoke-cluster", "--workers", "0"],
        "--workers needs a positive integer",
    );
}

#[test]
fn summary_with_json_stdout_is_rejected() {
    let args = ["--scenario", "smoke-cluster", "--summary", "--json", "-"];
    assert_rejected(&args, "--summary cannot be combined with --json -");
}

/// `cluster_sim args` with stdout on a pipe whose reader is gone, as
/// under `| head` once `head` has exited.
fn cluster_sim_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_cluster_sim"))
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("cluster_sim runs")
}

/// A reader that closed the pipe is not an error: exit 0, nothing on
/// stderr, and the files the command line names are still written.
#[test]
fn closed_stdout_exits_cleanly() {
    let perf = tmp("cli_closed_perf.json");
    let runs: [&[&str]; 3] = [
        &["--help"],
        &["--scenario", "smoke-cluster", "--perf-json", &perf],
        &["--scenario", "smoke-cluster", "--summary"],
    ];
    for args in runs {
        let out = cluster_sim_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    let records = std::fs::read_to_string(&perf).expect("--perf-json written");
    assert!(
        records.contains("\"label\": \"smoke-cluster\""),
        "{records}"
    );
}
