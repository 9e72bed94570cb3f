//! `serve_sim` rejects flags that cannot apply to the run, before
//! simulating: exit status 2, the clash on stderr, nothing on stdout.
//! `--trace-out` writes exactly the traffic a run with the same `--seed`
//! serves. A closed stdout ends the output, not the run.

use std::process::{Command, Output, Stdio};

use cimtpu_serving::scenario;
use cimtpu_serving::{synthesize, to_jsonl, ArrivalPattern, TrafficSpec};

fn serve_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_serve_sim"))
        .args(args)
        .output()
        .expect("serve_sim runs")
}

fn assert_rejected(args: &[&str], clash: &str) {
    let out = serve_sim(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, format!("serve_sim: {clash}\n"), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
}

fn tmp(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    path.to_str().expect("utf-8 path").to_owned()
}

/// A run needs at least one worker: `--workers 0` is refused, not
/// quietly run on one.
#[test]
fn zero_workers_is_rejected() {
    assert_rejected(
        &["--scenario", "smoke", "--workers", "0"],
        "--workers needs a positive integer",
    );
}

/// `--trace-out` writes the scenario's own traffic, which `--tenants`
/// would not reach; a malformed spec is refused as it is read.
#[test]
fn tenants_with_trace_out_is_rejected() {
    let path = tmp("serve_cli_tenants.jsonl");
    let args = [
        "--scenario",
        "smoke",
        "--tenants",
        "a=interactive,b=batch",
        "--trace-out",
        &path,
    ];
    assert_rejected(&args, "--tenants cannot be combined with --trace-out");
    let args = [
        "--scenario",
        "smoke",
        "--tenants",
        "garbage",
        "--trace-out",
        &path,
    ];
    let bad = "invalid configuration: tenant entry 'garbage' is not name=class[:weight[:slo_ms]]";
    assert_rejected(&args, bad);
}

/// `--trace-out` reads only `--scenario`, `--seed` and `--trace-in`:
/// every other flag exits 2 and writes nothing.
#[test]
fn trace_out_rejects_the_flags_it_does_not_read() {
    let path = tmp("serve_cli_unread.jsonl");
    let _ = std::fs::remove_file(&path);
    for flag in [
        &["--kv-budget", "1MiB"][..],
        &["--json", "-"],
        &["--workers", "2"],
        &["--clients", "2"],
        &["--clients", "2", "--think-ms", "1"],
    ] {
        let mut args = vec!["--scenario", "smoke", "--trace-out", &path];
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

/// Fleet-mode flags are unknown to the single-engine binary.
#[test]
fn fleet_flags_are_unknown() {
    for flag in [
        &["--fault-seed", "3"][..],
        &["--faults", "crash@1ms:0"],
        &["--autoscale", "replicas=1..2"],
        &["--perf-json", "p.json"],
        &["--trace", "t.json"],
        &["--trace-filter", "crash"],
        &["--metrics-csv", "m.csv"],
        &["--summary"],
    ] {
        let mut args = vec!["--scenario", "smoke"];
        args.extend_from_slice(flag);
        assert_rejected(&args, &format!("unknown argument {}", flag[0]));
    }
}

/// A `--tenants` overlay that cannot split a selected scenario's traffic
/// fails the command line before any scenario runs.
#[test]
fn tenant_overlay_failures_exit_before_running() {
    let spec = "a=batch,b=batch,c=batch,d=batch,e=batch,f=batch,g=batch";
    let bad = "smoke: invalid configuration: cannot split 6 requests across 7 tenants";
    assert_rejected(&["--scenario", "smoke", "--tenants", spec], bad);
    // The headline set holds prefix traffic, which an overlay cannot
    // merge: nothing runs.
    let bad = "llm-shared-prefix: invalid configuration: tenant 'a' uses prefix traffic; \
               the merged trace re-ids requests, so per-tenant prefix traffic is not supported";
    assert_rejected(&["--tenants", "a=interactive,b=batch"], bad);
    let bad = "invalid configuration: duplicate tenant name 'a'";
    assert_rejected(
        &["--scenario", "smoke", "--tenants", "a=batch,a=interactive"],
        bad,
    );
}

/// Without `--scenario`, `--trace-out` writes one file per headline
/// scenario and exits 0. Closed-loop traffic has no trace, but no
/// `serve_sim` scenario is closed-loop (and `--clients` cannot be
/// combined with `--trace-out`), so nothing is skipped or rejected here.
#[test]
fn trace_out_writes_every_headline_scenario() {
    let dir = std::path::PathBuf::from(tmp("serve_sim_trace_out_all"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("t.jsonl");
    let out = serve_sim(&["--trace-out", base.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stdout.is_empty() && out.stderr.is_empty());
    let mut catalogue = scenario::headline().into_iter().chain(scenario::checks());
    assert!(!catalogue.any(|s| matches!(s.traffic.arrival, ArrivalPattern::ClosedLoop { .. })));
    let mut want: Vec<String> = scenario::headline()
        .iter()
        .map(|s| format!("t.{}.jsonl", s.name))
        .collect();
    want.sort();
    let mut got: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    got.sort();
    assert_eq!(got, want);
}

/// The one seed rule: `--trace-out` writes the scenario's traffic with
/// `--seed` replacing its own.
#[test]
fn trace_out_writes_the_offered_traffic() {
    let base = scenario::by_name("smoke").unwrap().traffic;
    for seed in [None, Some(11)] {
        let path = tmp(&format!("serve_cli_offered_{seed:?}.jsonl"));
        let mut args = vec!["--scenario", "smoke", "--trace-out", &path];
        let seed_arg = seed.map(|s: u64| s.to_string());
        if let Some(seed) = &seed_arg {
            args.extend(["--seed", seed]);
        }
        let out = serve_sim(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let offered = TrafficSpec {
            seed: seed.unwrap_or(base.seed),
            ..base.clone()
        };
        let want = to_jsonl(&synthesize(&offered).unwrap());
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            want,
            "seed {seed:?}"
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
        let mut args = vec!["--scenario", "smoke", "--trace-in", "t.jsonl"];
        args.extend_from_slice(flag);
        assert_rejected(
            &args,
            &format!("{} cannot be combined with --trace-in", flag[0]),
        );
    }
}

/// A replayed trace carries its own arrivals: a seed would change nothing.
#[test]
fn seed_with_trace_in_is_rejected() {
    let path = tmp("serve_cli_seed.jsonl");
    let out = serve_sim(&["--scenario", "smoke", "--trace-out", &path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let replay = ["--scenario", "smoke", "--trace-in", &path];
    assert!(serve_sim(&replay).status.success());
    let mut seeded = replay.to_vec();
    seeded.extend(["--seed", "7"]);
    assert_rejected(&seeded, "--seed cannot be combined with --trace-in");
}

/// A reader that closed the pipe (`| head` once `head` has exited) is not
/// an error: exit 0, nothing on stderr, and `--json PATH` still written.
#[test]
fn closed_stdout_exits_cleanly() {
    let json = tmp("serve_cli_closed.json");
    let runs: [&[&str]; 3] = [
        &["--help"],
        &["--scenario", "smoke", "--json", &json],
        &["--scenario", "smoke", "--json", "-"],
    ];
    for args in runs {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
            .args(args)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("serve_sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    let report = std::fs::read_to_string(&json).expect("--json written");
    assert!(report.contains("\"label\": \"smoke\""), "{report}");
}
