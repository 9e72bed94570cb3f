//! `serve_sim` rejects flags that cannot apply to the run, before
//! simulating: exit status 2, the clash on stderr, nothing on stdout.

use std::process::{Command, Output};

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
