//! `cluster_sim --fault-seed` only redraws chaos-generated crashes, so it
//! is rejected when no selected scenario's fault plan has a chaos spec.

use std::process::{Command, Output};

fn cluster_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cluster_sim"))
        .args(args)
        .output()
        .expect("cluster_sim runs")
}

#[test]
fn fault_seed_without_chaos_is_rejected() {
    for args in [
        &["--scenario", "cluster-day-smoke", "--fault-seed", "3"][..],
        // `--faults` replaces the chaos plan with explicit events, which a
        // seed does not redraw.
        &[
            "--scenario",
            "cluster-chaos-crash",
            "--faults",
            "crash@2ms:0",
            "--fault-seed",
            "3",
        ],
    ] {
        let out = cluster_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--fault-seed has nothing to redraw"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} simulated anyway");
    }
}

#[test]
fn fault_seed_on_a_chaos_scenario_is_accepted() {
    let args = [
        "--scenario",
        "cluster-chaos-crash",
        "--fault-seed",
        "3",
        "--summary",
    ];
    let out = cluster_sim(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn invalid_fault_values_are_rejected_before_simulating() {
    // Each event parses but is invalid on any fleet: a zero link factor,
    // a NaN slowdown, an empty window, a negative energy factor.
    for spec in [
        "link@0s-2s:x0",
        "straggler@1ms-3ms:r0:xnan",
        "straggler@2s-2s:r0:x2",
        "link@0s-2s:x0.5:energy=x-1",
    ] {
        let args = [
            "--scenario",
            "cluster-chaos-crash",
            "--faults",
            spec,
            "--summary",
        ];
        let out = cluster_sim(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("invalid fault spec"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} simulated anyway");
    }
}
