//! Shared pricing is invisible in the output.
//!
//! A fleet run builds one pricing state (simulator, `MappingCache`,
//! segment and phase memos) per distinct chip × model × chip
//! organization, and every core of that configuration — including cores
//! rebuilt at elastic boots and crash restarts — prices through it. Each
//! test runs a fleet twice: once as written, where the replicas share one
//! state, and once with every replica's chip given a distinct name, which
//! prices identically but gives each replica a private state. Completions
//! and reports must agree bit for bit.

use cimtpu_autoscale::{AutoscalePolicy, GroupPolicy};
use cimtpu_cluster::{
    ClusterEngine, ClusterRun, FaultEvent, FaultPlan, InterconnectSpec, ReplicaSpec, RouterPolicy,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel, TrafficSpec,
};
use cimtpu_units::Seconds;

/// A tiny continuous-batching replica; `private` renames its chip so it
/// cannot share a pricing state with any other replica.
fn replica(name: &str, private: bool) -> ReplicaSpec {
    let chip = if private {
        TpuConfig::tpuv4i().with_name(format!("tpuv4i for {name}"))
    } else {
        TpuConfig::tpuv4i()
    };
    ReplicaSpec::new(
        name,
        chip,
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer()),
    )
    .with_policy(BatchPolicy::Continuous { max_batch: 4 })
}

fn replicas(names: &[&str], private: bool) -> Vec<ReplicaSpec> {
    names.iter().map(|n| replica(n, private)).collect()
}

fn traffic(requests: u64, arrival: ArrivalPattern) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival,
        prompt: LenDist::Uniform { lo: 16, hi: 64 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed: 11,
    }
}

fn assert_same(shared: &ClusterRun, private: &ClusterRun, label: &str) {
    assert_eq!(
        shared.completions, private.completions,
        "{label}: completions diverged"
    );
    assert_eq!(shared.report, private.report, "{label}: report diverged");
    assert_eq!(shared.report.completed, shared.report.offered, "{label}");
}

#[test]
fn elastic_reboots_match_private_pricing() {
    // Three single-slot groups that scale to zero and wake again: every
    // wake boots a fresh core on the slot's pricing state.
    let group = GroupPolicy {
        min: 0,
        max: 1,
        initial: 1,
        concurrency: 4,
        scale_up_above: 0.75,
        scale_down_below: 0.25,
        up_cooldown: Seconds::new(0.001),
        down_cooldown: Seconds::new(0.002),
        slo_floor: 0.0,
    };
    let policy = AutoscalePolicy {
        interval: Seconds::new(0.001),
        provision: Seconds::new(0.001),
        warmup: Seconds::new(0.000_5),
        ..AutoscalePolicy::new(vec![group; 3])
    };
    let traffic = traffic(
        1_500,
        ArrivalPattern::Diurnal {
            peak_rps: 24_000.0,
            day_s: 0.24,
            burst_x: 2.0,
            bursts: 1,
        },
    );
    let run = |private: bool| {
        ClusterEngine::colocated(
            replicas(&["a", "b", "c"], private),
            RouterPolicy::LeastOutstanding,
        )
        .unwrap()
        .with_autoscale(policy.clone())
        .run("elastic", &traffic)
        .unwrap()
    };
    let shared = run(false);
    let scaling = shared
        .report
        .scaling
        .as_ref()
        .expect("elastic runs report scaling");
    assert!(
        scaling.scale_to_zero >= 1 && scaling.scale_ups >= 1,
        "no reboot: {scaling:?}"
    );
    assert_same(&shared, &run(true), "elastic");
}

#[test]
fn colocated_crash_restart_matches_private_pricing() {
    // Replica 0 crashes mid-run and restarts on a fresh core.
    let plan = FaultPlan::none().with_event(FaultEvent::Crash {
        at: Seconds::new(0.000_5),
        replica: 0,
        repair: Seconds::new(0.001),
    });
    let traffic = traffic(200, ArrivalPattern::OpenLoop { rate_rps: 20_000.0 });
    let run = |private: bool| {
        ClusterEngine::colocated(
            replicas(&["r-0", "r-1", "r-2"], private),
            RouterPolicy::RoundRobin,
        )
        .unwrap()
        .with_faults(plan.clone())
        .run("crash", &traffic)
        .unwrap()
    };
    let shared = run(false);
    let avail = shared
        .report
        .availability
        .as_ref()
        .expect("fault runs report availability");
    assert_eq!(avail.crashes, 1);
    assert_same(&shared, &run(true), "crash restart");
}

#[test]
fn disaggregated_pools_match_private_pricing() {
    // Prefill and decode pools share one chip × model, so the shared run
    // prices both pools through a single state.
    let traffic = traffic(200, ArrivalPattern::OpenLoop { rate_rps: 20_000.0 });
    let run = |private: bool| {
        ClusterEngine::disaggregated(
            replicas(&["p-0", "p-1"], private),
            replicas(&["d-0", "d-1", "d-2"], private),
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastKv,
            InterconnectSpec::ici(),
        )
        .unwrap()
        .run("disagg", &traffic)
        .unwrap()
    };
    let shared = run(false);
    assert!(shared.report.kv_transfers > 0);
    assert_same(&shared, &run(true), "disagg");
}
