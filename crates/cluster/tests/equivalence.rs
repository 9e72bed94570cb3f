//! The cluster bit-exactness anchor: a 1-replica colocated cluster with
//! the pass-through router must reproduce the corresponding single-engine
//! `ServingReport` **field-by-field** in its `ClusterReport` (floats as
//! bits) and the completion records bit-for-bit — for all three batching
//! policies and for both open- and closed-loop traffic. This is what
//! certifies that the fleet layer adds routing and aggregation, not new
//! scheduling semantics.

use cimtpu_cluster::{ClusterEngine, ClusterRun, ReplicaSpec, RouterPolicy};
use cimtpu_core::TpuConfig;
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LatencyStats, LenDist, MemoryConfig, Parallelism, PrefixTraffic,
    ServingEngine, ServingModel, ServingRun, TrafficSpec,
};
use cimtpu_units::Bytes;

fn tiny() -> ServingModel {
    ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap())
}

fn policies() -> [BatchPolicy; 3] {
    [
        BatchPolicy::Static { batch: 2 },
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait_ms: 2.0,
        },
        BatchPolicy::Continuous { max_batch: 4 },
    ]
}

fn traffics() -> [TrafficSpec; 2] {
    let base = TrafficSpec {
        requests: 10,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 400.0 },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 2, hi: 8 },
        prefix: PrefixTraffic::None,
        seed: 0xA11C,
    };
    [
        base.clone(),
        TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 3,
                think_ms: 5.0,
            },
            ..base
        },
    ]
}

fn bits(s: &LatencyStats) -> [u64; 5] {
    [s.p50_ms, s.p95_ms, s.p99_ms, s.mean_ms, s.max_ms].map(f64::to_bits)
}

/// Every `ServingReport` field of the single engine against its
/// `ClusterReport` counterpart, floats as bits, plus the completions.
fn assert_same(cluster: &ClusterRun, single: &ServingRun, label: &str) {
    let (c, s) = (&cluster.report, &single.report);
    assert_eq!(cluster.completions, single.completions, "{label}");
    assert_eq!(c.offered, s.offered, "{label}");
    assert_eq!(c.completed, s.completed, "{label}");
    assert_eq!(c.chips, s.chips, "{label}");
    let floats = [
        ("makespan_s", c.makespan_s, s.makespan_s),
        ("throughput_rps", c.throughput_rps, s.throughput_rps),
        ("steps_per_second", c.steps_per_second, s.steps_per_second),
        ("total_energy_j", c.total_energy_j, s.total_energy_j),
        (
            "energy_per_request_j",
            c.energy_per_request_j,
            s.energy_per_request_j,
        ),
        ("queue_full_s", c.queue_full_s, s.queue_full_s),
        ("kv_hwm_frac", c.per_replica[0].kv_hwm_frac, s.kv_hwm_frac),
    ];
    for (field, got, want) in floats {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{label}: {field} {got} vs {want}"
        );
    }
    assert_eq!(bits(&c.latency), bits(&s.latency), "{label}: latency");
    assert_eq!(bits(&c.ttft), bits(&s.ttft), "{label}: ttft");
    assert_eq!(c.preemptions, s.preemptions, "{label}");
    assert_eq!(c.per_replica.len(), 1, "{label}");
    assert_eq!(c.per_replica[0].requests, s.completed, "{label}");
}

fn assert_anchor(policy: BatchPolicy, traffic: &TrafficSpec, memory: MemoryConfig) {
    let label = format!(
        "anchor-{}-{}",
        policy.name(),
        match traffic.arrival {
            ArrivalPattern::ClosedLoop { .. } => "closed",
            _ => "open",
        }
    );
    let single = ServingEngine::new(
        TpuConfig::tpuv4i(),
        tiny(),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap()
    .with_memory(memory)
    .run(&label, traffic)
    .unwrap();

    let cluster = ClusterEngine::colocated(
        vec![ReplicaSpec::new(label.clone(), TpuConfig::tpuv4i(), tiny())
            .with_policy(policy)
            .with_memory(memory)],
        RouterPolicy::PassThrough,
    )
    .unwrap()
    .run(&label, traffic)
    .unwrap();

    assert_same(&cluster, &single, &label);
    assert_eq!(cluster.report.kv_transfers, 0, "{label}");
}

#[test]
fn one_replica_pass_through_reproduces_serving_bit_exactly() {
    for policy in policies() {
        for traffic in traffics() {
            assert_anchor(policy, &traffic, MemoryConfig::unlimited());
        }
    }
}

#[test]
fn anchor_holds_under_kv_pressure() {
    // A tight paged budget exercises admission control (and preemption
    // under continuous batching) on both sides of the anchor.
    let memory = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(64))
        .with_block_tokens(16);
    for policy in policies() {
        for traffic in traffics() {
            assert_anchor(policy, &traffic, memory);
        }
    }
}

#[test]
fn anchor_holds_for_multi_executor_replicas() {
    // A replica with two replicated executors behind pass-through equals
    // the 2-chip single engine.
    let traffic = traffics()[0].clone();
    let policy = BatchPolicy::Continuous { max_batch: 2 };
    let single = ServingEngine::new(
        TpuConfig::tpuv4i(),
        tiny(),
        Parallelism::Replicated { chips: 2 },
        policy,
    )
    .unwrap()
    .run("anchor-2chip", &traffic)
    .unwrap();
    let cluster = ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("anchor-2chip", TpuConfig::tpuv4i(), tiny())
                .with_policy(policy)
                .with_parallelism(Parallelism::Replicated { chips: 2 }),
        ],
        RouterPolicy::PassThrough,
    )
    .unwrap()
    .run("anchor-2chip", &traffic)
    .unwrap();
    assert_same(&cluster, &single, "anchor-2chip");
}
