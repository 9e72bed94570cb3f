//! Fleet-level behavior: routing spreads load, replicas scale
//! throughput, disaggregation hands KV over the interconnect, and the
//! CLI-facing KV-budget override reaches every replica.

use cimtpu_cluster::{ClusterEngine, InterconnectSpec, ReplicaSpec, RouterPolicy};
use cimtpu_core::TpuConfig;
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, KvBudget, LenDist, MemoryConfig, Parallelism, PrefixTraffic,
    ServingEngine, ServingModel, TrafficSpec,
};
use cimtpu_units::{Bandwidth, Bytes, Error, Seconds};

fn tiny() -> ServingModel {
    ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap())
}

fn replica(name: &str) -> ReplicaSpec {
    ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny())
        .with_policy(BatchPolicy::Continuous { max_batch: 4 })
}

fn traffic(requests: u64) -> TrafficSpec {
    TrafficSpec {
        requests,
        // Arrivals land within a few tiny-model service times of each
        // other, so service capacity (not the arrival rate) is the
        // bottleneck and routing decisions actually matter.
        arrival: ArrivalPattern::OpenLoop {
            rate_rps: 500_000.0,
        },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 2, hi: 8 },
        prefix: PrefixTraffic::None,
        seed: 5,
    }
}

#[test]
fn round_robin_spreads_requests_across_replicas() {
    let run = ClusterEngine::colocated(vec![replica("a"), replica("b")], RouterPolicy::RoundRobin)
        .unwrap()
        .run("spread", &traffic(10))
        .unwrap();
    assert_eq!(run.report.completed, 10);
    assert_eq!(run.report.per_replica.len(), 2);
    assert_eq!(run.report.per_replica[0].requests, 5);
    assert_eq!(run.report.per_replica[1].requests, 5);
    // Completions merge back into one id-ordered fleet view.
    assert!(run.completions.windows(2).all(|w| w[0].id < w[1].id));
}

#[test]
fn more_replicas_raise_throughput() {
    let one = ClusterEngine::colocated(vec![replica("solo")], RouterPolicy::PassThrough)
        .unwrap()
        .run("one", &traffic(16))
        .unwrap();
    let three = ClusterEngine::colocated(
        vec![replica("a"), replica("b"), replica("c")],
        RouterPolicy::LeastOutstanding,
    )
    .unwrap()
    .run("three", &traffic(16))
    .unwrap();
    assert!(
        three.report.throughput_rps > one.report.throughput_rps,
        "3 replicas {:.1} rps should beat 1 replica {:.1} rps",
        three.report.throughput_rps,
        one.report.throughput_rps
    );
    // Load is reasonably balanced, not funneled to one replica.
    assert!(
        three.report.imbalance < 2.0,
        "imbalance {}",
        three.report.imbalance
    );
}

#[test]
fn least_outstanding_favors_the_faster_replica() {
    // A heterogeneous fleet where one replica hosts a 4x-deeper model:
    // its per-step cost is ~4x, its queue builds under load, and the
    // load-aware router must skew work to the faster replica.
    let deep = ServingModel::Llm(TransformerConfig::new("Tiny-8L", 8, 4, 256, 1024).unwrap());
    let run = ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("slow", TpuConfig::tpuv4i(), deep)
                .with_policy(BatchPolicy::Continuous { max_batch: 2 }),
            ReplicaSpec::new("fast", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 2 }),
        ],
        RouterPolicy::LeastOutstanding,
    )
    .unwrap()
    // Arrivals between the two replicas' service capacities: the slow
    // replica's queue builds, the fast one drains, and routing skews.
    .run(
        "hetero",
        &TrafficSpec {
            arrival: ArrivalPattern::OpenLoop { rate_rps: 2_000.0 },
            prompt: LenDist::Fixed(16),
            steps: LenDist::Fixed(64),
            ..traffic(24)
        },
    )
    .unwrap();
    assert_eq!(run.report.completed, 24);
    let slow = &run.report.per_replica[0];
    let fast = &run.report.per_replica[1];
    assert!(
        fast.requests > slow.requests,
        "fast chip took {} requests, slow took {}",
        fast.requests,
        slow.requests
    );
}

#[test]
fn disaggregated_hands_off_every_cache_and_completes() {
    let disagg = ClusterEngine::disaggregated(
        vec![replica("prefill-0")],
        vec![replica("decode-0"), replica("decode-1")],
        RouterPolicy::PassThrough,
        RouterPolicy::LeastOutstanding,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .run("disagg", &traffic(12))
    .unwrap();
    assert_eq!(disagg.report.completed, 12);
    assert_eq!(disagg.report.topology, "disaggregated");
    assert_eq!(disagg.report.kv_transfers, 12);
    // 16-token blocks of 1 KiB/token: every prompt moves >= 16 KiB.
    assert!(disagg.report.kv_transfer_bytes >= 12 * 16 * 1024);
    assert!(disagg.report.kv_transfer_s > 0.0);
    assert!(disagg.report.kv_transfer_energy_j > 0.0);
    // Interconnect energy lands in the fleet total.
    let chip_energy: f64 = disagg.report.per_replica.iter().map(|r| r.energy_j).sum();
    let expected = chip_energy + disagg.report.kv_transfer_energy_j;
    assert!((disagg.report.total_energy_j - expected).abs() < 1e-12);
    // TTFT is the prefill, so it never includes decode queueing: every
    // first token precedes its request's finish.
    assert!(disagg.completions.iter().all(|c| c.first_token < c.finish));
    // Roles are attributed.
    assert_eq!(disagg.report.per_replica[0].role, "prefill");
    assert_eq!(disagg.report.per_replica[1].role, "decode");

    // Matched colocated hardware serves the same trace (sanity: both
    // complete everything; the JSON baseline records the actual numbers).
    let colo = ClusterEngine::colocated(
        vec![replica("c0"), replica("c1"), replica("c2")],
        RouterPolicy::LeastOutstanding,
    )
    .unwrap()
    .run("colo", &traffic(12))
    .unwrap();
    assert_eq!(colo.report.completed, 12);
    assert_eq!(colo.report.kv_transfers, 0);
}

#[test]
fn disaggregated_closed_loop_feeds_back_through_the_pipeline() {
    let run = ClusterEngine::disaggregated(
        vec![replica("prefill-0")],
        vec![replica("decode-0")],
        RouterPolicy::PassThrough,
        RouterPolicy::PassThrough,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .run(
        "disagg-closed",
        &TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 3,
                think_ms: 2.0,
            },
            ..traffic(9)
        },
    )
    .unwrap();
    assert_eq!(run.report.completed, 9);
    assert_eq!(run.report.kv_transfers, 9);
}

#[test]
fn kv_budget_override_reaches_every_replica() {
    let engine =
        ClusterEngine::colocated(vec![replica("a"), replica("b")], RouterPolicy::RoundRobin)
            .unwrap();
    let unlimited = engine.run("unlimited", &traffic(8)).unwrap();
    assert_eq!(unlimited.report.per_replica[0].kv_hwm_frac, 0.0);
    let capped = engine
        .with_kv_budget(KvBudget::Bytes(Bytes::from_kib(128)))
        .run("capped", &traffic(8))
        .unwrap();
    assert_eq!(capped.report.completed, 8);
    for row in &capped.report.per_replica {
        assert!(row.kv_hwm_frac > 0.0, "{} saw no KV pressure", row.name);
    }
}

#[test]
fn disaggregation_rejects_incoherent_pools() {
    // Different models across pools.
    let other = ServingModel::Llm(TransformerConfig::new("Other", 2, 4, 128, 512).unwrap());
    let err = ClusterEngine::disaggregated(
        vec![replica("p")],
        vec![ReplicaSpec::new("d", TpuConfig::tpuv4i(), other)],
        RouterPolicy::PassThrough,
        RouterPolicy::PassThrough,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .run("bad", &traffic(4));
    assert!(err.is_err());
    // Chunked prefill in a pool.
    let err = ClusterEngine::disaggregated(
        vec![replica("p").with_memory(MemoryConfig::unlimited().with_chunked_prefill(16))],
        vec![replica("d")],
        RouterPolicy::PassThrough,
        RouterPolicy::PassThrough,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .run("bad", &traffic(4));
    assert!(err.is_err());
    // Empty pools are rejected at construction.
    assert!(ClusterEngine::disaggregated(
        vec![],
        vec![replica("d")],
        RouterPolicy::PassThrough,
        RouterPolicy::PassThrough,
        InterconnectSpec::ici(),
    )
    .is_err());
}

/// A link that cannot move bytes at a finite positive rate, or that
/// charges a negative or non-finite hop or energy, would put ∞ or NaN
/// into the report (a 0 GB/s link made `makespan_s` and p50 infinite):
/// the fleet is rejected with a typed error at construction.
#[test]
fn disaggregated_rejects_a_link_that_yields_non_finite_reports() {
    let build = |link: InterconnectSpec| {
        ClusterEngine::disaggregated(
            vec![replica("p")],
            vec![replica("d")],
            RouterPolicy::RoundRobin,
            RouterPolicy::RoundRobin,
            link,
        )
    };
    let ici = InterconnectSpec::ici();
    assert!(build(ici).is_ok());
    let zero_hop = InterconnectSpec {
        hop_latency: Seconds::ZERO,
        energy_pj_per_byte: 0.0,
        ..ici
    };
    assert!(build(zero_hop).is_ok(), "a free, instant hop is valid");
    let rejected = |link| matches!(build(link), Err(Error::InvalidConfig(_)));
    for x in [0.0, -1.0, f64::NAN, f64::INFINITY] {
        let link_bandwidth = Bandwidth::from_gb_per_s(1.0) * x;
        assert!(
            rejected(InterconnectSpec {
                link_bandwidth,
                ..ici
            }),
            "{x} GB/s"
        );
    }
    for x in [-1.0, f64::NAN, f64::INFINITY] {
        let hop_latency = Seconds::from_micros(1.0) * x;
        assert!(
            rejected(InterconnectSpec { hop_latency, ..ici }),
            "hop {x} us"
        );
        assert!(
            rejected(InterconnectSpec {
                energy_pj_per_byte: x,
                ..ici
            }),
            "{x} pJ/B"
        );
    }
}

/// A NaN SLO made every completion miss it (`goodput_rps = 0`) and wrote
/// `slo_ms = NaN` into the report: `run` rejects an SLO that is not
/// positive and finite, on either topology.
#[test]
fn run_rejects_a_non_finite_or_non_positive_slo() {
    let colocated = ClusterEngine::colocated(vec![replica("a")], RouterPolicy::RoundRobin).unwrap();
    let disagg = ClusterEngine::disaggregated(
        vec![replica("p")],
        vec![replica("d")],
        RouterPolicy::RoundRobin,
        RouterPolicy::RoundRobin,
        InterconnectSpec::ici(),
    )
    .unwrap();
    for fleet in [colocated, disagg] {
        assert!(fleet
            .clone()
            .with_slo_ms(50.0)
            .run("ok", &traffic(4))
            .is_ok());
        for slo in [f64::NAN, f64::INFINITY, 0.0, -5.0] {
            let run = fleet.clone().with_slo_ms(slo).run("slo", &traffic(4));
            assert!(matches!(run, Err(Error::InvalidConfig(_))), "slo {slo} ms");
        }
    }
}

#[test]
fn llm_fleets_reject_empty_prompts() {
    let colocated = ClusterEngine::colocated(vec![replica("a")], RouterPolicy::RoundRobin).unwrap();
    let disagg = ClusterEngine::disaggregated(
        vec![replica("p")],
        vec![replica("d")],
        RouterPolicy::RoundRobin,
        RouterPolicy::RoundRobin,
        InterconnectSpec::ici(),
    )
    .unwrap();
    let empty = TrafficSpec {
        prompt: LenDist::Uniform { lo: 0, hi: 8 },
        ..traffic(4)
    };
    for fleet in [colocated, disagg] {
        let run = fleet.run("empty", &empty);
        assert!(matches!(run, Err(Error::InvalidConfig(_))), "{run:?}");
    }
}

/// An open-loop rate that is not finite and positive is a typed
/// configuration error on every engine, raised before any request is
/// drawn: a zero rate used to report NaN latencies and an infinite
/// makespan, NaN and negative rates panicked mid-run on out-of-order
/// arrivals, and an infinite rate silently served a burst.
#[test]
fn every_engine_rejects_invalid_open_loop_rates() {
    let single = ServingEngine::new(
        TpuConfig::tpuv4i(),
        tiny(),
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Continuous { max_batch: 4 },
    )
    .unwrap();
    let colocated =
        ClusterEngine::colocated(vec![replica("a"), replica("b")], RouterPolicy::RoundRobin)
            .unwrap();
    let disagg = ClusterEngine::disaggregated(
        vec![replica("p")],
        vec![replica("d")],
        RouterPolicy::RoundRobin,
        RouterPolicy::RoundRobin,
        InterconnectSpec::ici(),
    )
    .unwrap();
    for rate_rps in [0.0, f64::NAN, -5.0, f64::INFINITY] {
        for arrival in [
            ArrivalPattern::OpenLoop { rate_rps },
            ArrivalPattern::OpenLoopSessions {
                rate_rps,
                sessions: 2,
            },
        ] {
            let bad = TrafficSpec {
                arrival,
                ..traffic(4)
            };
            let what = format!("{:?}", bad.arrival);
            let run = single.run("rate", &bad).map(|_| ());
            assert!(
                matches!(run, Err(Error::InvalidConfig(_))),
                "single engine, {what}: {run:?}"
            );
            for fleet in [&colocated, &disagg] {
                let run = fleet.run("rate", &bad).map(|_| ());
                assert!(
                    matches!(run, Err(Error::InvalidConfig(_))),
                    "fleet, {what}: {run:?}"
                );
            }
        }
    }
}
