//! Memory-subsystem behaviour: KV pressure semantics and the
//! chunked-prefill equivalence properties.

use cimtpu_core::TpuConfig;
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, MemoryConfig, Parallelism, PrefixTraffic, ServingEngine,
    ServingModel, ServingRun, TrafficSpec,
};
use cimtpu_units::Bytes;
use proptest::prelude::*;

fn tiny() -> TransformerConfig {
    TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()
}

fn run(policy: BatchPolicy, memory: MemoryConfig, traffic: &TrafficSpec) -> ServingRun {
    ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap()
    .with_memory(memory)
    .run("kv-memory", traffic)
    .unwrap()
}

fn traffic(seed: u64) -> TrafficSpec {
    TrafficSpec {
        requests: 8,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 5_000.0 },
        prompt: LenDist::Uniform { lo: 17, hi: 64 },
        steps: LenDist::Uniform { lo: 3, hi: 12 },
        prefix: PrefixTraffic::None,
        seed,
    }
}

/// Traffic + budget crafted to force decode-time preemption: a burst
/// admits two 32-token prompts (2 blocks each) that fill the 4-block
/// budget exactly, so the first decode step's growth must evict the
/// younger resident.
fn pressure_traffic() -> TrafficSpec {
    TrafficSpec {
        requests: 8,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix: PrefixTraffic::None,
        seed: 5,
    }
}

fn tight_four_blocks() -> MemoryConfig {
    MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(64))
        .with_block_tokens(16)
}

const POLICIES: [BatchPolicy; 3] = [
    BatchPolicy::Static { batch: 4 },
    BatchPolicy::Dynamic {
        max_batch: 4,
        max_wait_ms: 10.0,
    },
    BatchPolicy::Continuous { max_batch: 4 },
];

/// Chunked prefill must change *when* tokens are computed, never *which*
/// tokens: completions are token-for-token identical to the unchunked
/// run — same requests, same step counts — for every batching policy.
#[test]
fn chunked_prefill_token_for_token_across_policies() {
    for policy in POLICIES {
        let plain = run(policy, MemoryConfig::unlimited(), &traffic(11));
        for chunk in [1, 7, 16, 1 << 20] {
            let chunked = run(
                policy,
                MemoryConfig::unlimited().with_chunked_prefill(chunk),
                &traffic(11),
            );
            let tokens = |r: &ServingRun| -> Vec<(u64, u64)> {
                r.completions.iter().map(|c| (c.id, c.steps)).collect()
            };
            assert_eq!(
                tokens(&plain),
                tokens(&chunked),
                "{} with chunk {chunk}",
                policy.name()
            );
            assert_eq!(chunked.report.completed, plain.report.completed);
        }
    }
}

/// A chunk at least as long as every prompt is a single monolithic pass,
/// so the whole run — timing included — matches unchunked bit-exactly.
#[test]
fn oversized_chunk_is_bitwise_monolithic() {
    for policy in POLICIES {
        let plain = run(policy, MemoryConfig::unlimited(), &traffic(3));
        let chunked = run(
            policy,
            MemoryConfig::unlimited().with_chunked_prefill(1 << 20),
            &traffic(3),
        );
        assert_eq!(plain.completions, chunked.completions, "{}", policy.name());
        assert_eq!(plain.report, chunked.report);
    }
}

/// A tight budget must not lose or truncate requests under any policy:
/// everything completes with its full token count, only later.
#[test]
fn tight_budget_completes_all_requests() {
    // Tiny model: 1 KiB/token; 96 KiB = 6 blocks of 16 tokens. Uniform
    // prompts (17..=64 → 2-4 blocks each, +1 for decode growth) both
    // squeeze batch admission and trigger decode-time preemption.
    let tight = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(96))
        .with_block_tokens(16);
    for policy in POLICIES {
        let plain = run(policy, MemoryConfig::unlimited(), &traffic(5));
        let squeezed = run(policy, tight, &traffic(5));
        let tokens = |r: &ServingRun| -> Vec<(u64, u64)> {
            r.completions.iter().map(|c| (c.id, c.steps)).collect()
        };
        assert_eq!(tokens(&plain), tokens(&squeezed), "{}", policy.name());
        // (No makespan ordering assertion: a KV-shrunk *static* batch
        // launches without waiting for a full batch, which can finish
        // the tail sooner.)
        assert!(squeezed.report.kv_hwm_frac > 0.0, "{}", policy.name());
    }
}

/// Continuous batching under pressure reports the full event picture:
/// preemptions, queue-full time, and a saturated high-water mark.
#[test]
fn continuous_pressure_reports_memory_events() {
    let squeezed = run(
        BatchPolicy::Continuous { max_batch: 4 },
        tight_four_blocks(),
        &pressure_traffic(),
    );
    assert!(
        squeezed.report.preemptions >= 1,
        "report: {}",
        squeezed.report
    );
    assert!(
        squeezed.report.queue_full_s > 0.0,
        "report: {}",
        squeezed.report
    );
    assert!(
        squeezed.report.kv_hwm_frac > 0.8,
        "report: {}",
        squeezed.report
    );
    // Preempted requests pay recompute: mean latency strictly above the
    // unlimited run's.
    let plain = run(
        BatchPolicy::Continuous { max_batch: 4 },
        MemoryConfig::unlimited(),
        &pressure_traffic(),
    );
    assert!(squeezed.report.latency.mean_ms > plain.report.latency.mean_ms);
    assert_eq!(squeezed.report.completed, plain.report.completed);
}

/// A budget that cannot hold even one request is a configuration error,
/// not a hang.
#[test]
fn impossible_budget_errors() {
    let impossible = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(16)) // 1 block of 16 tokens
        .with_block_tokens(16);
    for policy in POLICIES {
        let engine = ServingEngine::new(
            TpuConfig::tpuv4i(),
            ServingModel::Llm(tiny()),
            Parallelism::Replicated { chips: 1 },
            policy,
        )
        .unwrap()
        .with_memory(impossible);
        let err = engine.run("impossible", &traffic(1)).unwrap_err();
        assert!(format!("{err}").contains("KV budget too small"), "{err}");
    }
}

/// A model with no prefill phase (DiT) under chunked prefill must enter
/// decode directly, even with a nonzero nominal prompt length — not spin
/// forever waiting for prompt chunks that never run.
#[test]
fn chunked_prefill_with_dit_completes() {
    use cimtpu_models::presets;
    let traffic = TrafficSpec {
        requests: 4,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(32), // nominal; DiT ignores prompts
        steps: LenDist::Fixed(3),
        prefix: PrefixTraffic::None,
        seed: 1,
    };
    let run = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Dit {
            dit: presets::dit_b_2(),
            resolution: 256,
        },
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Continuous { max_batch: 4 },
    )
    .unwrap()
    .with_memory(MemoryConfig::unlimited().with_chunked_prefill(8))
    .run("dit-chunked", &traffic)
    .unwrap();
    assert_eq!(run.report.completed, 4);
}

/// With a second idle replica, a KV-shrunk batch's excluded request
/// launches immediately elsewhere — the queue-full clock must charge the
/// deferral actually experienced (none), not the donor batch's duration.
#[test]
fn queue_full_not_charged_when_another_chip_serves() {
    let traffic = TrafficSpec {
        requests: 4,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix: PrefixTraffic::None,
        seed: 2,
    };
    // 6 blocks: a static batch of 4 (3 blocks worst-case each) shrinks
    // to 2 per chip.
    let tight = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(96))
        .with_block_tokens(16);
    let one = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Static { batch: 4 },
    )
    .unwrap()
    .with_memory(tight)
    .run("one-chip", &traffic)
    .unwrap();
    let two = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 2 },
        BatchPolicy::Static { batch: 4 },
    )
    .unwrap()
    .with_memory(tight)
    .run("two-chips", &traffic)
    .unwrap();
    // One chip: the excluded pair really waits out the first batch.
    assert!(one.report.queue_full_s > 0.0, "report: {}", one.report);
    // Two chips: the excluded pair starts at once on the idle replica.
    assert_eq!(two.report.queue_full_s, 0.0, "report: {}", two.report);
    assert_eq!(two.report.completed, 4);
}

/// Chunked prefill on a tensor-parallel ring is rejected up front.
#[test]
fn chunked_tensor_parallel_rejected() {
    let engine = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::TensorParallel { chips: 4 },
        BatchPolicy::Continuous { max_batch: 4 },
    )
    .unwrap()
    .with_memory(MemoryConfig::unlimited().with_chunked_prefill(16));
    assert!(engine.run("tp-chunk", &traffic(1)).is_err());
}

/// A tensor-parallel ring shards the KV footprint, so a budget that
/// chokes one chip admits more on a ring of four.
#[test]
fn tensor_parallel_shards_the_footprint() {
    // 4-way ring: 256 B/token/shard → the same 64 KiB budget holds 4x
    // the tokens per device, so the pressure traffic fits untouched.
    let single = run(
        BatchPolicy::Continuous { max_batch: 4 },
        tight_four_blocks(),
        &pressure_traffic(),
    );
    let ring = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::TensorParallel { chips: 4 },
        BatchPolicy::Continuous { max_batch: 4 },
    )
    .unwrap()
    .with_memory(tight_four_blocks())
    .run("tp-kv", &pressure_traffic())
    .unwrap();
    assert!(single.report.preemptions >= 1);
    assert_eq!(
        ring.report.preemptions, 0,
        "sharded KV fits without eviction"
    );
    assert_eq!(ring.report.completed, single.report.completed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Token-for-token chunked-prefill equivalence holds across seeds and
    /// chunk sizes for every policy (the satellite property, randomized).
    #[test]
    fn chunked_equivalence_randomized(seed in 0u64..1000, chunk in 1u64..96) {
        for policy in POLICIES {
            let plain = run(policy, MemoryConfig::unlimited(), &traffic(seed));
            let chunked =
                run(policy, MemoryConfig::unlimited().with_chunked_prefill(chunk), &traffic(seed));
            let tokens = |r: &ServingRun| -> Vec<(u64, u64)> {
                r.completions.iter().map(|c| (c.id, c.steps)).collect()
            };
            prop_assert_eq!(tokens(&plain), tokens(&chunked));
        }
    }
}
