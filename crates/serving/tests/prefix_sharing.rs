//! Prefix-sharing correctness properties: sharing changes *when* work
//! happens — never *what* is generated — and with sharing disabled the
//! engine is bit-identical to the sharing-oblivious scheduler.
//!
//! "Token-for-token" in this simulator: a request's generated tokens are
//! a deterministic function of its identity and step count, so two runs
//! generate identical text iff they complete the same request ids with
//! the same `steps` from the same arrivals. The properties below pin
//! exactly that, plus completeness (nothing dropped or duplicated).

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
    .run("prefix-sharing", traffic)
    .unwrap()
}

const POLICIES: [BatchPolicy; 3] = [
    BatchPolicy::Static { batch: 3 },
    BatchPolicy::Dynamic {
        max_batch: 3,
        max_wait_ms: 0.5,
    },
    BatchPolicy::Continuous { max_batch: 3 },
];

/// The generated text of a run: (id, arrival, steps) per completion, in
/// id order (completions are already id-sorted).
fn tokens(r: &ServingRun) -> Vec<(u64, f64, u64)> {
    r.completions
        .iter()
        .map(|c| (c.id, c.arrival.get(), c.steps))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shared-prefix completions are token-for-token identical to the
    /// unshared path, for every batching policy, across seeds, head
    /// lengths (aligned and not), and group counts.
    #[test]
    fn sharing_is_token_for_token_identical_across_policies(
        seed in 0u64..500,
        head in 1u64..48,
        groups in 1u64..4,
    ) {
        let traffic = TrafficSpec {
            requests: 8,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 5_000.0 },
            prompt: LenDist::Uniform { lo: 17, hi: 64 },
            steps: LenDist::Uniform { lo: 3, hi: 12 },
            prefix: PrefixTraffic::SharedHead { tokens: head, groups },
            seed,
        };
        for policy in POLICIES {
            let shared = run(policy, MemoryConfig::unlimited().with_prefix_sharing(), &traffic);
            let cold = run(policy, MemoryConfig::unlimited(), &traffic);
            prop_assert_eq!(shared.completions.len() as u64, traffic.requests,
                "{}: dropped or duplicated requests", policy.name());
            prop_assert_eq!(tokens(&shared), tokens(&cold), "{}", policy.name());
            // No win is asserted here: with a tiny shared head, peeling a
            // hit member out of its padded prefill group can cost more
            // than the skipped tokens save (batching efficiency lost).
            // The targeted tests below pin the win on realistic
            // shared-heavy traffic; this property pins only correctness.
        }
    }

    /// With unique prompts (PrefixTraffic::None) the sharing-enabled
    /// engine can never hit, and its report is bit-identical to the
    /// sharing-disabled engine — turning the feature on is free until the
    /// traffic can actually share.
    #[test]
    fn sharing_on_unique_traffic_is_bit_identical(seed in 0u64..500) {
        let traffic = TrafficSpec {
            requests: 8,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 5_000.0 },
            prompt: LenDist::Uniform { lo: 17, hi: 64 },
            steps: LenDist::Uniform { lo: 3, hi: 12 },
            prefix: PrefixTraffic::None,
            seed,
        };
        for policy in POLICIES {
            let on = run(policy, MemoryConfig::unlimited().with_prefix_sharing(), &traffic);
            let off = run(policy, MemoryConfig::unlimited(), &traffic);
            prop_assert_eq!(on.prefix.hits, 0, "unique prompts can never match");
            prop_assert_eq!(&on.report, &off.report, "{}", policy.name());
            prop_assert_eq!(&on.completions, &off.completions);
        }
    }

    /// Under a tight paged budget the sharing engine still completes
    /// everything token-for-token (eviction of cached blocks and
    /// preemption of residents interleave), and never exceeds capacity.
    #[test]
    fn sharing_survives_kv_pressure(
        seed in 0u64..200,
        head in 1u64..40,
        blocks in 6u64..16,
    ) {
        let traffic = TrafficSpec {
            requests: 8,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 5_000.0 },
            prompt: LenDist::Uniform { lo: 17, hi: 48 },
            steps: LenDist::Uniform { lo: 3, hi: 10 },
            prefix: PrefixTraffic::SharedHead { tokens: head, groups: 2 },
            seed,
        };
        // blocks x 16 tokens x 1 KiB/token (Tiny-2L).
        let memory = MemoryConfig::unlimited()
            .with_budget_bytes(Bytes::new(blocks * 16 * 1024))
            .with_block_tokens(16)
            .with_prefix_sharing();
        for policy in POLICIES {
            let shared = run(policy, memory, &traffic);
            let cold = run(
                policy,
                MemoryConfig {
                    prefix_sharing: false,
                    ..memory
                },
                &traffic,
            );
            prop_assert_eq!(tokens(&shared), tokens(&cold), "{}", policy.name());
            prop_assert!(shared.report.kv_hwm_frac <= 1.0 + 1e-12,
                "{}: occupancy over capacity", policy.name());
        }
    }
}

/// Chunked prefill composes with prefix sharing: a shared-head trace run
/// with both features produces the same tokens as with neither, and the
/// cached prefix still saves work on top of chunking.
#[test]
fn sharing_composes_with_chunked_prefill() {
    let traffic = TrafficSpec {
        requests: 8,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 5_000.0 },
        prompt: LenDist::Uniform { lo: 33, hi: 96 },
        steps: LenDist::Fixed(6),
        prefix: PrefixTraffic::SharedHead {
            tokens: 32,
            groups: 1,
        },
        seed: 11,
    };
    let policy = BatchPolicy::Continuous { max_batch: 4 };
    let both = run(
        policy,
        MemoryConfig::unlimited()
            .with_chunked_prefill(16)
            .with_prefix_sharing(),
        &traffic,
    );
    let chunked_only = run(
        policy,
        MemoryConfig::unlimited().with_chunked_prefill(16),
        &traffic,
    );
    let plain = run(policy, MemoryConfig::unlimited(), &traffic);
    assert_eq!(tokens(&both), tokens(&plain));
    assert_eq!(tokens(&both), tokens(&chunked_only));
    assert!(both.prefix.hits > 0, "prefix stats: {}", both.prefix);
    assert!(
        both.report.total_energy_j < chunked_only.report.total_energy_j,
        "sharing must save prefill work on top of chunking: {} !< {}",
        both.report.total_energy_j,
        chunked_only.report.total_energy_j
    );
}

/// A *bounded* budget still retains the cache between requests: spaced
/// identical prompts re-hit the blocks their predecessors left behind
/// (the index's reference keeps them alive after release), and sharing
/// saves energy while staying within capacity.
#[test]
fn bounded_budget_retains_prefix_across_requests() {
    let traffic = TrafficSpec {
        requests: 8,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 50.0 }, // spaced: ~1 resident
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(4),
        prefix: PrefixTraffic::SharedHead {
            tokens: 32,
            groups: 1,
        },
        seed: 5,
    };
    // 8 blocks of 16 tokens: one resident (3 blocks at its peak) plus the
    // 2 retained prompt blocks fit with room to spare.
    let memory = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(128))
        .with_block_tokens(16);
    let policy = BatchPolicy::Continuous { max_batch: 4 };
    let cold = run(policy, memory, &traffic);
    let shared = run(policy, memory.with_prefix_sharing(), &traffic);
    assert_eq!(tokens(&shared), tokens(&cold));
    // Every request after the first re-hits the retained head.
    assert!(shared.prefix.hits >= 6, "prefix stats: {}", shared.prefix);
    assert!(shared.report.kv_hwm_frac <= 1.0);
    assert!(
        shared.report.total_energy_j < cold.report.total_energy_j,
        "{} !< {}",
        shared.report.total_energy_j,
        cold.report.total_energy_j
    );
}
