//! Serving-vs-simulator equivalence: with batch size 1 and zero queueing,
//! the request-level engine must reproduce `Simulator::run` latency
//! **exactly** (bit-identical f64), for every batching policy and both
//! MXU kinds.

use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, Parallelism, PrefixTraffic, ServingEngine, ServingModel,
    TrafficSpec,
};
use cimtpu_units::Seconds;

fn tiny() -> TransformerConfig {
    TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()
}

/// One request, batch capacity 1, arrival at t = 0: the engine runs
/// prefill then `steps` decode steps back to back, exactly like pricing
/// the same workloads through the simulator by hand.
fn reference_latency(config: &TpuConfig, prompt: u64, steps: u64) -> Seconds {
    let sim = Simulator::new(config.clone()).unwrap();
    let model = tiny();
    let layers = model.layers() as f64;
    let mut t = Seconds::ZERO;
    t += sim
        .run(&model.prefill_layer(1, prompt).unwrap())
        .unwrap()
        .total_latency()
        * layers;
    for s in 0..steps {
        let ctx = prompt + s + 1;
        t += sim
            .run(&model.decode_layer(1, ctx).unwrap())
            .unwrap()
            .total_latency()
            * layers;
    }
    t
}

fn serving_latency(config: &TpuConfig, policy: BatchPolicy, prompt: u64, steps: u64) -> Seconds {
    let engine = ServingEngine::new(
        config.clone(),
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap();
    let traffic = TrafficSpec {
        requests: 1,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(prompt),
        steps: LenDist::Fixed(steps),
        prefix: PrefixTraffic::None,
        seed: 0,
    };
    let run = engine.run("equivalence", &traffic).unwrap();
    assert_eq!(run.completions.len(), 1);
    run.completions[0].latency()
}

#[test]
fn batch1_matches_simulator_exactly_for_every_policy() {
    let policies = [
        BatchPolicy::Static { batch: 1 },
        BatchPolicy::Dynamic {
            max_batch: 1,
            max_wait_ms: 0.0,
        },
        BatchPolicy::Continuous { max_batch: 1 },
    ];
    // Both MXU kinds: the digital systolic baseline and the CIM design.
    for config in [TpuConfig::tpuv4i(), TpuConfig::cim_base()] {
        let expected = reference_latency(&config, 32, 8);
        for policy in policies {
            let got = serving_latency(&config, policy, 32, 8);
            assert_eq!(
                got.get().to_bits(),
                expected.get().to_bits(),
                "{} on {}: {} vs {}",
                policy.name(),
                config.name(),
                got,
                expected,
            );
        }
    }
}

#[test]
fn batch1_ttft_is_prefill_latency_exactly() {
    let config = TpuConfig::tpuv4i();
    let sim = Simulator::new(config.clone()).unwrap();
    let model = tiny();
    let prefill = sim
        .run(&model.prefill_layer(1, 32).unwrap())
        .unwrap()
        .total_latency()
        * model.layers() as f64;

    let engine = ServingEngine::new(
        config,
        ServingModel::Llm(model),
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Continuous { max_batch: 1 },
    )
    .unwrap();
    let traffic = TrafficSpec {
        requests: 1,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(4),
        prefix: PrefixTraffic::None,
        seed: 0,
    };
    let run = engine.run("ttft", &traffic).unwrap();
    assert_eq!(
        run.completions[0].ttft().get().to_bits(),
        prefill.get().to_bits()
    );
}

#[test]
fn queueing_only_delays_requests() {
    // Two requests under capacity 1: the second's latency includes queue
    // wait, so it exceeds the single-request service time.
    let config = TpuConfig::tpuv4i();
    let solo = reference_latency(&config, 32, 8);
    let engine = ServingEngine::new(
        config,
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Continuous { max_batch: 1 },
    )
    .unwrap();
    let traffic = TrafficSpec {
        requests: 2,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix: PrefixTraffic::None,
        seed: 0,
    };
    let run = engine.run("queue", &traffic).unwrap();
    let first = &run.completions[0];
    let second = &run.completions[1];
    assert_eq!(first.latency().get().to_bits(), solo.get().to_bits());
    assert!(second.latency() > solo);
    // Service is sequential: the second request finishes after twice the
    // solo service time (its wait equals the first's full service).
    let rel = (second.latency().get() - 2.0 * solo.get()).abs() / solo.get();
    assert!(rel < 1e-12, "rel err {rel:e}");
}
