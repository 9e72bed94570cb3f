//! Multi-TPU integration tests (Fig. 8 behaviours).

use cimtpu::prelude::*;

#[test]
fn fig8_scaling_and_ordering() {
    let spec = LlmInferenceSpec::new(8, 512, 128).expect("valid");
    let gpt3 = presets::gpt3_30b();
    for cfg in [
        TpuConfig::tpuv4i(),
        TpuConfig::design_a(),
        TpuConfig::design_b(),
    ] {
        let mut last = 0.0;
        for devices in [1u64, 2, 4] {
            let r = MultiTpu::new(cfg.clone(), devices)
                .expect("valid cluster")
                .llm_pipeline_throughput(&gpt3, spec)
                .expect("maps");
            assert!(r.throughput > last, "{} @ {devices}", cfg.name());
            last = r.throughput;
        }
    }
}

#[test]
fn design_a_llm_advantage_holds_at_every_scale() {
    let spec = LlmInferenceSpec::paper_fig7(8).expect("valid");
    let gpt3 = presets::gpt3_30b();
    for devices in [1u64, 2, 4] {
        let base = MultiTpu::new(TpuConfig::tpuv4i(), devices)
            .expect("valid")
            .llm_pipeline_throughput(&gpt3, spec)
            .expect("maps");
        let a = MultiTpu::new(TpuConfig::design_a(), devices)
            .expect("valid")
            .llm_pipeline_throughput(&gpt3, spec)
            .expect("maps");
        let speedup = a.throughput / base.throughput;
        assert!(
            (1.05..1.6).contains(&speedup),
            "{devices} TPUs: speedup {speedup:.2} (paper avg: 1.28)"
        );
        let energy = base.llm_energy_ratio(&a);
        assert!(
            energy > 10.0,
            "{devices} TPUs: energy ratio {energy:.1} (paper: 24.2)"
        );
    }
}

trait EnergyRatio {
    fn llm_energy_ratio(&self, other: &Self) -> f64;
}

impl EnergyRatio for cimtpu::multi::ThroughputResult {
    fn llm_energy_ratio(&self, other: &Self) -> f64 {
        self.mxu_energy_per_unit.get() / other.mxu_energy_per_unit.get()
    }
}

#[test]
fn tensor_parallel_decode_scales_down_latency() {
    let gpt3 = presets::gpt3_30b();
    let mut last = f64::MAX;
    for devices in [1u64, 2, 4] {
        let t = MultiTpu::new(TpuConfig::cim_base(), devices)
            .expect("valid")
            .llm_tensor_parallel_decode_layer(&gpt3, 8, 1280)
            .expect("maps")
            .get();
        assert!(t < last, "{devices}-way TP regressed: {t}");
        last = t;
    }
}

#[test]
fn ring_collectives_show_up_in_tensor_parallel_costs() {
    // With an artificially slow ICI link, tensor parallelism degrades.
    let gpt3 = presets::gpt3_30b();
    let fast = MultiTpu::new(TpuConfig::cim_base(), 4)
        .expect("valid")
        .llm_tensor_parallel_decode_layer(&gpt3, 8, 1280)
        .expect("maps");
    // Simulate a degraded link by comparing against the ring-collective
    // model directly: all-reduce time must be non-zero and additive.
    let ring = RingTopology::new(4, 2, Bandwidth::from_gb_per_s(100.0)).expect("valid");
    let comm = ring.all_reduce_time(Bytes::new(8 * 7168)) * 2.0;
    assert!(comm.get() > 0.0);
    assert!(
        fast.get() > comm.get(),
        "layer must include the collectives"
    );
}

#[test]
fn dit_pipeline_energy_per_image_constant_across_devices() {
    let dit = presets::dit_xl_2();
    let e: Vec<f64> = [1u64, 2, 4]
        .iter()
        .map(|&d| {
            MultiTpu::new(TpuConfig::design_b(), d)
                .expect("valid")
                .dit_pipeline_throughput(&dit, 8, 256, 50)
                .expect("maps")
                .mxu_energy_per_unit
                .get()
        })
        .collect();
    assert!((e[0] - e[1]).abs() / e[0] < 1e-9);
    assert!((e[0] - e[2]).abs() / e[0] < 1e-9);
}
