//! The paper's headline claims, asserted end-to-end against the simulator.
//!
//! Bands are intentionally loose (our substrate is a calibrated analytical
//! simulator, not the authors' testbed): we assert *who wins, by roughly
//! what factor, and where the crossovers fall*. The exact paper-vs-measured
//! numbers are in `REPRO_all.txt`: the `fig2_breakdown`,
//! `fig6_layer_comparison`, `fig7_exploration` and `fig8_multi_device`
//! sections print each measured figure next to the paper's.

use cimtpu::prelude::*;

fn sim(cfg: TpuConfig) -> Simulator {
    Simulator::new(cfg).expect("preset configs are valid")
}

/// Abstract: "Up to 44.2% ... performance improvement for large language
/// model ... inference".
#[test]
fn headline_llm_improvement() {
    let spec = LlmInferenceSpec::paper_fig7(8).expect("valid spec");
    let gpt3 = presets::gpt3_30b();
    let base = inference::run_llm(&sim(TpuConfig::tpuv4i()), &gpt3, spec).expect("mappable");
    let mut best = f64::MAX;
    for cfg in TpuConfig::table4_designs() {
        let r = inference::run_llm(&sim(cfg), &gpt3, spec).expect("mappable");
        best = best.min(r.total_latency() / base.total_latency());
    }
    let improvement = 1.0 - best;
    assert!(
        (0.25..0.55).contains(&improvement),
        "best LLM improvement {improvement:.3} (paper: 0.442)"
    );
}

/// Abstract: "and 33.8% performance improvement for ... diffusion
/// transformer inference".
#[test]
fn headline_dit_improvement() {
    let dit = presets::dit_xl_2();
    let base = inference::run_dit(&sim(TpuConfig::tpuv4i()), &dit, 8, 512).expect("mappable");
    let mut best = f64::MAX;
    for cfg in TpuConfig::table4_designs() {
        let r = inference::run_dit(&sim(cfg), &dit, 8, 512).expect("mappable");
        best = best.min(r.total_latency / base.total_latency);
    }
    let improvement = 1.0 - best;
    assert!(
        (0.25..0.55).contains(&improvement),
        "best DiT improvement {improvement:.3} (paper: 0.338)"
    );
}

/// Abstract: "27.3x reduction in MXU energy consumption can be achieved".
#[test]
fn headline_energy_reduction() {
    let spec = LlmInferenceSpec::paper_fig7(8).expect("valid spec");
    let gpt3 = presets::gpt3_30b();
    let base = inference::run_llm(&sim(TpuConfig::tpuv4i()), &gpt3, spec).expect("mappable");
    let mut best = 0.0f64;
    for cfg in TpuConfig::table4_designs() {
        let r = inference::run_llm(&sim(cfg), &gpt3, spec).expect("mappable");
        best = best.max(base.total_mxu_energy().get() / r.total_mxu_energy().get());
    }
    assert!(
        best > 10.0,
        "max MXU energy reduction {best:.1}x (paper: 27.3x)"
    );
    // The 2x(8x8) config specifically should be near the maximum.
    let small =
        inference::run_llm(&sim(TpuConfig::cim_variant(2, 8, 8)), &gpt3, spec).expect("mappable");
    let small_red = base.total_mxu_energy().get() / small.total_mxu_energy().get();
    assert!(
        small_red / best > 0.8,
        "2x(8x8) should be near-best: {small_red:.1}x vs {best:.1}x"
    );
}

/// Table II: "9.43x and 2.02x better than digital MXU while maintaining the
/// same MACs per cycle throughput" and Sec. IV: "the same peak performance
/// as the baseline MXU with only 50% area".
#[test]
fn table2_and_area_claims() {
    let digital = MatrixEngine::from_kind(TpuConfig::tpuv4i().mxu()).expect("valid");
    let cim = MatrixEngine::from_kind(TpuConfig::cim_base().mxu()).expect("valid");
    assert_eq!(digital.peak_macs_per_cycle(), cim.peak_macs_per_cycle());
    let area_ratio = cim.area().as_mm2() / digital.area().as_mm2();
    assert!(
        (0.45..0.55).contains(&area_ratio),
        "area ratio {area_ratio:.3}"
    );

    // Dynamic MAC-energy ratio ~9.4x.
    let shape = GemmShape::new(1 << 14, 2048, 2048).expect("valid");
    let e_ratio = digital.gemm_dynamic_energy(shape, DataType::Int8).get()
        / cim.gemm_dynamic_energy(shape, DataType::Int8).get();
    assert!(
        (6.0..12.0).contains(&e_ratio),
        "dynamic energy ratio {e_ratio:.2}"
    );
}

/// Fig. 6 LLM decoding: "CIM TPU accelerates these GEMV layers by 72.7%,
/// leading to a notable 29.9% inference latency reduction" and "13.4x less
/// energy than digital MXU".
#[test]
fn fig6_decode_claims() {
    let gpt3 = presets::gpt3_30b();
    let layer = gpt3.decode_layer(8, 1280).expect("valid");
    let b = sim(TpuConfig::tpuv4i()).run(&layer).expect("mappable");
    let c = sim(TpuConfig::cim_base()).run(&layer).expect("mappable");

    // Attention (the GEMV layers) speeds up dramatically.
    let attn_speedup =
        1.0 - c.latency_in(OpCategory::Attention) / b.latency_in(OpCategory::Attention);
    assert!(
        (0.4..0.9).contains(&attn_speedup),
        "attention GEMV speedup {attn_speedup:.3} (paper: 0.727)"
    );
    // Whole-layer latency reduction ~30%.
    let layer_reduction = 1.0 - c.total_latency() / b.total_latency();
    assert!(
        (0.15..0.45).contains(&layer_reduction),
        "decode reduction {layer_reduction:.3} (paper: 0.299)"
    );
    // Energy about an order of magnitude.
    let e = c.mxu_energy_reduction_vs(&b);
    assert!(
        (9.0..22.0).contains(&e),
        "decode energy {e:.1}x (paper: 13.4x)"
    );
}

/// Fig. 6 LLM prefilling: "our CIM-MXU will not bring inference latency
/// improvement. However ... 9.21x less energy consumption".
#[test]
fn fig6_prefill_claims() {
    let gpt3 = presets::gpt3_30b();
    let layer = gpt3.prefill_layer(8, 1024).expect("valid");
    let b = sim(TpuConfig::tpuv4i()).run(&layer).expect("mappable");
    let c = sim(TpuConfig::cim_base()).run(&layer).expect("mappable");
    let delta = (c.total_latency() / b.total_latency() - 1.0).abs();
    assert!(
        delta < 0.08,
        "prefill latency delta {delta:.3} (paper: +2.43%)"
    );
    let e = c.mxu_energy_reduction_vs(&b);
    assert!(
        (6.0..13.0).contains(&e),
        "prefill energy {e:.1}x (paper: 9.21x)"
    );

    // "these layers take up 84.9% of TPU inference latency" — GEMM
    // categories dominate the baseline prefill.
    let gemm_frac = [
        OpCategory::QkvGen,
        OpCategory::Projection,
        OpCategory::Ffn1,
        OpCategory::Ffn2,
    ]
    .iter()
    .map(|&cat| b.latency_in(cat) / b.total_latency())
    .sum::<f64>();
    assert!(
        (0.75..0.95).contains(&gemm_frac),
        "GEMM fraction {gemm_frac:.3}"
    );
}

/// Fig. 6 DiT: "a 6.67% latency and 10.4x energy reduction" and "Softmax
/// computation ... becoming the computation bottleneck".
#[test]
fn fig6_dit_claims() {
    let dit = presets::dit_xl_2();
    let block = dit.block(8, 512).expect("valid");
    let b = sim(TpuConfig::tpuv4i()).run(&block).expect("mappable");
    let c = sim(TpuConfig::cim_base()).run(&block).expect("mappable");
    // CIM no slower, and an order of magnitude more efficient.
    assert!(c.total_latency() <= b.total_latency() * 1.01);
    let e = c.mxu_energy_reduction_vs(&b);
    assert!(
        (6.0..15.0).contains(&e),
        "DiT energy {e:.1}x (paper: 10.4x)"
    );

    // Softmax is a major bottleneck in the baseline block (paper: 36.9%).
    let softmax: Seconds = b
        .ops()
        .iter()
        .filter(|o| o.name == "Softmax")
        .map(|o| o.latency)
        .sum();
    let frac = softmax / b.total_latency();
    assert!((0.2..0.5).contains(&frac), "softmax fraction {frac:.3}");
}

/// Sec. V-A: "although the 8 CIM-MXU configuration with 16x16 CIM cores has
/// 2x peak performance compared to ... 16x8 ..., only 2.5% performance
/// improvement is achieved" (memory-bound decoding saturates).
#[test]
fn fig7_diminishing_returns() {
    let spec = LlmInferenceSpec::paper_fig7(8).expect("valid");
    let gpt3 = presets::gpt3_30b();
    let wide =
        inference::run_llm(&sim(TpuConfig::cim_variant(8, 16, 8)), &gpt3, spec).expect("mappable");
    let big =
        inference::run_llm(&sim(TpuConfig::cim_variant(8, 16, 16)), &gpt3, spec).expect("mappable");
    let marginal = 1.0 - big.total_latency() / wide.total_latency();
    assert!(
        (0.0..0.08).contains(&marginal),
        "16x16 marginal gain {marginal:.3} (paper: 0.025)"
    );
    // ...at a substantial energy increase (paper: +95%).
    assert!(big.total_mxu_energy() > wide.total_mxu_energy() * 1.2);
}

/// Sec. V-A Design A/B definitions produce the paper's trade-offs.
#[test]
fn design_a_and_b_tradeoffs() {
    let spec = LlmInferenceSpec::paper_fig7(8).expect("valid");
    let gpt3 = presets::gpt3_30b();
    let dit = presets::dit_xl_2();

    let base_llm = inference::run_llm(&sim(TpuConfig::tpuv4i()), &gpt3, spec).expect("mappable");
    let base_dit = inference::run_dit(&sim(TpuConfig::tpuv4i()), &dit, 8, 512).expect("mappable");

    // Design A: good LLM latency at big energy savings despite half peak.
    let a_llm = inference::run_llm(&sim(TpuConfig::design_a()), &gpt3, spec).expect("mappable");
    assert!(a_llm.total_latency() < base_llm.total_latency());
    assert!(a_llm.total_mxu_energy().get() * 10.0 < base_llm.total_mxu_energy().get());

    // Design B: faster DiT than both the baseline and Design A.
    let b_dit = inference::run_dit(&sim(TpuConfig::design_b()), &dit, 8, 512).expect("mappable");
    let a_dit = inference::run_dit(&sim(TpuConfig::design_a()), &dit, 8, 512).expect("mappable");
    assert!(b_dit.total_latency < base_dit.total_latency);
    assert!(b_dit.total_latency < a_dit.total_latency);

    // "none of the optimized TPU designs are ideal for all generative model
    // inferences": A beats B on LLM energy, B beats A on DiT latency.
    let b_llm = inference::run_llm(&sim(TpuConfig::design_b()), &gpt3, spec).expect("mappable");
    assert!(a_llm.total_mxu_energy() < b_llm.total_mxu_energy());
}
