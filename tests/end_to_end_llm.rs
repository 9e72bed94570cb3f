//! End-to-end LLM pipeline tests across models, stages and architectures.

use cimtpu::prelude::*;

fn sim(cfg: TpuConfig) -> Simulator {
    Simulator::new(cfg).expect("preset configs are valid")
}

#[test]
fn every_preset_model_maps_on_every_design() {
    let mut configs = vec![TpuConfig::tpuv4i(), TpuConfig::cim_base()];
    configs.extend(TpuConfig::table4_designs());
    for model in [
        presets::gpt3_6_7b(),
        presets::gpt3_30b(),
        presets::llama2_13b(),
    ] {
        let prefill = model.prefill_layer(8, 256).expect("valid");
        let decode = model.decode_layer(8, 512).expect("valid");
        for cfg in &configs {
            let s = sim(cfg.clone());
            let p = s.run(&prefill).expect("prefill maps");
            let d = s.run(&decode).expect("decode maps");
            assert!(
                p.total_latency().get() > 0.0,
                "{} on {}",
                model.name(),
                cfg.name()
            );
            assert!(d.total_latency().get() > 0.0);
            assert!(p.mxu_energy().get() > 0.0);
        }
    }
}

#[test]
fn decode_cost_grows_with_context() {
    let gpt3 = presets::gpt3_30b();
    let s = sim(TpuConfig::cim_base());
    let mut last = Seconds::ZERO;
    for ctx in [128u64, 512, 1024, 2048, 4096] {
        let rep = s
            .run(&gpt3.decode_layer(8, ctx).expect("valid"))
            .expect("maps");
        assert!(
            rep.total_latency() >= last,
            "ctx {ctx} should not be cheaper than shorter contexts"
        );
        last = rep.total_latency();
    }
}

#[test]
fn prefill_cost_superlinear_in_sequence_length() {
    // Attention is quadratic in L: doubling L more than doubles layer time.
    let gpt3 = presets::gpt3_30b();
    let s = sim(TpuConfig::tpuv4i());
    let t512 = s
        .run(&gpt3.prefill_layer(8, 512).expect("valid"))
        .expect("maps")
        .total_latency();
    let t1024 = s
        .run(&gpt3.prefill_layer(8, 1024).expect("valid"))
        .expect("maps")
        .total_latency();
    assert!(t1024 > t512 * 2.0, "{} vs {}", t1024.get(), t512.get());
}

#[test]
fn larger_models_cost_more() {
    let s = sim(TpuConfig::cim_base());
    let small = s
        .run(&presets::gpt3_6_7b().decode_layer(8, 1024).expect("valid"))
        .expect("maps");
    let big = s
        .run(&presets::gpt3_30b().decode_layer(8, 1024).expect("valid"))
        .expect("maps");
    assert!(big.total_latency() > small.total_latency());
    assert!(big.mxu_energy() > small.mxu_energy());
    assert!(big.hbm_bytes() > small.hbm_bytes());
}

#[test]
fn decode_is_memory_bound_on_baseline() {
    // The weight-streaming floor: a decode layer can never beat
    // weight-bytes / HBM-bandwidth.
    let gpt3 = presets::gpt3_30b();
    let s = sim(TpuConfig::tpuv4i());
    let rep = s
        .run(&gpt3.decode_layer(8, 1280).expect("valid"))
        .expect("maps");
    let floor = gpt3.weight_bytes_per_layer().get() as f64 / 614e9;
    assert!(
        rep.total_latency().get() > floor,
        "decode {} must exceed the HBM floor {}",
        rep.total_latency().get(),
        floor
    );
    // ...but not by more than ~4x (it is memory-bound, not compute-bound).
    assert!(rep.total_latency().get() < floor * 4.0);
}

#[test]
fn full_inference_decode_latency_scales_with_output_len() {
    let gpt3 = presets::gpt3_30b();
    let s = sim(TpuConfig::cim_base());
    let short = inference::run_llm(&s, &gpt3, LlmInferenceSpec::new(8, 256, 64).expect("valid"))
        .expect("maps");
    let long = inference::run_llm(
        &s,
        &gpt3,
        LlmInferenceSpec::new(8, 256, 256).expect("valid"),
    )
    .expect("maps");
    let ratio = long.decode_latency / short.decode_latency;
    assert!((3.0..5.5).contains(&ratio), "decode scaling {ratio:.2}");
    // Prefill unchanged.
    assert!((long.prefill_latency / short.prefill_latency - 1.0).abs() < 1e-9);
}

#[test]
fn bf16_runs_and_costs_at_least_int8() {
    let model = TransformerConfig::new("bf16-model", 4, 16, 2048, 8192)
        .expect("valid")
        .with_dtype(DataType::Bf16);
    let int8_model = TransformerConfig::new("int8-model", 4, 16, 2048, 8192).expect("valid");
    let s = sim(TpuConfig::cim_base());
    let bf16 = s
        .run(&model.decode_layer(8, 512).expect("valid"))
        .expect("maps");
    let int8 = s
        .run(&int8_model.decode_layer(8, 512).expect("valid"))
        .expect("maps");
    // BF16 weights are 2x the bytes: decode gets strictly slower.
    assert!(bf16.total_latency() > int8.total_latency());
    assert!(bf16.hbm_bytes() > int8.hbm_bytes());
}

#[test]
fn gqa_cuts_decode_attention_cost() {
    // Llama2-70B uses 8 KV heads; compare against the same geometry with
    // full multi-head attention. GQA shrinks KV traffic 8x, so the
    // attention portion of a decode step drops substantially.
    let gqa = presets::llama2_70b();
    let mha =
        TransformerConfig::new("Llama2-70B-MHA", 80, 64, 8192, 28672).expect("valid geometry");
    let s = sim(TpuConfig::cim_base());
    let ctx = 4096;
    let rep_gqa = s
        .run(&gqa.decode_layer(8, ctx).expect("valid"))
        .expect("maps");
    let rep_mha = s
        .run(&mha.decode_layer(8, ctx).expect("valid"))
        .expect("maps");

    let attn_gqa = rep_gqa.latency_in(OpCategory::Attention);
    let attn_mha = rep_mha.latency_in(OpCategory::Attention);
    assert!(
        attn_gqa.get() * 3.0 < attn_mha.get(),
        "GQA attention {} vs MHA {}",
        attn_gqa.get(),
        attn_mha.get()
    );
    // Whole-layer: GQA is faster and streams fewer bytes.
    assert!(rep_gqa.total_latency() < rep_mha.total_latency());
    assert!(rep_gqa.hbm_bytes() < rep_mha.hbm_bytes());
}

#[test]
fn report_serializes_to_json() {
    let s = sim(TpuConfig::design_a());
    let rep = s
        .run(&presets::gpt3_30b().decode_layer(8, 1024).expect("valid"))
        .expect("maps");
    let json = serde_json::to_string(&rep).expect("serializable");
    assert!(json.contains("QKV Gen"));
    let back: Report = serde_json::from_str(&json).expect("round-trips");
    assert_eq!(back.total_latency(), rep.total_latency());
}
