//! Failure injection: every invalid input must produce a clean error (not
//! a panic, not a silently wrong number).

use cimtpu::cim::{CimCoreConfig, CimMxuConfig};
use cimtpu::prelude::*;
use cimtpu::systolic::{Dataflow, SystolicConfig};

#[test]
fn invalid_shapes_error() {
    assert!(GemmShape::new(0, 1, 1).is_err());
    assert!(GemmShape::gemv(0, 1).is_err());
    assert!(GemmShape::new(1, 1, 1).unwrap().with_m(0).is_err());
}

#[test]
fn invalid_model_geometries_error() {
    assert!(TransformerConfig::new("x", 0, 1, 64, 64).is_err());
    assert!(TransformerConfig::new("x", 1, 0, 64, 64).is_err());
    assert!(TransformerConfig::new("x", 1, 3, 64, 64).is_err()); // 64 % 3
    assert!(TransformerConfig::new("x", 1, 4, 0, 64).is_err());
    let ok = TransformerConfig::new("x", 1, 4, 64, 64).unwrap();
    assert!(ok.prefill_layer(0, 8).is_err());
    assert!(ok.prefill_layer(8, 0).is_err());
    assert!(ok.decode_layer(0, 8).is_err());
    assert!(ok.decode_layer(8, 0).is_err());
}

#[test]
fn invalid_inference_specs_error() {
    assert!(LlmInferenceSpec::new(0, 1, 1).is_err());
    assert!(LlmInferenceSpec::new(1, 0, 1).is_err());
    assert!(LlmInferenceSpec::new(1, 1, 0).is_err());
}

#[test]
fn invalid_hardware_configs_error() {
    // Systolic geometry.
    assert!(SystolicConfig::new(0, 128, Dataflow::WeightStationary)
        .validate()
        .is_err());
    // CIM geometry.
    assert!(CimMxuConfig::with_grid(0, 8).validate().is_err());
    assert!(CimMxuConfig::paper_default()
        .with_core(CimCoreConfig::paper_default().with_bit_serial_bits(3))
        .validate()
        .is_err());
    assert!(CimMxuConfig::paper_default()
        .with_weight_ingest_bytes_per_cycle(0)
        .validate()
        .is_err());
    // Chip level.
    let bad = TpuConfig::tpuv4i().with_mxu(0, *TpuConfig::tpuv4i().mxu());
    assert!(Simulator::new(bad).is_err());
    let bad_cim = TpuConfig::tpuv4i().with_mxu(4, MxuKind::Cim(CimMxuConfig::with_grid(0, 1)));
    assert!(Simulator::new(bad_cim).is_err());
}

#[test]
fn unknown_presets_error() {
    assert!(presets::transformer_by_name("bert-large").is_err());
    assert!(presets::dit_by_name("unet-v1").is_err());
    let msg = presets::transformer_by_name("bert-large")
        .unwrap_err()
        .to_string();
    assert!(msg.contains("unknown preset"), "{msg}");
}

#[test]
fn invalid_moe_and_parallelism_error() {
    let t = TransformerConfig::new("x", 2, 4, 64, 256).unwrap();
    assert!(MoeConfig::new(t, 4, 5).is_err());
    // 56 heads don't divide 5 ways.
    assert!(
        cimtpu::multi::tensor_parallel::decode_layer_shard(&presets::gpt3_30b(), 8, 128, 5)
            .is_err()
    );
    assert!(MultiTpu::new(TpuConfig::tpuv4i(), 0).is_err());
}

#[test]
fn invalid_dit_resolutions_error() {
    let dit = presets::dit_xl_2();
    assert!(dit.tokens_for_resolution(100).is_err()); // not /16
    assert!(dit.block(0, 512).is_err());
    assert!(dit.block(8, 8).is_err());
}

#[test]
fn errors_are_displayable_and_typed() {
    let err = GemmShape::new(0, 1, 1).unwrap_err();
    assert!(matches!(err, Error::InvalidShape(_)));
    assert!(!err.to_string().is_empty());
    let err = presets::transformer_by_name("nope").unwrap_err();
    assert!(matches!(err, Error::UnknownPreset(_)));
}
