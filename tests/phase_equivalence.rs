//! Phase-splitting equivalence properties.
//!
//! The segment structure added to [`Workload`] is bookkeeping only: the
//! flat operator list is untouched, so (a) segment totals must partition
//! the flat totals *exactly* (integer MACs / bytes / op counts), for every
//! model preset, and (b) pricing a workload segment-by-segment through
//! [`Simulator::run_phased`] (each segment summed by
//! [`Simulator::price_ops`]) must agree with the flat [`Simulator::run`]
//! on both MXU kinds.

use cimtpu::models::{MoeConfig, Workload};
use cimtpu::prelude::*;
use proptest::prelude::*;

fn transformer_presets() -> Vec<TransformerConfig> {
    vec![
        presets::gpt3_6_7b(),
        presets::gpt3_30b(),
        presets::gpt3_175b(),
        presets::llama2_13b(),
        presets::llama2_70b(),
    ]
}

/// Segment sums must equal flat totals exactly, and the segments must
/// cover every op exactly once.
fn assert_partition(w: &Workload) {
    let macs: u64 = w.segments().map(|s| s.total_macs()).sum();
    assert_eq!(macs, w.total_macs(), "{}: MACs", w.name());
    let bytes: u64 = w.segments().map(|s| s.main_memory_bytes().get()).sum();
    assert_eq!(bytes, w.main_memory_bytes().get(), "{}: bytes", w.name());
    let ops: usize = w.segments().map(|s| s.ops().len()).sum();
    assert_eq!(ops, w.ops().len(), "{}: op coverage", w.name());
    let executions: u64 = w.segments().map(|s| s.op_executions()).sum();
    let flat: u64 = w.ops().iter().map(|o| o.count()).sum();
    assert_eq!(executions, flat, "{}: op executions", w.name());
    assert!(!w.phases().is_empty(), "{}: untagged workload", w.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every transformer preset, prefill and decode, arbitrary shapes.
    #[test]
    fn segments_partition_transformer_layers(
        model_idx in 0usize..5,
        batch in 1u64..16,
        seq in 16u64..2048,
    ) {
        let model = &transformer_presets()[model_idx];
        assert_partition(&model.prefill_layer(batch, seq).expect("valid"));
        assert_partition(&model.decode_layer(batch, seq).expect("valid"));
    }

    /// Full models (embedding + layers + head) and MoE layers.
    #[test]
    fn segments_partition_full_and_moe_workloads(
        batch in 1u64..8,
        seq in 16u64..512,
    ) {
        let llm = presets::gpt3_30b_full();
        assert_partition(&llm.full_prefill(batch, seq).expect("valid"));
        assert_partition(&llm.full_decode_step(batch, seq).expect("valid"));
        let moe = MoeConfig::mixtral_8x7b_like().expect("valid");
        assert_partition(&moe.prefill_layer(batch, seq).expect("valid"));
        assert_partition(&moe.decode_layer(batch, seq).expect("valid"));
    }

    /// DiT blocks and full forward passes.
    #[test]
    fn segments_partition_dit_workloads(
        batch in 1u64..8,
        res_idx in 0usize..2,
    ) {
        let resolution = [256u64, 512][res_idx];
        let dit = presets::dit_xl_2();
        assert_partition(&dit.block(batch, resolution).expect("valid"));
        assert_partition(&dit.full_forward(batch, resolution).expect("valid"));
    }

    /// Pricing segment-by-segment agrees with the flat run on both MXU
    /// kinds: identical integer traffic, float totals equal up to
    /// summation associativity.
    #[test]
    fn phased_pricing_matches_flat_run(
        config_idx in 0usize..2,
        batch in 1u64..8,
        ctx in 64u64..2048,
    ) {
        let config = [TpuConfig::tpuv4i(), TpuConfig::cim_base()][config_idx].clone();
        let sim = Simulator::new(config).expect("valid config");
        for workload in [
            presets::gpt3_30b().prefill_layer(4, 256).expect("valid"),
            presets::gpt3_30b().decode_layer(batch, ctx).expect("valid"),
            presets::dit_xl_2().block(batch, 256).expect("valid"),
        ] {
            let flat = sim.run(&workload).expect("maps");
            let phased = sim.run_phased(&workload).expect("maps");
            let rel = (phased.total_latency().get() - flat.total_latency().get()).abs()
                / flat.total_latency().get();
            prop_assert!(rel < 1e-12, "{}: latency rel err {rel:e}", workload.name());
            let rel = (phased.mxu_energy().get() - flat.mxu_energy().get()).abs()
                / flat.mxu_energy().get();
            prop_assert!(rel < 1e-12, "{}: energy rel err {rel:e}", workload.name());
            let seg_bytes: u64 =
                phased.segments.iter().map(|s| s.cost.hbm_bytes.get()).sum();
            prop_assert_eq!(seg_bytes, flat.hbm_bytes().get());
        }
    }
}

/// Non-property sanity check: the phase vocabulary is what the serving
/// layer schedules on.
#[test]
fn workloads_expose_expected_phases() {
    use cimtpu::models::Phase;
    let prefill = presets::gpt3_30b().prefill_layer(8, 128).unwrap();
    assert_eq!(prefill.phases(), vec![Phase::Prefill]);
    let decode = presets::gpt3_30b().decode_layer(8, 128).unwrap();
    assert_eq!(decode.phases(), vec![Phase::Decode]);
    let block = presets::dit_xl_2().block(8, 256).unwrap();
    assert_eq!(block.phases(), vec![Phase::Conditioning, Phase::Prefill]);
    let full = presets::gpt3_30b_full().full_prefill(8, 128).unwrap();
    assert!(full.phases().contains(&Phase::PrePost));
}
