//! End-to-end DiT pipeline tests.

use cimtpu::prelude::*;

fn sim(cfg: TpuConfig) -> Simulator {
    Simulator::new(cfg).expect("preset configs are valid")
}

#[test]
fn dit_variants_map_on_all_designs() {
    let mut configs = vec![TpuConfig::tpuv4i()];
    configs.extend(TpuConfig::table4_designs());
    for dit in [presets::dit_b_2(), presets::dit_l_2(), presets::dit_xl_2()] {
        let block = dit.block(8, 256).expect("valid");
        for cfg in &configs {
            let rep = sim(cfg.clone()).run(&block).expect("maps");
            assert!(rep.total_latency().get() > 0.0);
        }
    }
}

#[test]
fn higher_resolution_costs_quadratically_in_attention() {
    // 512^2 has 4x the tokens of 256^2: attention (quadratic) grows ~16x,
    // GEMMs ~4x, so the block grows by somewhere in between.
    let dit = presets::dit_xl_2();
    let s = sim(TpuConfig::tpuv4i());
    let low = s.run(&dit.block(8, 256).expect("valid")).expect("maps");
    let high = s.run(&dit.block(8, 512).expect("valid")).expect("maps");
    let ratio = high.total_latency() / low.total_latency();
    assert!((4.0..16.0).contains(&ratio), "block scaling {ratio:.2}");

    let attn_ratio = high.latency_in(OpCategory::Attention) / low.latency_in(OpCategory::Attention);
    let gemm_ratio = high.latency_in(OpCategory::Ffn1) / low.latency_in(OpCategory::Ffn1);
    assert!(
        attn_ratio > gemm_ratio,
        "attention must grow faster than FFN"
    );
}

#[test]
fn bigger_dit_variants_cost_more() {
    let s = sim(TpuConfig::design_b());
    let mut last = Seconds::ZERO;
    for dit in [presets::dit_b_2(), presets::dit_l_2(), presets::dit_xl_2()] {
        let r = inference::run_dit(&s, &dit, 8, 256).expect("maps");
        assert!(
            r.total_latency > last,
            "{} regressed",
            dit.transformer().name()
        );
        last = r.total_latency;
    }
}

#[test]
fn full_forward_matches_block_times_blocks_plus_prepost() {
    let dit = presets::dit_xl_2();
    let s = sim(TpuConfig::tpuv4i());
    let full = s
        .run(&dit.full_forward(8, 512).expect("valid"))
        .expect("maps");
    let block = s.run(&dit.block(8, 512).expect("valid")).expect("maps");
    let blocks_total = block.total_latency() * dit.blocks() as f64;
    // Full forward = pre + 28 blocks + post; blocks dominate (Fig. 2d).
    assert!(full.total_latency() > blocks_total);
    let frac = blocks_total / full.total_latency();
    assert!(frac > 0.95, "blocks are only {frac:.3} of full forward");
}

#[test]
fn conditioning_is_minor_but_present() {
    let dit = presets::dit_xl_2();
    let rep = sim(TpuConfig::tpuv4i())
        .run(&dit.block(8, 512).expect("valid"))
        .expect("maps");
    let frac = rep.latency_in(OpCategory::Conditioning) / rep.total_latency();
    assert!(frac > 0.0 && frac < 0.2, "conditioning fraction {frac:.3}");
}

#[test]
fn design_b_throughput_beats_design_a_on_dit() {
    let dit = presets::dit_xl_2();
    let a = inference::run_dit(&sim(TpuConfig::design_a()), &dit, 8, 512).expect("maps");
    let b = inference::run_dit(&sim(TpuConfig::design_b()), &dit, 8, 512).expect("maps");
    assert!(b.images_per_second(50) > a.images_per_second(50));
}
