//! The paper's evidence as one report: Fig. 1, Fig. 2d, Tables I–III,
//! Fig. 6, Table IV, Figs. 7 and 8, then the ablation, sweep and MoE
//! extensions, one section each.
//!
//! [`SECTIONS`] is the one table of sections, in report order; the
//! `repro_all` binary renders all of them or the ones it is given by
//! name. A section writes its text to the caller's [`Stdout`] and
//! returns the first simulator error instead of panicking, so one
//! failing section does not take the others down. A new table of the
//! evaluation is one more entry here.

use cimtpu_core::{MxuKind, Report, TpuConfig};
use cimtpu_models::{presets, OpCategory};
use cimtpu_units::{Error, Result, Stdout};

use crate::data;
use crate::experiments::{self, Fig8Row, StageComparison};
use crate::table::{Column, Table};

/// Writes one section's text to `out`.
pub type Render = fn(&mut Stdout) -> Result<()>;

/// Every section as `(name, render)`, in report order.
pub const SECTIONS: [(&str, Render); 12] = [
    ("fig1_evolution", fig1_evolution),
    ("fig2_breakdown", fig2_breakdown),
    ("table1_parameters", table1_parameters),
    ("table2_mxu", table2_mxu),
    ("table3_models", table3_models),
    ("fig6_layer_comparison", fig6_layer_comparison),
    ("table4_choices", table4_choices),
    ("fig7_exploration", fig7_exploration),
    ("fig8_multi_device", fig8_multi_device),
    ("ablations", ablations),
    ("sweep_extensions", sweep_extensions),
    ("moe_study", moe_study),
];

/// Fig. 1: evolution of the computing performance of CIM-based designs.
fn fig1_evolution(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Fig. 1 — Evolution of the computing performance of CIM-based designs\n"
    );
    let t = Table::of(
        &data::cim_evolution(),
        &[
            ("design", &|d| d.venue.to_owned()),
            ("ref", &|d| d.reference.to_owned()),
            ("TOPS", &|d| format!("{:.4}", d.tops)),
            ("TFLOPS", &|d| match d.tflops > 0.0 {
                true => format!("{:.2}", d.tflops),
                false => "-".to_owned(),
            }),
            ("area (mm^2)", &|d| format!("{:.4}", d.area_mm2)),
            ("node", &|d| d.node.to_owned()),
            ("CIM", &|d| if d.cim { "yes" } else { "no" }.to_owned()),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "CIM designs span {:.1e}x in peak performance over five years;\n\
         the gap to A100/TPUv4 motivates integrating CIM *into* a TPU.",
        52.4 / 0.0177
    );
    Ok(())
}

/// Fig. 2d: inference latency breakdown of generative models.
fn fig2_breakdown(out: &mut Stdout) -> Result<()> {
    let rows = experiments::fig2_breakdown()?;
    let reference = data::fig2d_reference();

    writeln!(
        out,
        "Fig. 2d — Inference latency breakdown (simulated vs paper-reported)\n"
    );
    let t = Table::of(
        &rows,
        &[
            ("model", &|r| r.model.clone()),
            ("layer", &|r| r.layer.clone()),
            ("latency (ms)", &|r| format!("{:.2}", r.latency_ms)),
            ("breakdown", &|r| format!("{:.2}%", r.fraction * 100.0)),
            ("paper breakdown", &|r| {
                let paper = reference
                    .iter()
                    .find(|p| p.model == r.model && p.layer == r.layer);
                paper.map_or("-".to_owned(), |p| format!("{:.2}%", p.fraction * 100.0))
            }),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Claim reproduced: Transformer layers / DiT blocks dominate inference\n\
         time (paper: 98.35% and 99.31%), so accelerating them accelerates\n\
         the whole model."
    );
    Ok(())
}

/// The MXU and CIM-core dimensions of `cfg`, as Table I prints them.
fn describe_mxu(cfg: &TpuConfig) -> (String, String) {
    match cfg.mxu() {
        MxuKind::DigitalSystolic(c) => {
            (format!("{}x{} MACs", c.rows(), c.cols()), "N/A".to_owned())
        }
        MxuKind::Cim(c) => (
            format!("{}x{} CIMs", c.grid_rows(), c.grid_cols()),
            format!("{} x {}", c.core().rows(), c.core().cols()),
        ),
    }
}

/// Table I: architecture parameters for the CIM-based TPU.
fn table1_parameters(out: &mut Stdout) -> Result<()> {
    let (base, cim) = (TpuConfig::tpuv4i(), TpuConfig::cim_base());
    let parameters: [Column<TpuConfig>; 11] = [
        ("Tensor Core count", &|_| "1".into()),
        ("MXU count", &|c| c.mxu_count().to_string()),
        ("MXU dimension", &|c| describe_mxu(c).0),
        ("CIM core dimension", &|c| describe_mxu(c).1),
        ("Vector width", &|_| "8 x 128".into()),
        ("Vector memory size", &|c| format!("{}", c.levels().vmem())),
        ("Common memory size", &|c| format!("{}", c.levels().cmem())),
        ("Main memory size", &|c| format!("{}", c.hbm_capacity())),
        ("Main memory bandwidth", &|c| {
            format!("{:.0} GB/s", c.levels().hbm_bandwidth().as_gb_per_s())
        }),
        ("ICI link bandwidth", &|c| {
            format!("{:.0} GB/s", c.ici_link_bandwidth().as_gb_per_s())
        }),
        ("Peak (INT8, 1.05 GHz)", &|c| {
            format!("{:.1} TOPS", c.peak_tops())
        }),
    ];

    writeln!(out, "Table I — Architecture parameters for CIM-based TPU\n");
    let mut t = Table::new(vec!["Key parameters", "TPUv4i", "CIM-based TPU"]);
    for (name, cell) in parameters {
        t.row(vec![name.to_owned(), cell(&base), cell(&cim)]);
    }
    writeln!(out, "{}", t.render());
    Ok(())
}

/// Table II: comparison between CIM-MXU and digital MXU.
fn table2_mxu(out: &mut Stdout) -> Result<()> {
    let r = experiments::table2()?;
    writeln!(
        out,
        "Table II — Comparison between CIM-MXU and digital MXU (INT8, 22 nm)\n"
    );
    let mut t = Table::new(vec![
        "Evaluation Metrics",
        "Digital MXU",
        "CIM-MXU",
        "Speedup",
    ]);
    t.row(vec![
        "MACs per cycle".into(),
        r.macs_per_cycle.0.to_string(),
        r.macs_per_cycle.1.to_string(),
        format!(
            "{:.2}x",
            r.macs_per_cycle.1 as f64 / r.macs_per_cycle.0 as f64
        ),
    ]);
    t.row(vec![
        "Energy Efficiency".into(),
        format!("{:.2} TOPS/W", r.tops_per_w.0),
        format!("{:.2} TOPS/W", r.tops_per_w.1),
        format!("{:.2}x", r.energy_ratio),
    ]);
    t.row(vec![
        "Area Efficiency".into(),
        format!("{:.3} TOPS/mm2", r.tops_per_mm2.0),
        format!("{:.3} TOPS/mm2", r.tops_per_mm2.1),
        format!("{:.2}x", r.area_ratio),
    ]);
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Paper: 0.77 vs 7.26 TOPS/W (9.43x), 0.648 vs 1.31 TOPS/mm2 (2.02x)."
    );
    Ok(())
}

/// Table III: configurations of evaluated generative models.
fn table3_models(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Table III — Configurations of evaluated generative models\n"
    );
    let gpt3 = presets::gpt3_30b();
    let dit = presets::dit_xl_2();
    // A DiT's depth is its block count.
    let evaluated = [(&gpt3, gpt3.layers()), (dit.transformer(), dit.blocks())];
    let t = Table::of(
        &evaluated,
        &[
            ("Generative model", &|(m, _)| m.name().to_owned()),
            ("# Layers", &|(_, layers)| layers.to_string()),
            ("# Heads", &|(m, _)| m.heads().to_string()),
            ("d_model", &|(m, _)| m.d_model().to_string()),
            ("d_ff", &|(m, _)| m.d_ff().to_string()),
        ],
    );
    writeln!(out, "{}", t.render());

    writeln!(out, "Additional presets available for scaling studies:\n");
    let others = [
        presets::gpt3_6_7b(),
        presets::gpt3_175b(),
        presets::llama2_13b(),
        presets::dit_b_2().transformer().clone(),
        presets::dit_l_2().transformer().clone(),
    ];
    let t = Table::of(
        &others,
        &[
            ("model", &|m| m.name().to_owned()),
            ("# Layers", &|m| m.layers().to_string()),
            ("# Heads", &|m| m.heads().to_string()),
            ("d_model", &|m| m.d_model().to_string()),
        ],
    );
    writeln!(out, "{}", t.render());
    Ok(())
}

/// Fig. 6: comparison between baseline and CIM-based TPU designs on a
/// GPT-3-30B prefill layer, decode layer, and DiT-XL/2 block.
fn fig6_layer_comparison(out: &mut Stdout) -> Result<()> {
    let f = experiments::fig6()?;
    writeln!(
        out,
        "Fig. 6 — GPT-3-30B layer + DiT-XL/2 block, batch {}, INT8\n",
        experiments::BATCH
    );
    fig6_stage(out, &f.llm_prefill, "+2.43%", "9.21x");
    fig6_stage(out, &f.llm_decode, "-29.9%", "13.4x");
    fig6_stage(out, &f.dit_block, "-6.67%", "10.4x");
    Ok(())
}

/// One Fig. 6 stage: both designs' breakdowns and the deltas beside the
/// paper's.
fn fig6_stage(out: &mut Stdout, stage: &StageComparison, paper_latency: &str, paper_energy: &str) {
    writeln!(out, "=== {} ===", stage.stage);
    fig6_breakdown(out, "baseline TPUv4i", &stage.baseline);
    fig6_breakdown(out, "CIM-based TPU", &stage.cim);
    writeln!(
        out,
        "latency: {:+.2}% vs baseline (paper: {paper_latency}); \
         MXU energy: {:.2}x less (paper: {paper_energy})\n",
        stage.latency_delta * 100.0,
        stage.cim.mxu_energy_reduction_vs(&stage.baseline),
    );
}

/// One design's latency and MXU energy per operator category.
fn fig6_breakdown(out: &mut Stdout, label: &str, rep: &Report) {
    writeln!(
        out,
        "  {label}: total {:.3} ms, MXU energy {:.3} mJ",
        rep.total_latency().as_millis(),
        rep.mxu_energy().as_millijoules()
    );
    for cat in OpCategory::FIG6_ORDER {
        let lat = rep.latency_in(cat);
        if lat.get() > 0.0 {
            writeln!(
                out,
                "    {:<14} {:>9.4} ms ({:>5.1}%)  {:>10.4} mJ",
                cat.label(),
                lat.as_millis(),
                lat / rep.total_latency() * 100.0,
                rep.mxu_energy_in(cat).as_millijoules(),
            );
        }
    }
}

/// A Table IV design's CIM grid and chip-wide CIM core count (`-` for
/// a digital MXU).
fn cim_grid(cfg: &TpuConfig) -> (String, String) {
    match cfg.mxu() {
        MxuKind::Cim(c) => (
            format!("{}x{}", c.grid_rows(), c.grid_cols()),
            (c.core_count() * cfg.mxu_count()).to_string(),
        ),
        MxuKind::DigitalSystolic(_) => ("-".into(), "-".into()),
    }
}

/// Table IV: architecture design choices of the CIM-MXU.
fn table4_choices(out: &mut Stdout) -> Result<()> {
    writeln!(out, "Table IV — Architecture design choices of CIM-MXU\n");
    let mut t = Table::new(vec!["Parameters", "Architecture Choices", "", ""]);
    for row in [
        ["Array dimension", "8 x 8", "16 x 8", "16 x 16"],
        ["CIM-MXU count", "2", "4", "8"],
    ] {
        t.row(row.map(str::to_owned).to_vec());
    }
    writeln!(out, "{}", t.render());

    writeln!(
        out,
        "All nine design points (chip-level peak at 1.05 GHz):\n"
    );
    let base_peak = TpuConfig::tpuv4i().peak_tops();
    let t = Table::of(
        &TpuConfig::table4_designs(),
        &[
            ("config", &|cfg| cfg.name().to_owned()),
            ("MXU count", &|cfg| cfg.mxu_count().to_string()),
            ("grid", &|cfg| cim_grid(cfg).0),
            ("cores", &|cfg| cim_grid(cfg).1),
            ("peak TOPS", &|cfg| format!("{:.1}", cfg.peak_tops())),
            ("vs TPUv4i", &|cfg| {
                format!("{:.2}x", cfg.peak_tops() / base_peak)
            }),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Design A = 4x(8x8) (optimized for LLMs); Design B = 8x(16x8)\n\
         (optimized for DiTs). See fig7_exploration for the evaluation."
    );
    Ok(())
}

/// Fig. 7: architecture exploration of different CIM-MXU configurations
/// (full GPT-3-30B inference with 1024/512 tokens + DiT-XL/2 forward).
fn fig7_exploration(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Fig. 7 — Exploration over Table IV design points (batch {}, INT8)\n\
         LLM: GPT-3-30B, input 1024 / output 512 tokens (decode-dominated).\n\
         DiT: DiT-XL/2 @ 512x512, one forward pass.\n",
        experiments::BATCH
    );
    let rows = experiments::fig7()?;
    let t = Table::of(
        &rows,
        &[
            ("config", &|r| r.config.clone()),
            ("LLM latency (s)", &|r| {
                format!("{:.2}", r.llm_latency.get())
            }),
            ("LLM norm", &|r| format!("{:.3}", r.llm_latency_norm)),
            ("LLM MXU E (J)", &|r| {
                format!("{:.1}", r.llm_mxu_energy.get())
            }),
            ("E norm", &|r| format!("{:.4}", r.llm_energy_norm)),
            ("DiT latency (ms)", &|r| {
                format!("{:.1}", r.dit_latency.as_millis())
            }),
            ("DiT norm", &|r| format!("{:.3}", r.dit_latency_norm)),
            ("DiT MXU E (mJ)", &|r| {
                format!("{:.1}", r.dit_mxu_energy.as_millijoules())
            }),
            ("E norm", &|r| format!("{:.4}", r.dit_energy_norm)),
        ],
    );
    writeln!(out, "{}", t.render());

    let missing = |what: &str| Error::internal(format!("Fig. 7 sweep has no {what}"));
    let best_llm = rows
        .iter()
        .min_by(|a, b| a.llm_latency_norm.total_cmp(&b.llm_latency_norm))
        .ok_or_else(|| missing("design point"))?;
    let best_dit = rows
        .iter()
        .min_by(|a, b| a.dit_latency_norm.total_cmp(&b.dit_latency_norm))
        .ok_or_else(|| missing("design point"))?;
    let small = rows
        .iter()
        .find(|r| r.mxu_count == 2 && r.grid == "8x8")
        .ok_or_else(|| missing("2x(8x8) design"))?;
    writeln!(
        out,
        "Headlines (paper in parentheses):\n\
         - max LLM improvement: {:.1}% ({}) (paper: 44.2%)\n\
         - max DiT improvement: {:.1}% ({}) (paper: 33.8%)\n\
         - 2x(8x8): {:+.0}% LLM latency at {:.1}x less MXU energy (paper: +38%, 27.3x)",
        (1.0 - best_llm.llm_latency_norm) * 100.0,
        best_llm.config,
        (1.0 - best_dit.dit_latency_norm) * 100.0,
        best_dit.config,
        (small.llm_latency_norm - 1.0) * 100.0,
        1.0 / small.llm_energy_norm,
    );
    Ok(())
}

/// Fig. 8: multi-device inference throughput (1/2/4 TPUs, pipeline
/// parallelism over the ICI ring).
fn fig8_multi_device(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Fig. 8 — Inference throughput: baseline vs Design A vs Design B\n\
         GPT-3-30B (1024/512 tokens) and DiT-XL/2 @512x512 (50-step sampler)\n"
    );
    let rows = experiments::fig8()?;
    let t = Table::of(
        &rows,
        &[
            ("config", &|r| r.config.clone()),
            ("TPUs", &|r| r.devices.to_string()),
            ("LLM tok/s", &|r| format!("{:.1}", r.llm_tokens_per_s)),
            ("MXU J/token", &|r| {
                format!("{:.4}", r.llm_energy_per_token.get())
            }),
            ("DiT img/s", &|r| format!("{:.3}", r.dit_images_per_s)),
            ("MXU J/image", &|r| {
                format!("{:.3}", r.dit_energy_per_image.get())
            }),
        ],
    );
    writeln!(out, "{}", t.render());

    // Average speedups over the baseline at matching device counts.
    let avg = |name: &str, metric: fn(&Fig8Row) -> f64| -> f64 {
        let mut sum = 0.0;
        let mut n = 0.0;
        for d in [1u64, 2, 4] {
            let base = rows.iter().find(|r| r.config == "TPUv4i" && r.devices == d);
            let cfg = rows.iter().find(|r| r.config == name && r.devices == d);
            if let (Some(b), Some(c)) = (base, cfg) {
                sum += metric(c) / metric(b);
                n += 1.0;
            }
        }
        sum / n
    };
    writeln!(
        out,
        "Design A: avg LLM speedup {:.2}x (paper: 1.28x), MXU energy/token {:.1}x lower (paper: 24.2x)",
        avg("Design A", |r| r.llm_tokens_per_s),
        1.0 / avg("Design A", |r| r.llm_energy_per_token.get()),
    );
    writeln!(
        out,
        "Design B: avg DiT speedup {:.2}x (paper: 1.33x), MXU energy/image {:.1}x lower (paper: 6.34x)",
        avg("Design B", |r| r.dit_images_per_s),
        1.0 / avg("Design B", |r| r.dit_energy_per_image.get()),
    );
    Ok(())
}

/// Ablation studies beyond the paper: the contribution of individual
/// design features.
fn ablations(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Ablations — contribution of individual design features\n"
    );
    let rows = experiments::ablations()?;
    let t = Table::of(
        &rows,
        &[
            ("knob", &|r| r.knob.clone()),
            ("workload", &|r| r.workload.clone()),
            ("enabled (ms)", &|r| format!("{:.4}", r.enabled.as_millis())),
            ("disabled (ms)", &|r| {
                format!("{:.4}", r.disabled.as_millis())
            }),
            ("disabled/enabled", &|r| format!("{:.3}x", r.ratio)),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "GEMV asymmetry sanity: decode-attention batched matmuls take {:.1}x\n\
         fewer MXU cycles on the CIM-MXU than on the systolic baseline.",
        experiments::gemv_cycle_ratio()?,
    );
    Ok(())
}

/// Extension sweeps beyond the paper: batch size, context length and
/// HBM bandwidth.
fn sweep_extensions(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "Extension sweep 1 — CIM decode benefit vs batch size (GPT-3-30B, ctx 1280)\n"
    );
    let rows = experiments::sweep_batch()?;
    let t = Table::of(
        &rows,
        &[
            ("batch", &|r| r.batch.to_string()),
            ("baseline (ms)", &|r| {
                format!("{:.3}", r.baseline.as_millis())
            }),
            ("CIM (ms)", &|r| format!("{:.3}", r.cim.as_millis())),
            ("speedup", &|r| format!("{:.2}x", r.speedup)),
            ("energy reduction", &|r| {
                format!("{:.1}x", r.energy_reduction)
            }),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Batched attention GEMVs multiply with batch size and serialize on\n\
         the systolic baseline, while staying KV-bandwidth-bound on the\n\
         CIM-MXU: the latency benefit GROWS with batch, and the\n\
         ~order-of-magnitude energy advantage persists throughout.\n"
    );

    writeln!(
        out,
        "Extension sweep 2 — decode cost vs context length (GPT-3-30B, batch 8)\n"
    );
    let rows = experiments::sweep_context()?;
    let t = Table::of(
        &rows,
        &[
            ("ctx", &|r| r.ctx.to_string()),
            ("baseline (ms)", &|r| {
                format!("{:.3}", r.baseline.as_millis())
            }),
            ("CIM (ms)", &|r| format!("{:.3}", r.cim.as_millis())),
            ("attn share (base)", &|r| {
                format!("{:.1}%", r.baseline_attention_fraction * 100.0)
            }),
            ("speedup", &|r| format!("{:.2}x", r.speedup)),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Attention grows linearly with context; since attention GEMVs are\n\
         exactly where the CIM-MXU wins, long-context serving amplifies the\n\
         benefit the paper measured at ctx = 1280.\n"
    );

    writeln!(
        out,
        "Extension sweep 3 — CIM decode benefit vs HBM bandwidth\n"
    );
    let rows = experiments::sweep_hbm_bandwidth()?;
    let t = Table::of(
        &rows,
        &[
            ("HBM (GB/s)", &|r| format!("{:.0}", r.hbm_gb_per_s)),
            ("baseline (ms)", &|r| {
                format!("{:.3}", r.baseline.as_millis())
            }),
            ("CIM (ms)", &|r| format!("{:.3}", r.cim.as_millis())),
            ("speedup", &|r| format!("{:.2}x", r.speedup)),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "Faster memory raises the roofline; the baseline's serialized\n\
         attention becomes the binding constraint, so CIM-based TPUs age\n\
         well as HBM generations advance."
    );
    Ok(())
}

/// Extension study: Mixture-of-Experts inference on the CIM-based TPU.
fn moe_study(out: &mut Stdout) -> Result<()> {
    writeln!(
        out,
        "MoE extension — Mixtral-8x7B-like (8 experts, top-2), batch {}, INT8\n",
        experiments::BATCH
    );
    let rows = experiments::moe_study()?;
    let t = Table::of(
        &rows,
        &[
            ("stage", &|r| r.stage.clone()),
            ("baseline (ms)", &|r| {
                format!("{:.3}", r.baseline.as_millis())
            }),
            ("CIM (ms)", &|r| format!("{:.3}", r.cim.as_millis())),
            ("speedup", &|r| format!("{:.2}x", r.speedup)),
            ("MXU energy reduction", &|r| {
                format!("{:.1}x", r.energy_reduction)
            }),
        ],
    );
    writeln!(out, "{}", t.render());
    writeln!(
        out,
        "MoE decoding streams every activated expert's FFN weights each\n\
         step — the memory-bound, low-reuse regime where the paper's CIM\n\
         analysis predicts the largest efficiency gains. The trend the paper\n\
         established for dense LLM decoding carries over to MoE."
    );
    Ok(())
}
