//! One function per paper table/figure; the `repro_all` sections
//! ([`crate::repro::SECTIONS`]) render them as the paper report.
//!
//! The multi-point experiments (`fig7`, the extension sweeps, `moe_study`)
//! fan their independent design points out through the crate's sweep
//! driver; each worker evaluates on its own memoized [`Simulator`], so
//! results are bit-identical to — but much faster than — a sequential
//! uncached run (see the crate-private `fig7_with` and its test
//! `fig7_fast_path_matches_sequential_uncached_reference`).

use serde::Serialize;

use crate::sweep::{self, SweepMode};
use cimtpu_core::{inference, Simulator, TpuConfig};
use cimtpu_models::{presets, LlmInferenceSpec, OpCategory, Workload};
use cimtpu_multi::MultiTpu;
use cimtpu_units::{DataType, Frequency, GemmShape, Joules, Result, Seconds};

/// Per-worker pair of simulators (baseline, CIM) built lazily inside the
/// sweep closure so construction errors propagate into the row `Result`.
type SimPair = Option<(Simulator, Simulator)>;

/// Returns the worker's `(baseline, cim)` simulators, building them on
/// first use.
fn base_cim_pair(state: &mut SimPair) -> Result<&(Simulator, Simulator)> {
    if state.is_none() {
        *state = Some((
            Simulator::new(TpuConfig::tpuv4i())?,
            Simulator::new(TpuConfig::cim_base())?,
        ));
    }
    Ok(state.as_ref().expect("just initialized"))
}

/// The evaluation batch size used throughout the paper.
pub(crate) const BATCH: u64 = 8;
/// Prefill input length (Fig. 6 / Fig. 7).
pub(crate) const INPUT_LEN: u64 = 1024;
/// Decode output length (Fig. 7).
pub(crate) const OUTPUT_LEN: u64 = 512;
/// Fig. 6 decode point: the 256th output token.
pub(crate) const FIG6_DECODE_TOKEN: u64 = 256;
/// DiT image resolution.
pub(crate) const DIT_RESOLUTION: u64 = 512;

/// Comparison of one workload on the baseline vs the CIM-based TPU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageComparison {
    /// Stage name (e.g. `"LLM Prefilling"`).
    pub stage: String,
    /// Baseline report.
    pub baseline: cimtpu_core::Report,
    /// CIM-TPU report.
    pub cim: cimtpu_core::Report,
    /// Relative latency change of CIM vs baseline (negative = faster).
    pub latency_delta: f64,
    /// MXU energy reduction factor (baseline / CIM).
    pub energy_reduction: f64,
}

fn compare(
    stage: &str,
    base: &Simulator,
    cim: &Simulator,
    w: &Workload,
) -> Result<StageComparison> {
    let b = base.run(w)?;
    let c = cim.run(w)?;
    Ok(StageComparison {
        stage: stage.to_owned(),
        latency_delta: c.total_latency() / b.total_latency() - 1.0,
        energy_reduction: c.mxu_energy_reduction_vs(&b).recip().recip(),
        baseline: b,
        cim: c,
    })
}

/// Table II: standalone digital MXU vs CIM-MXU.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table2Result {
    /// MACs per cycle (identical by design).
    pub macs_per_cycle: (u64, u64),
    /// Energy efficiency in TOPS/W (digital, CIM).
    pub tops_per_w: (f64, f64),
    /// Area efficiency in TOPS/mm² (digital, CIM).
    pub tops_per_mm2: (f64, f64),
    /// CIM / digital energy-efficiency ratio (paper: 9.43×).
    pub energy_ratio: f64,
    /// CIM / digital area-efficiency ratio (paper: 2.02×).
    pub area_ratio: f64,
}

/// Computes the Table II comparison from the calibrated engine models.
///
/// # Errors
///
/// Returns an error if the default configurations are invalid.
pub fn table2() -> Result<Table2Result> {
    use cimtpu_cim::{CimMxu, CimMxuConfig};
    use cimtpu_systolic::{SystolicArray, SystolicConfig};

    let clock = Frequency::from_ghz(1.05);
    let digital = SystolicArray::new(SystolicConfig::tpuv4i_mxu())?;
    let cim = CimMxu::new(CimMxuConfig::paper_default())?;

    let peak = |macs: u64| macs as f64 * 2.0 * clock.as_hz() / 1e12;
    let d_peak = peak(digital.peak_macs_per_cycle());
    let c_peak = peak(cim.peak_macs_per_cycle());

    let d_power = digital.peak_macs_per_cycle() as f64
        * digital.energy_model().mac_energy(DataType::Int8).get()
        * clock.as_hz()
        + digital.static_power().get();
    let c_power = cim.peak_macs_per_cycle() as f64
        * cim.energy_model().mac_energy(DataType::Int8).get()
        * clock.as_hz()
        + cim.static_power().get();

    let tops_per_w = (d_peak / d_power, c_peak / c_power);
    let tops_per_mm2 = (
        d_peak / digital.area().as_mm2(),
        c_peak / cim.area().as_mm2(),
    );
    Ok(Table2Result {
        macs_per_cycle: (digital.peak_macs_per_cycle(), cim.peak_macs_per_cycle()),
        energy_ratio: tops_per_w.1 / tops_per_w.0,
        area_ratio: tops_per_mm2.1 / tops_per_mm2.0,
        tops_per_w,
        tops_per_mm2,
    })
}

/// Fig. 2d: full-model runtime breakdown on a big accelerator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig2Row {
    /// Model name.
    pub model: String,
    /// Layer group.
    pub layer: String,
    /// Simulated latency (ms).
    pub latency_ms: f64,
    /// Fraction of total model time.
    pub fraction: f64,
}

/// Simulates the Fig. 2d breakdown (Transformer layers dominate ≥98%).
///
/// # Errors
///
/// Returns an error if the workloads cannot be built or mapped.
pub fn fig2_breakdown() -> Result<Vec<Fig2Row>> {
    let sim = Simulator::new(TpuConfig::a100_like())?;
    let mut rows = Vec::new();

    // Llama2-13B, Alpaca-style lengths: short prompt, moderate generation.
    let llama = presets::llama2_13b_full();
    let spec = LlmInferenceSpec::new(1, 128, 128)?;
    let prefill = sim.run(&llama.full_prefill(spec.batch(), spec.input_len())?)?;
    let decode =
        sim.run(&llama.full_decode_step(spec.batch(), spec.ctx_at_step(spec.output_len() / 2))?)?;
    let group = |rep: &cimtpu_core::Report, cat: OpCategory| rep.latency_in(cat);
    let embed = group(&prefill, OpCategory::Embedding)
        + group(&decode, OpCategory::Embedding) * spec.output_len() as f64;
    let head = group(&prefill, OpCategory::Head)
        + group(&decode, OpCategory::Head) * spec.output_len() as f64;
    let total = prefill.total_latency() + decode.total_latency() * spec.output_len() as f64;
    let layers = total - embed - head;
    for (layer, lat) in [
        ("Token Embedding", embed),
        ("Transformer Layers", layers),
        ("Prediction Head", head),
    ] {
        rows.push(Fig2Row {
            model: "Llama2-13B".to_owned(),
            layer: layer.to_owned(),
            latency_ms: lat.as_millis(),
            fraction: lat / total,
        });
    }

    // DiT-XL/2 @ 512x512, one diffusion step.
    let dit = presets::dit_xl_2();
    let full = sim.run(&dit.full_forward(BATCH, DIT_RESOLUTION)?)?;
    let total = full.total_latency();
    let pre = full.latency_in(OpCategory::Embedding);
    let post = full.latency_in(OpCategory::Head);
    let blocks = total - pre - post;
    for (layer, lat) in [
        ("Pre-Process", pre),
        ("DiT Blocks", blocks),
        ("Post-Process", post),
    ] {
        rows.push(Fig2Row {
            model: "DiT-XL/2".to_owned(),
            layer: layer.to_owned(),
            latency_ms: lat.as_millis(),
            fraction: lat / total,
        });
    }
    Ok(rows)
}

/// Fig. 6: baseline vs CIM-TPU on the three evaluated stages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig6Result {
    /// GPT-3-30B single-layer prefill (L = 1024).
    pub llm_prefill: StageComparison,
    /// GPT-3-30B single-layer decode at the 256th output token.
    pub llm_decode: StageComparison,
    /// DiT-XL/2 single block @ 512×512.
    pub dit_block: StageComparison,
}

/// Runs the Fig. 6 comparison.
///
/// # Errors
///
/// Returns an error if the workloads cannot be built or mapped.
pub fn fig6() -> Result<Fig6Result> {
    let base = Simulator::new(TpuConfig::tpuv4i())?;
    let cim = Simulator::new(TpuConfig::cim_base())?;
    let gpt3 = presets::gpt3_30b();
    let dit = presets::dit_xl_2();

    Ok(Fig6Result {
        llm_prefill: compare(
            "LLM Prefilling",
            &base,
            &cim,
            &gpt3.prefill_layer(BATCH, INPUT_LEN)?,
        )?,
        llm_decode: compare(
            "LLM Decoding",
            &base,
            &cim,
            &gpt3.decode_layer(BATCH, INPUT_LEN + FIG6_DECODE_TOKEN)?,
        )?,
        dit_block: compare("DiT Block", &base, &cim, &dit.block(BATCH, DIT_RESOLUTION)?)?,
    })
}

/// One Fig. 7 sweep point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig7Row {
    /// Configuration name.
    pub config: String,
    /// MXU count.
    pub mxu_count: u64,
    /// CIM grid label (empty for the baseline).
    pub grid: String,
    /// Full LLM inference latency.
    pub llm_latency: Seconds,
    /// Full LLM inference MXU energy.
    pub llm_mxu_energy: Joules,
    /// LLM latency normalized to the baseline.
    pub llm_latency_norm: f64,
    /// LLM MXU energy normalized to the baseline.
    pub llm_energy_norm: f64,
    /// DiT forward latency.
    pub dit_latency: Seconds,
    /// DiT forward MXU energy.
    pub dit_mxu_energy: Joules,
    /// DiT latency normalized to the baseline.
    pub dit_latency_norm: f64,
    /// DiT MXU energy normalized to the baseline.
    pub dit_energy_norm: f64,
}

/// Runs the Fig. 7 design-space exploration (baseline + all nine Table IV
/// points, full LLM inference with 1024/512 tokens + DiT forward) on the
/// parallel memoized fast path.
///
/// # Errors
///
/// Returns an error if any configuration cannot map the workloads.
pub fn fig7() -> Result<Vec<Fig7Row>> {
    fig7_with(SweepMode::Parallel)
}

/// [`fig7`] with an explicit [`SweepMode`].
///
/// Both modes produce identical rows; `SequentialUncached` is the
/// pre-optimization reference path, which the test
/// `fig7_fast_path_matches_sequential_uncached_reference` compares
/// against.
///
/// # Errors
///
/// Returns an error if any configuration cannot map the workloads.
pub(crate) fn fig7_with(mode: SweepMode) -> Result<Vec<Fig7Row>> {
    let spec = LlmInferenceSpec::new(BATCH, INPUT_LEN, OUTPUT_LEN)?;
    let gpt3 = presets::gpt3_30b();
    let dit = presets::dit_xl_2();

    let mut configs = vec![TpuConfig::tpuv4i()];
    configs.extend(TpuConfig::table4_designs());

    // Fan the ten design points out; each is evaluated on its own
    // simulator, whose mapping cache serves the repeated weight-GEMM
    // queries across the decode-context samples.
    let evals = sweep::map_with_mode(
        mode,
        &configs,
        || (),
        |(), cfg| {
            let sim = Simulator::new(cfg.clone())?;
            sim.mapping_cache().set_enabled(mode.cache_enabled());
            let llm = inference::run_llm(&sim, &gpt3, spec)?;
            let dit_run = inference::run_dit(&sim, &dit, BATCH, DIT_RESOLUTION)?;
            Ok::<_, cimtpu_units::Error>((llm, dit_run))
        },
    );

    let mut rows: Vec<Fig7Row> = Vec::new();
    let mut base_llm = (Seconds::new(1.0), Joules::new(1.0));
    let mut base_dit = (Seconds::new(1.0), Joules::new(1.0));
    for (i, (cfg, eval)) in configs.iter().zip(evals).enumerate() {
        let (llm, dit_run) = eval?;
        if i == 0 {
            base_llm = (llm.total_latency(), llm.total_mxu_energy());
            base_dit = (dit_run.total_latency, dit_run.total_mxu_energy);
        }
        let grid = match cfg.mxu() {
            cimtpu_core::MxuKind::Cim(c) => format!("{}x{}", c.grid_rows(), c.grid_cols()),
            cimtpu_core::MxuKind::DigitalSystolic(_) => String::new(),
        };
        rows.push(Fig7Row {
            config: cfg.name().to_owned(),
            mxu_count: cfg.mxu_count(),
            grid,
            llm_latency: llm.total_latency(),
            llm_mxu_energy: llm.total_mxu_energy(),
            llm_latency_norm: llm.total_latency() / base_llm.0,
            llm_energy_norm: llm.total_mxu_energy().get() / base_llm.1.get(),
            dit_latency: dit_run.total_latency,
            dit_mxu_energy: dit_run.total_mxu_energy,
            dit_latency_norm: dit_run.total_latency / base_dit.0,
            dit_energy_norm: dit_run.total_mxu_energy.get() / base_dit.1.get(),
        });
    }
    Ok(rows)
}

/// One Fig. 8 multi-device point.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig8Row {
    /// Configuration name.
    pub config: String,
    /// Devices in the ring.
    pub devices: u64,
    /// LLM throughput (tokens/s).
    pub llm_tokens_per_s: f64,
    /// LLM MXU energy per token.
    pub llm_energy_per_token: Joules,
    /// DiT throughput (images/s, 50-step sampler).
    pub dit_images_per_s: f64,
    /// DiT MXU energy per image.
    pub dit_energy_per_image: Joules,
}

/// Runs the Fig. 8 multi-device comparison (baseline, Design A, Design B
/// at 1/2/4 TPUs, pipeline parallelism over the ICI ring).
///
/// # Errors
///
/// Returns an error if any configuration cannot map the workloads.
pub fn fig8() -> Result<Vec<Fig8Row>> {
    let spec = LlmInferenceSpec::new(BATCH, INPUT_LEN, OUTPUT_LEN)?;
    let gpt3 = presets::gpt3_30b();
    let dit = presets::dit_xl_2();
    let mut rows = Vec::new();
    for cfg in [
        TpuConfig::tpuv4i(),
        TpuConfig::design_a(),
        TpuConfig::design_b(),
    ] {
        for devices in [1u64, 2, 4] {
            let cluster = MultiTpu::new(cfg.clone(), devices)?;
            let llm = cluster.llm_pipeline_throughput(&gpt3, spec)?;
            let dit_r = cluster.dit_pipeline_throughput(&dit, BATCH, DIT_RESOLUTION, 50)?;
            rows.push(Fig8Row {
                config: cfg.name().to_owned(),
                devices,
                llm_tokens_per_s: llm.throughput,
                llm_energy_per_token: llm.mxu_energy_per_unit,
                dit_images_per_s: dit_r.throughput,
                dit_energy_per_image: dit_r.mxu_energy_per_unit,
            });
        }
    }
    Ok(rows)
}

/// One ablation result: a design knob toggled on/off.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AblationRow {
    /// Knob name.
    pub knob: String,
    /// Workload evaluated.
    pub workload: String,
    /// Latency with the knob enabled.
    pub enabled: Seconds,
    /// Latency with the knob disabled.
    pub disabled: Seconds,
    /// Disabled / enabled latency ratio (>1 means the knob helps).
    pub ratio: f64,
}

/// Runs the four ablations of the `repro_all` section `ablations`:
/// simultaneous MAC and weight update, double buffering, memory
/// coalescing and the bit-serial width.
///
/// # Errors
///
/// Returns an error if any configuration cannot map the workloads.
pub fn ablations() -> Result<Vec<AblationRow>> {
    use cimtpu_cim::CimMxuConfig;
    use cimtpu_core::MxuKind;

    let gpt3 = presets::gpt3_30b();
    let decode = gpt3.decode_layer(BATCH, INPUT_LEN + FIG6_DECODE_TOKEN)?;
    let prefill = gpt3.prefill_layer(BATCH, INPUT_LEN)?;
    let mut rows = Vec::new();

    // 1. Simultaneous MAC + weight update in the CIM-MXU.
    let on = Simulator::new(TpuConfig::cim_base())?;
    let off = Simulator::new(TpuConfig::cim_base().with_mxu(
        4,
        MxuKind::Cim(CimMxuConfig::paper_default().with_overlap_weight_update(false)),
    ))?;
    let e = on.run(&decode)?.total_latency();
    let d = off.run(&decode)?.total_latency();
    rows.push(AblationRow {
        knob: "weight-update overlap".to_owned(),
        workload: "LLM decode layer".to_owned(),
        enabled: e,
        disabled: d,
        ratio: d / e,
    });

    // 2. Double buffering in the mapper.
    let base = TpuConfig::tpuv4i();
    let on = Simulator::new(base.clone())?;
    let off = Simulator::new(
        base.clone()
            .with_levels(base.levels().clone().with_double_buffering(false)),
    )?;
    let e = on.run(&prefill)?.total_latency();
    let d = off.run(&prefill)?.total_latency();
    rows.push(AblationRow {
        knob: "double buffering".to_owned(),
        workload: "LLM prefill layer".to_owned(),
        enabled: e,
        disabled: d,
        ratio: d / e,
    });

    // 3. Memory coalescing.
    let off = Simulator::new(
        base.clone()
            .with_levels(base.levels().clone().with_memory_coalescing(false)),
    )?;
    let e = on.run(&decode)?.total_latency();
    let d = off.run(&decode)?.total_latency();
    rows.push(AblationRow {
        knob: "memory coalescing".to_owned(),
        workload: "LLM decode layer".to_owned(),
        enabled: e,
        disabled: d,
        ratio: d / e,
    });

    // 4. Bit-serial width in the CIM core: 4 serial bits halve the wave
    // latency (at the cost of doubled column-group hardware, reflected in
    // the geometry). "Enabled" = 4-bit waves, "disabled" = the default 8.
    let dit_block = presets::dit_xl_2().block(BATCH, DIT_RESOLUTION)?;
    let fast_core = cimtpu_cim::CimCoreConfig::paper_default().with_bit_serial_bits(4);
    let fast = Simulator::new(TpuConfig::cim_base().with_mxu(
        4,
        MxuKind::Cim(CimMxuConfig::paper_default().with_core(fast_core)),
    ))?;
    let default = Simulator::new(TpuConfig::cim_base())?;
    let e = fast.run(&dit_block)?.total_latency();
    let d = default.run(&dit_block)?.total_latency();
    rows.push(AblationRow {
        knob: "bit-serial width 4 (vs 8)".to_owned(),
        workload: "DiT block (compute-bound)".to_owned(),
        enabled: e,
        disabled: d,
        ratio: d / e,
    });
    Ok(rows)
}

/// One point of the batch-size extension sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchSweepRow {
    /// Batch size.
    pub batch: u64,
    /// Baseline decode-layer latency.
    pub baseline: Seconds,
    /// CIM decode-layer latency.
    pub cim: Seconds,
    /// CIM speedup over baseline.
    pub speedup: f64,
    /// CIM MXU-energy reduction.
    pub energy_reduction: f64,
}

/// Extension study: how the CIM decode benefit varies with batch size.
///
/// Two effects compete as batch grows: the weight GEMVs gain arithmetic
/// intensity (eroding the CIM advantage there), but the batched attention
/// GEMVs multiply — and those serialize badly on the systolic baseline
/// while staying KV-bandwidth-bound on the CIM-MXU. Attention wins: the
/// CIM decode speedup *grows* with batch size.
///
/// # Errors
///
/// Returns an error if any workload cannot be mapped.
pub fn sweep_batch() -> Result<Vec<BatchSweepRow>> {
    let gpt3 = presets::gpt3_30b();
    let batches = [1u64, 2, 4, 8, 16, 32, 64];
    sweep::parallel_map_init(
        &batches,
        || SimPair::None,
        |sims, &batch| {
            let (base, cim) = base_cim_pair(sims)?;
            let layer = gpt3.decode_layer(batch, INPUT_LEN + FIG6_DECODE_TOKEN)?;
            let b = base.run(&layer)?;
            let c = cim.run(&layer)?;
            Ok(BatchSweepRow {
                batch,
                baseline: b.total_latency(),
                cim: c.total_latency(),
                speedup: c.speedup_vs(&b),
                energy_reduction: c.mxu_energy_reduction_vs(&b),
            })
        },
    )
    .into_iter()
    .collect()
}

/// One point of the context-length extension sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContextSweepRow {
    /// Context length (prompt + generated tokens).
    pub ctx: u64,
    /// Baseline decode-layer latency.
    pub baseline: Seconds,
    /// CIM decode-layer latency.
    pub cim: Seconds,
    /// Attention's share of the baseline layer.
    pub baseline_attention_fraction: f64,
    /// CIM speedup over baseline.
    pub speedup: f64,
}

/// Extension study: decode cost vs context length.
///
/// KV-cache traffic (and the attention GEMVs the CIM-MXU accelerates)
/// grows linearly with context, so the CIM advantage *increases* with
/// longer contexts — relevant for today's long-context serving.
///
/// # Errors
///
/// Returns an error if any workload cannot be mapped.
pub fn sweep_context() -> Result<Vec<ContextSweepRow>> {
    let gpt3 = presets::gpt3_30b();
    let contexts = [256u64, 512, 1024, 2048, 4096, 8192, 16384];
    // Per-worker simulator pairs: the weight GEMMs are identical across
    // context lengths, so after a worker's first point every non-attention
    // operator is a mapping-cache hit.
    sweep::parallel_map_init(
        &contexts,
        || SimPair::None,
        |sims, &ctx| {
            let (base, cim) = base_cim_pair(sims)?;
            let layer = gpt3.decode_layer(BATCH, ctx)?;
            let b = base.run(&layer)?;
            let c = cim.run(&layer)?;
            Ok(ContextSweepRow {
                ctx,
                baseline: b.total_latency(),
                cim: c.total_latency(),
                baseline_attention_fraction: b.latency_in(OpCategory::Attention)
                    / b.total_latency(),
                speedup: c.speedup_vs(&b),
            })
        },
    )
    .into_iter()
    .collect()
}

/// One row of the MoE extension study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MoeStudyRow {
    /// Stage name.
    pub stage: String,
    /// Baseline latency.
    pub baseline: Seconds,
    /// CIM latency.
    pub cim: Seconds,
    /// CIM speedup.
    pub speedup: f64,
    /// CIM MXU-energy reduction.
    pub energy_reduction: f64,
}

/// Extension study: a Mixtral-like MoE model on baseline vs CIM TPU.
///
/// MoE decoding multiplies weight traffic (every activated expert streams
/// its FFN), stressing exactly the memory-bound regime the paper analyzes.
///
/// # Errors
///
/// Returns an error if any workload cannot be mapped.
pub fn moe_study() -> Result<Vec<MoeStudyRow>> {
    use cimtpu_models::MoeConfig;
    let moe = MoeConfig::mixtral_8x7b_like()?;
    let stages = vec![
        ("MoE prefill layer", moe.prefill_layer(BATCH, INPUT_LEN)?),
        (
            "MoE decode layer",
            moe.decode_layer(BATCH, INPUT_LEN + FIG6_DECODE_TOKEN)?,
        ),
    ];
    sweep::parallel_map_init(
        &stages,
        || SimPair::None,
        |sims, (stage, workload)| {
            let (base, cim) = base_cim_pair(sims)?;
            let b = base.run(workload)?;
            let c = cim.run(workload)?;
            Ok(MoeStudyRow {
                stage: (*stage).to_owned(),
                baseline: b.total_latency(),
                cim: c.total_latency(),
                speedup: c.speedup_vs(&b),
                energy_reduction: c.mxu_energy_reduction_vs(&b),
            })
        },
    )
    .into_iter()
    .collect()
}

/// One point of the HBM-bandwidth sensitivity study.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HbmSweepRow {
    /// Main-memory bandwidth in GB/s.
    pub hbm_gb_per_s: f64,
    /// Baseline decode-layer latency.
    pub baseline: Seconds,
    /// CIM decode-layer latency.
    pub cim: Seconds,
    /// CIM speedup.
    pub speedup: f64,
}

/// Sensitivity study: how the CIM decode advantage shifts with HBM
/// bandwidth (614 GB/s in TPUv4i up to HBM3e-class 2.5 TB/s).
///
/// More bandwidth raises the memory roofline; the baseline's serialized
/// attention becomes the binding constraint, so the CIM advantage *grows*
/// — CIM-based TPUs age well with faster memory.
///
/// # Errors
///
/// Returns an error if any workload cannot be mapped.
pub fn sweep_hbm_bandwidth() -> Result<Vec<HbmSweepRow>> {
    use cimtpu_units::Bandwidth;
    let gpt3 = presets::gpt3_30b();
    let layer = gpt3.decode_layer(BATCH, INPUT_LEN + FIG6_DECODE_TOKEN)?;
    let points = [307.0f64, 614.0, 1228.0, 2456.0];
    // Bandwidth changes the memory hierarchy, so each point needs its own
    // simulators (a cache is only valid for one configuration).
    sweep::parallel_map(&points, |&gbps| {
        let levels = |cfg: TpuConfig| {
            let l = cfg
                .levels()
                .clone()
                .with_hbm_bandwidth(Bandwidth::from_gb_per_s(gbps));
            cfg.with_levels(l)
        };
        let base = Simulator::new(levels(TpuConfig::tpuv4i()))?;
        let cim = Simulator::new(levels(TpuConfig::cim_base()))?;
        let b = base.run(&layer)?;
        let c = cim.run(&layer)?;
        Ok(HbmSweepRow {
            hbm_gb_per_s: gbps,
            baseline: b.total_latency(),
            cim: c.total_latency(),
            speedup: c.speedup_vs(&b),
        })
    })
    .into_iter()
    .collect()
}

/// Quick sanity accessor: the engines' GEMV asymmetry (printed by `ablations`).
///
/// # Errors
///
/// Returns an error if the engine configurations are invalid.
pub(crate) fn gemv_cycle_ratio() -> Result<f64> {
    use cimtpu_core::MatrixEngine;
    let base = MatrixEngine::from_kind(TpuConfig::tpuv4i().mxu())?;
    let cim = MatrixEngine::from_kind(TpuConfig::cim_base().mxu())?;
    let shape = GemmShape::gemv(128, 1280)?;
    let b = base.batched_gemm_cycles(112, shape, DataType::Int8);
    let c = cim.batched_gemm_cycles(112, shape, DataType::Int8);
    Ok(b.get() as f64 / c.get() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ratios_match_paper() {
        let t = table2().unwrap();
        assert!((t.energy_ratio - 9.43).abs() < 0.5, "{}", t.energy_ratio);
        assert!((t.area_ratio - 2.02).abs() < 0.15, "{}", t.area_ratio);
        assert_eq!(t.macs_per_cycle, (16384, 16384));
    }

    #[test]
    fn fig2_layers_dominate() {
        let rows = fig2_breakdown().unwrap();
        for (model, layer) in [
            ("Llama2-13B", "Transformer Layers"),
            ("DiT-XL/2", "DiT Blocks"),
        ] {
            let row = rows
                .iter()
                .find(|r| r.model == model && r.layer == layer)
                .unwrap();
            assert!(row.fraction > 0.95, "{model}/{layer}: {}", row.fraction);
        }
    }

    #[test]
    fn fig6_headline_numbers_in_band() {
        let f = fig6().unwrap();
        // Prefill: approximately equal latency (paper +2.43%).
        assert!(
            f.llm_prefill.latency_delta.abs() < 0.10,
            "{}",
            f.llm_prefill.latency_delta
        );
        // Decode: substantial latency reduction (paper -29.9%).
        assert!(
            (-0.45..=-0.15).contains(&f.llm_decode.latency_delta),
            "{}",
            f.llm_decode.latency_delta
        );
        // DiT: modest improvement (paper -6.67%).
        assert!(
            (-0.20..=0.02).contains(&f.dit_block.latency_delta),
            "{}",
            f.dit_block.latency_delta
        );
        // Energy: 9.21x / 13.4x / 10.4x, order preserved.
        let ep = f
            .llm_prefill
            .cim
            .mxu_energy_reduction_vs(&f.llm_prefill.baseline);
        let ed = f
            .llm_decode
            .cim
            .mxu_energy_reduction_vs(&f.llm_decode.baseline);
        let et = f
            .dit_block
            .cim
            .mxu_energy_reduction_vs(&f.dit_block.baseline);
        assert!(
            ep > 5.0 && ed > ep && et > 5.0,
            "ep={ep:.1} ed={ed:.1} et={et:.1}"
        );
    }

    #[test]
    fn fig7_tradeoffs_hold() {
        let rows = fig7().unwrap();
        assert_eq!(rows.len(), 10);
        let find = |count: u64, grid: &str| {
            rows.iter()
                .find(|r| r.mxu_count == count && r.grid == grid)
                .unwrap()
        };
        // Memory-bound LLM: doubling peak (16x16 vs 16x8 at 8 MXUs) buys
        // almost nothing (paper: 2.5% improvement at 95% energy increase).
        let big = find(8, "16x16");
        let wide = find(8, "16x8");
        let marginal = 1.0 - big.llm_latency_norm / wide.llm_latency_norm;
        assert!(
            (0.0..0.10).contains(&marginal),
            "16x16 vs 16x8 improvement {marginal:.3}"
        );
        assert!(big.llm_energy_norm > wide.llm_energy_norm);
        // The headline: up to ~44.2% LLM improvement vs the baseline.
        let best = rows
            .iter()
            .map(|r| r.llm_latency_norm)
            .fold(f64::MAX, f64::min);
        assert!((0.5..0.8).contains(&best), "best LLM norm {best:.3}");
        // The smallest config trades latency for huge energy savings
        // (paper: +38% latency, 27.3x energy).
        let smallest = find(2, "8x8");
        assert!(
            (1.2..1.9).contains(&smallest.llm_latency_norm),
            "{}",
            smallest.llm_latency_norm
        );
        assert!(
            smallest.llm_energy_norm < 1.0 / 10.0,
            "{}",
            smallest.llm_energy_norm
        );
        // Compute-bound DiT: bigger configs are monotonically faster
        // (paper: -25.3% at 4x(16x16), -33.8% at 8x(16x16), +100% at 2x(8x8)).
        let d_small = find(2, "8x8").dit_latency_norm;
        let d_mid = find(4, "16x16").dit_latency_norm;
        let d_big = find(8, "16x16").dit_latency_norm;
        assert!(d_big < d_mid && d_mid < 1.0, "mid {d_mid}, big {d_big}");
        assert!((0.55..0.80).contains(&d_big), "big-config DiT norm {d_big}");
        assert!(
            d_small > 1.5,
            "small-config DiT should be much slower: {d_small}"
        );
    }

    #[test]
    fn fig7_fast_path_matches_sequential_uncached_reference() {
        // Acceptance: the memoized parallel sweep must be numerically
        // identical to the pre-optimization path, row for row.
        let fast = fig7_with(SweepMode::Parallel).unwrap();
        let reference = fig7_with(SweepMode::SequentialUncached).unwrap();
        assert_eq!(fast, reference);
    }

    #[test]
    fn batch_sweep_grows_latency_benefit() {
        let rows = sweep_batch().unwrap();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        // Attention items scale with batch and serialize on the baseline:
        // the CIM speedup grows with batch size.
        assert!(
            last.speedup > first.speedup,
            "{} vs {}",
            first.speedup,
            last.speedup
        );
        // The energy advantage persists at every batch size.
        assert!(rows.iter().all(|r| r.energy_reduction > 5.0));
        // Per-layer latency itself is monotone in batch on both designs.
        assert!(rows.windows(2).all(|w| w[1].baseline >= w[0].baseline));
    }

    #[test]
    fn context_sweep_grows_attention_share() {
        let rows = sweep_context().unwrap();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert!(last.baseline_attention_fraction > first.baseline_attention_fraction);
        // Longer contexts widen the CIM advantage.
        assert!(last.speedup > first.speedup);
        // Decode cost grows monotonically with ctx on both architectures.
        assert!(rows.windows(2).all(|w| w[1].baseline >= w[0].baseline));
        assert!(rows.windows(2).all(|w| w[1].cim >= w[0].cim));
    }

    #[test]
    fn hbm_sweep_monotone() {
        let rows = sweep_hbm_bandwidth().unwrap();
        // More bandwidth never slows anything down.
        assert!(rows.windows(2).all(|w| w[1].baseline <= w[0].baseline));
        assert!(rows.windows(2).all(|w| w[1].cim <= w[0].cim));
        // The CIM advantage grows (or at least persists) with bandwidth.
        let first = rows.first().unwrap().speedup;
        let last = rows.last().unwrap().speedup;
        assert!(last >= first * 0.95, "{first} -> {last}");
    }

    #[test]
    fn moe_study_shows_cim_benefit() {
        let rows = moe_study().unwrap();
        assert_eq!(rows.len(), 2);
        let decode = rows.iter().find(|r| r.stage.contains("decode")).unwrap();
        // MoE decoding is weight-streaming heavy: CIM is no slower and far
        // more efficient.
        assert!(decode.speedup >= 1.0, "speedup {}", decode.speedup);
        assert!(decode.energy_reduction > 5.0, "{}", decode.energy_reduction);
    }

    #[test]
    fn ablations_all_positive() {
        for row in ablations().unwrap() {
            assert!(
                row.ratio >= 0.999,
                "{} should not hurt: {}",
                row.knob,
                row.ratio
            );
        }
    }
}
