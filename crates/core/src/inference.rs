//! End-to-end single-chip inference evaluation.
//!
//! The Fig. 7 exploration evaluates *full* LLM inference (prefill of 1024
//! tokens + 512 decode steps) and full DiT forward passes. Decode steps are
//! sampled along the growing context and integrated with the trapezoidal
//! rule, because per-step cost varies slowly (linearly in context length).

use serde::{Deserialize, Serialize};

use cimtpu_models::{DitConfig, LlmInferenceSpec, TransformerConfig};
use cimtpu_units::{Joules, Result, Seconds};

use crate::report::Report;
use crate::simulator::Simulator;

/// Number of decode-step samples used for integration.
const DECODE_SAMPLES: u64 = 9;

/// Cost of one full LLM inference (all layers, prefill + decode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LlmInferenceResult {
    /// Per-layer prefill report (single layer; totals below scale by layers).
    pub prefill_layer: Report,
    /// Prefill latency across all layers.
    pub prefill_latency: Seconds,
    /// Prefill MXU energy across all layers.
    pub prefill_mxu_energy: Joules,
    /// Total decode latency across all layers and output tokens.
    pub decode_latency: Seconds,
    /// Total decode MXU energy.
    pub decode_mxu_energy: Joules,
    /// Tokens generated (batch × output length).
    pub generated_tokens: u64,
}

impl LlmInferenceResult {
    /// End-to-end latency.
    pub fn total_latency(&self) -> Seconds {
        self.prefill_latency + self.decode_latency
    }

    /// End-to-end MXU energy.
    pub fn total_mxu_energy(&self) -> Joules {
        self.prefill_mxu_energy + self.decode_mxu_energy
    }

    /// Generation throughput in tokens per second (decode-phase tokens over
    /// end-to-end latency, the usual serving metric).
    pub fn tokens_per_second(&self) -> f64 {
        self.generated_tokens as f64 / self.total_latency().get()
    }
}

/// Simulates full LLM inference on one chip.
///
/// # Errors
///
/// Returns an error if any operator cannot be mapped.
///
/// # Examples
///
/// ```
/// use cimtpu_core::{inference, Simulator, TpuConfig};
/// use cimtpu_models::{presets, LlmInferenceSpec};
///
/// let sim = Simulator::new(TpuConfig::design_a())?;
/// let spec = LlmInferenceSpec::new(8, 128, 32)?;
/// let r = inference::run_llm(&sim, &presets::gpt3_30b(), spec)?;
/// assert!(r.decode_latency > r.prefill_latency); // decoding dominates
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
pub fn run_llm(
    sim: &Simulator,
    model: &TransformerConfig,
    spec: LlmInferenceSpec,
) -> Result<LlmInferenceResult> {
    let layers = model.layers() as f64;

    // Prefill: all layers are identical.
    let prefill_layer = sim.run(&model.prefill_layer(spec.batch(), spec.input_len())?)?;
    let prefill_latency = prefill_layer.total_latency() * layers;
    let prefill_mxu_energy = prefill_layer.mxu_energy() * layers;

    // Decode: sample steps along the growing context, integrate. Only the
    // totals are read, so the samples are priced without per-operator
    // reports (the same sums in the same order as `Report`'s).
    let steps = spec.sampled_decode_steps(DECODE_SAMPLES);
    let mut sampled: Vec<(f64, Seconds, Joules)> = Vec::with_capacity(steps.len());
    for &step in &steps {
        let ctx = spec.ctx_at_step(step);
        let cost = sim.price_ops(model.decode_layer(spec.batch(), ctx)?.ops())?;
        sampled.push((step as f64, cost.latency, cost.mxu_energy));
    }
    let (decode_latency, decode_mxu_energy) = integrate(&sampled, spec.output_len());

    Ok(LlmInferenceResult {
        prefill_layer,
        prefill_latency,
        prefill_mxu_energy,
        decode_latency: decode_latency * layers,
        decode_mxu_energy: decode_mxu_energy * layers,
        generated_tokens: spec.total_generated_tokens(),
    })
}

/// Trapezoidal integration of per-step cost over all decode steps.
fn integrate(samples: &[(f64, Seconds, Joules)], total_steps: u64) -> (Seconds, Joules) {
    if samples.len() == 1 {
        return (
            samples[0].1 * total_steps as f64,
            samples[0].2 * total_steps as f64,
        );
    }
    let mut lat = 0.0;
    let mut energy = 0.0;
    for pair in samples.windows(2) {
        let (x0, t0, e0) = pair[0];
        let (x1, t1, e1) = pair[1];
        let w = x1 - x0;
        lat += 0.5 * (t0.get() + t1.get()) * w;
        energy += 0.5 * (e0.get() + e1.get()) * w;
    }
    // The sample range covers steps 0..=total-1; scale any rounding gap.
    let covered = samples.last().expect("non-empty").0 - samples[0].0;
    let scale = if covered > 0.0 {
        total_steps as f64 / (covered + 1.0)
    } else {
        total_steps as f64
    };
    (
        Seconds::new(lat * scale.max(1.0)),
        Joules::new(energy * scale.max(1.0)),
    )
}

/// Cost of one full DiT forward pass (one diffusion step).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DitInferenceResult {
    /// Per-block report (all blocks are identical).
    pub block: Report,
    /// Number of DiT blocks.
    pub blocks: u64,
    /// Latency of all blocks (one diffusion step).
    pub total_latency: Seconds,
    /// MXU energy of all blocks.
    pub total_mxu_energy: Joules,
    /// Images per forward pass (the batch size).
    pub batch: u64,
}

impl DitInferenceResult {
    /// Throughput in images per second for a sampler with `steps`
    /// diffusion steps.
    pub fn images_per_second(&self, steps: u64) -> f64 {
        self.batch as f64 / (self.total_latency.get() * steps as f64)
    }
}

/// Simulates one DiT forward pass (all blocks) on one chip.
///
/// # Errors
///
/// Returns an error if any operator cannot be mapped.
///
/// # Examples
///
/// ```
/// use cimtpu_core::{inference, Simulator, TpuConfig};
/// use cimtpu_models::presets;
///
/// let sim = Simulator::new(TpuConfig::design_b())?;
/// let r = inference::run_dit(&sim, &presets::dit_xl_2(), 8, 256)?;
/// assert_eq!(r.blocks, 28);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
pub fn run_dit(
    sim: &Simulator,
    dit: &DitConfig,
    batch: u64,
    resolution: u64,
) -> Result<DitInferenceResult> {
    let block = sim.run(&dit.block(batch, resolution)?)?;
    let blocks = dit.blocks();
    Ok(DitInferenceResult {
        total_latency: block.total_latency() * blocks as f64,
        total_mxu_energy: block.mxu_energy() * blocks as f64,
        block,
        blocks,
        batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::TpuConfig;
    use cimtpu_models::presets;

    #[test]
    fn decode_dominates_fig7_spec() {
        // Paper: with 1024 in / 512 out, "Decoding dominates the latency and
        // energy consumption of MXUs".
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let r = run_llm(
            &sim,
            &presets::gpt3_30b(),
            LlmInferenceSpec::paper_fig7(8).unwrap(),
        )
        .unwrap();
        assert!(r.decode_latency > r.prefill_latency);
        assert!(r.decode_mxu_energy > r.prefill_mxu_energy);
    }

    #[test]
    fn decode_sampling_hits_the_mapping_cache() {
        // The weight GEMMs (QKV, projection, FFN1/2) are identical across
        // all decode-context samples; only the attention matmuls change
        // shape with the context. After the first sampled step, every
        // weight-GEMM query must be a cache hit.
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let spec = LlmInferenceSpec::new(8, 256, 64).unwrap();
        run_llm(&sim, &presets::gpt3_30b(), spec).unwrap();
        let stats = sim.cache_stats();
        assert!(stats.hits > 0, "no cache hits during run_llm: {stats:?}");
        // 9 decode samples share one set of weight-GEMM shapes: the bulk of
        // matrix queries must be served from the cache.
        assert!(
            stats.hit_rate() > 0.5,
            "decode sampling should be cache-dominated: {stats:?}"
        );
        assert_eq!(stats.entries as u64, stats.misses);
    }

    #[test]
    fn map_space_counts_pin_the_incumbent_bound() {
        // One Table IV CIM point (Design B: 8 x 16x8 CIM-MXUs) pricing
        // GPT-3-30B (1024/512, batch 8) and DiT-XL/2 (512x512, batch 8)
        // cold. The incumbent bound skips the engine for about half the
        // enumerated candidates; losing it (or the pruning) moves a count.
        let sim = Simulator::new(TpuConfig::design_b()).unwrap();
        run_llm(
            &sim,
            &presets::gpt3_30b(),
            LlmInferenceSpec::new(8, 1024, 512).unwrap(),
        )
        .unwrap();
        run_dit(&sim, &presets::dit_xl_2(), 8, 512).unwrap();
        let stats = sim.cache_stats();
        assert!(stats.map_priced < stats.map_candidates, "{stats:?}");
        assert_eq!(
            (stats.map_candidates, stats.map_priced),
            (1876, 985),
            "{stats:?}"
        );
    }

    #[test]
    fn decode_totals_match_report_totals_bit_for_bit() {
        // The decode samples are priced through `price_ops`; summing the
        // per-operator reports of `Simulator::run` instead must give the
        // same bits on the baseline and every Table IV design.
        let gpt3 = presets::gpt3_30b();
        let spec = LlmInferenceSpec::new(8, 1024, 512).unwrap();
        let layers = gpt3.layers() as f64;
        let mut configs = vec![TpuConfig::tpuv4i()];
        configs.extend(TpuConfig::table4_designs());
        for cfg in configs {
            let sim = Simulator::new(cfg).unwrap();
            let r = run_llm(&sim, &gpt3, spec).unwrap();
            let sampled: Vec<(f64, Seconds, Joules)> = spec
                .sampled_decode_steps(DECODE_SAMPLES)
                .into_iter()
                .map(|step| {
                    let layer = gpt3
                        .decode_layer(spec.batch(), spec.ctx_at_step(step))
                        .unwrap();
                    let rep = sim.run(&layer).unwrap();
                    (step as f64, rep.total_latency(), rep.mxu_energy())
                })
                .collect();
            let (latency, energy) = integrate(&sampled, spec.output_len());
            let name = sim.config().name();
            assert_eq!(
                r.decode_latency.get().to_bits(),
                (latency * layers).get().to_bits(),
                "{name}"
            );
            assert_eq!(
                r.decode_mxu_energy.get().to_bits(),
                (energy * layers).get().to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn integration_is_exact_for_linear_cost() {
        // Cost linear in step: trapezoid integrates exactly.
        let samples: Vec<(f64, Seconds, Joules)> = (0..=8)
            .map(|i| {
                let x = (i * 63) as f64; // steps 0..=504 of 512
                (x, Seconds::new(1.0 + x), Joules::new(2.0 * x))
            })
            .collect();
        let (lat, _e) = integrate(&samples, 512);
        // Exact integral of (1+x) over 512 steps ≈ 512 + 512*511/2.
        let exact = 512.0 + 0.5 * 512.0 * 511.0;
        assert!((lat.get() - exact).abs() / exact < 0.05, "{}", lat.get());
    }

    #[test]
    fn cim_llm_inference_beats_baseline() {
        // Direction of Fig. 7: CIM variants cut energy by an order of
        // magnitude at comparable-or-better latency.
        let base = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let spec = LlmInferenceSpec::new(8, 256, 64).unwrap();
        let gpt3 = presets::gpt3_30b();
        let rb = run_llm(&base, &gpt3, spec).unwrap();
        let rc = run_llm(&cim, &gpt3, spec).unwrap();
        assert!(rc.total_latency() < rb.total_latency());
        assert!(rc.total_mxu_energy().get() * 5.0 < rb.total_mxu_energy().get());
        assert!(rc.tokens_per_second() > rb.tokens_per_second());
    }

    #[test]
    fn dit_result_scales_blocks() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let r = run_dit(&sim, &presets::dit_xl_2(), 8, 256).unwrap();
        let per_block = r.block.total_latency();
        assert!((r.total_latency.get() - per_block.get() * 28.0).abs() < 1e-12);
        assert!(r.images_per_second(50) > 0.0);
    }
}
