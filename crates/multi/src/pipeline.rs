//! Pipeline parallelism with micro-batching over the ICI ring.
//!
//! Layers are split into `p` contiguous stages, one per chip; `p`
//! micro-batches keep every stage busy in steady state (GPipe-style).
//! System throughput is then one micro-batch per stage time, where a stage
//! time is the per-layer cost times `layers / p` plus the activation
//! hand-off to the next chip.

use cimtpu_core::inference;
use cimtpu_models::{DitConfig, LlmInferenceSpec, TransformerConfig};
use cimtpu_units::{Bytes, Joules, Result, Seconds};

use crate::{MultiTpu, ThroughputResult};

/// LLM inference throughput under pipeline parallelism.
pub(crate) fn llm_throughput(
    cluster: &MultiTpu,
    model: &TransformerConfig,
    spec: LlmInferenceSpec,
) -> Result<ThroughputResult> {
    let p = cluster.devices();
    let sim = cluster.simulator();

    // Full single-chip cost of the whole model (all layers).
    let full = inference::run_llm(sim, model, spec)?;
    let total_latency = full.total_latency();
    let total_energy = full.total_mxu_energy();

    // Per-request stage work is 1/p of the model; activations hop between
    // stages once per layer boundary per token step (prefill + decode).
    let activation_bytes = Bytes::new(spec.batch() * model.d_model() * model.dtype().size_bytes());
    let hops_per_request = (spec.output_len() + 1) * (p - 1);
    let comm_per_request = cluster.topology().p2p_time(activation_bytes) * hops_per_request as f64;

    // Steady state: p micro-batches in flight; each stage finishes one
    // request's worth of its stage every (total/p + comm/p).
    let round = Seconds::new((total_latency + comm_per_request).get() / p as f64);
    let tokens = spec.total_generated_tokens() as f64;
    let throughput = tokens / round.get();

    // Energy per token: compute energy is conserved across stages; idle
    // bubbles are negligible in steady state with full micro-batching.
    let energy_per_token = Joules::new(total_energy.get() / tokens);

    Ok(ThroughputResult {
        devices: p,
        throughput,
        mxu_energy_per_unit: energy_per_token,
        round_latency: round,
    })
}

/// DiT inference throughput under pipeline parallelism.
pub(crate) fn dit_throughput(
    cluster: &MultiTpu,
    dit: &DitConfig,
    batch: u64,
    resolution: u64,
    diffusion_steps: u64,
) -> Result<ThroughputResult> {
    let p = cluster.devices();
    let sim = cluster.simulator();

    let fwd = inference::run_dit(sim, dit, batch, resolution)?;
    let per_image_latency = Seconds::new(fwd.total_latency.get() * diffusion_steps as f64);
    let per_image_energy =
        Joules::new(fwd.total_mxu_energy.get() * diffusion_steps as f64 / batch as f64);

    let tokens_bytes = Bytes::new(
        batch
            * dit.tokens_for_resolution(resolution)?
            * dit.transformer().d_model()
            * dit.transformer().dtype().size_bytes(),
    );
    let hops = diffusion_steps * (p - 1);
    let comm = cluster.topology().p2p_time(tokens_bytes) * hops as f64;

    let round = Seconds::new((per_image_latency + comm).get() / p as f64);
    let throughput = batch as f64 / round.get();

    Ok(ThroughputResult {
        devices: p,
        throughput,
        mxu_energy_per_unit: per_image_energy,
        round_latency: round,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_core::TpuConfig;
    use cimtpu_models::presets;

    #[test]
    fn pipeline_scaling_is_sublinear_but_close() {
        let spec = LlmInferenceSpec::new(8, 128, 32).unwrap();
        let gpt3 = presets::gpt3_30b();
        let mut last = 0.0;
        for devices in [1u64, 2, 4] {
            let r = MultiTpu::new(TpuConfig::tpuv4i(), devices)
                .unwrap()
                .llm_pipeline_throughput(&gpt3, spec)
                .unwrap();
            assert!(r.throughput > last, "{devices} devices regressed");
            last = r.throughput;
        }
    }

    #[test]
    fn dit_throughput_positive_and_scaling() {
        let r1 = MultiTpu::new(TpuConfig::tpuv4i(), 1)
            .unwrap()
            .dit_pipeline_throughput(&presets::dit_xl_2(), 8, 256, 50)
            .unwrap();
        let r4 = MultiTpu::new(TpuConfig::tpuv4i(), 4)
            .unwrap()
            .dit_pipeline_throughput(&presets::dit_xl_2(), 8, 256, 50)
            .unwrap();
        assert!(r1.throughput > 0.0);
        let scaling = r4.throughput / r1.throughput;
        assert!((2.5..4.05).contains(&scaling), "scaling {scaling:.2}");
    }

    #[test]
    fn energy_per_unit_independent_of_device_count() {
        // Pipeline parallelism redistributes work; MXU energy per token is
        // conserved (same total compute).
        let spec = LlmInferenceSpec::new(8, 128, 32).unwrap();
        let gpt3 = presets::gpt3_30b();
        let e1 = MultiTpu::new(TpuConfig::design_a(), 1)
            .unwrap()
            .llm_pipeline_throughput(&gpt3, spec)
            .unwrap()
            .mxu_energy_per_unit;
        let e4 = MultiTpu::new(TpuConfig::design_a(), 4)
            .unwrap()
            .llm_pipeline_throughput(&gpt3, spec)
            .unwrap()
            .mxu_energy_per_unit;
        assert!((e1.get() / e4.get() - 1.0).abs() < 1e-9);
    }
}
