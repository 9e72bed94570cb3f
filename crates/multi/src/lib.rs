//! Multi-TPU inference: ICI ring topology, collectives, tensor and
//! pipeline parallelism (paper Section V-B).
//!
//! TPUv4i chips carry two 100 GB/s ICI links; up to four chips are
//! connected in a ring, enabling:
//!
//! - [`RingTopology`] — collective cost models (ring all-reduce,
//!   all-gather, neighbour point-to-point);
//! - [`tensor_parallel`] — Megatron-style sharding of a Transformer layer
//!   across chips (column-parallel QKV/FFN1, row-parallel Proj/FFN2, two
//!   all-reduces per layer);
//! - [`pipeline`] — pipeline parallelism with micro-batching (the Fig. 8
//!   configuration: up to 4-way pipeline over the ring);
//! - [`ThroughputResult`] — inference throughput and MXU energy for the
//!   Fig. 8 comparison between the baseline TPU, Design A and Design B.
//!
//! # Examples
//!
//! ```
//! use cimtpu_core::TpuConfig;
//! use cimtpu_models::{presets, LlmInferenceSpec};
//! use cimtpu_multi::MultiTpu;
//!
//! let cluster = MultiTpu::new(TpuConfig::design_a(), 4)?;
//! let spec = LlmInferenceSpec::new(8, 128, 32)?;
//! let r = cluster.llm_pipeline_throughput(&presets::gpt3_30b(), spec)?;
//! assert!(r.throughput > 0.0);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod pipeline;
pub mod tensor_parallel;
mod topology;

pub use topology::RingTopology;

use serde::{Deserialize, Serialize};

use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_models::{DitConfig, LlmInferenceSpec, TransformerConfig};
use cimtpu_units::{Error, Joules, Result, Seconds};

/// Throughput and energy of a multi-chip inference configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThroughputResult {
    /// Devices used.
    pub devices: u64,
    /// Tokens/s (LLM) or images/s (DiT).
    pub throughput: f64,
    /// Aggregate MXU energy per generated token (LLM) or per image (DiT).
    pub mxu_energy_per_unit: Joules,
    /// Steady-state latency of one pipeline round (or one sharded step).
    pub round_latency: Seconds,
}

/// A ring of identical TPU chips.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct MultiTpu {
    sim: Simulator,
    topology: RingTopology,
}

impl MultiTpu {
    /// Creates a cluster of `devices` chips of configuration `config`
    /// connected in a ring over their ICI links.
    ///
    /// # Errors
    ///
    /// Returns an error for zero devices or an invalid chip configuration.
    pub fn new(config: TpuConfig, devices: u64) -> Result<Self> {
        if devices == 0 {
            return Err(Error::invalid_config("device count must be non-zero"));
        }
        let topology = RingTopology::new(devices, config.ici_links(), config.ici_link_bandwidth())?;
        Ok(MultiTpu {
            sim: Simulator::new(config)?,
            topology,
        })
    }

    /// The per-chip simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The ring topology.
    pub fn topology(&self) -> &RingTopology {
        &self.topology
    }

    /// Number of devices.
    pub fn devices(&self) -> u64 {
        self.topology.devices()
    }

    /// LLM inference throughput with pipeline parallelism across the ring
    /// (the Fig. 8 configuration).
    ///
    /// # Errors
    ///
    /// Returns an error if the workload cannot be mapped or layers cannot
    /// be split over the devices.
    pub fn llm_pipeline_throughput(
        &self,
        model: &TransformerConfig,
        spec: LlmInferenceSpec,
    ) -> Result<ThroughputResult> {
        pipeline::llm_throughput(self, model, spec)
    }

    /// DiT inference throughput with pipeline parallelism across the ring.
    ///
    /// # Errors
    ///
    /// Returns an error if the workload cannot be mapped.
    pub fn dit_pipeline_throughput(
        &self,
        dit: &DitConfig,
        batch: u64,
        resolution: u64,
        diffusion_steps: u64,
    ) -> Result<ThroughputResult> {
        pipeline::dit_throughput(self, dit, batch, resolution, diffusion_steps)
    }

    /// LLM per-layer latency with tensor parallelism across the ring
    /// (Megatron-style sharding + 2 all-reduces).
    ///
    /// # Errors
    ///
    /// Returns an error if the sharded layer cannot be built or mapped.
    pub fn llm_tensor_parallel_decode_layer(
        &self,
        model: &TransformerConfig,
        batch: u64,
        ctx: u64,
    ) -> Result<Seconds> {
        tensor_parallel::decode_layer_latency(self, model, batch, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_models::presets;

    #[test]
    fn rejects_zero_devices() {
        assert!(MultiTpu::new(TpuConfig::tpuv4i(), 0).is_err());
    }

    #[test]
    fn throughput_scales_with_devices() {
        // Fig. 8: throughput grows close to linearly from 1 to 4 TPUs.
        let spec = LlmInferenceSpec::new(8, 128, 32).unwrap();
        let gpt3 = presets::gpt3_30b();
        let t1 = MultiTpu::new(TpuConfig::tpuv4i(), 1)
            .unwrap()
            .llm_pipeline_throughput(&gpt3, spec)
            .unwrap();
        let t4 = MultiTpu::new(TpuConfig::tpuv4i(), 4)
            .unwrap()
            .llm_pipeline_throughput(&gpt3, spec)
            .unwrap();
        let scaling = t4.throughput / t1.throughput;
        assert!((2.5..4.05).contains(&scaling), "1->4 scaling {scaling:.2}");
    }

    #[test]
    fn design_a_beats_baseline_on_llm_throughput() {
        // Fig. 8: Design A averages ~28% higher LLM throughput and ~24x
        // lower MXU energy than the baseline (decode-dominated 1024/512
        // spec — on prefill-heavy workloads Design A's half peak loses).
        let spec = LlmInferenceSpec::paper_fig7(8).unwrap();
        let gpt3 = presets::gpt3_30b();
        for devices in [1u64, 2, 4] {
            let base = MultiTpu::new(TpuConfig::tpuv4i(), devices)
                .unwrap()
                .llm_pipeline_throughput(&gpt3, spec)
                .unwrap();
            let a = MultiTpu::new(TpuConfig::design_a(), devices)
                .unwrap()
                .llm_pipeline_throughput(&gpt3, spec)
                .unwrap();
            assert!(
                a.throughput > base.throughput,
                "{devices} devices: A {} vs base {}",
                a.throughput,
                base.throughput
            );
            let energy_ratio = base.mxu_energy_per_unit.get() / a.mxu_energy_per_unit.get();
            assert!(energy_ratio > 10.0, "energy ratio {energy_ratio:.1}");
        }
    }

    #[test]
    fn design_b_beats_baseline_on_dit_throughput() {
        // Fig. 8: Design B ~33% higher DiT throughput, ~6.34x lower energy.
        for devices in [1u64, 2, 4] {
            let base = MultiTpu::new(TpuConfig::tpuv4i(), devices)
                .unwrap()
                .dit_pipeline_throughput(&presets::dit_xl_2(), 8, 256, 50)
                .unwrap();
            let b = MultiTpu::new(TpuConfig::design_b(), devices)
                .unwrap()
                .dit_pipeline_throughput(&presets::dit_xl_2(), 8, 256, 50)
                .unwrap();
            assert!(b.throughput > base.throughput, "{devices} devices");
            let energy_ratio = base.mxu_energy_per_unit.get() / b.mxu_energy_per_unit.get();
            assert!(energy_ratio > 3.0, "energy ratio {energy_ratio:.1}");
        }
    }
}
