//! Memory-capacity accounting: does a model fit the chip?
//!
//! Table I gives the TPUv4i 8 GB of main memory. The paper's evaluations
//! (like ours) simulate per-layer behaviour and sidestep capacity, but a
//! deployment tool must answer "how many chips do I need just to *hold*
//! the model?" — this module does that bookkeeping, advisory rather than
//! enforced, so the paper's single-chip experiments remain reproducible.

use serde::{Deserialize, Serialize};

use cimtpu_models::{LlmInferenceSpec, TransformerConfig};
use cimtpu_units::Bytes;

use crate::arch::TpuConfig;

/// Main-memory footprint of a resident model plus its inference state.
///
/// # Examples
///
/// ```
/// use cimtpu_core::{memory::MemoryFootprint, TpuConfig};
/// use cimtpu_models::{presets, LlmInferenceSpec};
///
/// let spec = LlmInferenceSpec::paper_fig7(8)?;
/// let fp = MemoryFootprint::llm(&presets::gpt3_30b(), spec);
/// // GPT-3-30B at INT8 does not fit one 8 GB TPUv4i…
/// assert!(!fp.fits(&TpuConfig::tpuv4i()));
/// // …it needs a handful of chips just for capacity.
/// assert!(fp.min_devices(&TpuConfig::tpuv4i()) >= 4);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    weights: Bytes,
    kv_cache: Bytes,
    activations: Bytes,
}

impl MemoryFootprint {
    /// Footprint of a full LLM at the end of `spec` (maximum KV occupancy).
    pub fn llm(model: &TransformerConfig, spec: LlmInferenceSpec) -> Self {
        let layers = model.layers();
        let max_ctx = spec.ctx_at_step(spec.output_len().saturating_sub(1));
        let weights = Bytes::new(model.weight_bytes_per_layer().get() * layers);
        let kv_cache =
            Bytes::new(model.kv_cache_bytes_per_layer(spec.batch(), max_ctx).get() * layers);
        // Activation working set: a few layer-widths of the live batch.
        let activations =
            Bytes::new(4 * spec.batch() * max_ctx * model.d_model() * model.dtype().size_bytes());
        MemoryFootprint {
            weights,
            kv_cache,
            activations,
        }
    }

    /// Model weight bytes.
    pub fn weights(&self) -> Bytes {
        self.weights
    }

    /// KV-cache bytes at maximum context.
    pub fn kv_cache(&self) -> Bytes {
        self.kv_cache
    }

    /// Activation working-set bytes.
    pub fn activations(&self) -> Bytes {
        self.activations
    }

    /// Total main-memory requirement.
    pub fn total(&self) -> Bytes {
        self.weights + self.kv_cache + self.activations
    }

    /// Whether the footprint fits one chip's main memory.
    pub fn fits(&self, config: &TpuConfig) -> bool {
        self.total() <= config.hbm_capacity()
    }

    /// Minimum number of chips needed to hold the model (weights and KV
    /// shard across devices; activations replicate).
    pub fn min_devices(&self, config: &TpuConfig) -> u64 {
        let cap = config.hbm_capacity().get();
        let replicated = self.activations.get();
        if replicated >= cap {
            return u64::MAX; // activations alone exceed a chip
        }
        let shardable = (self.weights + self.kv_cache).get();
        shardable.div_ceil(cap - replicated).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_models::presets;

    #[test]
    fn gpt3_30b_needs_multiple_chips() {
        let spec = LlmInferenceSpec::paper_fig7(8).unwrap();
        let fp = MemoryFootprint::llm(&presets::gpt3_30b(), spec);
        // ~29.6 GB of weights alone at INT8.
        assert!(fp.weights() > Bytes::from_gib(25));
        assert!(!fp.fits(&TpuConfig::tpuv4i()));
        let n = fp.min_devices(&TpuConfig::tpuv4i());
        assert!((4..=6).contains(&n), "min devices {n}");
    }

    #[test]
    fn small_models_fit_one_chip() {
        let spec = LlmInferenceSpec::new(1, 128, 32).unwrap();
        let fp = MemoryFootprint::llm(&presets::gpt3_6_7b(), spec);
        assert!(fp.fits(&TpuConfig::tpuv4i()), "total {}", fp.total());
        assert_eq!(fp.min_devices(&TpuConfig::tpuv4i()), 1);
    }

    #[test]
    fn kv_cache_grows_with_batch_and_context() {
        let small = MemoryFootprint::llm(
            &presets::gpt3_30b(),
            LlmInferenceSpec::new(1, 128, 32).unwrap(),
        );
        let big = MemoryFootprint::llm(
            &presets::gpt3_30b(),
            LlmInferenceSpec::new(16, 2048, 512).unwrap(),
        );
        assert!(big.kv_cache() > small.kv_cache() * 100);
        assert_eq!(big.weights(), small.weights());
    }

    #[test]
    fn total_is_sum() {
        let fp = MemoryFootprint::llm(
            &presets::llama2_13b(),
            LlmInferenceSpec::new(4, 512, 128).unwrap(),
        );
        assert_eq!(fp.total(), fp.weights() + fp.kv_cache() + fp.activations());
    }
}
