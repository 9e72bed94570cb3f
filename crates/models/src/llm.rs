//! Full-LLM model graphs and inference specifications.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, GemmShape, Result};

use crate::op::{Op, OpCategory, OpInstance};
use crate::phase::Phase;
use crate::transformer::TransformerConfig;
use crate::workload::Workload;

/// A full LLM: Transformer stack plus embedding table and prediction head
/// (Fig. 2a).
///
/// # Examples
///
/// ```
/// use cimtpu_models::presets;
/// let llama = presets::llama2_13b_full();
/// let w = llama.full_prefill(8, 256)?;
/// assert!(w.ops().iter().any(|o| o.name() == "Token Embedding"));
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LlmModelConfig {
    transformer: TransformerConfig,
    vocab: u64,
}

impl LlmModelConfig {
    /// Creates a full-model configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `vocab` is zero.
    pub(crate) fn new(transformer: TransformerConfig, vocab: u64) -> Result<Self> {
        if vocab == 0 {
            return Err(Error::invalid_config("vocabulary must be non-zero"));
        }
        Ok(LlmModelConfig { transformer, vocab })
    }

    /// Full-model prefill: token embedding, every layer, prediction head
    /// for the last position.
    ///
    /// # Errors
    ///
    /// Propagates shape errors for zero `batch`/`seq`.
    pub fn full_prefill(&self, batch: u64, seq: u64) -> Result<Workload> {
        let t = &self.transformer;
        let dtype = t.dtype();
        let mut w = Workload::new(format!("{} full prefill (B={batch}, L={seq})", t.name()));
        w.begin_segment("embedding", Phase::PrePost);
        w.push(OpInstance::new(
            "Token Embedding",
            OpCategory::Embedding,
            Op::EmbeddingLookup {
                tokens: batch * seq,
                d_model: t.d_model(),
                dtype,
            },
        ));
        let layer = t.prefill_layer(batch, seq)?;
        w.extend_repeated(&layer, t.layers());
        // Head evaluated once per sequence (next-token logits).
        w.begin_segment("head", Phase::PrePost);
        w.push(OpInstance::new(
            "Prediction Head",
            OpCategory::Head,
            Op::Gemm {
                shape: GemmShape::new(batch, t.d_model(), self.vocab)?,
                dtype,
            },
        ));
        Ok(w)
    }

    /// Full-model single decode step at context length `ctx`: embedding for
    /// the incoming token, every layer, prediction head.
    ///
    /// # Errors
    ///
    /// Propagates shape errors for zero `batch`/`ctx`.
    pub fn full_decode_step(&self, batch: u64, ctx: u64) -> Result<Workload> {
        let t = &self.transformer;
        let dtype = t.dtype();
        let mut w = Workload::new(format!("{} full decode (B={batch}, ctx={ctx})", t.name()));
        w.begin_segment("embedding", Phase::PrePost);
        w.push(OpInstance::new(
            "Token Embedding",
            OpCategory::Embedding,
            Op::EmbeddingLookup {
                tokens: batch,
                d_model: t.d_model(),
                dtype,
            },
        ));
        let layer = t.decode_layer(batch, ctx)?;
        w.extend_repeated(&layer, t.layers());
        w.begin_segment("head", Phase::PrePost);
        w.push(OpInstance::new(
            "Prediction Head",
            OpCategory::Head,
            Op::Gemm {
                shape: GemmShape::new(batch, t.d_model(), self.vocab)?,
                dtype,
            },
        ));
        Ok(w)
    }
}

/// End-to-end LLM inference shape: input (prompt) and output lengths.
///
/// The paper's Fig. 7 uses 1024 input and 512 output tokens "to reflect
/// typical real-world scenarios, in which Decoding dominates".
///
/// # Examples
///
/// ```
/// use cimtpu_models::LlmInferenceSpec;
/// let spec = LlmInferenceSpec::paper_fig7(8)?;
/// assert_eq!((spec.input_len(), spec.output_len()), (1024, 512));
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LlmInferenceSpec {
    batch: u64,
    input_len: u64,
    output_len: u64,
}

impl LlmInferenceSpec {
    /// Creates an inference spec.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if any field is zero.
    pub fn new(batch: u64, input_len: u64, output_len: u64) -> Result<Self> {
        if batch == 0 || input_len == 0 || output_len == 0 {
            return Err(Error::invalid_shape(
                "batch, input_len and output_len must be non-zero",
            ));
        }
        Ok(LlmInferenceSpec {
            batch,
            input_len,
            output_len,
        })
    }

    /// The Fig. 7 configuration: 1024 input, 512 output tokens.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `batch` is zero.
    pub fn paper_fig7(batch: u64) -> Result<Self> {
        LlmInferenceSpec::new(batch, 1024, 512)
    }

    /// Batch size.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Prompt length.
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Generated tokens.
    pub fn output_len(&self) -> u64 {
        self.output_len
    }

    /// Context length at decode step `step` (0-based): the prompt plus all
    /// previously generated tokens plus the current one.
    pub fn ctx_at_step(&self, step: u64) -> u64 {
        self.input_len + step + 1
    }

    /// Representative decode-step context lengths for sampled simulation:
    /// up to `samples` evenly spaced steps (always including first and last).
    ///
    /// Simulating all `output_len` steps is wasteful since per-step cost
    /// varies slowly (linearly in ctx); callers integrate over these samples
    /// with [`LlmInferenceSpec::output_len`] weighting.
    pub fn sampled_decode_steps(&self, samples: u64) -> Vec<u64> {
        let samples = samples.clamp(1, self.output_len);
        if samples == 1 {
            return vec![self.output_len / 2];
        }
        (0..samples)
            .map(|i| (i * (self.output_len - 1)) / (samples - 1))
            .collect()
    }

    /// Precision-weighted total tokens generated across the batch.
    pub fn total_generated_tokens(&self) -> u64 {
        self.batch * self.output_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn full_prefill_structure() {
        let llm = presets::gpt3_30b_full();
        let w = llm.full_prefill(8, 128).unwrap();
        let names: Vec<&str> = w.ops().iter().map(OpInstance::name).collect();
        assert_eq!(names.first(), Some(&"Token Embedding"));
        assert_eq!(names.last(), Some(&"Prediction Head"));
        // Layer ops are repeated 48x.
        let qkv = w.ops().iter().find(|o| o.name() == "QKV Gen").unwrap();
        assert_eq!(qkv.count(), 48);
    }

    #[test]
    fn full_prefill_segments_wrap_layers() {
        use crate::Phase;
        let llm = presets::gpt3_30b_full();
        let w = llm.full_prefill(8, 128).unwrap();
        let first = w.segments().next().unwrap();
        assert_eq!((first.name(), first.phase()), ("embedding", Phase::PrePost));
        let last = w.segments().last().unwrap();
        assert_eq!((last.name(), last.phase()), ("head", Phase::PrePost));
        assert_eq!(w.phases(), vec![Phase::PrePost, Phase::Prefill]);
        assert_eq!(
            w.macs_in_phase(Phase::PrePost) + w.macs_in_phase(Phase::Prefill),
            w.total_macs()
        );
    }

    #[test]
    fn params_scale() {
        // Layers + embedding + head, tied counted once each (the GPT-3
        // convention).
        let params = |m: &LlmModelConfig| {
            let t = &m.transformer;
            t.weight_params_per_layer() * t.layers() + 2 * m.vocab * t.d_model()
        };
        // The generic 2-matrix FFN undercounts Llama2's gated FFN (3
        // matrices) slightly; ~10B of the nominal 13B is expected here.
        let billions = params(&presets::llama2_13b_full()) as f64 / 1e9;
        assert!((9.0..14.5).contains(&billions), "got {billions}B params");

        let billions = params(&presets::gpt3_30b_full()) as f64 / 1e9;
        assert!((28.0..32.0).contains(&billions), "got {billions}B params");
    }

    #[test]
    fn sampled_steps_cover_range() {
        let spec = LlmInferenceSpec::paper_fig7(8).unwrap();
        let steps = spec.sampled_decode_steps(9);
        assert_eq!(steps.first(), Some(&0));
        assert_eq!(steps.last(), Some(&511));
        assert_eq!(steps.len(), 9);
        assert!(steps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sampled_steps_degenerate_cases() {
        let spec = LlmInferenceSpec::new(1, 16, 1).unwrap();
        assert_eq!(spec.sampled_decode_steps(8), vec![0]);
        let spec = LlmInferenceSpec::new(1, 16, 4).unwrap();
        assert_eq!(spec.sampled_decode_steps(100).len(), 4);
    }

    #[test]
    fn ctx_grows_with_steps() {
        let spec = LlmInferenceSpec::paper_fig7(8).unwrap();
        assert_eq!(spec.ctx_at_step(0), 1025);
        assert_eq!(spec.ctx_at_step(255), 1280); // the paper's "256th token"
    }
}
