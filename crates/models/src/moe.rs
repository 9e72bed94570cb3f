//! Mixture-of-Experts (MoE) Transformer layers — an extension beyond the
//! paper's dense models.
//!
//! MoE layers replace the dense FFN with `experts` expert FFNs of which
//! each token activates `top_k`. For *decoding* this is the worst case for
//! weight locality: a small batch scatters across many experts, so weight
//! traffic multiplies while compute per expert collapses to GEMV shape —
//! exactly the regime where the CIM-MXU's overlapped weight updates and
//! energy efficiency matter most. Expert FFNs with distinct weights and few
//! rows each are modeled with the same [`Op::BatchedMatmul`] primitive as
//! attention.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, GemmShape, Result};

use crate::op::{Op, OpCategory, OpInstance};
use crate::phase::Phase;
use crate::transformer::TransformerConfig;
use crate::workload::Workload;

/// Copies `dense`'s segments into `out`, dropping the dense-FFN operators
/// that the MoE layer replaces (the attention half and glue carry over
/// unchanged, segment structure included).
fn copy_without_dense_ffn(out: &mut Workload, dense: &Workload) {
    for seg in dense.segments() {
        out.begin_segment(seg.name(), seg.phase());
        for op in seg.ops() {
            if !matches!(
                op.category(),
                OpCategory::Ffn1 | OpCategory::Ffn2 | OpCategory::Gelu
            ) {
                out.push(op.clone());
            }
        }
    }
}

/// A Transformer with MoE feed-forward layers.
///
/// # Examples
///
/// ```
/// use cimtpu_models::MoeConfig;
/// let moe = MoeConfig::mixtral_8x7b_like()?;
/// assert_eq!(moe.experts(), 8);
/// assert_eq!(moe.top_k(), 2);
/// let layer = moe.decode_layer(8, 1024)?;
/// assert!(layer.total_macs() > 0);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MoeConfig {
    transformer: TransformerConfig,
    experts: u64,
    top_k: u64,
}

impl MoeConfig {
    /// Creates an MoE configuration; `transformer.d_ff()` is the width of
    /// *one expert*.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `experts` is zero or `top_k` is
    /// zero or exceeds `experts`.
    pub fn new(transformer: TransformerConfig, experts: u64, top_k: u64) -> Result<Self> {
        if experts == 0 || top_k == 0 || top_k > experts {
            return Err(Error::invalid_config(format!(
                "need 1 <= top_k ({top_k}) <= experts ({experts})"
            )));
        }
        Ok(MoeConfig {
            transformer,
            experts,
            top_k,
        })
    }

    /// A Mixtral-8x7B-like geometry: 32 layers, 32 heads, d 4096,
    /// expert FFN width 14336, 8 experts, top-2 routing.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in geometry.
    pub fn mixtral_8x7b_like() -> Result<Self> {
        let t = TransformerConfig::new("Mixtral-8x7B-like", 32, 32, 4096, 14336)?;
        MoeConfig::new(t, 8, 2)
    }

    /// The underlying Transformer geometry (d_ff = one expert's width).
    pub fn transformer(&self) -> &TransformerConfig {
        &self.transformer
    }

    /// Number of experts per layer.
    pub fn experts(&self) -> u64 {
        self.experts
    }

    /// Experts activated per token.
    pub fn top_k(&self) -> u64 {
        self.top_k
    }

    /// Experts activated by `tokens` tokens under uniform routing.
    pub(crate) fn activated_experts(&self, tokens: u64) -> u64 {
        (tokens * self.top_k).min(self.experts)
    }

    /// One decode step for `batch` sequences at context `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] for zero batch/ctx.
    pub fn decode_layer(&self, batch: u64, ctx: u64) -> Result<Workload> {
        let t = &self.transformer;
        let mut out = Workload::new(format!(
            "{} MoE decode layer (B={batch}, ctx={ctx}, {}x top-{})",
            t.name(),
            self.experts,
            self.top_k
        ));
        // Attention half is identical to the dense layer.
        copy_without_dense_ffn(&mut out, &t.decode_layer(batch, ctx)?);

        // Router + scattered expert FFNs.
        let d = t.d_model();
        let dtype = t.dtype();
        let activated = self.activated_experts(batch);
        let tokens_per_expert = (batch * self.top_k).div_ceil(activated);
        out.begin_segment("moe-ffn", Phase::Decode);
        out.push(OpInstance::new(
            "Router",
            OpCategory::Ffn1,
            Op::Gemm {
                shape: GemmShape::new(batch, d, self.experts)?,
                dtype,
            },
        ));
        out.push(OpInstance::new(
            "Expert FFN1",
            OpCategory::Ffn1,
            Op::BatchedMatmul {
                batch: activated,
                shape: GemmShape::new(tokens_per_expert, d, t.d_ff())?,
                dtype,
                static_weights: true,
            },
        ));
        out.push(OpInstance::new(
            "Expert GeLU",
            OpCategory::Gelu,
            Op::Gelu {
                elems: activated * tokens_per_expert * t.d_ff(),
            },
        ));
        out.push(OpInstance::new(
            "Expert FFN2",
            OpCategory::Ffn2,
            Op::BatchedMatmul {
                batch: activated,
                shape: GemmShape::new(tokens_per_expert, t.d_ff(), d)?,
                dtype,
                static_weights: true,
            },
        ));
        Ok(out)
    }

    /// One prefill layer for `batch` sequences of `seq` tokens: with many
    /// tokens, all experts activate and each processes a dense share.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] for zero batch/seq.
    pub fn prefill_layer(&self, batch: u64, seq: u64) -> Result<Workload> {
        let t = &self.transformer;
        let mut out = Workload::new(format!(
            "{} MoE prefill layer (B={batch}, L={seq}, {}x top-{})",
            t.name(),
            self.experts,
            self.top_k
        ));
        copy_without_dense_ffn(&mut out, &t.prefill_layer(batch, seq)?);

        let d = t.d_model();
        let dtype = t.dtype();
        let tokens = batch * seq;
        let activated = self.activated_experts(tokens);
        let tokens_per_expert = (tokens * self.top_k).div_ceil(activated);
        out.begin_segment("moe-ffn", Phase::Prefill);
        out.push(OpInstance::new(
            "Router",
            OpCategory::Ffn1,
            Op::Gemm {
                shape: GemmShape::new(tokens, d, self.experts)?,
                dtype,
            },
        ));
        out.push(OpInstance::new(
            "Expert FFN1",
            OpCategory::Ffn1,
            Op::BatchedMatmul {
                batch: activated,
                shape: GemmShape::new(tokens_per_expert, d, t.d_ff())?,
                dtype,
                static_weights: true,
            },
        ));
        out.push(OpInstance::new(
            "Expert GeLU",
            OpCategory::Gelu,
            Op::Gelu {
                elems: activated * tokens_per_expert * t.d_ff(),
            },
        ));
        out.push(OpInstance::new(
            "Expert FFN2",
            OpCategory::Ffn2,
            Op::BatchedMatmul {
                batch: activated,
                shape: GemmShape::new(tokens_per_expert, t.d_ff(), d)?,
                dtype,
                static_weights: true,
            },
        ));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moe() -> MoeConfig {
        MoeConfig::mixtral_8x7b_like().unwrap()
    }

    #[test]
    fn validation() {
        let t = TransformerConfig::new("x", 2, 4, 64, 256).unwrap();
        assert!(MoeConfig::new(t.clone(), 0, 1).is_err());
        assert!(MoeConfig::new(t.clone(), 4, 0).is_err());
        assert!(MoeConfig::new(t.clone(), 4, 5).is_err());
        assert!(MoeConfig::new(t, 4, 4).is_ok());
    }

    #[test]
    fn decode_scatters_experts() {
        // Batch 8, top-2: all 8 experts activate with 2 tokens each.
        let m = moe();
        assert_eq!(m.activated_experts(8), 8);
        let w = m.decode_layer(8, 1024).unwrap();
        let expert_op = w.ops().iter().find(|o| o.name() == "Expert FFN1").unwrap();
        match expert_op.op() {
            Op::BatchedMatmul { batch, shape, .. } => {
                assert_eq!(*batch, 8);
                assert_eq!(shape.m(), 2);
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn moe_decode_streams_more_weights_than_dense() {
        // Dense FFN: 2*d*d_ff; MoE decode touches `activated` experts.
        let m = moe();
        let dense_equiv = m.transformer().decode_layer(8, 1024).unwrap();
        let moe_layer = m.decode_layer(8, 1024).unwrap();
        assert!(moe_layer.main_memory_bytes() > dense_equiv.main_memory_bytes());
    }

    #[test]
    fn prefill_activates_all_experts_densely() {
        let m = moe();
        let w = m.prefill_layer(8, 1024).unwrap();
        let expert_op = w.ops().iter().find(|o| o.name() == "Expert FFN1").unwrap();
        match expert_op.op() {
            Op::BatchedMatmul { batch, shape, .. } => {
                assert_eq!(*batch, 8); // all experts
                assert_eq!(shape.m(), 8 * 1024 * 2 / 8); // top-2 of 8192 tokens
            }
            other => panic!("unexpected op {other:?}"),
        }
    }

    #[test]
    fn moe_layers_are_phase_segmented() {
        let m = moe();
        let decode = m.decode_layer(8, 1024).unwrap();
        assert_eq!(decode.phases(), vec![Phase::Decode]);
        let names: Vec<&str> = decode.segments().map(|s| s.name()).collect();
        assert_eq!(names, vec!["attention", "ffn", "glue", "moe-ffn"]);
        let seg_macs: u64 = decode.segments().map(|s| s.total_macs()).sum();
        assert_eq!(seg_macs, decode.total_macs());

        let prefill = m.prefill_layer(4, 256).unwrap();
        assert_eq!(prefill.phases(), vec![Phase::Prefill]);
        assert!(prefill.segments().any(|s| s.name() == "moe-ffn"));
    }

    #[test]
    fn attention_ops_preserved() {
        let w = moe().decode_layer(8, 512).unwrap();
        assert!(w.ops().iter().any(|o| o.name() == "Q x K^T"));
        assert!(w.ops().iter().any(|o| o.name() == "Softmax"));
        // Dense FFN replaced.
        assert!(!w.ops().iter().any(|o| o.name() == "FFN1"));
    }
}
