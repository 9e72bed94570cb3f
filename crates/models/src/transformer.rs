//! Transformer-layer geometry and prefill/decode workload builders.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bytes, DataType, Error, GemmShape, Result};

use crate::op::{Op, OpCategory, OpInstance};
use crate::phase::Phase;
use crate::workload::Workload;

/// Geometry of one Transformer layer (Fig. 2b).
///
/// # Examples
///
/// ```
/// use cimtpu_models::TransformerConfig;
/// let cfg = TransformerConfig::new("GPT3-30B", 48, 56, 7168, 4 * 7168)?;
/// assert_eq!(cfg.d_head(), 128);
/// assert_eq!(cfg.weight_params_per_layer(), 12 * 7168 * 7168);
/// # Ok::<(), cimtpu_units::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransformerConfig {
    name: String,
    layers: u64,
    heads: u64,
    /// Key/value heads; equals `heads` for multi-head attention, fewer for
    /// grouped-query attention (GQA).
    kv_heads: u64,
    d_model: u64,
    d_ff: u64,
    dtype: DataType,
}

impl TransformerConfig {
    /// Creates a layer configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any dimension is zero or
    /// `d_model` is not divisible by `heads`.
    pub fn new(
        name: impl Into<String>,
        layers: u64,
        heads: u64,
        d_model: u64,
        d_ff: u64,
    ) -> Result<Self> {
        let name = name.into();
        if layers == 0 || heads == 0 || d_model == 0 || d_ff == 0 {
            return Err(Error::invalid_config(format!(
                "transformer config {name} has a zero dimension"
            )));
        }
        if !d_model.is_multiple_of(heads) {
            return Err(Error::invalid_config(format!(
                "d_model {d_model} not divisible by {heads} heads"
            )));
        }
        Ok(TransformerConfig {
            name,
            layers,
            heads,
            kv_heads: heads,
            d_model,
            d_ff,
            dtype: DataType::Int8,
        })
    }

    /// Enables grouped-query attention with `kv_heads` key/value heads
    /// (Llama2-70B style). Each group of `heads / kv_heads` query heads
    /// shares one K/V head, shrinking both the KV cache and the QKV
    /// projection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `kv_heads` is zero or does not
    /// divide `heads`.
    pub fn with_kv_heads(mut self, kv_heads: u64) -> Result<Self> {
        if kv_heads == 0 || !self.heads.is_multiple_of(kv_heads) {
            return Err(Error::invalid_config(format!(
                "kv_heads {kv_heads} must be a non-zero divisor of {} heads",
                self.heads
            )));
        }
        self.kv_heads = kv_heads;
        Ok(self)
    }

    /// Query heads per key/value group.
    pub(crate) fn group_size(&self) -> u64 {
        self.heads / self.kv_heads
    }

    /// Output width of the fused QKV projection: d (Q) + 2·kv_heads·d_head.
    pub(crate) fn qkv_width(&self) -> u64 {
        self.d_model + 2 * self.kv_heads * self.d_head()
    }

    /// Sets the operand precision (default INT8, as in the paper's evals).
    #[must_use]
    pub fn with_dtype(mut self, dtype: DataType) -> Self {
        self.dtype = dtype;
        self
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of Transformer layers.
    pub fn layers(&self) -> u64 {
        self.layers
    }

    /// Attention heads per layer.
    pub fn heads(&self) -> u64 {
        self.heads
    }

    /// Hidden width.
    pub fn d_model(&self) -> u64 {
        self.d_model
    }

    /// Feed-forward inner width.
    pub fn d_ff(&self) -> u64 {
        self.d_ff
    }

    /// Per-head width.
    pub fn d_head(&self) -> u64 {
        self.d_model / self.heads
    }

    /// Operand precision.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Weight parameters in one layer: QKV (d·qkv_width) + proj (d²) +
    /// FFN (2·d·d_ff). For MHA this reduces to the familiar `12·d²` when
    /// `d_ff = 4d`.
    pub fn weight_params_per_layer(&self) -> u64 {
        self.d_model * self.qkv_width() + self.d_model * self.d_model + 2 * self.d_model * self.d_ff
    }

    /// Weight bytes of one layer at the configured precision.
    pub fn weight_bytes_per_layer(&self) -> Bytes {
        Bytes::new(self.weight_params_per_layer() * self.dtype.size_bytes())
    }

    /// KV-cache bytes per layer for `batch` sequences of `ctx` tokens
    /// (GQA stores only `kv_heads · d_head` channels per token).
    pub fn kv_cache_bytes_per_layer(&self, batch: u64, ctx: u64) -> Bytes {
        Bytes::new(2 * batch * ctx * self.kv_heads * self.d_head() * self.dtype.size_bytes())
    }

    /// Builds the operator list for **one layer** of the prefill
    /// (summarization) stage: `batch` sequences of `seq` tokens. This is
    /// [`prefill_chunk_layer`](Self::prefill_chunk_layer) with no cached
    /// context.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `batch` or `seq` is zero.
    pub fn prefill_layer(&self, batch: u64, seq: u64) -> Result<Workload> {
        self.prefill_chunk_layer(batch, seq, 0)
    }

    /// Builds the operator list for **one layer** of one chunked-prefill
    /// step: `batch` sequences ingest `chunk` new prompt tokens each,
    /// attending causally to `past` already-cached tokens plus the chunk
    /// itself (Sarathi-style chunked prefill).
    ///
    /// With `past = 0` this is exactly [`prefill_layer`](Self::prefill_layer)
    /// for a `chunk`-token prompt; later chunks grow the score matrices to
    /// `chunk × (past + chunk)` while the weight GEMMs stay proportional
    /// to the chunk, which is what lets a scheduler interleave decode
    /// steps between chunks instead of stalling behind a monolithic
    /// prefill.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `batch` or `chunk` is zero.
    pub fn prefill_chunk_layer(&self, batch: u64, chunk: u64, past: u64) -> Result<Workload> {
        if batch == 0 || chunk == 0 {
            return Err(Error::invalid_shape(if past == 0 {
                "prefill batch/seq must be non-zero"
            } else {
                "prefill batch/chunk must be non-zero"
            }));
        }
        let tokens = batch * chunk;
        let total = past + chunk;
        let d = self.d_model;
        let dtype = self.dtype;
        let mut w = Workload::new(if past == 0 {
            format!("{} prefill layer (B={batch}, L={chunk})", self.name)
        } else {
            format!(
                "{} prefill chunk layer (B={batch}, C={chunk}, past={past})",
                self.name
            )
        });

        w.begin_segment("attention", Phase::Prefill);
        w.push(OpInstance::new(
            "LayerNorm (pre-attn)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows: tokens, d },
        ));
        w.push(OpInstance::new(
            "QKV Gen",
            OpCategory::QkvGen,
            Op::Gemm {
                shape: GemmShape::new(tokens, d, self.qkv_width())?,
                dtype,
            },
        ));
        // Chunk queries attend over the cached context plus the chunk, one
        // score matmul per (batch, kv-head): a GQA group's query heads share
        // one K operand, so their rows batch into a single matmul.
        w.push(OpInstance::new(
            "Q x K^T",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * self.kv_heads,
                shape: GemmShape::new(self.group_size() * chunk, self.d_head(), total)?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Softmax",
            OpCategory::Attention,
            Op::Softmax {
                rows: batch * self.heads * chunk,
                cols: total,
            },
        ));
        w.push(OpInstance::new(
            "S x V",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * self.kv_heads,
                shape: GemmShape::new(self.group_size() * chunk, total, self.d_head())?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Proj",
            OpCategory::Projection,
            Op::Gemm {
                shape: GemmShape::new(tokens, d, d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Residual (attn)",
            OpCategory::Other,
            Op::Elementwise {
                elems: tokens * d,
                ops_per_elem: 1,
            },
        ));
        w.begin_segment("ffn", Phase::Prefill);
        w.push(OpInstance::new(
            "LayerNorm (pre-FFN)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows: tokens, d },
        ));
        w.push(OpInstance::new(
            "FFN1",
            OpCategory::Ffn1,
            Op::Gemm {
                shape: GemmShape::new(tokens, d, self.d_ff)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "GeLU",
            OpCategory::Gelu,
            Op::Gelu {
                elems: tokens * self.d_ff,
            },
        ));
        w.push(OpInstance::new(
            "FFN2",
            OpCategory::Ffn2,
            Op::Gemm {
                shape: GemmShape::new(tokens, self.d_ff, d)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Residual (FFN)",
            OpCategory::Other,
            Op::Elementwise {
                elems: tokens * d,
                ops_per_elem: 1,
            },
        ));
        w.begin_segment("kv-cache", Phase::Prefill);
        w.push(OpInstance::new(
            "Store KV-cache",
            OpCategory::Other,
            Op::Elementwise {
                elems: 2 * tokens * self.kv_heads * self.d_head(),
                ops_per_elem: 1,
            },
        ));
        Ok(w)
    }

    /// Builds the operator list for **one layer** of one decoding step:
    /// `batch` sequences, each attending to `ctx` cached tokens.
    ///
    /// The matmuls degenerate to GEMV-shaped operations (`m = batch` for
    /// weight GEMMs, `m = 1` per head for attention), which is what makes
    /// decoding memory-bound (paper Section IV-B).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if `batch` or `ctx` is zero.
    pub fn decode_layer(&self, batch: u64, ctx: u64) -> Result<Workload> {
        if batch == 0 || ctx == 0 {
            return Err(Error::invalid_shape("decode batch/ctx must be non-zero"));
        }
        let d = self.d_model;
        let dtype = self.dtype;
        let mut w = Workload::new(format!("{} decode layer (B={batch}, ctx={ctx})", self.name));

        w.begin_segment("attention", Phase::Decode);
        w.push(OpInstance::new(
            "LayerNorm (pre-attn)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows: batch, d },
        ));
        w.push(OpInstance::new(
            "QKV Gen",
            OpCategory::QkvGen,
            Op::Gemm {
                shape: GemmShape::new(batch, d, self.qkv_width())?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "Q x K^T",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * self.kv_heads,
                shape: GemmShape::new(self.group_size(), self.d_head(), ctx)?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Softmax",
            OpCategory::Attention,
            Op::Softmax {
                rows: batch * self.heads,
                cols: ctx,
            },
        ));
        w.push(OpInstance::new(
            "S x V",
            OpCategory::Attention,
            Op::BatchedMatmul {
                batch: batch * self.kv_heads,
                shape: GemmShape::new(self.group_size(), ctx, self.d_head())?,
                dtype,
                static_weights: false,
            },
        ));
        w.push(OpInstance::new(
            "Proj",
            OpCategory::Projection,
            Op::Gemm {
                shape: GemmShape::new(batch, d, d)?,
                dtype,
            },
        ));
        w.begin_segment("ffn", Phase::Decode);
        w.push(OpInstance::new(
            "LayerNorm (pre-FFN)",
            OpCategory::LayerNorm,
            Op::LayerNorm { rows: batch, d },
        ));
        w.push(OpInstance::new(
            "FFN1",
            OpCategory::Ffn1,
            Op::Gemm {
                shape: GemmShape::new(batch, d, self.d_ff)?,
                dtype,
            },
        ));
        w.push(OpInstance::new(
            "GeLU",
            OpCategory::Gelu,
            Op::Gelu {
                elems: batch * self.d_ff,
            },
        ));
        w.push(OpInstance::new(
            "FFN2",
            OpCategory::Ffn2,
            Op::Gemm {
                shape: GemmShape::new(batch, self.d_ff, d)?,
                dtype,
            },
        ));
        w.begin_segment("glue", Phase::Decode);
        w.push(OpInstance::new(
            "Residuals",
            OpCategory::Other,
            Op::Elementwise {
                elems: 2 * batch * d,
                ops_per_elem: 1,
            },
        ));
        w.push(OpInstance::new(
            "Update KV-cache",
            OpCategory::Other,
            Op::Elementwise {
                elems: 2 * batch * d,
                ops_per_elem: 1,
            },
        ));
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::Phase;

    fn gpt3() -> TransformerConfig {
        TransformerConfig::new("GPT3-30B", 48, 56, 7168, 4 * 7168).unwrap()
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(TransformerConfig::new("x", 0, 1, 8, 8).is_err());
        assert!(TransformerConfig::new("x", 1, 3, 8, 8).is_err()); // 8 % 3 != 0
    }

    #[test]
    fn prefill_macs_match_closed_form() {
        // GEMM MACs per prefill layer: tokens*d*(3d) + tokens*d*d + 2*tokens*d*d_ff
        // + attention 2*B*h*L^2*d_head.
        let cfg = gpt3();
        let (b, l) = (8, 1024);
        let w = cfg.prefill_layer(b, l).unwrap();
        let tokens = b * l;
        let d = cfg.d_model();
        let expected = tokens * d * 3 * d
            + tokens * d * d
            + 2 * tokens * d * cfg.d_ff()
            + 2 * b * cfg.heads() * l * l * cfg.d_head();
        assert_eq!(w.total_macs(), expected);
    }

    #[test]
    fn chunk_with_no_past_is_plain_prefill() {
        let cfg = gpt3();
        let chunk = cfg.prefill_chunk_layer(4, 128, 0).unwrap();
        let plain = cfg.prefill_layer(4, 128).unwrap();
        assert_eq!(chunk.ops(), plain.ops());
    }

    #[test]
    fn chunk_macs_match_closed_form() {
        // Weight GEMMs scale with the chunk; attention scores span
        // chunk x (past + chunk).
        let cfg = gpt3();
        let (b, chunk, past) = (4, 256, 768);
        let w = cfg.prefill_chunk_layer(b, chunk, past).unwrap();
        let tokens = b * chunk;
        let d = cfg.d_model();
        let expected = tokens * d * 3 * d
            + tokens * d * d
            + 2 * tokens * d * cfg.d_ff()
            + 2 * b * cfg.heads() * chunk * (past + chunk) * cfg.d_head();
        assert_eq!(w.total_macs(), expected);
        assert_eq!(w.phases(), vec![Phase::Prefill]);
    }

    #[test]
    fn chunks_sum_to_full_prefill_gemm_macs() {
        // Splitting a prompt into chunks must conserve the weight-GEMM
        // work; attention MACs match because Σ chunk·(past+chunk) over
        // causal chunks equals the full L² upper-triangle accounting.
        let cfg = gpt3();
        let (b, l, chunk) = (2, 1024, 256);
        let full = cfg.prefill_layer(b, l).unwrap().total_macs();
        let mut sum = 0;
        let mut past = 0;
        while past < l {
            let c = chunk.min(l - past);
            sum += cfg.prefill_chunk_layer(b, c, past).unwrap().total_macs();
            past += c;
        }
        // Full prefill scores the whole L x L matrix; causal chunking
        // computes the same Q rows against only the cached prefix, so the
        // chunked total is smaller by the strictly-upper triangle of the
        // inter-chunk blocks. Verify the exact difference.
        let mut missing = 0;
        past = 0;
        while past < l {
            let c = chunk.min(l - past);
            missing += c * (l - past - c); // future keys a chunk never sees
            past += c;
        }
        let attn_missing = 2 * b * cfg.heads() * missing * cfg.d_head();
        assert_eq!(sum + attn_missing, full);
    }

    #[test]
    fn kv_bytes_per_token_accessors() {
        // One token in one layer: 2 x kv_heads x d_head x 1 byte (INT8).
        let cfg = gpt3();
        let per_token = cfg.kv_cache_bytes_per_layer(1, 1).get();
        assert_eq!(per_token, 2 * cfg.kv_heads * cfg.d_head());
        assert_eq!(cfg.kv_cache_bytes_per_layer(3, 5).get(), 3 * 5 * per_token);
    }

    #[test]
    fn decode_macs_match_closed_form() {
        let cfg = gpt3();
        let (b, ctx) = (8, 1280);
        let w = cfg.decode_layer(b, ctx).unwrap();
        let d = cfg.d_model();
        let expected = b * d * 3 * d
            + b * d * d
            + 2 * b * d * cfg.d_ff()
            + 2 * b * cfg.heads() * ctx * cfg.d_head();
        assert_eq!(w.total_macs(), expected);
    }

    #[test]
    fn decode_streams_weights_and_kv() {
        let cfg = gpt3();
        let w = cfg.decode_layer(8, 1280).unwrap();
        let weights = cfg.weight_bytes_per_layer();
        let kv = cfg.kv_cache_bytes_per_layer(8, 1280);
        assert_eq!(w.main_memory_bytes(), weights + kv);
    }

    #[test]
    fn weight_params_match_30b_scale() {
        // 48 layers x 12 d^2 ~ 29.6B params for GPT3-30B.
        let cfg = gpt3();
        let total = cfg.weight_params_per_layer() * cfg.layers();
        assert!((total as f64 / 1e9) > 28.0 && (total as f64 / 1e9) < 31.0);
    }

    #[test]
    fn decode_attention_is_gemv() {
        let w = gpt3().decode_layer(8, 256).unwrap();
        for inst in w.ops() {
            if let Op::BatchedMatmul { shape, .. } = inst.op() {
                assert!(shape.is_gemv(), "{} should be GEMV-shaped", inst.name());
            }
        }
    }

    #[test]
    fn gqa_shrinks_kv_cache_and_qkv() {
        let mha = TransformerConfig::new("mha", 1, 64, 8192, 28672).unwrap();
        let gqa = TransformerConfig::new("gqa", 1, 64, 8192, 28672)
            .unwrap()
            .with_kv_heads(8)
            .unwrap();
        // KV cache shrinks by heads/kv_heads = 8x.
        assert_eq!(
            mha.kv_cache_bytes_per_layer(8, 1024).get(),
            8 * gqa.kv_cache_bytes_per_layer(8, 1024).get()
        );
        // QKV projection shrinks from 3d to d + 2*kv_heads*d_head.
        assert_eq!(mha.qkv_width(), 3 * 8192);
        assert_eq!(gqa.qkv_width(), 8192 + 2 * 8 * 128);
        assert!(gqa.weight_params_per_layer() < mha.weight_params_per_layer());
    }

    #[test]
    fn gqa_decode_batches_query_groups() {
        let gqa = TransformerConfig::new("gqa", 1, 64, 8192, 28672)
            .unwrap()
            .with_kv_heads(8)
            .unwrap();
        let w = gqa.decode_layer(4, 1024).unwrap();
        let qk = w.ops().iter().find(|o| o.name() == "Q x K^T").unwrap();
        match qk.op() {
            Op::BatchedMatmul { batch, shape, .. } => {
                assert_eq!(*batch, 4 * 8); // batch x kv_heads items
                assert_eq!(shape.m(), 8); // 8 query heads share each K
            }
            other => panic!("unexpected {other:?}"),
        }
        // MACs identical to the MHA formulation.
        let mha = TransformerConfig::new("mha", 1, 64, 8192, 28672).unwrap();
        let w_mha = mha.decode_layer(4, 1024).unwrap();
        let attn = |w: &Workload| {
            w.ops()
                .iter()
                .filter(|o| o.name().contains("x K^T") || o.name() == "S x V")
                .map(|o| o.total_macs())
                .sum::<u64>()
        };
        assert_eq!(attn(&w), attn(&w_mha));
    }

    #[test]
    fn invalid_kv_heads_rejected() {
        let t = TransformerConfig::new("x", 1, 64, 8192, 28672).unwrap();
        assert!(t.clone().with_kv_heads(0).is_err());
        assert!(t.clone().with_kv_heads(7).is_err()); // 64 % 7 != 0
        assert!(t.with_kv_heads(64).is_ok());
    }

    #[test]
    fn layers_are_phase_segmented() {
        let cfg = gpt3();
        let prefill = cfg.prefill_layer(8, 1024).unwrap();
        let names: Vec<&str> = prefill.segments().map(|s| s.name()).collect();
        assert_eq!(names, vec!["attention", "ffn", "kv-cache"]);
        assert_eq!(prefill.phases(), vec![Phase::Prefill]);
        assert_eq!(prefill.macs_in_phase(Phase::Prefill), prefill.total_macs());

        let decode = cfg.decode_layer(8, 1280).unwrap();
        let names: Vec<&str> = decode.segments().map(|s| s.name()).collect();
        assert_eq!(names, vec!["attention", "ffn", "glue"]);
        assert_eq!(decode.phases(), vec![Phase::Decode]);
        // Segments partition the flat op list.
        let seg_ops: usize = decode.segments().map(|s| s.ops().len()).sum();
        assert_eq!(seg_ops, decode.ops().len());
    }

    #[test]
    fn fig6_categories_present() {
        let w = gpt3().prefill_layer(8, 1024).unwrap();
        for cat in [
            OpCategory::QkvGen,
            OpCategory::Attention,
            OpCategory::Projection,
            OpCategory::Ffn1,
            OpCategory::Ffn2,
            OpCategory::LayerNorm,
            OpCategory::Gelu,
        ] {
            assert!(w.categories().contains(&cat), "missing {cat}");
        }
    }
}
