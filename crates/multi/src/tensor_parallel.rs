//! Megatron-style tensor parallelism for Transformer layers.
//!
//! The split follows Shoeybi et al.: QKV generation and FFN1 are
//! column-parallel (each device produces `1/p` of the output features),
//! attention heads are partitioned, and Proj/FFN2 are row-parallel,
//! each followed by a ring all-reduce of the `[tokens × d_model]`
//! activations — two all-reduces per layer.

use cimtpu_models::{Op, OpCategory, OpInstance, Phase, TransformerConfig, Workload};
use cimtpu_units::{Error, GemmShape, Result, Seconds};

use crate::MultiTpu;

/// Builds the per-device shard of one decode-layer step under `p`-way
/// tensor parallelism (without the all-reduces, which are priced on the
/// ring separately).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `p` does not divide the head count
/// and feed-forward width.
pub fn decode_layer_shard(
    model: &TransformerConfig,
    batch: u64,
    ctx: u64,
    p: u64,
) -> Result<Workload> {
    if p == 0 || !model.heads().is_multiple_of(p) || !model.d_ff().is_multiple_of(p) {
        return Err(Error::invalid_config(format!(
            "{p}-way tensor parallelism must divide heads ({}) and d_ff ({})",
            model.heads(),
            model.d_ff()
        )));
    }
    let d = model.d_model();
    let dtype = model.dtype();
    let heads = model.heads() / p;
    let d_ff = model.d_ff() / p;
    let mut w = Workload::new(format!(
        "{} decode layer shard (B={batch}, ctx={ctx}, tp={p})",
        model.name()
    ));

    w.begin_segment("attention", Phase::Decode);
    w.push(OpInstance::new(
        "LayerNorm (pre-attn)",
        OpCategory::LayerNorm,
        Op::LayerNorm { rows: batch, d },
    ));
    // Column-parallel QKV: n = 3d/p.
    w.push(OpInstance::new(
        "QKV Gen (shard)",
        OpCategory::QkvGen,
        Op::Gemm {
            shape: GemmShape::new(batch, d, 3 * d / p)?,
            dtype,
        },
    ));
    // Heads partitioned: each device handles heads/p.
    w.push(OpInstance::new(
        "Q x K^T (shard)",
        OpCategory::Attention,
        Op::BatchedMatmul {
            batch: batch * heads,
            shape: GemmShape::gemv(model.d_head(), ctx)?,
            dtype,
            static_weights: false,
        },
    ));
    w.push(OpInstance::new(
        "Softmax (shard)",
        OpCategory::Attention,
        Op::Softmax {
            rows: batch * heads,
            cols: ctx,
        },
    ));
    w.push(OpInstance::new(
        "S x V (shard)",
        OpCategory::Attention,
        Op::BatchedMatmul {
            batch: batch * heads,
            shape: GemmShape::gemv(ctx, model.d_head())?,
            dtype,
            static_weights: false,
        },
    ));
    // Row-parallel projection: k = d/p (followed by all-reduce).
    w.push(OpInstance::new(
        "Proj (shard)",
        OpCategory::Projection,
        Op::Gemm {
            shape: GemmShape::new(batch, d / p, d)?,
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
        "FFN1 (shard)",
        OpCategory::Ffn1,
        Op::Gemm {
            shape: GemmShape::new(batch, d, d_ff)?,
            dtype,
        },
    ));
    w.push(OpInstance::new(
        "GeLU (shard)",
        OpCategory::Gelu,
        Op::Gelu {
            elems: batch * d_ff,
        },
    ));
    // Row-parallel FFN2: k = d_ff/p (followed by all-reduce).
    w.push(OpInstance::new(
        "FFN2 (shard)",
        OpCategory::Ffn2,
        Op::Gemm {
            shape: GemmShape::new(batch, d_ff, d)?,
            dtype,
        },
    ));
    Ok(w)
}

/// Builds the per-device shard of one prefill layer under `p`-way tensor
/// parallelism (column-parallel QKV/FFN1, partitioned heads, row-parallel
/// Proj/FFN2; all-reduces priced separately).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] if `p` does not divide the head count
/// and feed-forward width.
pub fn prefill_layer_shard(
    model: &TransformerConfig,
    batch: u64,
    seq: u64,
    p: u64,
) -> Result<Workload> {
    if p == 0 || !model.heads().is_multiple_of(p) || !model.d_ff().is_multiple_of(p) {
        return Err(Error::invalid_config(format!(
            "{p}-way tensor parallelism must divide heads ({}) and d_ff ({})",
            model.heads(),
            model.d_ff()
        )));
    }
    let d = model.d_model();
    let dtype = model.dtype();
    let heads = model.heads() / p;
    let d_ff = model.d_ff() / p;
    let tokens = batch * seq;
    let mut w = Workload::new(format!(
        "{} prefill layer shard (B={batch}, L={seq}, tp={p})",
        model.name()
    ));

    w.begin_segment("attention", Phase::Prefill);
    w.push(OpInstance::new(
        "LayerNorm (pre-attn)",
        OpCategory::LayerNorm,
        Op::LayerNorm { rows: tokens, d },
    ));
    w.push(OpInstance::new(
        "QKV Gen (shard)",
        OpCategory::QkvGen,
        Op::Gemm {
            shape: GemmShape::new(tokens, d, 3 * d / p)?,
            dtype,
        },
    ));
    w.push(OpInstance::new(
        "Q x K^T (shard)",
        OpCategory::Attention,
        Op::BatchedMatmul {
            batch: batch * heads,
            shape: GemmShape::new(seq, model.d_head(), seq)?,
            dtype,
            static_weights: false,
        },
    ));
    w.push(OpInstance::new(
        "Softmax (shard)",
        OpCategory::Attention,
        Op::Softmax {
            rows: batch * heads * seq,
            cols: seq,
        },
    ));
    w.push(OpInstance::new(
        "S x V (shard)",
        OpCategory::Attention,
        Op::BatchedMatmul {
            batch: batch * heads,
            shape: GemmShape::new(seq, seq, model.d_head())?,
            dtype,
            static_weights: false,
        },
    ));
    w.push(OpInstance::new(
        "Proj (shard)",
        OpCategory::Projection,
        Op::Gemm {
            shape: GemmShape::new(tokens, d / p, d)?,
            dtype,
        },
    ));
    w.begin_segment("ffn", Phase::Prefill);
    w.push(OpInstance::new(
        "LayerNorm (pre-FFN)",
        OpCategory::LayerNorm,
        Op::LayerNorm { rows: tokens, d },
    ));
    w.push(OpInstance::new(
        "FFN1 (shard)",
        OpCategory::Ffn1,
        Op::Gemm {
            shape: GemmShape::new(tokens, d, d_ff)?,
            dtype,
        },
    ));
    w.push(OpInstance::new(
        "GeLU (shard)",
        OpCategory::Gelu,
        Op::Gelu {
            elems: tokens * d_ff,
        },
    ));
    w.push(OpInstance::new(
        "FFN2 (shard)",
        OpCategory::Ffn2,
        Op::Gemm {
            shape: GemmShape::new(tokens, d_ff, d)?,
            dtype,
        },
    ));
    Ok(w)
}

/// Latency of one tensor-parallel decode-layer step on the cluster:
/// the per-device shard plus the two ring all-reduces.
pub(crate) fn decode_layer_latency(
    cluster: &MultiTpu,
    model: &TransformerConfig,
    batch: u64,
    ctx: u64,
) -> Result<Seconds> {
    let p = cluster.devices();
    let shard = decode_layer_shard(model, batch, ctx, p)?;
    let report = cluster.simulator().run(&shard)?;
    let activation_bytes =
        cimtpu_units::Bytes::new(batch * model.d_model() * model.dtype().size_bytes());
    let comm = cluster.topology().all_reduce_time(activation_bytes) * 2.0;
    Ok(report.total_latency() + comm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_core::TpuConfig;
    use cimtpu_models::presets;

    #[test]
    fn shard_macs_divide_by_p() {
        let model = presets::gpt3_30b();
        let full = model.decode_layer(8, 1280).unwrap();
        let shard = decode_layer_shard(&model, 8, 1280, 4).unwrap();
        let matrix_full: u64 = full.total_macs();
        let matrix_shard: u64 = shard.total_macs();
        let ratio = matrix_full as f64 / matrix_shard as f64;
        assert!((ratio - 4.0).abs() < 0.05, "MAC ratio {ratio}");
    }

    #[test]
    fn rejects_indivisible_parallelism() {
        let model = presets::gpt3_30b(); // 56 heads
        assert!(decode_layer_shard(&model, 8, 1280, 5).is_err());
        assert!(decode_layer_shard(&model, 8, 1280, 0).is_err());
    }

    #[test]
    fn prefill_shard_macs_divide_by_p() {
        let model = presets::gpt3_30b();
        let full = model.prefill_layer(8, 512).unwrap();
        let shard = prefill_layer_shard(&model, 8, 512, 4).unwrap();
        let ratio = full.total_macs() as f64 / shard.total_macs() as f64;
        assert!((ratio - 4.0).abs() < 0.05, "MAC ratio {ratio}");
    }

    #[test]
    fn tensor_parallel_faster_than_single_chip_per_layer() {
        // Split compute + all-reduce still beats one chip on a decode
        // layer (weights per chip shrink by p).
        let model = presets::gpt3_30b();
        let single = MultiTpu::new(TpuConfig::tpuv4i(), 1).unwrap();
        let quad = MultiTpu::new(TpuConfig::tpuv4i(), 4).unwrap();
        let t1 = single
            .llm_tensor_parallel_decode_layer(&model, 8, 1280)
            .unwrap();
        let t4 = quad
            .llm_tensor_parallel_decode_layer(&model, 8, 1280)
            .unwrap();
        assert!(t4 < t1, "tp4 {} vs tp1 {}", t4.as_millis(), t1.as_millis());
    }
}
