//! The operator IR consumed by the simulator.

use std::fmt;

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bytes, DataType, GemmShape};

/// Which Fig. 6 / Fig. 2 reporting bucket an operator belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum OpCategory {
    /// Fused Q/K/V generation GEMM.
    QkvGen,
    /// Attention score/context matmuls (Q×Kᵀ, S×Vᵀ) and softmax.
    Attention,
    /// Attention output projection.
    Projection,
    /// First feed-forward GEMM.
    Ffn1,
    /// Second feed-forward GEMM.
    Ffn2,
    /// Layer normalization.
    LayerNorm,
    /// GeLU activation (tanh approximation, as in DiT).
    Gelu,
    /// DiT adaLN conditioning MLP and shift/scale modulation.
    Conditioning,
    /// Token embedding / patchify (pre-processing).
    Embedding,
    /// Prediction head / final linear (post-processing).
    Head,
    /// Cross-device communication.
    Collective,
    /// Residual adds, KV-cache writes, and other glue.
    Other,
}

impl OpCategory {
    /// All categories in the order the paper's Fig. 6 rows use.
    pub const FIG6_ORDER: [OpCategory; 8] = [
        OpCategory::QkvGen,
        OpCategory::Attention,
        OpCategory::Projection,
        OpCategory::Ffn1,
        OpCategory::Ffn2,
        OpCategory::LayerNorm,
        OpCategory::Gelu,
        OpCategory::Conditioning,
    ];

    /// Human-readable label matching the paper's figure legends.
    pub const fn label(self) -> &'static str {
        match self {
            OpCategory::QkvGen => "QKV Gen",
            OpCategory::Attention => "Attention",
            OpCategory::Projection => "Proj.",
            OpCategory::Ffn1 => "FFN1",
            OpCategory::Ffn2 => "FFN2",
            OpCategory::LayerNorm => "LayerNorm",
            OpCategory::Gelu => "GeLU",
            OpCategory::Conditioning => "Conditioning",
            OpCategory::Embedding => "Embedding",
            OpCategory::Head => "Head",
            OpCategory::Collective => "Collective",
            OpCategory::Other => "Other",
        }
    }
}

impl fmt::Display for OpCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One operator in a workload.
///
/// The distinction between [`Op::Gemm`] and [`Op::BatchedMatmul`] is the
/// crux of the paper's analysis: `Gemm` weights live in main memory and are
/// reused across the whole `m` dimension, while `BatchedMatmul` models
/// attention matmuls whose "weights" (keys/values) differ per batch×head
/// item, giving the MXU *zero* weight reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Op {
    /// Weight GEMM `[m×k]·[k×n]`; weights stream from main memory unless
    /// already resident on chip.
    Gemm {
        /// The GEMM shape.
        shape: GemmShape,
        /// Operand precision.
        dtype: DataType,
    },
    /// `batch` independent matmuls with per-item "weight" operands.
    BatchedMatmul {
        /// Number of independent matmuls (batch × heads, or experts).
        batch: u64,
        /// Per-item matmul shape.
        shape: GemmShape,
        /// Operand precision.
        dtype: DataType,
        /// Whether the per-item weights are *static* model parameters
        /// (MoE experts — pre-stageable through a systolic weight FIFO)
        /// rather than dynamic activations/KV (attention — which the
        /// systolic array must serialize).
        static_weights: bool,
    },
    /// Row-wise softmax over a `[rows × cols]` matrix (online normalizer).
    Softmax {
        /// Number of independent rows.
        rows: u64,
        /// Row length.
        cols: u64,
    },
    /// Layer normalization over `rows` vectors of length `d`.
    LayerNorm {
        /// Number of vectors.
        rows: u64,
        /// Vector length.
        d: u64,
    },
    /// GeLU (tanh approximation) over `elems` elements.
    Gelu {
        /// Element count.
        elems: u64,
    },
    /// Generic elementwise work (`ops_per_elem` vector ops per element).
    Elementwise {
        /// Element count.
        elems: u64,
        /// Vector operations per element.
        ops_per_elem: u32,
    },
    /// Embedding-table lookup for `tokens` tokens of width `d_model`
    /// (memory-bound gather from main memory).
    EmbeddingLookup {
        /// Tokens looked up.
        tokens: u64,
        /// Embedding width.
        d_model: u64,
        /// Table precision.
        dtype: DataType,
    },
    /// Ring all-reduce of `bytes` across the participating devices.
    AllReduce {
        /// Payload size per device.
        bytes: Bytes,
    },
}

impl Op {
    /// Total MAC operations performed by this op (zero for vector ops).
    pub(crate) fn macs(&self) -> u64 {
        match *self {
            Op::Gemm { shape, .. } => shape.macs(),
            Op::BatchedMatmul { batch, shape, .. } => batch * shape.macs(),
            _ => 0,
        }
    }

    /// Whether this op runs on the matrix unit.
    pub fn is_matrix_op(&self) -> bool {
        matches!(self, Op::Gemm { .. } | Op::BatchedMatmul { .. })
    }

    /// Unique main-memory bytes this op must stream in (weights, embedding
    /// rows, KV-cache), assuming activations are on chip.
    pub fn main_memory_bytes(&self) -> Bytes {
        match *self {
            Op::Gemm { shape, dtype } => shape.weight_bytes(dtype),
            // Per-item "weights" (K or V slices) all distinct.
            Op::BatchedMatmul {
                batch,
                shape,
                dtype,
                ..
            } => shape.weight_bytes(dtype) * batch,
            Op::EmbeddingLookup {
                tokens,
                d_model,
                dtype,
            } => Bytes::new(tokens * d_model * dtype.size_bytes()),
            _ => Bytes::ZERO,
        }
    }
}

/// A named, categorized, repeated operator.
///
/// `count` expresses exact repetition (e.g. 48 identical Transformer
/// layers) without materializing each copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpInstance {
    name: String,
    category: OpCategory,
    op: Op,
    count: u64,
}

impl OpInstance {
    /// Creates an instance executed once.
    pub fn new(name: impl Into<String>, category: OpCategory, op: Op) -> Self {
        OpInstance {
            name: name.into(),
            category,
            op,
            count: 1,
        }
    }

    /// Sets the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub(crate) fn repeated(mut self, count: u64) -> Self {
        assert!(count > 0, "op repetition count must be non-zero");
        self.count = count;
        self
    }

    /// The display name (e.g. `"Q x K^T"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The reporting category.
    pub fn category(&self) -> OpCategory {
        self.category
    }

    /// The operator itself.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// How many times the operator executes.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// MACs across all repetitions.
    pub fn total_macs(&self) -> u64 {
        self.op.macs() * self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_macs_and_bytes() {
        let shape = GemmShape::new(8, 7168, 21504).unwrap();
        let op = Op::Gemm {
            shape,
            dtype: DataType::Int8,
        };
        assert_eq!(op.macs(), 8 * 7168 * 21504);
        assert_eq!(op.main_memory_bytes().get(), 7168 * 21504);
    }

    #[test]
    fn batched_matmul_scales_by_batch() {
        let shape = GemmShape::gemv(128, 1024).unwrap();
        let op = Op::BatchedMatmul {
            batch: 448,
            shape,
            dtype: DataType::Int8,
            static_weights: false,
        };
        assert_eq!(op.macs(), 448 * 128 * 1024);
        assert_eq!(op.main_memory_bytes().get(), 448 * 128 * 1024);
    }

    #[test]
    fn vector_ops_have_no_macs() {
        assert_eq!(Op::Softmax { rows: 10, cols: 10 }.macs(), 0);
        assert_eq!(Op::Gelu { elems: 100 }.macs(), 0);
        assert!(!Op::LayerNorm { rows: 1, d: 1 }.is_matrix_op());
    }

    #[test]
    fn repeated_multiplies_macs() {
        let shape = GemmShape::new(2, 3, 4).unwrap();
        let inst = OpInstance::new(
            "x",
            OpCategory::Other,
            Op::Gemm {
                shape,
                dtype: DataType::Int8,
            },
        )
        .repeated(48);
        assert_eq!(inst.total_macs(), 48 * 24);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_count_panics() {
        let shape = GemmShape::new(1, 1, 1).unwrap();
        let _ = OpInstance::new(
            "x",
            OpCategory::Other,
            Op::Gemm {
                shape,
                dtype: DataType::Int8,
            },
        )
        .repeated(0);
    }

    #[test]
    fn category_labels_match_paper() {
        assert_eq!(OpCategory::QkvGen.label(), "QKV Gen");
        assert_eq!(OpCategory::Projection.label(), "Proj.");
        assert_eq!(OpCategory::FIG6_ORDER.len(), 8);
    }
}
