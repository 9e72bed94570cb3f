//! SRAM traffic model for the systolic array.
//!
//! Counts the bytes moved between the local SRAM buffers (ifmap/filter/ofmap
//! in SCALE-Sim parlance) and the PE array. Activation rows are re-streamed
//! once per weight column-tile; weights are loaded once per tile; outputs
//! are written once per (m, n) element per k-fold (partial-sum write-back)
//! for weight-stationary dataflow.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bytes, DataType, GemmShape};

use crate::config::{Dataflow, SystolicConfig};

/// Byte traffic between SRAM and the PE array for one GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct GemmTraffic {
    activation_reads: Bytes,
    weight_reads: Bytes,
    output_writes: Bytes,
}

impl GemmTraffic {
    /// Activation bytes streamed into the array.
    pub(crate) fn activation_reads(&self) -> Bytes {
        self.activation_reads
    }

    /// Weight bytes loaded into the array.
    pub(crate) fn weight_reads(&self) -> Bytes {
        self.weight_reads
    }

    /// Output (incl. partial-sum) bytes written back.
    pub(crate) fn output_writes(&self) -> Bytes {
        self.output_writes
    }
}

pub(crate) fn gemm_traffic(
    config: &SystolicConfig,
    shape: GemmShape,
    dtype: DataType,
) -> GemmTraffic {
    let (r, c) = (config.rows(), config.cols());
    let (m, k, n) = (shape.m(), shape.k(), shape.n());
    let elem = dtype.size_bytes();
    // Accumulators are wider than operands (INT32/FP32 partial sums).
    let acc_elem = 4u64;

    match config.dataflow() {
        Dataflow::WeightStationary => {
            let fold_k = k.div_ceil(r);
            let fold_n = n.div_ceil(c);
            GemmTraffic {
                // Every activation row re-streamed for each column tile.
                activation_reads: Bytes::new(m * k * fold_n * elem),
                // Each weight loaded exactly once.
                weight_reads: Bytes::new(k * n * elem),
                // Partial sums written back once per k-fold.
                output_writes: Bytes::new(m * n * fold_k * acc_elem),
            }
        }
        Dataflow::OutputStationary => {
            let fold_m = m.div_ceil(r);
            let fold_n = n.div_ceil(c);
            GemmTraffic {
                activation_reads: Bytes::new(m * k * fold_n * elem),
                weight_reads: Bytes::new(k * n * fold_m * elem),
                output_writes: Bytes::new(m * n * acc_elem),
            }
        }
        Dataflow::InputStationary => {
            let fold_k = k.div_ceil(c);
            GemmTraffic {
                activation_reads: Bytes::new(m * k * elem),
                weight_reads: Bytes::new(k * n * m.div_ceil(r) * elem),
                output_writes: Bytes::new(m * n * fold_k * acc_elem),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystolicConfig;

    #[test]
    fn ws_weights_read_once() {
        let cfg = SystolicConfig::tpuv4i_mxu();
        let shape = GemmShape::new(64, 512, 1024).unwrap();
        let t = gemm_traffic(&cfg, shape, DataType::Int8);
        assert_eq!(t.weight_reads(), shape.weight_bytes(DataType::Int8));
    }

    #[test]
    fn ws_activations_restreamed_per_column_tile() {
        let cfg = SystolicConfig::tpuv4i_mxu();
        let shape = GemmShape::new(64, 128, 512).unwrap(); // 4 column tiles
        let t = gemm_traffic(&cfg, shape, DataType::Int8);
        assert_eq!(t.activation_reads().get(), 64 * 128 * 4);
    }

    #[test]
    fn os_outputs_written_once() {
        let cfg = SystolicConfig::new(16, 16, Dataflow::OutputStationary);
        let shape = GemmShape::new(64, 1024, 64).unwrap();
        let t = gemm_traffic(&cfg, shape, DataType::Int8);
        assert_eq!(t.output_writes().get(), 64 * 64 * 4);
    }
}
