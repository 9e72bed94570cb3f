//! SCALE-Sim-style analytical cycle model.
//!
//! The equations follow Samajdar et al. (ISPASS 2020). For a weight-
//! stationary `R×C` array running `[m×k]·[k×n]`:
//!
//! - the weight matrix is folded into `⌈k/R⌉·⌈n/C⌉` tiles,
//! - loading one tile of weights takes `R` cycles (row-parallel shift-in),
//! - streaming `m` activation rows through a loaded tile takes
//!   `m + R + C − 2` cycles (skewed pipeline fill + drain),
//! - with weight double buffering the next load hides under the current
//!   tile's compute; only the first load is exposed.
//!
//! This is precisely why a decode GEMV (`m = 1`) is slow on a systolic
//! array: every tile pays `R + C − 1` fill cycles and `R` load cycles to
//! produce a single row of outputs — the observation at the heart of the
//! paper's Section IV-B.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Cycles, DataType, GemmShape};

use crate::config::{Dataflow, SystolicConfig};

/// Cycle-count breakdown of one GEMM on a systolic array.
///
/// Produced by [`SystolicArray::gemm_timing`](crate::SystolicArray::gemm_timing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmTiming {
    shape: GemmShape,
    total: Cycles,
    exposed_weight_load: Cycles,
    compute: Cycles,
    tiles: u64,
    pe_count: u64,
}

impl GemmTiming {
    /// End-to-end cycles, including exposed weight loads and fill/drain.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Weight-load cycles *not* hidden under compute.
    #[cfg(test)]
    pub(crate) fn exposed_weight_load(&self) -> Cycles {
        self.exposed_weight_load
    }

    /// Number of weight (or output) tiles the operation was folded into.
    #[cfg(test)]
    pub(crate) fn tiles(&self) -> u64 {
        self.tiles
    }

    /// Fraction of MAC slots that performed useful work, in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total == Cycles::ZERO {
            return 0.0;
        }
        self.shape.macs() as f64 / (self.total.get() as f64 * self.pe_count as f64)
    }
}

fn div_ceil(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

/// Computes the analytical timing of `shape` on `config`.
///
/// `dtype` is accepted for interface symmetry with the CIM model; the TPU
/// MXU datapath sustains one MAC per PE per cycle for both INT8 and BF16,
/// so the count is precision-independent.
pub(crate) fn gemm_timing(
    config: &SystolicConfig,
    shape: GemmShape,
    _dtype: DataType,
) -> GemmTiming {
    let (r, c) = (config.rows(), config.cols());
    let (m, k, n) = (shape.m(), shape.k(), shape.n());

    match config.dataflow() {
        Dataflow::WeightStationary => {
            let tiles = div_ceil(k, r) * div_ceil(n, c);
            // Fully serialized: load, fill, drain for every tile.
            let compute_per_tile = m + r + c - 2;
            let serialized = (
                tiles * (r + compute_per_tile),
                tiles * r,
                tiles * compute_per_tile,
            );
            let (total, exposed, compute) = if config.weight_double_buffering() {
                // TPU-style continuous streaming: per-PE shadow weight
                // registers let consecutive tiles' activations follow each
                // other back-to-back, so the R+C-2 pipeline skew is paid
                // once. Each tile then takes max(m, R) cycles: m to stream
                // its rows, or R to refill the shadow weights — whichever
                // is slower. This weight-refill floor is exactly the
                // "frequent weight updates" cost the paper attributes to
                // low-reuse GEMM/GEMV on systolic arrays.
                let per_tile = m.max(r);
                let fill = r + c - 2;
                let streaming = (
                    r + fill + tiles * per_tile,
                    r + tiles * (per_tile - m),
                    fill + tiles * m,
                );
                // Double buffering is optional: for a single short tile the
                // serialized schedule can beat streaming (no refill floor),
                // and the controller would choose it.
                if serialized.0 < streaming.0 {
                    serialized
                } else {
                    streaming
                }
            } else {
                serialized
            };
            GemmTiming {
                shape,
                total: Cycles::new(total),
                exposed_weight_load: Cycles::new(exposed),
                compute: Cycles::new(compute),
                tiles,
                pe_count: config.macs(),
            }
        }
        Dataflow::OutputStationary => {
            // Each PE owns one output; both operands stream for k steps,
            // then results are drained through the column tree.
            let tiles = div_ceil(m, r) * div_ceil(n, c);
            let per_tile = k + r + c - 2 + r; // stream + skew + drain
            GemmTiming {
                shape,
                total: Cycles::new(tiles * per_tile),
                exposed_weight_load: Cycles::ZERO,
                compute: Cycles::new(tiles * per_tile),
                tiles,
                pe_count: config.macs(),
            }
        }
        Dataflow::InputStationary => {
            // Activations resident (R rows of m, C cols of k); weights stream
            // for n steps per tile.
            let tiles = div_ceil(m, r) * div_ceil(k, c);
            let compute_per_tile = n + r + c - 2;
            let (total, exposed) = if config.weight_double_buffering() {
                let per_tile = compute_per_tile.max(r);
                (
                    r + tiles * per_tile,
                    r + tiles * (per_tile - compute_per_tile),
                )
            } else {
                (tiles * (r + compute_per_tile), tiles * r)
            };
            GemmTiming {
                shape,
                total: Cycles::new(total),
                exposed_weight_load: Cycles::new(exposed),
                compute: Cycles::new(tiles * compute_per_tile),
                tiles,
                pe_count: config.macs(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_units::GemmShape;

    fn ws(r: u64, c: u64) -> SystolicConfig {
        SystolicConfig::new(r, c, Dataflow::WeightStationary)
    }

    #[test]
    fn single_tile_ws_formula() {
        // 8x8 array, one 8x8 weight tile, 4 activation rows, no dbuf:
        // load 8 + (4 + 8 + 8 - 2) = 26 cycles.
        let cfg = ws(8, 8).with_weight_double_buffering(false);
        let t = gemm_timing(&cfg, GemmShape::new(4, 8, 8).unwrap(), DataType::Int8);
        assert_eq!(t.total(), Cycles::new(26));
        assert_eq!(t.exposed_weight_load(), Cycles::new(8));
        assert_eq!(t.tiles(), 1);
    }

    #[test]
    fn double_buffering_hides_later_loads() {
        // Two column tiles; with dbuf the 2nd load hides under tile 1 and
        // the pipeline skew is paid once.
        let shape = GemmShape::new(100, 8, 16).unwrap();
        let no_db = gemm_timing(
            &ws(8, 8).with_weight_double_buffering(false),
            shape,
            DataType::Int8,
        );
        let db = gemm_timing(&ws(8, 8), shape, DataType::Int8);
        assert!(db.total() < no_db.total());
        // m=100 >= R=8, so only the initial load is exposed:
        // total = 8 + 14 + 2*100 = 222.
        assert_eq!(db.total(), Cycles::new(222));
        assert_eq!(db.exposed_weight_load(), Cycles::new(8));
    }

    #[test]
    fn utilization_approaches_one_for_huge_m() {
        let t = gemm_timing(
            &ws(128, 128),
            GemmShape::new(1 << 16, 128, 128).unwrap(),
            DataType::Int8,
        );
        assert!(t.utilization() > 0.99);
    }

    #[test]
    fn gemv_pays_load_floor_every_tile() {
        let cfg = ws(128, 128);
        let t = gemm_timing(&cfg, GemmShape::gemv(128, 128).unwrap(), DataType::Int8);
        // m=1, single tile: the serialized schedule (load 128 + 1 + 254)
        // beats streaming (which would pay the 128-cycle refill floor), and
        // the controller picks it.
        assert_eq!(t.total(), Cycles::new(128 + 1 + 254));
        assert!(t.utilization() < 0.01);

        // A wide GEMV pays the 128-cycle refill floor on every tile once
        // streaming amortizes the skew across tiles.
        let wide = gemm_timing(&cfg, GemmShape::gemv(128, 1280).unwrap(), DataType::Int8);
        assert_eq!(wide.total(), Cycles::new(128 + 254 + 10 * 128));
        // Streaming beats serializing all ten tiles.
        assert!(wide.total().get() < 10 * (128 + 255));
    }

    #[test]
    fn os_has_no_weight_load_phase() {
        let cfg = SystolicConfig::new(8, 8, Dataflow::OutputStationary);
        let t = gemm_timing(&cfg, GemmShape::new(8, 32, 8).unwrap(), DataType::Int8);
        assert_eq!(t.exposed_weight_load(), Cycles::ZERO);
        // one tile: 32 + 8 + 8 - 2 + 8 = 54
        assert_eq!(t.total(), Cycles::new(54));
    }

    #[test]
    fn is_tiles_over_m_and_k() {
        let cfg = SystolicConfig::new(8, 8, Dataflow::InputStationary)
            .with_weight_double_buffering(false);
        let t = gemm_timing(&cfg, GemmShape::new(16, 16, 4).unwrap(), DataType::Int8);
        assert_eq!(t.tiles(), 4);
    }

    #[test]
    fn work_conservation_under_tiling() {
        // Total compute cycles scale with tiles; utilization never exceeds 1.
        for (m, k, n) in [(1, 7168, 7168), (8, 512, 2048), (4096, 4096, 4096)] {
            let t = gemm_timing(
                &ws(128, 128),
                GemmShape::new(m, k, n).unwrap(),
                DataType::Int8,
            );
            assert!(t.utilization() <= 1.0 + 1e-12);
            assert!(t.total() >= Cycles::new(shape_min_cycles(m, k, n)));
        }
    }

    fn shape_min_cycles(m: u64, k: u64, n: u64) -> u64 {
        // Ideal lower bound: macs / pe_count.
        (m * k * n).div_ceil(128 * 128)
    }
}
