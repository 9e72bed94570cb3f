//! Analytical timing of GEMM/GEMV on a CIM-MXU grid.
//!
//! ## Model
//!
//! A weight residency covers `k_extent × n_extent` of the weight matrix
//! (grid rows × 128 contraction channels, grid columns × 256 output
//! channels). Larger GEMMs fold into `⌈k/k_extent⌉ · ⌈n/n_extent⌉`
//! macro-tiles. For one macro-tile:
//!
//! - each of the `m` input vectors is broadcast bit-serially inside every
//!   core, taking one *wave* of [`CimCoreConfig::vector_cycles`] cycles;
//! - the input vector hops across the grid columns systolically
//!   ([`CimMxuConfig::input_hop_cycles`] per hop) — this replaces the
//!   `R + C − 2` PE-granularity skew of a systolic array and is why GEMV
//!   latency collapses;
//! - partial sums ripple down the grid rows
//!   ([`CimMxuConfig::psum_hop_cycles`] per hop);
//! - re-writing the weights for the next macro-tile takes
//!   [`CimMxuConfig::weight_write_cycles`]; with
//!   [`CimMxuConfig::overlap_weight_update`] enabled the update hides under
//!   the previous tile's compute (only stalls when compute is shorter than
//!   the update — exactly the GEMV-burst regime where the feature matters).
//!
//! [`CimCoreConfig::vector_cycles`]: crate::CimCoreConfig::vector_cycles
//! [`CimMxuConfig::weight_write_cycles`]: crate::CimMxuConfig::weight_write_cycles
//! [`CimMxuConfig::input_hop_cycles`]: crate::CimMxuConfig::input_hop_cycles
//! [`CimMxuConfig::psum_hop_cycles`]: crate::CimMxuConfig::psum_hop_cycles
//! [`CimMxuConfig::overlap_weight_update`]: crate::CimMxuConfig::overlap_weight_update

use serde::{Deserialize, Serialize};

use cimtpu_units::{Cycles, DataType, GemmShape};

use crate::geometry::CimMxuConfig;

/// Cycle-count breakdown of one GEMM on a CIM-MXU.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CimGemmTiming {
    shape: GemmShape,
    total: Cycles,
    compute: Cycles,
    exposed_weight_update: Cycles,
    macro_tiles: u64,
    peak_macs_per_cycle: u64,
}

impl CimGemmTiming {
    /// End-to-end cycles including exposed weight updates.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Cycles spent computing (waves + grid fill).
    pub fn compute(&self) -> Cycles {
        self.compute
    }

    /// Weight-update cycles *not* hidden under compute.
    #[cfg(test)]
    pub(crate) fn exposed_weight_update(&self) -> Cycles {
        self.exposed_weight_update
    }

    /// Number of weight residencies (macro-tiles).
    #[cfg(test)]
    pub(crate) fn macro_tiles(&self) -> u64 {
        self.macro_tiles
    }

    /// Fraction of peak MAC slots doing useful work, in `(0, 1]`.
    pub fn utilization(&self) -> f64 {
        if self.total == Cycles::ZERO {
            return 0.0;
        }
        self.shape.macs() as f64 / (self.total.get() as f64 * self.peak_macs_per_cycle as f64)
    }
}

/// Number of full bit-serial passes needed for `dtype` operands.
fn passes(dtype: DataType) -> u64 {
    // The integer MAC datapath chews `mantissa_bits` per pass of 8.
    u64::from(dtype.mantissa_bits().div_ceil(8))
}

/// Fixed pipeline latency of the FP pre/post-processing units per macro-tile.
const FP_PIPELINE_LATENCY: u64 = 16;

pub(crate) fn gemm_timing(
    config: &CimMxuConfig,
    shape: GemmShape,
    dtype: DataType,
) -> CimGemmTiming {
    let (m, k, n) = (shape.m(), shape.k(), shape.n());
    let core = config.core();

    // Chain packing ("flexible mapping"): a contraction extent shorter than
    // the full grid column occupies only ⌈k/128⌉ cores per partial-sum
    // chain; the weight layout is free (per-core weight ports), so the
    // remaining cores host additional chains serving extra output columns.
    // This is how Design A ("half the peak performance ... more flexible
    // mapping strategies and a higher utilization rate") and DiT's
    // d_model = 1152 avoid stranding grid rows.
    let chain_len = k.div_ceil(core.rows()).min(config.grid_rows());
    let chains = (config.core_count() / chain_len).max(1);
    let k_ext = chain_len * core.rows();
    let n_ext = chains * core.cols();
    let k_tiles = k.div_ceil(k_ext);
    let n_tiles = n.div_ceil(n_ext);
    let elem_bytes = dtype.size_bytes();
    let fp_latency = if dtype.is_float() {
        FP_PIPELINE_LATENCY
    } else {
        0
    };

    let mut compute_total: u64 = 0;
    let mut exposed_update: u64 = 0;
    let mut prev_compute: u64 = 0;
    let mut first = true;

    for ni in 0..n_tiles {
        // Columns covered by this macro-tile, split across the chains.
        let tile_n = (n - ni * n_ext).min(n_ext);
        let n_per_core = tile_n.div_ceil(chains);
        let wave = core.vector_cycles(n_per_core, core.bit_serial_bits()) * passes(dtype);

        for ki in 0..k_tiles {
            // Weight delivery for this residency: the whole tile crosses the
            // MXU-level ingest bus; each core writes its slice in parallel.
            let tile_k = (k - ki * k_ext).min(k_ext);
            let tile_bytes = tile_k * tile_n * elem_bytes;
            let per_core_bytes = tile_k.min(core.rows()) * n_per_core * elem_bytes;
            let update = config.weight_write_cycles(tile_bytes, per_core_bytes);

            let fill = (config.grid_cols() - 1) * config.input_hop_cycles()
                + (chain_len - 1) * config.psum_hop_cycles();
            let tile_compute = m * wave + fill + fp_latency;
            compute_total += tile_compute;
            if first {
                // The first residency's write is always exposed.
                exposed_update += update;
                first = false;
            } else if config.overlap_weight_update() {
                // Update overlaps the previous tile's compute.
                exposed_update += update.saturating_sub(prev_compute);
            } else {
                exposed_update += update;
            }
            prev_compute = tile_compute;
        }
    }

    let macro_tiles = k_tiles * n_tiles;
    CimGemmTiming {
        shape,
        total: Cycles::new(compute_total + exposed_update),
        compute: Cycles::new(compute_total),
        exposed_weight_update: Cycles::new(exposed_update),
        macro_tiles,
        peak_macs_per_cycle: config.peak_macs_per_cycle(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CimMxuConfig;

    fn mxu() -> CimMxuConfig {
        CimMxuConfig::paper_default()
    }

    #[test]
    fn single_tile_gemm_formula() {
        // m=64, full 2048x2048 residency: wave = 256, fill = 7*32 + 15*4 = 284.
        // The initial weight delivery (4 MiB over the 128 B/cycle ingest
        // bus = 32768 cycles) is exposed once.
        let t = gemm_timing(
            &mxu(),
            GemmShape::new(64, 2048, 2048).unwrap(),
            DataType::Int8,
        );
        assert_eq!(t.macro_tiles(), 1);
        assert_eq!(t.compute(), Cycles::new(64 * 256 + 284));
        assert_eq!(t.total(), Cycles::new(64 * 256 + 284 + 32768));
    }

    #[test]
    fn near_peak_for_large_m() {
        let t = gemm_timing(
            &mxu(),
            GemmShape::new(1 << 14, 2048, 2048).unwrap(),
            DataType::Int8,
        );
        assert!(t.utilization() > 0.98, "utilization {}", t.utilization());
    }

    #[test]
    fn gemv_is_weight_delivery_bound() {
        // One residency, m=1: compute is a single wave + fill (540 cycles);
        // virtually the whole latency is delivering 4 MiB of weights over
        // the ingest bus — exactly the memory-bound GEMV regime of LLM
        // decoding (the systolic array is equally delivery-bound, so the
        // CIM win on *single* weight GEMVs is energy, not latency; the
        // latency win comes from batched attention packing, see
        // cimtpu-core's engine tests).
        let t = gemm_timing(&mxu(), GemmShape::gemv(2048, 2048).unwrap(), DataType::Int8);
        assert_eq!(t.compute(), Cycles::new(256 + 284));
        assert!(t.exposed_weight_update() >= Cycles::new(32768));
        assert!(t.utilization() < 0.01);
    }

    #[test]
    fn weight_update_overlap_hides_updates_for_big_tiles() {
        let shape = GemmShape::new(512, 4096, 4096).unwrap(); // 2x2 macro-tiles
        let overlapped = gemm_timing(&mxu(), shape, DataType::Int8);
        let serial = gemm_timing(
            &mxu().with_overlap_weight_update(false),
            shape,
            DataType::Int8,
        );
        // 4 residencies: serial pays 4 updates, overlapped pays only the first
        // (compute per tile = 512*256 >> 32768-cycle update).
        assert_eq!(serial.total() - overlapped.total(), Cycles::new(3 * 32768));
    }

    #[test]
    fn gemv_bursts_expose_updates_even_with_overlap() {
        // When compute per tile (1 wave) < update, overlap cannot fully hide
        // the update stream — matches the paper's "low weight reuse" concern.
        let shape = GemmShape::gemv(2048, 16384).unwrap(); // 8 n-tiles
        let t = gemm_timing(&mxu(), shape, DataType::Int8);
        assert!(t.exposed_weight_update() > Cycles::new(1024));
        let serial = gemm_timing(
            &mxu().with_overlap_weight_update(false),
            shape,
            DataType::Int8,
        );
        assert!(serial.exposed_weight_update() > t.exposed_weight_update());
    }

    #[test]
    fn bf16_adds_pipeline_latency_only() {
        let shape = GemmShape::new(128, 2048, 2048).unwrap();
        let int8 = gemm_timing(&mxu(), shape, DataType::Int8);
        let bf16 = gemm_timing(&mxu(), shape, DataType::Bf16);
        // Same number of passes (8-bit mantissa); BF16 pays FP pipeline
        // latency and a 2x weight update (2 bytes/elem).
        assert_eq!(
            bf16.compute() - int8.compute(),
            Cycles::new(FP_PIPELINE_LATENCY)
        );
        assert!(bf16.total() > int8.total());
    }

    #[test]
    fn partial_n_tile_shrinks_wave() {
        // n = 256 across 8 grid columns: 32 columns per core -> wave 32.
        let t = gemm_timing(
            &mxu(),
            GemmShape::new(1024, 2048, 256).unwrap(),
            DataType::Int8,
        );
        let full = gemm_timing(
            &mxu(),
            GemmShape::new(1024, 2048, 2048).unwrap(),
            DataType::Int8,
        );
        assert!(t.total().get() * 4 < full.total().get());
    }

    #[test]
    fn smaller_grids_cover_less_per_residency() {
        let small = CimMxuConfig::with_grid(8, 8);
        let t = gemm_timing(
            &small,
            GemmShape::new(64, 2048, 2048).unwrap(),
            DataType::Int8,
        );
        assert_eq!(t.macro_tiles(), 2); // k folds twice at k_extent=1024
    }

    #[test]
    fn utilization_bounded() {
        for (m, k, n) in [(1, 128, 1280), (8, 7168, 7168), (8192, 7168, 28672)] {
            let t = gemm_timing(&mxu(), GemmShape::new(m, k, n).unwrap(), DataType::Int8);
            assert!(t.utilization() <= 1.0 + 1e-12, "{m}x{k}x{n}");
            assert!(t.utilization() > 0.0);
        }
    }
}
