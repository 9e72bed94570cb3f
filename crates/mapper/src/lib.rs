//! Tiling and scheduling engine for CIM-based TPUs.
//!
//! Given a GEMM, a memory hierarchy and an engine cost model, the mapping
//! engine (paper Fig. 5) chooses how to partition the operands into
//! sub-tiles that fit the on-chip buffers and how to schedule their DMA
//! alongside compute:
//!
//! - [`MemoryLevels`] — the two-level TPU hierarchy (VMEM ← CMEM ← HBM via
//!   the on-chip interconnect), with toggles for **double buffering** and
//!   **memory coalescing** (the two scheduling options Section III-C names);
//! - [`TileCostModel`] — the trait engines implement to price one tile
//!   (both the digital systolic MXU and the CIM-MXU provide this through
//!   `cimtpu-core`);
//! - [`Mapper`] — enumerates the pruned map-space (heuristics in the style
//!   of LLMCompass/Timeloop: power-of-two tile candidates snapped to the
//!   engine's preferred granularity) and returns the latency-optimal
//!   [`Mapping`].
//!
//! The search is bounded by its incumbent: a candidate's DMA side is
//! priced first, and the engine prices its tile only if the candidate's
//! DMA floor can still beat the best total so far. The skip is exact (see
//! [`Mapper::best_gemm_mapping`]); [`Mapper::candidates_enumerated`] and
//! [`Mapper::candidates_priced`] count how often it fires.
//!
//! # Examples
//!
//! ```
//! use cimtpu_mapper::{Mapper, MemoryLevels, TileCostModel};
//! use cimtpu_units::{Bandwidth, Bytes, Cycles, DataType, Frequency, GemmShape};
//!
//! /// A toy engine: one MAC per cycle.
//! struct Scalar;
//! impl TileCostModel for Scalar {
//!     fn tile_cycles(&self, s: GemmShape, _d: DataType) -> Cycles { Cycles::new(s.macs()) }
//!     fn clock(&self) -> Frequency { Frequency::from_ghz(1.0) }
//!     fn preferred_k(&self) -> u64 { 64 }
//!     fn preferred_n(&self) -> u64 { 64 }
//! }
//!
//! let mapper = Mapper::new(MemoryLevels::tpuv4i());
//! let mapping = mapper.best_gemm_mapping(
//!     GemmShape::new(256, 4096, 4096)?, DataType::Int8, &Scalar, false)?;
//! assert!(mapping.tiles() >= 1);
//! assert!(mapping.total().get() > 0.0);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod levels;
mod mapping;
mod mapspace;
#[cfg(test)]
mod proptests;

pub use levels::MemoryLevels;
pub use mapping::Mapping;
pub use mapspace::{candidate_tiles, for_each_candidate, EdgeBuffers};

use std::cell::{Cell, RefCell};

use cimtpu_units::{Bandwidth, Cycles, DataType, Error, Frequency, GemmShape, Result, Seconds};

/// Prices one buffer-level tile on a matrix engine.
///
/// Implementations exist in `cimtpu-core` for the digital systolic MXU and
/// the CIM-MXU; the trait keeps this crate engine-agnostic.
pub trait TileCostModel {
    /// Cycles for the engine to process one `[tm × tk] · [tk × tn]` tile
    /// with freshly loaded weights (internal folding included).
    ///
    /// # Contract
    ///
    /// The cost must be monotone non-decreasing in each tile dimension:
    /// shrinking an edge never makes the tile slower. Every folding /
    /// ceiling-based engine satisfies this naturally; the map-space
    /// search relies on it to prune dominated candidates that share
    /// their tile counts with a smaller tile (see
    /// [`for_each_candidate`]).
    fn tile_cycles(&self, shape: GemmShape, dtype: DataType) -> Cycles;

    /// The engine clock, used to convert cycles to wall time for overlap
    /// against DMA.
    fn clock(&self) -> Frequency;

    /// Preferred contraction-tile granularity (e.g. array rows).
    fn preferred_k(&self) -> u64;

    /// Preferred output-tile granularity (e.g. array columns).
    fn preferred_n(&self) -> u64;
}

/// One GEMM pricing request for the batch API ([`Mapper::map_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmQuery {
    /// The GEMM to map.
    pub shape: GemmShape,
    /// Operand precision.
    pub dtype: DataType,
    /// Whether the weights are already resident on chip (skips HBM).
    pub weights_resident: bool,
}

impl GemmQuery {
    /// Creates a query with streamed (non-resident) weights.
    pub fn streamed(shape: GemmShape, dtype: DataType) -> Self {
        GemmQuery { shape, dtype, weights_resident: false }
    }
}

/// The mapping engine.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Mapper {
    levels: MemoryLevels,
    /// Reused edge-candidate buffers: the map-space search allocates
    /// nothing per call once these are warm.
    scratch: RefCell<EdgeBuffers>,
    /// Candidates the map-space search has enumerated (after
    /// dominated-candidate pruning).
    enumerated: Cell<u64>,
    /// Candidates whose tile the engine priced (not skipped by the
    /// incumbent bound).
    priced: Cell<u64>,
}

impl PartialEq for Mapper {
    fn eq(&self, other: &Self) -> bool {
        // Scratch buffers are a cache and the counters are observations,
        // not state.
        self.levels == other.levels
    }
}

impl Mapper {
    /// Creates a mapper over the given memory hierarchy.
    pub fn new(levels: MemoryLevels) -> Self {
        Mapper {
            levels,
            scratch: RefCell::new(EdgeBuffers::default()),
            enumerated: Cell::new(0),
            priced: Cell::new(0),
        }
    }

    /// Candidate tilings the map-space search has enumerated since
    /// construction, after dominated-candidate pruning.
    pub fn candidates_enumerated(&self) -> u64 {
        self.enumerated.get()
    }

    /// Enumerated candidates whose tile reached the engine's
    /// [`tile_cycles`](TileCostModel::tile_cycles); the rest were skipped
    /// because their DMA floor could not beat the incumbent.
    pub fn candidates_priced(&self) -> u64 {
        self.priced.get()
    }

    /// The memory hierarchy this mapper schedules against.
    pub fn levels(&self) -> &MemoryLevels {
        &self.levels
    }

    /// Finds the latency-optimal tiling for `shape` on `engine`.
    ///
    /// `weights_resident` marks weights already on chip (e.g. a second pass
    /// over the same layer), skipping HBM weight traffic.
    ///
    /// Among equal totals the first candidate enumerated wins. The search
    /// skips the engine's [`tile_cycles`](TileCostModel::tile_cycles) for
    /// a candidate whose DMA floor — `prologue + dma` when
    /// double-buffered, `hbm + oci` when serialized — is `>=` the best
    /// total so far. The skip never changes the result:
    ///
    /// - a total is `prologue + max(compute, dma)` or
    ///   `(compute + hbm) + oci` with `compute >= 0`, and IEEE
    ///   round-to-nearest is monotone, so no total is below its floor;
    /// - a skipped candidate could at best tie the incumbent, and a tie
    ///   keeps the incumbent, hence `>=` rather than `>`;
    /// - `>=` is false when either side is NaN, so a NaN floor or
    ///   incumbent never skips.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unmappable`] if no candidate tile fits the VMEM
    /// working-set budget.
    pub fn best_gemm_mapping(
        &self,
        shape: GemmShape,
        dtype: DataType,
        engine: &dyn TileCostModel,
        weights_resident: bool,
    ) -> Result<Mapping> {
        self.best_mapping_with_budget(
            shape,
            dtype,
            engine,
            weights_resident,
            self.levels.vmem_tile_budget(),
            engine.preferred_k(),
            engine.preferred_n(),
        )
    }

    /// Prices every query in `queries` against one engine, deriving the
    /// VMEM budget and the engine's preferred granularities exactly once.
    ///
    /// Results are returned in query order. This is the bulk entry point
    /// for sweep drivers that price many operator shapes on a fixed
    /// hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`Error::Unmappable`] encountered.
    pub fn map_batch(
        &self,
        queries: &[GemmQuery],
        engine: &dyn TileCostModel,
    ) -> Result<Vec<Mapping>> {
        let budget = self.levels.vmem_tile_budget();
        let pref_k = engine.preferred_k();
        let pref_n = engine.preferred_n();
        queries
            .iter()
            .map(|q| {
                self.best_mapping_with_budget(
                    q.shape,
                    q.dtype,
                    engine,
                    q.weights_resident,
                    budget,
                    pref_k,
                    pref_n,
                )
            })
            .collect()
    }

    /// The streaming search behind [`Mapper::best_gemm_mapping`]: folds the
    /// candidate iterator directly into the best mapping (no intermediate
    /// candidate or mapping vectors). Candidates whose
    /// [floor](Candidate::floor) cannot beat the incumbent are never
    /// priced (see [`Mapper::best_gemm_mapping`]).
    #[allow(clippy::too_many_arguments)]
    fn best_mapping_with_budget(
        &self,
        shape: GemmShape,
        dtype: DataType,
        engine: &dyn TileCostModel,
        weights_resident: bool,
        budget: cimtpu_units::Bytes,
        pref_k: u64,
        pref_n: u64,
    ) -> Result<Mapping> {
        let mut best: Option<Mapping> = None;
        let mut failure: Option<Error> = None;
        let (mut enumerated, mut priced) = (0u64, 0u64);
        // Take the buffers out of the cell for the duration of the search:
        // a re-entrant cost model (one that calls back into this mapper
        // from `tile_cycles`) then simply allocates fresh buffers instead
        // of hitting a RefCell double-borrow panic.
        let mut scratch = self.scratch.take();
        // Dominated-candidate pruning is only winner-preserving when the
        // double-buffering prologue makes the domination strict, which
        // needs finite DMA times and a prologue strictly increasing in the
        // tile: without them a dominated tile can tie on total latency
        // and win the first-minimal tie-break.
        let finite_positive = |bw: Bandwidth| bw.get().is_finite() && bw.get() > 0.0;
        let prune = self.levels.double_buffering()
            && finite_positive(self.levels.hbm_bandwidth())
            && finite_positive(self.levels.oci_bandwidth());
        mapspace::for_each_candidate(
            shape,
            dtype,
            pref_k,
            pref_n,
            budget,
            prune,
            &mut scratch,
            |tile| {
                if failure.is_some() {
                    return;
                }
                enumerated += 1;
                let candidate = match self.candidate(shape, dtype, weights_resident, tile) {
                    Ok(candidate) => candidate,
                    Err(e) => {
                        failure = Some(e);
                        return;
                    }
                };
                // `>=` is false when either side is NaN: NaN never skips.
                if best.as_ref().is_some_and(|b| candidate.floor() >= b.total()) {
                    return;
                }
                priced += 1;
                let mapping = candidate.price(dtype, engine);
                match &best {
                    Some(b) if b.total() <= mapping.total() => {}
                    _ => best = Some(mapping),
                }
            },
        );
        *self.scratch.borrow_mut() = scratch;
        self.enumerated.set(self.enumerated.get() + enumerated);
        self.priced.set(self.priced.get() + priced);
        if let Some(e) = failure {
            return Err(e);
        }
        best.ok_or_else(|| {
            Error::unmappable(format!("no tile of {shape} fits the {budget} VMEM budget"))
        })
    }

    /// Evaluates one specific tiling (exposed for map-space studies).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidShape`] if the tile has a zero dimension.
    pub fn evaluate(
        &self,
        shape: GemmShape,
        dtype: DataType,
        engine: &dyn TileCostModel,
        weights_resident: bool,
        tile: (u64, u64, u64),
    ) -> Result<Mapping> {
        Ok(self.candidate(shape, dtype, weights_resident, tile)?.price(dtype, engine))
    }

    /// Prices the DMA side of one tiling: everything [`Mapper::evaluate`]
    /// needs except the engine's tile cost.
    fn candidate(
        &self,
        shape: GemmShape,
        dtype: DataType,
        weights_resident: bool,
        tile: (u64, u64, u64),
    ) -> Result<Candidate> {
        let (tm, tk, tn) = tile;
        let tile_shape = GemmShape::new(tm.min(shape.m()), tk.min(shape.k()), tn.min(shape.n()))?;
        let tiles_m = shape.m().div_ceil(tile_shape.m());
        let tiles_k = shape.k().div_ceil(tile_shape.k());
        let tiles_n = shape.n().div_ceil(tile_shape.n());

        // Loop order is m-innermost (weight-stationary across m-chunks): one
        // weight residency serves every activation chunk, so the engine is
        // priced per (k, n) tile with the *full* m streamed through it —
        // activation chunking constrains the buffers (via the candidate
        // filter), not the compute cost.
        let kn_shape = GemmShape::new(shape.m(), tile_shape.k(), tile_shape.n())?;

        // Aggregate DMA: weights stream from HBM exactly once; activations
        // re-cross the OCI once per n-tile, partial sums once per k-tile.
        let hbm_bytes =
            if weights_resident { cimtpu_units::Bytes::ZERO } else { shape.weight_bytes(dtype) };
        let hbm_time =
            if weights_resident { Seconds::ZERO } else { self.levels.hbm_time(hbm_bytes) };
        let oci_bytes = cimtpu_units::Bytes::new(
            shape.activation_bytes(dtype).get() * tiles_n
                + shape.output_bytes(DataType::Fp32).get() * tiles_k,
        );
        let oci_time = self.levels.oci_time(oci_bytes);

        // With double buffering the prologue exposes one tile's DMA.
        let prologue = self
            .levels
            .double_buffering()
            .then(|| self.levels.hbm_time(tile_shape.weight_bytes(dtype)));
        Ok(Candidate {
            shape,
            tile_shape,
            tiles: tiles_m * tiles_k * tiles_n,
            kn_tiles: tiles_k * tiles_n,
            kn_shape,
            hbm_time,
            oci_time,
            dma: hbm_time.max(oci_time),
            prologue,
            hbm_bytes,
        })
    }
}

/// One tiling with its DMA side priced, awaiting the engine's tile cost.
struct Candidate {
    shape: GemmShape,
    tile_shape: GemmShape,
    tiles: u64,
    kn_tiles: u64,
    /// The per-(k, n)-tile shape the engine prices (full m streamed).
    kn_shape: GemmShape,
    hbm_time: Seconds,
    oci_time: Seconds,
    dma: Seconds,
    /// The double-buffering prologue; `None` for a serialized schedule.
    prologue: Option<Seconds>,
    hbm_bytes: cimtpu_units::Bytes,
}

impl Candidate {
    /// The candidate's total with zero compute: `prologue + dma` when
    /// double-buffered, `hbm + oci` when serialized. Rounding is
    /// monotone, so [`price`](Self::price) never returns a smaller total.
    fn floor(&self) -> Seconds {
        match self.prologue {
            Some(prologue) => prologue + self.dma,
            None => self.hbm_time + self.oci_time,
        }
    }

    /// Runs the engine on the candidate's tile and schedules compute
    /// against the DMA.
    fn price(self, dtype: DataType, engine: &dyn TileCostModel) -> Mapping {
        let compute =
            engine.tile_cycles(self.kn_shape, dtype).at(engine.clock()) * self.kn_tiles as f64;
        // Schedule: with double buffering the three channels overlap
        // (roofline) behind the prologue. Without it, everything
        // serializes.
        let total = match self.prologue {
            Some(prologue) => prologue + compute.max(self.dma),
            None => compute + self.hbm_time + self.oci_time,
        };
        Mapping::new(
            self.shape,
            self.tile_shape,
            self.tiles,
            compute,
            self.dma,
            total,
            self.hbm_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_units::Bytes;

    /// Engine with perfect peak: macs / 16384 cycles per tile.
    struct Ideal;
    impl TileCostModel for Ideal {
        fn tile_cycles(&self, s: GemmShape, _d: DataType) -> Cycles {
            Cycles::new(s.macs().div_ceil(16384))
        }
        fn clock(&self) -> Frequency {
            Frequency::from_ghz(1.05)
        }
        fn preferred_k(&self) -> u64 {
            128
        }
        fn preferred_n(&self) -> u64 {
            128
        }
    }

    #[test]
    fn compute_bound_gemm_tracks_peak() {
        // Large prefill GEMM: mapped latency should approach macs/peak.
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let shape = GemmShape::new(8192, 7168, 7168).unwrap();
        let m = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .unwrap();
        let ideal = shape.macs() as f64 / (16384.0 * 1.05e9);
        let ratio = m.total().get() / ideal;
        assert!(ratio < 1.3, "mapped/ideal = {ratio}");
    }

    #[test]
    fn memory_bound_gemv_tracks_hbm() {
        // Decode-style GEMV: latency should approach weight-bytes / HBM BW.
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let shape = GemmShape::new(8, 7168, 28672).unwrap();
        let m = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .unwrap();
        let hbm = shape.weight_bytes(DataType::Int8).get() as f64 / 614e9;
        let ratio = m.total().get() / hbm;
        assert!((1.0..1.5).contains(&ratio), "mapped/hbm = {ratio}");
    }

    #[test]
    fn resident_weights_skip_hbm() {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let shape = GemmShape::new(8, 7168, 7168).unwrap();
        let streamed = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .unwrap();
        let resident = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, true)
            .unwrap();
        assert!(resident.total() < streamed.total());
        assert_eq!(resident.hbm_bytes(), Bytes::ZERO);
    }

    #[test]
    fn double_buffering_helps() {
        let with_db = Mapper::new(MemoryLevels::tpuv4i());
        let without = Mapper::new(MemoryLevels::tpuv4i().with_double_buffering(false));
        let shape = GemmShape::new(1024, 7168, 7168).unwrap();
        let a = with_db
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .unwrap();
        let b = without
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .unwrap();
        assert!(a.total() < b.total());
    }

    #[test]
    fn unmappable_when_budget_too_small() {
        let tiny = MemoryLevels::tpuv4i().with_vmem(Bytes::new(8));
        let mapper = Mapper::new(tiny);
        let shape = GemmShape::new(4096, 4096, 4096).unwrap();
        assert!(mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .is_err());
    }

    #[test]
    fn reentrant_cost_model_does_not_panic() {
        // A cost model that consults the same mapper from inside
        // `tile_cycles` must not trip the scratch-buffer cell.
        struct Reentrant<'a> {
            mapper: &'a Mapper,
        }
        impl TileCostModel for Reentrant<'_> {
            fn tile_cycles(&self, s: GemmShape, d: DataType) -> Cycles {
                let inner = self
                    .mapper
                    .best_gemm_mapping(GemmShape::new(8, 128, 128).unwrap(), d, &Ideal, false)
                    .unwrap();
                Cycles::new(s.macs().div_ceil(16384) + inner.tiles())
            }
            fn clock(&self) -> Frequency {
                Frequency::from_ghz(1.05)
            }
            fn preferred_k(&self) -> u64 {
                128
            }
            fn preferred_n(&self) -> u64 {
                128
            }
        }
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let engine = Reentrant { mapper: &mapper };
        let m = mapper
            .best_gemm_mapping(GemmShape::new(64, 512, 512).unwrap(), DataType::Int8, &engine, false)
            .unwrap();
        assert!(m.total().get() > 0.0);
    }

    #[test]
    fn map_batch_matches_single_queries() {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let queries = vec![
            GemmQuery::streamed(GemmShape::new(8, 7168, 7168).unwrap(), DataType::Int8),
            GemmQuery {
                shape: GemmShape::new(8192, 7168, 28672).unwrap(),
                dtype: DataType::Bf16,
                weights_resident: false,
            },
            GemmQuery {
                shape: GemmShape::new(8, 7168, 7168).unwrap(),
                dtype: DataType::Int8,
                weights_resident: true,
            },
        ];
        let batch = mapper.map_batch(&queries, &Ideal).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, got) in queries.iter().zip(&batch) {
            let single = mapper
                .best_gemm_mapping(q.shape, q.dtype, &Ideal, q.weights_resident)
                .unwrap();
            assert_eq!(*got, single, "{:?}", q);
        }
    }

    #[test]
    fn work_is_conserved() {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        for (m, k, n) in [(1, 7168, 7168), (8192, 7168, 28672), (13, 1000, 999)] {
            let shape = GemmShape::new(m, k, n).unwrap();
            let mapping = mapper
                .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
                .unwrap();
            // Tiles cover the iteration space.
            let t = mapping.tile();
            assert!(t.m() * mapping.tiles() >= shape.m(), "{m}x{k}x{n}");
            assert!(mapping.total() >= mapping.compute().min(mapping.dma()));
        }
    }
}
