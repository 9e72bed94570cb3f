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
//! The engine prices each `(k, n)` slab with the full `m` streamed through
//! it, so no total depends on a tile's `m` edge. The search therefore
//! walks `(tk, tn)` pairs: a pair is feasible when its smallest `m` edge
//! fits the buffers, and the winner's `tm` (its largest fitting `m` edge)
//! is picked once, after the search.
//!
//! The search is bounded by its incumbent: a pair's DMA side is priced
//! first, and the engine prices its slab only if the pair's DMA floor can
//! still beat the best total so far. The skip is exact (see
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
#![warn(unreachable_pub)]

mod levels;
mod mapping;
mod mapspace;
#[cfg(test)]
mod proptests;

pub use levels::MemoryLevels;
pub use mapping::Mapping;
pub use mapspace::candidate_tiles;
use mapspace::EdgeBuffers;

use mapspace::{MapSpace, Pair};

use std::cell::{Cell, RefCell};

use cimtpu_units::{
    Bandwidth, Bytes, Cycles, DataType, Error, Frequency, GemmShape, Result, Seconds,
};

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
    /// the map-space enumeration, `for_each_candidate`).
    fn tile_cycles(&self, shape: GemmShape, dtype: DataType) -> Cycles;

    /// The engine clock, used to convert cycles to wall time for overlap
    /// against DMA.
    fn clock(&self) -> Frequency;

    /// Preferred contraction-tile granularity (e.g. array rows).
    fn preferred_k(&self) -> u64;

    /// Preferred output-tile granularity (e.g. array columns).
    fn preferred_n(&self) -> u64;
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
    /// walks the `(tk, tn)` pairs of the map-space stream and
    /// skips the engine's [`tile_cycles`](TileCostModel::tile_cycles) for
    /// a pair whose DMA floor — `prologue + dma` when
    /// double-buffered, `hbm + oci` when serialized — is `>=` the best
    /// total so far. The skip never changes the result:
    ///
    /// - a total is `prologue + max(compute, dma)` or
    ///   `(compute + hbm) + oci` with `compute >= 0`, and IEEE
    ///   round-to-nearest is monotone, so no total is below its floor;
    /// - a skipped pair could at best tie the incumbent, and a tie
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
        // Take the buffers out of the cell for the duration of the search:
        // a re-entrant cost model (one that calls back into this mapper
        // from `tile_cycles`) then simply allocates fresh buffers instead
        // of hitting a RefCell double-borrow panic.
        let mut scratch = self.scratch.take();
        let best = self.search(shape, dtype, engine, weights_resident, &mut scratch);
        *self.scratch.borrow_mut() = scratch;
        best
    }

    /// The streaming search behind [`Mapper::best_gemm_mapping`]: folds the
    /// feasible `(tk, tn)` pairs directly into the best priced pair, then
    /// picks the winner's `tm`. Pairs whose [floor](PairCost::floor)
    /// cannot beat the incumbent are never priced. `tm` decides only
    /// feasibility and the reported tile: no total depends on it.
    fn search(
        &self,
        shape: GemmShape,
        dtype: DataType,
        engine: &dyn TileCostModel,
        weights_resident: bool,
        scratch: &mut EdgeBuffers,
    ) -> Result<Mapping> {
        let budget = self.levels.vmem_tile_budget();
        // Dominated-candidate pruning is only winner-preserving when the
        // double-buffering prologue makes the domination strict, which
        // needs finite DMA times and a prologue strictly increasing in the
        // tile: without them a dominated tile can tie on total latency
        // and win the first-minimal tie-break.
        let finite_positive = |bw: Bandwidth| bw.get().is_finite() && bw.get() > 0.0;
        let prune = self.levels.double_buffering()
            && finite_positive(self.levels.hbm_bandwidth())
            && finite_positive(self.levels.oci_bandwidth());
        let prefs = (engine.preferred_k(), engine.preferred_n());
        let space = MapSpace::new(shape, dtype, prefs, budget, prune, scratch);
        let gemm = GemmDma::new(&self.levels, shape, dtype, weights_resident);
        let mut best: Option<Priced> = None;
        for pair in space.pairs() {
            self.enumerated.set(self.enumerated.get() + 1);
            let cost = gemm.pair(pair);
            // `>=` is false when either side is NaN: NaN never skips.
            if best.as_ref().is_some_and(|b| cost.floor(&gemm) >= b.total) {
                continue;
            }
            self.priced.set(self.priced.get() + 1);
            let cost = cost.price(&gemm, engine)?;
            match &best {
                Some(b) if b.total <= cost.total => {}
                _ => best = Some(cost),
            }
        }
        let best = best.ok_or_else(|| {
            Error::unmappable(format!("no tile of {shape} fits the {budget} VMEM budget"))
        })?;
        gemm.mapping(&best, space.tm(best.pair.tk, best.pair.tn))
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
        (tm, tk, tn): (u64, u64, u64),
    ) -> Result<Mapping> {
        let tile = GemmShape::new(tm.min(shape.m()), tk.min(shape.k()), tn.min(shape.n()))?;
        let gemm = GemmDma::new(&self.levels, shape, dtype, weights_resident);
        let cost = gemm.pair(Pair {
            tk: tile.k(),
            tn: tile.n(),
            tiles_k: shape.k().div_ceil(tile.k()),
            tiles_n: shape.n().div_ceil(tile.n()),
        });
        gemm.mapping(&cost.price(&gemm, engine)?, tile.m())
    }
}

/// What pricing a `(tk, tn)` pair of one GEMM needs that no pair changes.
struct GemmDma<'a> {
    levels: &'a MemoryLevels,
    shape: GemmShape,
    dtype: DataType,
    /// Weights stream from HBM exactly once (nothing when resident).
    hbm_bytes: Bytes,
    hbm_time: Seconds,
}

impl<'a> GemmDma<'a> {
    fn new(levels: &'a MemoryLevels, shape: GemmShape, dtype: DataType, resident: bool) -> Self {
        let hbm_bytes = if resident {
            Bytes::ZERO
        } else {
            shape.weight_bytes(dtype)
        };
        let hbm_time = if resident {
            Seconds::ZERO
        } else {
            levels.hbm_time(hbm_bytes)
        };
        GemmDma {
            levels,
            shape,
            dtype,
            hbm_bytes,
            hbm_time,
        }
    }

    /// Prices the DMA side of one pair: everything its total needs except
    /// the engine's tile cost.
    fn pair(&self, pair: Pair) -> PairCost {
        // Aggregate DMA: activations re-cross the OCI once per n-tile,
        // partial sums once per k-tile.
        let oci_bytes = Bytes::new(
            self.shape.activation_bytes(self.dtype).get() * pair.tiles_n
                + self.shape.output_bytes(DataType::Fp32).get() * pair.tiles_k,
        );
        let oci_time = self.levels.oci_time(oci_bytes);
        // With double buffering the prologue exposes one tile's DMA.
        let prologue = self.levels.double_buffering().then(|| {
            self.levels
                .hbm_time(Bytes::new(pair.tk * pair.tn * self.dtype.size_bytes()))
        });
        PairCost {
            pair,
            oci_time,
            dma: self.hbm_time.max(oci_time),
            prologue,
        }
    }

    /// The mapping of a priced pair, reported with `tm` as its `m` edge.
    fn mapping(&self, priced: &Priced, tm: u64) -> Result<Mapping> {
        let Pair {
            tk,
            tn,
            tiles_k,
            tiles_n,
        } = priced.pair;
        Ok(Mapping::new(
            self.shape,
            GemmShape::new(tm, tk, tn)?,
            self.shape.m().div_ceil(tm) * tiles_k * tiles_n,
            priced.compute,
            priced.dma,
            priced.total,
            self.hbm_bytes,
        ))
    }
}

/// One `(tk, tn)` pair with its DMA side priced, awaiting the engine's
/// tile cost.
struct PairCost {
    pair: Pair,
    oci_time: Seconds,
    dma: Seconds,
    /// The double-buffering prologue; `None` for a serialized schedule.
    prologue: Option<Seconds>,
}

/// A pair with its compute scheduled against its DMA: the search's
/// incumbent.
struct Priced {
    pair: Pair,
    compute: Seconds,
    dma: Seconds,
    total: Seconds,
}

impl PairCost {
    /// The pair's total with zero compute: `prologue + dma` when
    /// double-buffered, `hbm + oci` when serialized. Rounding is
    /// monotone, so [`price`](Self::price) never returns a smaller total.
    fn floor(&self, gemm: &GemmDma) -> Seconds {
        match self.prologue {
            Some(prologue) => prologue + self.dma,
            None => gemm.hbm_time + self.oci_time,
        }
    }

    /// Runs the engine on the pair's `(m, tk, tn)` slab and schedules
    /// compute against the DMA.
    fn price(&self, gemm: &GemmDma, engine: &dyn TileCostModel) -> Result<Priced> {
        // Loop order is m-innermost (weight-stationary across m-chunks): one
        // weight residency serves every activation chunk, so the engine is
        // priced per (k, n) tile with the *full* m streamed through it —
        // activation chunking constrains the buffers, not the compute cost.
        let Pair {
            tk,
            tn,
            tiles_k,
            tiles_n,
        } = self.pair;
        let slab = GemmShape::new(gemm.shape.m(), tk, tn)?;
        let compute =
            engine.tile_cycles(slab, gemm.dtype).at(engine.clock()) * (tiles_k * tiles_n) as f64;
        // Schedule: with double buffering the three channels overlap
        // (roofline) behind the prologue. Without it, everything
        // serializes.
        let total = match self.prologue {
            Some(prologue) => prologue + compute.max(self.dma),
            None => compute + gemm.hbm_time + self.oci_time,
        };
        Ok(Priced {
            pair: self.pair,
            compute,
            dma: self.dma,
            total,
        })
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
            .best_gemm_mapping(
                GemmShape::new(64, 512, 512).unwrap(),
                DataType::Int8,
                &engine,
                false,
            )
            .unwrap();
        assert!(m.total().get() > 0.0);
    }

    #[test]
    fn equal_totals_keep_the_first_pair_enumerated() {
        // Cycles proportional to MACs over power-of-two edges: every
        // `(tk, tn)` pair computes for exactly the same time. An infinite
        // HBM zeroes the prologue, so each total is that compute (above
        // every OCI time) while each floor is the pair's OCI time, which
        // grows with its tile counts. No floor reaches the incumbent, so
        // every pair is priced, and they all tie.
        struct Linear;
        impl TileCostModel for Linear {
            fn tile_cycles(&self, s: GemmShape, _d: DataType) -> Cycles {
                Cycles::new(s.macs() * 1024)
            }
            fn clock(&self) -> Frequency {
                Frequency::from_ghz(1.0)
            }
            fn preferred_k(&self) -> u64 {
                128
            }
            fn preferred_n(&self) -> u64 {
                128
            }
        }
        let levels = MemoryLevels::tpuv4i().with_hbm_bandwidth(Bandwidth::new(f64::INFINITY));
        let mapper = Mapper::new(levels.clone());
        let shape = GemmShape::new(8, 256, 256).unwrap();
        let tiles = candidate_tiles(shape, DataType::Int8, 128, 128, levels.vmem_tile_budget());
        let priced: Vec<Mapping> = tiles
            .iter()
            .map(|&tile| {
                mapper
                    .evaluate(shape, DataType::Int8, &Linear, false, tile)
                    .unwrap()
            })
            .collect();
        assert!(priced.len() > 1);
        assert!(
            priced.iter().all(|p| p.total() == priced[0].total()),
            "totals tie"
        );
        assert!(
            priced.iter().any(|p| p.dma() != priced[0].dma()),
            "floors differ"
        );

        let best = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Linear, false)
            .unwrap();
        assert_eq!(mapper.candidates_priced(), mapper.candidates_enumerated());
        assert_eq!(best, priced[0], "the first pair enumerated wins a tie");
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
