//! Property-based tests of the mapping engine.

#![cfg(test)]

use proptest::prelude::*;

use cimtpu_units::{Bandwidth, Bytes, Cycles, DataType, Frequency, GemmShape};

use crate::mapspace::for_each_candidate;
use crate::{candidate_tiles, EdgeBuffers, Mapper, Mapping, MemoryLevels, TileCostModel};

/// Ideal engine: peak 16384 MACs/cycle, no overheads.
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

/// A coarser-grained engine (256-row, 64-column folding) whose per-tile
/// cost rounds each edge up to the fold — monotone, but with plateaus
/// that produce latency ties between distinct tiles.
struct Coarse;

impl TileCostModel for Coarse {
    fn tile_cycles(&self, s: GemmShape, _d: DataType) -> Cycles {
        let folded = s.m() * s.k().next_multiple_of(256) * s.n().next_multiple_of(64);
        Cycles::new(folded.div_ceil(16384))
    }
    fn clock(&self) -> Frequency {
        Frequency::from_ghz(0.94)
    }
    fn preferred_k(&self) -> u64 {
        256
    }
    fn preferred_n(&self) -> u64 {
        64
    }
}

/// An engine whose tiles cost nothing: every candidate's total equals its
/// DMA floor, so the incumbent bound skips on exact ties.
struct Zero;

impl TileCostModel for Zero {
    fn tile_cycles(&self, _s: GemmShape, _d: DataType) -> Cycles {
        Cycles::ZERO
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

/// Prices every candidate of the full (unpruned) stream with `evaluate`
/// (no incumbent bound) and folds them to the first-minimal mapping: the
/// search loop's tie-break, as the oracle for winner identity.
fn unbounded_winner(
    mapper: &Mapper,
    shape: GemmShape,
    dtype: DataType,
    engine: &dyn TileCostModel,
    weights_resident: bool,
) -> Option<Mapping> {
    let mut best: Option<Mapping> = None;
    for_each_candidate(
        shape,
        dtype,
        engine.preferred_k(),
        engine.preferred_n(),
        mapper.levels().vmem_tile_budget(),
        false,
        &mut EdgeBuffers::default(),
        |tile| {
            let m = mapper
                .evaluate(shape, dtype, engine, weights_resident, tile)
                .expect("evaluable");
            match &best {
                Some(b) if b.total() <= m.total() => {}
                _ => best = Some(m),
            }
        },
    );
    best
}

/// A mapping's fields with every time as raw bits, so NaN totals compare
/// equal when they are the same NaN.
fn bits(m: &Mapping) -> (GemmShape, GemmShape, u64, [u64; 3], Bytes) {
    let secs = [m.compute(), m.dma(), m.total()].map(|t| t.get().to_bits());
    (m.shape(), m.tile(), m.tiles(), secs, m.hbm_bytes())
}

fn shape_strategy() -> impl Strategy<Value = GemmShape> {
    (1u64..4096, 64u64..8192, 64u64..8192)
        .prop_map(|(m, k, n)| GemmShape::new(m, k, n).expect("non-zero dims"))
}

/// Zero HBM and OCI bandwidths make every DMA time +inf, so every
/// candidate of this GEMM totals +inf and the first-minimal winner is the
/// full stream's first candidate. Dominated-candidate pruning drops that
/// candidate (its domination is no longer strict), so the search must not
/// prune on such a hierarchy.
#[test]
fn zero_bandwidth_search_matches_full_stream() {
    let levels = MemoryLevels::tpuv4i()
        .with_hbm_bandwidth(Bandwidth::new(0.0))
        .with_oci_bandwidth(Bandwidth::new(0.0));
    let mapper = Mapper::new(levels);
    let shape = GemmShape::new(3569, 1834, 4604).expect("non-zero dims");
    for weights_resident in [false, true] {
        for engine in [&Ideal as &dyn TileCostModel, &Coarse, &Zero] {
            let searched = mapper
                .best_gemm_mapping(shape, DataType::Int8, engine, weights_resident)
                .expect("mappable");
            let full = unbounded_winner(&mapper, shape, DataType::Int8, engine, weights_resident)
                .expect("mappable");
            assert_eq!(bits(&searched), bits(&full), "resident={weights_resident}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The chosen mapping is never worse than any other candidate.
    #[test]
    fn best_mapping_is_minimal(shape in shape_strategy()) {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let best = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .expect("mappable");
        let cands = candidate_tiles(
            shape,
            DataType::Int8,
            128,
            128,
            mapper.levels().vmem_tile_budget(),
        );
        for tile in cands {
            let m = mapper
                .evaluate(shape, DataType::Int8, &Ideal, false, tile)
                .expect("evaluable");
            prop_assert!(
                best.total() <= m.total() * (1.0 + 1e-12),
                "{shape}: best {} beaten by {:?} at {}",
                best.total().get(),
                tile,
                m.total().get()
            );
        }
    }

    /// Every candidate fits the working-set budget.
    #[test]
    fn candidates_respect_budget(shape in shape_strategy()) {
        let levels = MemoryLevels::tpuv4i();
        let budget = levels.vmem_tile_budget();
        for (tm, tk, tn) in candidate_tiles(shape, DataType::Int8, 128, 128, budget) {
            let bytes = (tm * tk + tk * tn) + tm * tn * 4;
            prop_assert!(bytes <= budget.get(), "({tm},{tk},{tn})");
            prop_assert!(tm >= 1 && tk >= 1 && tn >= 1);
        }
    }

    /// Mapped latency respects both roofline floors.
    #[test]
    fn mapping_respects_floors(shape in shape_strategy()) {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let m = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .expect("mappable");
        let compute_floor = shape.macs() as f64 / (16384.0 * 1.05e9);
        let hbm_floor = shape.weight_bytes(DataType::Int8).get() as f64 / 614e9;
        prop_assert!(m.total().get() >= compute_floor.max(hbm_floor) * 0.999);
    }

    /// Dominated-candidate pruning never changes the selected mapping:
    /// across hierarchy presets, operand dtypes, and engine
    /// granularities, the pruned search returns bit-identically the
    /// winner the full candidate stream picks under the first-minimal
    /// tie-break.
    #[test]
    fn pruned_search_selects_identical_winner(shape in shape_strategy()) {
        // Presets: the stock hierarchy plus coalescing-off and a tighter
        // VMEM — all double-buffered, the gate the pruning hangs on.
        let presets = [
            MemoryLevels::tpuv4i(),
            MemoryLevels::tpuv4i().with_memory_coalescing(false),
            MemoryLevels::tpuv4i().with_vmem(Bytes::from_mib(4)),
        ];
        for levels in presets {
            let mapper = Mapper::new(levels);
            for dtype in [DataType::Int8, DataType::Bf16] {
                for engine in [&Ideal as &dyn TileCostModel, &Coarse] {
                    let pruned = mapper
                        .best_gemm_mapping(shape, dtype, engine, false)
                        .expect("mappable");
                    let full = unbounded_winner(&mapper, shape, dtype, engine, false)
                        .expect("mappable");
                    prop_assert_eq!(&pruned, &full, "{} {:?}", shape, dtype);
                }
            }
        }
    }

    /// The incumbent bound never changes the selected mapping: with double
    /// buffering on and off, weights streamed and resident, on engines
    /// with and without compute (the zero-cycle engine's totals equal
    /// their floors, exercising the `>=` tie), and on hierarchies whose
    /// DMA times are infinite or NaN, the bounded search returns
    /// bit-identically the winner of pricing every candidate of the
    /// unpruned stream. On the stock hierarchy that also checks
    /// dominated-candidate pruning; on the degenerate ones, where
    /// infinite or NaN prologues tie and void the strict domination
    /// pruning relies on, it checks that the search does not prune.
    #[test]
    fn bounded_search_selects_identical_winner(shape in shape_strategy()) {
        let stock = MemoryLevels::tpuv4i();
        let bandwidths = |hbm: f64, oci: f64| {
            let levels = stock.clone().with_hbm_bandwidth(Bandwidth::new(hbm));
            levels.with_oci_bandwidth(Bandwidth::new(oci))
        };
        let mut hierarchies = vec![
            // Finite times.
            stock.clone(),
            // Zero bandwidths: every DMA time is +inf.
            bandwidths(0.0, 0.0),
            // Opposite-signed zero bandwidths: -inf HBM and +inf OCI times,
            // so streamed-weight totals (and double-buffered floors) are
            // NaN.
            bandwidths(-0.0, 0.0),
        ];
        // `Seconds::new` rejects NaN under debug assertions, so a literal
        // NaN bandwidth runs only in release builds.
        if !cfg!(debug_assertions) {
            hierarchies.push(bandwidths(f64::NAN, f64::NAN));
        }
        for levels in hierarchies {
            for double_buffering in [true, false] {
                let mapper = Mapper::new(levels.clone().with_double_buffering(double_buffering));
                for weights_resident in [false, true] {
                    for engine in [&Ideal as &dyn TileCostModel, &Coarse, &Zero] {
                        let bounded = mapper
                            .best_gemm_mapping(shape, DataType::Int8, engine, weights_resident)
                            .expect("mappable");
                        let full = unbounded_winner(
                            &mapper,
                            shape,
                            DataType::Int8,
                            engine,
                            weights_resident,
                        )
                        .expect("mappable");
                        prop_assert_eq!(
                            bits(&bounded),
                            bits(&full),
                            "{} {:?} db={} resident={}",
                            shape,
                            mapper.levels(),
                            double_buffering,
                            weights_resident
                        );
                    }
                }
            }
        }
    }

    /// Resident weights are never slower than streamed weights.
    #[test]
    fn residency_never_hurts(shape in shape_strategy()) {
        let mapper = Mapper::new(MemoryLevels::tpuv4i());
        let streamed = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, false)
            .expect("mappable");
        let resident = mapper
            .best_gemm_mapping(shape, DataType::Int8, &Ideal, true)
            .expect("mappable");
        prop_assert!(resident.total() <= streamed.total() * (1.0 + 1e-12));
    }
}
