//! Property-based tests of the map-space search on the simulator's real
//! engines: the digital systolic MXU and the CIM-MXU.
//!
//! The mapper's own proptests use toy cost models; here the search is
//! checked against its oracle on the engines and per-MXU hierarchies the
//! simulator actually prices with.

#![cfg(test)]

use proptest::prelude::*;

use cimtpu_cim::{CimCoreConfig, CimMxuConfig};
use cimtpu_mapper::{candidate_tiles, Mapping, TileCostModel};
use cimtpu_units::{Bandwidth, Bytes, DataType, GemmShape};

use crate::engine::EngineCost;
use crate::{MxuKind, Simulator, TpuConfig};

/// Prices every candidate of `candidate_tiles` (no dominated-candidate
/// pruning, no incumbent bound) through `Mapper::evaluate` and folds them
/// to the first-minimal mapping: the search's tie-break.
fn oracle(sim: &Simulator, shape: GemmShape, dtype: DataType, resident: bool) -> Mapping {
    let mapper = sim.per_mxu_mapper();
    let engine = EngineCost::new(sim.engine(), sim.config().clock());
    let budget = mapper.levels().vmem_tile_budget();
    let mut best: Option<Mapping> = None;
    for tile in candidate_tiles(
        shape,
        dtype,
        engine.preferred_k(),
        engine.preferred_n(),
        budget,
    ) {
        let m = mapper
            .evaluate(shape, dtype, &engine, resident, tile)
            .expect("evaluable");
        match &best {
            Some(b) if b.total() <= m.total() => {}
            _ => best = Some(m),
        }
    }
    best.expect("mappable")
}

/// A mapping's fields with every time as raw bits.
fn bits(m: &Mapping) -> (GemmShape, GemmShape, u64, [u64; 3], Bytes) {
    let secs = [m.compute(), m.dma(), m.total()].map(|t| t.get().to_bits());
    (m.shape(), m.tile(), m.tiles(), secs, m.hbm_bytes())
}

/// A CIM grid in the style of the design-space sweep, in its four
/// double-buffering × coalescing variants.
fn grid_variants(rows: u64, cols: u64, count: u64, bits: u32, gbps: f64) -> Vec<TpuConfig> {
    let mxu = CimMxuConfig::with_grid(rows, cols)
        .with_core(CimCoreConfig::paper_default().with_bit_serial_bits(bits));
    let base = TpuConfig::cim_variant(count, rows, cols).with_mxu(count, MxuKind::Cim(mxu));
    let levels = base
        .levels()
        .clone()
        .with_hbm_bandwidth(Bandwidth::from_gb_per_s(gbps));
    let mut out = Vec::new();
    for double_buffering in [true, false] {
        for coalescing in [true, false] {
            let levels = levels
                .clone()
                .with_double_buffering(double_buffering)
                .with_memory_coalescing(coalescing);
            out.push(base.clone().with_levels(levels));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On the TPUv4i systolic engine, every Table IV CIM design and a
    /// seeded CIM grid (double buffering and coalescing on and off), for
    /// Int8 and Bf16 with streamed and resident weights, the bounded,
    /// pruned `(tk, tn)` search returns field for field, times as bits,
    /// the winner of pricing every candidate tile.
    #[test]
    fn search_matches_oracle_on_real_engines(
        (m, k, n) in (1u64..8193, 1u64..8193, 1u64..8193),
        (rows, cols, count) in (4u64..33, 4u64..33, 1u64..9),
        (bits_log2, gbps) in (0u32..4, 307.0f64..2456.0),
    ) {
        let shape = GemmShape::new(m, k, n).expect("non-zero dims");
        let mut configs = vec![TpuConfig::tpuv4i()];
        configs.extend(TpuConfig::table4_designs());
        configs.extend(grid_variants(rows, cols, count, 1 << bits_log2, gbps));
        for cfg in configs {
            let sim = Simulator::new(cfg).expect("valid config");
            let engine = EngineCost::new(sim.engine(), sim.config().clock());
            for dtype in [DataType::Int8, DataType::Bf16] {
                for resident in [false, true] {
                    let searched = sim
                        .per_mxu_mapper()
                        .best_gemm_mapping(shape, dtype, &engine, resident)
                        .expect("mappable");
                    prop_assert_eq!(
                        bits(&searched),
                        bits(&oracle(&sim, shape, dtype, resident)),
                        "{} {:?} {} {:?} resident={}",
                        sim.config().name(),
                        sim.config().levels(),
                        shape,
                        dtype,
                        resident
                    );
                }
            }
        }
    }
}
