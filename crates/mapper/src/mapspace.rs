//! Map-space enumeration with LLMCompass/Timeloop-style pruning heuristics.
//!
//! One enumerator, [`MapSpace::pairs`], walks the feasible `(tk, tn)`
//! pairs; [`MapSpace::tm`] picks a pair's `m` edge. The mapper's search
//! uses both; [`for_each_candidate`] (streaming, over caller-owned
//! [`EdgeBuffers`]) and [`candidate_tiles`] (into a `Vec`) expose the
//! resulting `(tm, tk, tn)` tiles to map-space studies and tests.

use cimtpu_units::{Bytes, DataType, GemmShape};

/// Reusable scratch for the per-dimension edge-candidate lists.
///
/// The vectors are cleared and refilled on every enumeration; keeping them
/// alive across calls (the [`Mapper`](crate::Mapper) owns one set) keeps a
/// `best_gemm_mapping` call free of heap allocation on the simulator hot
/// path.
#[derive(Debug, Clone, Default)]
pub(crate) struct EdgeBuffers {
    m: Vec<u64>,
    k: Vec<u64>,
    n: Vec<u64>,
    /// `⌈k/tk⌉` for each `k` edge.
    tiles_k: Vec<u64>,
    /// `⌈n/tn⌉` for each `n` edge.
    tiles_n: Vec<u64>,
}

/// One feasible `(tk, tn)` pair with its tile counts along `k` and `n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pair {
    pub tk: u64,
    pub tn: u64,
    pub tiles_k: u64,
    pub tiles_n: u64,
}

/// The pruned map-space of one GEMM over filled [`EdgeBuffers`].
pub(crate) struct MapSpace<'a> {
    edges: &'a EdgeBuffers,
    elem: u64,
    budget: u64,
}

impl<'a> MapSpace<'a> {
    /// Fills `scratch` with the edge lists of `shape` (see
    /// [`candidate_tiles`] for the heuristics and [`for_each_candidate`]
    /// for `prune_dominated`).
    pub(crate) fn new(
        shape: GemmShape,
        dtype: DataType,
        (pref_k, pref_n): (u64, u64),
        budget: Bytes,
        prune_dominated: bool,
        scratch: &'a mut EdgeBuffers,
    ) -> Self {
        edge_candidates_into(shape.m(), 1, &mut scratch.m);
        fill_edges(
            shape.k(),
            pref_k,
            prune_dominated,
            &mut scratch.k,
            &mut scratch.tiles_k,
        );
        fill_edges(
            shape.n(),
            pref_n,
            prune_dominated,
            &mut scratch.n,
            &mut scratch.tiles_n,
        );
        MapSpace {
            edges: scratch,
            elem: dtype.size_bytes(),
            budget: budget.get(),
        }
    }

    /// Whether the `(tm, tk, tn)` working set `(tm·tk + tk·tn)·elem +
    /// tm·tn·4` fits the budget (accumulators are FP32 regardless of
    /// operand width). Monotone in `tm`.
    fn fits(&self, tm: u64, tk: u64, tn: u64) -> bool {
        (tm * tk + tk * tn) * self.elem + tm * tn * 4 <= self.budget
    }

    /// The feasible `(tk, tn)` pairs, largest-first (`tk` outer, `tn`
    /// inner): those whose smallest `m` edge fits.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = Pair> + '_ {
        let e = self.edges;
        let m_min = e.m.last().copied().unwrap_or(1);
        e.k.iter().zip(&e.tiles_k).flat_map(move |(&tk, &tiles_k)| {
            e.n.iter()
                .zip(&e.tiles_n)
                .filter(move |&(&tn, _)| self.fits(m_min, tk, tn))
                .map(move |(&tn, &tiles_n)| Pair {
                    tk,
                    tn,
                    tiles_k,
                    tiles_n,
                })
        })
    }

    /// The largest `m` edge whose tile fits with a feasible `(tk, tn)`:
    /// the fewest tiles at the same cost, since no total depends on `tm`.
    /// An infeasible pair gets 1.
    pub(crate) fn tm(&self, tk: u64, tn: u64) -> u64 {
        self.edges
            .m
            .iter()
            .copied()
            .find(|&tm| self.fits(tm, tk, tn))
            .unwrap_or(1)
    }
}

/// Enumerates candidate `(tm, tk, tn)` tiles for `shape` that fit `budget`.
///
/// Heuristics (each dramatically shrinks the space without excluding the
/// optimum for dense GEMMs, mirroring prior work):
///
/// 1. tile edges are powers of two, snapped to multiples of the engine's
///    preferred granularity (`pref_k` rows / `pref_n` columns) when larger;
/// 2. the full dimension is always a candidate (no pointless remainders);
/// 3. working set `(tm·tk + tk·tn + tm·tn) · elem` must fit `budget`
///    (the caller already halves the budget for double buffering);
/// 4. each `(tk, tn)` pair keeps only its largest fitting `tm`.
///
/// The returned list is never empty unless even the minimal
/// `(1, pref_k.min(k), pref_n.min(n))` tile exceeds the budget.
pub fn candidate_tiles(
    shape: GemmShape,
    dtype: DataType,
    pref_k: u64,
    pref_n: u64,
    budget: Bytes,
) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    let mut scratch = EdgeBuffers::default();
    for_each_candidate(
        shape,
        dtype,
        pref_k,
        pref_n,
        budget,
        false,
        &mut scratch,
        |tile| {
            out.push(tile);
        },
    );
    out
}

/// Streams the pruned candidate tiles of [`candidate_tiles`] through `f`
/// without materializing them, reusing `scratch` for the edge lists.
///
/// Candidates arrive in the same order `candidate_tiles` returns them: the
/// feasible `(tk, tn)` pairs largest-first, each with its largest fitting
/// `tm`. The mapper's search walks the same pairs without the `tm` pick,
/// which it makes for its winner only.
///
/// `prune_dominated` additionally drops `(tk, tn)` candidates that share
/// their `(⌈k/tk⌉, ⌈n/tn⌉)` tile counts with a smaller candidate: at
/// equal tile counts the aggregate DMA is identical while per-tile
/// compute (a [monotone](crate::TileCostModel::tile_cycles) cost) and the
/// double-buffering prologue (strictly increasing in the tile footprint)
/// only favor the smaller edges, so the smallest member of each class
/// strictly dominates the rest. The strict prologue inequality is what
/// makes the pruned stream's first-minimal winner identical to the full
/// stream's — only enable it for double-buffered schedules whose HBM and
/// OCI bandwidths are finite and positive. Without the prologue, or with
/// infinite, NaN or constant DMA times (zero, infinite or NaN
/// bandwidths), a dominated candidate can tie and win the index
/// tie-break.
#[allow(clippy::too_many_arguments)] // mirrors candidate_tiles + the flag
pub(crate) fn for_each_candidate(
    shape: GemmShape,
    dtype: DataType,
    pref_k: u64,
    pref_n: u64,
    budget: Bytes,
    prune_dominated: bool,
    scratch: &mut EdgeBuffers,
    mut f: impl FnMut((u64, u64, u64)),
) {
    let space = MapSpace::new(
        shape,
        dtype,
        (pref_k, pref_n),
        budget,
        prune_dominated,
        scratch,
    );
    for Pair { tk, tn, .. } in space.pairs() {
        f((space.tm(tk, tn), tk, tn));
    }
}

/// Fills one contraction/output dimension's edge list and its tile counts.
fn fill_edges(extent: u64, pref: u64, prune: bool, edges: &mut Vec<u64>, tiles: &mut Vec<u64>) {
    edge_candidates_into(extent, pref, edges);
    if prune {
        prune_equal_ceil(extent, edges);
    }
    tiles.clear();
    tiles.extend(edges.iter().map(|&e| extent.div_ceil(e)));
}

/// Power-of-two candidates for one dimension, largest first, snapped to
/// `pref` multiples above `pref`, always including the full extent.
///
/// Uniqueness comes from one sort + dedup pass instead of a linear
/// `contains` probe per insertion (the previous O(n²) hot spot).
fn edge_candidates_into(extent: u64, pref: u64, out: &mut Vec<u64>) {
    out.clear();
    out.push(extent);
    let mut v = extent.next_power_of_two();
    while v >= 1 {
        let c = v.min(extent);
        let snapped = if c > pref { c - (c % pref.max(1)) } else { c };
        if snapped >= 1 {
            out.push(snapped);
        }
        if v == 1 {
            break;
        }
        v /= 2;
    }
    out.sort_unstable_by(|a, b| b.cmp(a));
    out.dedup();
    // Cap the candidate count (map-space pruning) while always keeping the
    // degenerate size-1 tile so tiny budgets stay mappable. The list is
    // sorted descending and unique, so 1 (when present) is the last
    // element; truncation can only drop it.
    if out.len() > 16 {
        out.truncate(15);
        out.push(1);
    }
}

/// Keeps only the smallest candidate of each equal-`⌈extent/edge⌉` run
/// (the list is sorted descending, so that is the last element of the
/// run). Feasibility is preserved: the kept edge has the smallest
/// footprint of its class, so it fits whenever any class member did.
fn prune_equal_ceil(extent: u64, out: &mut Vec<u64>) {
    let mut w = 0;
    for i in 0..out.len() {
        if i + 1 == out.len() || extent.div_ceil(out[i]) != extent.div_ceil(out[i + 1]) {
            out[w] = out[i];
            w += 1;
        }
    }
    out.truncate(w);
}

#[cfg(test)]
fn edge_candidates(extent: u64, pref: u64) -> Vec<u64> {
    let mut out = Vec::new();
    edge_candidates_into(extent, pref, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_extent_always_first_candidate() {
        let c = edge_candidates(7168, 128);
        assert_eq!(c[0], 7168);
        assert!(c.iter().all(|&x| (1..=7168).contains(&x)));
    }

    #[test]
    fn candidates_fit_budget() {
        let shape = GemmShape::new(8192, 7168, 7168).unwrap();
        let budget = Bytes::from_mib(8);
        let tiles = candidate_tiles(shape, DataType::Int8, 128, 128, budget);
        assert!(!tiles.is_empty());
        for (tm, tk, tn) in tiles {
            let bytes = (tm * tk + tk * tn) + tm * tn * 4;
            assert!(bytes <= budget.get(), "({tm},{tk},{tn}) exceeds budget");
        }
    }

    #[test]
    fn tiny_budget_yields_empty() {
        // The minimal (1,1,1) tile needs 2 operand bytes + 4 accumulator
        // bytes; anything below that is unmappable.
        let shape = GemmShape::new(4096, 4096, 4096).unwrap();
        let tiles = candidate_tiles(shape, DataType::Int8, 128, 128, Bytes::new(5));
        assert!(tiles.is_empty());
        // 6 bytes is enough for the degenerate tile.
        let tiles = candidate_tiles(shape, DataType::Int8, 128, 128, Bytes::new(6));
        assert!(!tiles.is_empty());
    }

    #[test]
    fn small_shapes_single_tile() {
        let shape = GemmShape::new(8, 128, 128).unwrap();
        let tiles = candidate_tiles(shape, DataType::Int8, 128, 128, Bytes::from_mib(8));
        assert!(tiles.contains(&(8, 128, 128)));
    }

    #[test]
    fn candidates_are_deduplicated_and_sorted() {
        for (extent, pref) in [(128, 128), (7168, 128), (10_000, 256), (1, 64), (65, 1)] {
            let c = edge_candidates(extent, pref);
            let mut unique = c.clone();
            unique.dedup();
            assert_eq!(c.len(), unique.len(), "duplicates for extent {extent}");
            assert!(
                c.windows(2).all(|w| w[0] > w[1]),
                "not strictly descending for extent {extent}: {c:?}"
            );
        }
    }

    #[test]
    fn cap_preserves_size_one_tile() {
        // A prime-ish large extent with pref 1 produces > 16 candidates;
        // the cap must keep the degenerate size-1 tile mappable.
        let c = edge_candidates((1 << 40) - 1, 1);
        assert!(c.len() <= 16, "{}", c.len());
        assert_eq!(*c.last().unwrap(), 1);
    }

    #[test]
    fn snapping_respects_preference() {
        // Above pref, candidates are multiples of pref.
        for &x in edge_candidates(10_000, 256).iter() {
            if x > 256 && x != 10_000 {
                assert_eq!(x % 256, 0, "{x} not snapped");
            }
        }
    }

    #[test]
    fn streaming_path_matches_materialized_path() {
        let mut scratch = EdgeBuffers::default();
        for (m, k, n) in [
            (1, 7168, 7168),
            (8192, 7168, 28672),
            (13, 1000, 999),
            (8, 128, 128),
        ] {
            let shape = GemmShape::new(m, k, n).unwrap();
            let budget = Bytes::from_mib(8);
            let vec_path = candidate_tiles(shape, DataType::Int8, 128, 128, budget);
            let mut streamed = Vec::new();
            for_each_candidate(
                shape,
                DataType::Int8,
                128,
                128,
                budget,
                false,
                &mut scratch,
                |t| {
                    streamed.push(t);
                },
            );
            assert_eq!(vec_path, streamed, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn prune_keeps_smallest_of_each_ceil_class() {
        // Extent 1000: 896 and 512 both tile as ⌈1000/·⌉ = 2; only the
        // smaller survives. The full extent (ceil 1) is its own class.
        let mut v = vec![1000, 896, 512, 256, 128, 1];
        prune_equal_ceil(1000, &mut v);
        assert_eq!(v, vec![1000, 512, 256, 128, 1]);
        // Singleton runs survive untouched.
        let mut v = vec![64, 32, 16];
        prune_equal_ceil(64, &mut v);
        assert_eq!(v, vec![64, 32, 16]);
        // The full extent (ceil 1) is always its own class.
        let mut v = vec![128, 127];
        prune_equal_ceil(128, &mut v);
        assert_eq!(v, vec![128, 127]);
    }

    #[test]
    fn pruned_stream_is_a_subset_with_equal_ceil_coverage() {
        let mut scratch = EdgeBuffers::default();
        for (m, k, n) in [(1, 7168, 7168), (8192, 7168, 28672), (13, 1000, 999)] {
            let shape = GemmShape::new(m, k, n).unwrap();
            let budget = Bytes::from_mib(8);
            let full = candidate_tiles(shape, DataType::Int8, 128, 128, budget);
            let mut pruned = Vec::new();
            for_each_candidate(
                shape,
                DataType::Int8,
                128,
                128,
                budget,
                true,
                &mut scratch,
                |t| {
                    pruned.push(t);
                },
            );
            assert!(!pruned.is_empty());
            assert!(
                pruned.iter().all(|t| full.contains(t)),
                "{m}x{k}x{n}: not a subset"
            );
            // Every (⌈k/tk⌉, ⌈n/tn⌉) class of the full space stays
            // represented (by its smallest member or a feasible stand-in).
            for &(_, tk, tn) in &full {
                let class = (k.div_ceil(tk), n.div_ceil(tn));
                assert!(
                    pruned
                        .iter()
                        .any(|&(_, pk, pn)| (k.div_ceil(pk), n.div_ceil(pn)) == class),
                    "{m}x{k}x{n}: class {class:?} lost"
                );
            }
        }
    }
}
