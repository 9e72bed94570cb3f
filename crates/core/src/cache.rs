//! Memoized operator pricing for the simulator hot path.
//!
//! A [`Simulator`](crate::Simulator) prices each distinct matrix operator
//! through the mapping engine (a Timeloop-style map-space search) and the
//! engine energy model. The same `(shape, dtype, residency)` queries recur
//! constantly — identical transformer layers, the decode-context samples of
//! [`inference::run_llm`](crate::inference::run_llm), and repeated
//! experiment sweeps on one configuration — so the simulator memoizes each
//! query's [`OpCost`] in a [`MappingCache`] and prices it exactly once.
//!
//! The cache uses interior mutability (`RefCell`/`Cell`): simulation keeps
//! its `&self` API, and each simulator owns its own cache (a `Simulator`
//! is `Send` but deliberately not `Sync`; parallel sweeps run one
//! simulator per worker). The engine/memory-hierarchy *fingerprint*
//! recorded at construction identifies the configuration the entries are
//! valid for; the simulator debug-asserts the match on every run (see
//! [`MappingCache::matches`]).

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use cimtpu_units::{DataType, GemmShape, Result};
use rustc_hash::FxHashMap;

use crate::arch::TpuConfig;
use crate::exec::OpCost;

/// Cache key: one matrix-operator pricing query.
///
/// Vector-unit operators are not cached — their closed-form pricing is
/// cheaper than a hash lookup, and excluding them keeps the hit-rate
/// statistics focused on the expensive map-space searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum PriceKey {
    /// A weight GEMM routed through the mapping engine.
    Gemm {
        /// Full (pre-split) GEMM shape.
        shape: GemmShape,
        /// Operand precision.
        dtype: DataType,
        /// Whether weights were already resident on chip.
        weights_resident: bool,
    },
    /// A batched attention/expert matmul priced on the engine directly.
    Batched {
        /// Independent items in the batch.
        batch: u64,
        /// Per-item shape.
        shape: GemmShape,
        /// Operand precision.
        dtype: DataType,
        /// Whether per-item weights are static parameters.
        static_weights: bool,
    },
}

/// Observability snapshot of a [`MappingCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to run the full pricing path.
    pub misses: u64,
    /// Distinct entries currently stored.
    pub entries: usize,
    /// Candidate tilings the map-space search enumerated behind the
    /// misses (after dominated-candidate pruning). Filled in by
    /// [`Simulator::cache_stats`](crate::Simulator::cache_stats) from its
    /// mapper; zero from `MappingCache::stats`.
    pub map_candidates: u64,
    /// Of those, the candidates whose tile the engine priced; the rest
    /// were skipped because their DMA floor could not beat the best
    /// mapping so far.
    pub map_priced: u64,
}

impl CacheStats {
    /// Fraction of queries served from the cache, in `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoization table mapping pricing queries to operator costs.
///
/// Owned by one [`Simulator`](crate::Simulator); see the module-level
/// comments in `cache.rs` for the design rationale.
#[derive(Debug, Clone)]
pub struct MappingCache {
    entries: RefCell<FxHashMap<PriceKey, OpCost>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    enabled: Cell<bool>,
    fingerprint: u64,
}

impl MappingCache {
    /// Creates an enabled, empty cache bound to `config`'s fingerprint.
    pub(crate) fn for_config(config: &TpuConfig) -> Self {
        MappingCache {
            entries: RefCell::new(FxHashMap::default()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            enabled: Cell::new(true),
            fingerprint: fingerprint_of(config),
        }
    }

    /// Returns the cached cost for `key`, or prices it via `compute` and
    /// stores the result. Disabled caches always call `compute`.
    pub(crate) fn get_or_try_insert(
        &self,
        key: PriceKey,
        compute: impl FnOnce() -> Result<OpCost>,
    ) -> Result<OpCost> {
        if !self.enabled.get() {
            return compute();
        }
        if let Some(cost) = self.entries.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Ok(*cost);
        }
        let cost = compute()?;
        self.misses.set(self.misses.get() + 1);
        self.entries.borrow_mut().insert(key, cost);
        Ok(cost)
    }

    /// Hit/miss/occupancy counters since construction.
    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            entries: self.entries.borrow().len(),
            map_candidates: 0,
            map_priced: 0,
        }
    }

    /// Fingerprint of the hardware configuration this cache prices for
    /// (hash of the engine, MXU count, clock, and memory hierarchy).
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this cache was built for `config` (fingerprint match). The
    /// simulator asserts this on every run in debug builds, so a future
    /// config setter or cache-sharing scheme cannot silently serve stale
    /// entries.
    pub(crate) fn matches(&self, config: &TpuConfig) -> bool {
        self.fingerprint == fingerprint_of(config)
    }

    /// Enables or disables memoization (used by benchmarks to measure the
    /// uncached path; results are identical either way).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }
}

/// Hashes every configuration field that influences matrix-operator
/// pricing: the full MXU configuration (serialized, so every engine knob
/// counts), the MXU count, the clock, and the memory hierarchy.
fn fingerprint_of(config: &TpuConfig) -> u64 {
    let mut h = DefaultHasher::new();
    hash_value(&serde::Serialize::to_value(config.mxu()), &mut h);
    config.mxu_count().hash(&mut h);
    config.clock().get().to_bits().hash(&mut h);
    hash_value(&serde::Serialize::to_value(config.levels()), &mut h);
    h.finish()
}

/// Structural hash over a serialized value tree (floats hash by bits).
fn hash_value(v: &serde::Value, h: &mut DefaultHasher) {
    use serde::Value;
    match v {
        Value::Null => 0u8.hash(h),
        Value::Bool(b) => (1u8, b).hash(h),
        Value::U64(x) => (2u8, x).hash(h),
        Value::I64(x) => (3u8, x).hash(h),
        Value::F64(x) => (4u8, x.to_bits()).hash(h),
        Value::Str(s) => (5u8, s).hash(h),
        Value::Seq(items) => {
            (6u8, items.len()).hash(h);
            for item in items {
                hash_value(item, h);
            }
        }
        Value::Map(entries) => {
            (7u8, entries.len()).hash(h);
            for (key, value) in entries {
                key.hash(h);
                hash_value(value, h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_units::{Bytes, Joules, Seconds};

    fn cost(ms: f64) -> OpCost {
        OpCost {
            latency: Seconds::from_millis(ms),
            mxu_dynamic: Joules::ZERO,
            vpu_energy: Joules::ZERO,
            hbm_bytes: Bytes::ZERO,
        }
    }

    fn key(m: u64) -> PriceKey {
        PriceKey::Gemm {
            shape: GemmShape::new(m, 128, 128).unwrap(),
            dtype: DataType::Int8,
            weights_resident: false,
        }
    }

    #[test]
    fn caches_and_counts() {
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        let mut computed = 0;
        for _ in 0..3 {
            let c = cache
                .get_or_try_insert(key(8), || {
                    computed += 1;
                    Ok(cost(1.0))
                })
                .unwrap();
            assert_eq!(c, cost(1.0));
        }
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_cache_always_recomputes() {
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        cache.set_enabled(false);
        let mut computed = 0;
        for _ in 0..3 {
            cache
                .get_or_try_insert(key(8), || {
                    computed += 1;
                    Ok(cost(1.0))
                })
                .unwrap();
        }
        assert_eq!(computed, 3);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        let r = cache.get_or_try_insert(key(8), || Err(cimtpu_units::Error::unmappable("nope")));
        assert!(r.is_err());
        assert_eq!(cache.stats().entries, 0);
        // A later successful computation still lands.
        cache.get_or_try_insert(key(8), || Ok(cost(2.0))).unwrap();
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn fingerprints_separate_configs() {
        let a = MappingCache::for_config(&TpuConfig::tpuv4i());
        let b = MappingCache::for_config(&TpuConfig::cim_base());
        let c = MappingCache::for_config(&TpuConfig::tpuv4i());
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        cache.get_or_try_insert(key(8), || Ok(cost(1.0))).unwrap();
        cache.get_or_try_insert(key(16), || Ok(cost(2.0))).unwrap();
        let batched = PriceKey::Batched {
            batch: 8,
            shape: GemmShape::new(8, 128, 128).unwrap(),
            dtype: DataType::Int8,
            static_weights: false,
        };
        cache.get_or_try_insert(batched, || Ok(cost(3.0))).unwrap();
        assert_eq!(cache.stats().entries, 3);
        let c = cache.get_or_try_insert(key(16), || unreachable!()).unwrap();
        assert_eq!(c, cost(2.0));
    }
}
