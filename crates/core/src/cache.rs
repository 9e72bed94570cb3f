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
use std::io::Write as _;
use std::path::{Path, PathBuf};

use cimtpu_units::{Bytes, DataType, GemmShape, Joules, Result, Seconds};
use rustc_hash::FxHashMap;

use crate::arch::TpuConfig;
use crate::exec::OpCost;

/// Environment variable naming the directory where mapping caches persist
/// across processes (one file per configuration fingerprint). Unset means
/// in-memory only.
pub const CACHE_DIR_ENV: &str = "CIMTPU_CACHE_DIR";

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
    /// mapper; zero from [`MappingCache::stats`].
    pub map_candidates: u64,
    /// Of those, the candidates whose tile the engine priced; the rest
    /// were skipped because their DMA floor could not beat the best
    /// mapping so far.
    pub map_priced: u64,
}

impl CacheStats {
    /// Fraction of queries served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
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

    /// Hit/miss/occupancy counters since construction (or the last
    /// [`clear`](Self::clear)).
    pub fn stats(&self) -> CacheStats {
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
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether this cache was built for `config` (fingerprint match). The
    /// simulator asserts this on every run in debug builds, so a future
    /// config setter or cache-sharing scheme cannot silently serve stale
    /// entries.
    pub fn matches(&self, config: &TpuConfig) -> bool {
        self.fingerprint == fingerprint_of(config)
    }

    /// Enables or disables memoization (used by benchmarks to measure the
    /// uncached path; results are identical either way).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Drops all entries and resets the counters.
    pub fn clear(&self) {
        self.entries.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }

    /// The file this cache persists to inside a cache directory: one file
    /// per configuration fingerprint, so caches of different configs never
    /// mix.
    pub fn persist_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("mapcache-v1-{:016x}.tsv", self.fingerprint))
    }

    /// Loads previously persisted entries for this fingerprint from `dir`,
    /// inserting any not already present. Loaded entries count as neither
    /// hits nor misses. Returns the number of entries inserted; a missing
    /// file loads zero entries, and malformed lines are skipped (a
    /// truncated file from a crashed writer must not poison later runs).
    ///
    /// # Errors
    ///
    /// Returns an error only for I/O failures other than "not found".
    pub fn load_from_dir(&self, dir: &Path) -> std::io::Result<usize> {
        let text = match std::fs::read_to_string(self.persist_path(dir)) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        let mut inserted = 0;
        let mut entries = self.entries.borrow_mut();
        for line in text.lines() {
            if let Some((key, cost)) = parse_entry(line) {
                entries.entry(key).or_insert_with(|| {
                    inserted += 1;
                    cost
                });
            }
        }
        Ok(inserted)
    }

    /// Persists this cache's entries under `dir` (created if absent),
    /// merged with whatever the file held when the save started. The write
    /// is atomic (unique temp file + rename), so readers never observe a
    /// half-written file; with *concurrent* savers of the same fingerprint
    /// the merge is best-effort (last rename wins and may miss entries the
    /// other saver added meanwhile — harmless, since entries are
    /// recomputable and correctness never depends on the file). Returns
    /// the number of entries in this saver's merged file.
    ///
    /// Costs round-trip exactly: floats are stored as IEEE-754 bit
    /// patterns, so a warm-from-disk simulator is bit-identical to the one
    /// that wrote the file.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure.
    pub fn save_to_dir(&self, dir: &Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        // Merge-on-save: union with the file's current contents so
        // concurrent sweep workers only ever add entries.
        let mut merged: FxHashMap<PriceKey, OpCost> = FxHashMap::default();
        if let Ok(text) = std::fs::read_to_string(self.persist_path(dir)) {
            merged.extend(text.lines().filter_map(parse_entry));
        }
        for (key, cost) in self.entries.borrow().iter() {
            merged.insert(*key, *cost);
        }

        let mut lines: Vec<String> = merged
            .iter()
            .map(|(key, cost)| format_entry(key, cost))
            .collect();
        lines.sort_unstable(); // deterministic file contents

        // Unique per process *and* per call: concurrent saves of the same
        // fingerprint (e.g. two serving scenarios on one chip config fanned
        // out over threads) must never write through the same temp file.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".mapcache-{:016x}-{}-{seq}.tmp",
            self.fingerprint,
            std::process::id()
        ));
        {
            let mut f = std::fs::File::create(&tmp)?;
            for line in &lines {
                writeln!(f, "{line}")?;
            }
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.persist_path(dir))?;
        Ok(merged.len())
    }
}

fn dtype_tag(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Int8 => "int8",
        DataType::Bf16 => "bf16",
        DataType::Fp32 => "fp32",
    }
}

fn parse_dtype(tag: &str) -> Option<DataType> {
    match tag {
        "int8" => Some(DataType::Int8),
        "bf16" => Some(DataType::Bf16),
        "fp32" => Some(DataType::Fp32),
        _ => None,
    }
}

/// One cache entry as a line of space-separated fields. Floats are encoded
/// as hex bit patterns — exact round-trip is what makes a disk-warmed
/// cache bit-identical to an in-process one.
fn format_entry(key: &PriceKey, cost: &OpCost) -> String {
    let costs = format!(
        "{:016x} {:016x} {:016x} {}",
        cost.latency.get().to_bits(),
        cost.mxu_dynamic.get().to_bits(),
        cost.vpu_energy.get().to_bits(),
        cost.hbm_bytes.get(),
    );
    match *key {
        PriceKey::Gemm { shape, dtype, weights_resident } => format!(
            "G {} {} {} {} {} {costs}",
            shape.m(),
            shape.k(),
            shape.n(),
            dtype_tag(dtype),
            u8::from(weights_resident),
        ),
        PriceKey::Batched { batch, shape, dtype, static_weights } => format!(
            "B {batch} {} {} {} {} {} {costs}",
            shape.m(),
            shape.k(),
            shape.n(),
            dtype_tag(dtype),
            u8::from(static_weights),
        ),
    }
}

fn parse_entry(line: &str) -> Option<(PriceKey, OpCost)> {
    let fields: Vec<&str> = line.split_ascii_whitespace().collect();
    let (key, rest) = match *fields.first()? {
        "G" if fields.len() == 10 => {
            let shape = GemmShape::new(
                fields[1].parse().ok()?,
                fields[2].parse().ok()?,
                fields[3].parse().ok()?,
            )
            .ok()?;
            let key = PriceKey::Gemm {
                shape,
                dtype: parse_dtype(fields[4])?,
                weights_resident: fields[5] == "1",
            };
            (key, &fields[6..])
        }
        "B" if fields.len() == 11 => {
            let shape = GemmShape::new(
                fields[2].parse().ok()?,
                fields[3].parse().ok()?,
                fields[4].parse().ok()?,
            )
            .ok()?;
            let key = PriceKey::Batched {
                batch: fields[1].parse().ok()?,
                shape,
                dtype: parse_dtype(fields[5])?,
                static_weights: fields[6] == "1",
            };
            (key, &fields[7..])
        }
        _ => return None,
    };
    let bits = |s: &str| u64::from_str_radix(s, 16).ok();
    Some((
        key,
        OpCost {
            latency: Seconds::new(f64::from_bits(bits(rest[0])?)),
            mxu_dynamic: Joules::new(f64::from_bits(bits(rest[1])?)),
            vpu_energy: Joules::new(f64::from_bits(bits(rest[2])?)),
            hbm_bytes: Bytes::new(rest[3].parse().ok()?),
        },
    ))
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
        let r = cache.get_or_try_insert(key(8), || {
            Err(cimtpu_units::Error::unmappable("nope"))
        });
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

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cimtpu-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn full_cost(ms: f64) -> OpCost {
        OpCost {
            latency: Seconds::from_millis(ms),
            mxu_dynamic: Joules::new(ms * 0.125 + 1e-9), // non-trivial bit patterns
            vpu_energy: Joules::new(ms / 3.0),
            hbm_bytes: Bytes::new((ms * 1024.0) as u64),
        }
    }

    #[test]
    fn persisted_entries_round_trip_bit_exactly() {
        let dir = temp_cache_dir("roundtrip");
        let writer = MappingCache::for_config(&TpuConfig::tpuv4i());
        writer.get_or_try_insert(key(8), || Ok(full_cost(1.0 / 3.0))).unwrap();
        let batched = PriceKey::Batched {
            batch: 448,
            shape: GemmShape::new(1, 128, 1024).unwrap(),
            dtype: DataType::Bf16,
            static_weights: true,
        };
        writer.get_or_try_insert(batched, || Ok(full_cost(0.7))).unwrap();
        assert_eq!(writer.save_to_dir(&dir).unwrap(), 2);

        let reader = MappingCache::for_config(&TpuConfig::tpuv4i());
        assert_eq!(reader.load_from_dir(&dir).unwrap(), 2);
        // Loaded entries answer without recomputing, bit-identically.
        let c = reader.get_or_try_insert(key(8), || unreachable!()).unwrap();
        assert_eq!(c, full_cost(1.0 / 3.0));
        let c = reader.get_or_try_insert(batched, || unreachable!()).unwrap();
        assert_eq!(c, full_cost(0.7));
        // Loading counts as neither hit nor miss.
        assert_eq!(reader.stats().misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_merges_with_existing_file() {
        let dir = temp_cache_dir("merge");
        let a = MappingCache::for_config(&TpuConfig::tpuv4i());
        a.get_or_try_insert(key(8), || Ok(full_cost(1.0))).unwrap();
        a.save_to_dir(&dir).unwrap();

        let b = MappingCache::for_config(&TpuConfig::tpuv4i());
        b.get_or_try_insert(key(16), || Ok(full_cost(2.0))).unwrap();
        assert_eq!(b.save_to_dir(&dir).unwrap(), 2, "second save unions entries");

        let c = MappingCache::for_config(&TpuConfig::tpuv4i());
        assert_eq!(c.load_from_dir(&dir).unwrap(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_shard_saves_match_one_process() {
        // The sharded-sweep workflow (`repro_all --shard i/n` over a
        // shared CIMTPU_CACHE_DIR): each shard warm-starts from the
        // directory, prices its slice, and merge-saves. Two shards over
        // disjoint slices must leave byte-identical files to one process
        // pricing everything.
        let sharded = temp_cache_dir("two-shards");
        let whole = temp_cache_dir("one-process");

        let s0 = MappingCache::for_config(&TpuConfig::tpuv4i());
        s0.load_from_dir(&sharded).unwrap();
        for m in [8, 32] {
            s0.get_or_try_insert(key(m), || Ok(full_cost(m as f64 / 3.0))).unwrap();
        }
        s0.save_to_dir(&sharded).unwrap();

        let s1 = MappingCache::for_config(&TpuConfig::tpuv4i());
        s1.load_from_dir(&sharded).unwrap();
        for m in [16, 64] {
            s1.get_or_try_insert(key(m), || Ok(full_cost(m as f64 / 3.0))).unwrap();
        }
        s1.save_to_dir(&sharded).unwrap();

        let one = MappingCache::for_config(&TpuConfig::tpuv4i());
        for m in [8, 16, 32, 64] {
            one.get_or_try_insert(key(m), || Ok(full_cost(m as f64 / 3.0))).unwrap();
        }
        one.save_to_dir(&whole).unwrap();

        let a = std::fs::read_to_string(one.persist_path(&sharded)).unwrap();
        let b = std::fs::read_to_string(one.persist_path(&whole)).unwrap();
        assert_eq!(a, b, "sharded merge differs from the one-process file");
        let _ = std::fs::remove_dir_all(&sharded);
        let _ = std::fs::remove_dir_all(&whole);
    }

    #[test]
    fn different_fingerprints_use_different_files() {
        let dir = temp_cache_dir("fingerprints");
        let v4i = MappingCache::for_config(&TpuConfig::tpuv4i());
        v4i.get_or_try_insert(key(8), || Ok(full_cost(1.0))).unwrap();
        v4i.save_to_dir(&dir).unwrap();

        let cim = MappingCache::for_config(&TpuConfig::cim_base());
        assert_eq!(cim.load_from_dir(&dir).unwrap(), 0, "wrong config loads nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_skipped() {
        let dir = temp_cache_dir("malformed");
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        cache.get_or_try_insert(key(8), || Ok(full_cost(1.0))).unwrap();
        cache.save_to_dir(&dir).unwrap();
        // Corrupt the file: garbage line + truncated line + valid entries.
        let path = cache.persist_path(&dir);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not an entry\nG 1 2\n");
        std::fs::write(&path, text).unwrap();

        let reader = MappingCache::for_config(&TpuConfig::tpuv4i());
        assert_eq!(reader.load_from_dir(&dir).unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_loads_nothing() {
        let cache = MappingCache::for_config(&TpuConfig::tpuv4i());
        let dir = temp_cache_dir("absent");
        assert_eq!(cache.load_from_dir(&dir).unwrap(), 0);
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
