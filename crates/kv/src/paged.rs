//! Paged block allocation over a fixed KV byte budget.

use std::collections::hash_map::Entry;

use rustc_hash::FxHashMap;

use serde::{Deserialize, Serialize};

use cimtpu_units::{Bytes, Error, Result};

use crate::footprint::KvFootprint;

/// Where a chip's KV byte budget comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvBudget {
    /// No capacity limit: every reservation succeeds (the pre-PR-3
    /// serving behaviour; occupancy is still tracked for reporting).
    Unlimited,
    /// An explicit per-chip KV byte budget.
    Bytes(Bytes),
    /// The chip's HBM capacity minus the resident model weights (per
    /// tensor-parallel shard) — what a real server actually has left.
    HbmMinusWeights,
}

impl KvBudget {
    /// Resolves the budget to a concrete byte cap (`None` = unlimited)
    /// given the chip's HBM capacity and the hosted model's footprint.
    pub fn resolve(&self, hbm_capacity: Bytes, footprint: &KvFootprint) -> Option<Bytes> {
        match *self {
            KvBudget::Unlimited => None,
            KvBudget::Bytes(b) => Some(b),
            KvBudget::HbmMinusWeights => {
                Some(hbm_capacity.saturating_sub(footprint.weight_bytes()))
            }
        }
    }
}

/// A vLLM-style paged KV-cache allocator: the budget is carved into
/// fixed-size blocks of `block_tokens` tokens, and a request holding `t`
/// tokens occupies `⌈t / block_tokens⌉` blocks.
///
/// The allocator tracks per-request holdings by id, total occupancy, and
/// the occupancy high-water mark. All operations are integer bookkeeping —
/// no floats — so scheduling decisions built on it are exactly
/// reproducible.
///
/// # Shared blocks
///
/// For prefix sharing a request's holding splits into **private** blocks
/// (counted, anonymous — the pre-sharing model) and references to
/// **shared** blocks, which carry an identity (`alloc_shared` /
/// `promote_to_shared`) and a reference count. A shared block occupies
/// one physical block however many holders reference it; it is freed only
/// when the last reference drops ([`release_shared`]). The ref-count
/// invariants live with the prefix index in [`crate::prefix`]; the
/// allocator only guarantees that occupancy counts every physical block
/// exactly once and that no shared block is freed while referenced.
///
/// [`release_shared`]: PagedKvAllocator::release_shared
#[derive(Debug, Clone)]
pub struct PagedKvAllocator {
    block_tokens: u64,
    /// `None` = unlimited (reservations never fail).
    capacity_blocks: Option<u64>,
    /// Blocks held per request id.
    held: FxHashMap<u64, Holding>,
    /// Reference count per live shared block id.
    shared: FxHashMap<u64, u64>,
    next_shared: u64,
    used_blocks: u64,
    high_water_blocks: u64,
}

/// One request's holding: anonymous private blocks plus references to
/// identified shared blocks. Together they must cover the request's token
/// count (`shared.len() + private >= blocks_for(tokens)`).
#[derive(Debug, Clone, Default)]
struct Holding {
    shared: Vec<u64>,
    private: u64,
}

impl Holding {
    fn blocks(&self) -> u64 {
        self.shared.len() as u64 + self.private
    }
}

impl PagedKvAllocator {
    /// An allocator of `capacity_blocks` blocks of `block_tokens` tokens.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero `block_tokens`.
    pub(crate) fn new(block_tokens: u64, capacity_blocks: u64) -> Result<Self> {
        if block_tokens == 0 {
            return Err(Error::invalid_config("KV block size must be >= 1 token"));
        }
        Ok(PagedKvAllocator {
            block_tokens,
            capacity_blocks: Some(capacity_blocks),
            held: FxHashMap::default(),
            shared: FxHashMap::default(),
            next_shared: 0,
            used_blocks: 0,
            high_water_blocks: 0,
        })
    }

    /// An allocator with no capacity limit (occupancy still tracked).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero `block_tokens`.
    pub(crate) fn unlimited(block_tokens: u64) -> Result<Self> {
        let mut alloc = Self::new(block_tokens, 0)?;
        alloc.capacity_blocks = None;
        Ok(alloc)
    }

    /// Builds an allocator over `budget` bytes (`None` = unlimited) for a
    /// model of the given per-token footprint. A zero footprint (DiT) is
    /// never capacity-limited regardless of the budget.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for zero `block_tokens`.
    pub fn from_budget(
        budget: Option<Bytes>,
        footprint: &KvFootprint,
        block_tokens: u64,
    ) -> Result<Self> {
        match budget {
            None => Self::unlimited(block_tokens),
            Some(bytes) => {
                let block_bytes = footprint.bytes_per_token().get() * block_tokens;
                if block_bytes == 0 {
                    return Self::unlimited(block_tokens);
                }
                Self::new(block_tokens, bytes.get() / block_bytes)
            }
        }
    }

    /// Tokens per block.
    pub fn block_tokens(&self) -> u64 {
        self.block_tokens
    }

    /// Total blocks (`None` = unlimited).
    pub fn capacity_blocks(&self) -> Option<u64> {
        self.capacity_blocks
    }

    /// Blocks currently allocated.
    #[cfg(test)]
    pub(crate) fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// Blocks still free (`None` = unlimited).
    pub fn free_blocks(&self) -> Option<u64> {
        self.capacity_blocks.map(|c| c - self.used_blocks)
    }

    /// The most blocks ever allocated at once.
    #[cfg(test)]
    pub(crate) fn high_water_blocks(&self) -> u64 {
        self.high_water_blocks
    }

    /// Live occupancy as a fraction of capacity (0 when unlimited or
    /// zero-capacity).
    pub fn used_frac(&self) -> f64 {
        self.frac(self.used_blocks)
    }

    /// High-water occupancy as a fraction of capacity (0 when unlimited
    /// or zero-capacity).
    pub fn high_water_frac(&self) -> f64 {
        self.frac(self.high_water_blocks)
    }

    fn frac(&self, blocks: u64) -> f64 {
        match self.capacity_blocks {
            Some(c) if c > 0 => blocks as f64 / c as f64,
            _ => 0.0,
        }
    }

    /// Blocks needed to hold `tokens` tokens.
    pub fn blocks_for(&self, tokens: u64) -> u64 {
        tokens.div_ceil(self.block_tokens)
    }

    /// Whether growing request `id` to `tokens` tokens would fit.
    #[cfg(test)]
    pub(crate) fn would_fit(&self, id: u64, tokens: u64) -> bool {
        let need = self.blocks_for(tokens);
        let have = self.held.get(&id).map_or(0, Holding::blocks);
        let extra = need.saturating_sub(have);
        match self.capacity_blocks {
            None => true,
            Some(c) => self.used_blocks + extra <= c,
        }
    }

    /// Ensures request `id` holds enough blocks for `tokens` tokens
    /// (shared references count toward coverage), allocating the
    /// difference as private blocks. Returns `false` (allocating nothing)
    /// if the extra blocks do not fit; a request never shrinks here —
    /// blocks are returned only by [`release`](Self::release).
    pub fn try_grow(&mut self, id: u64, tokens: u64) -> bool {
        // One map lookup (the `would_fit` test inlined): a request that
        // does not fit is left without a holding.
        let need = self.blocks_for(tokens);
        let (used, capacity) = (self.used_blocks, self.capacity_blocks);
        let fits = |extra: u64| capacity.is_none_or(|c| used + extra <= c);
        let have = match self.held.entry(id) {
            Entry::Occupied(held) => held.into_mut(),
            Entry::Vacant(slot) if fits(need) => slot.insert(Holding::default()),
            Entry::Vacant(_) => return false,
        };
        let extra = need.saturating_sub(have.blocks());
        if !fits(extra) {
            return false;
        }
        if extra > 0 {
            self.used_blocks += extra;
            have.private += extra;
            self.high_water_blocks = self.high_water_blocks.max(self.used_blocks);
        }
        true
    }

    /// Frees everything request `id` holds — private blocks outright,
    /// shared blocks by dropping one reference each — and returns the
    /// number of physical blocks actually freed (a shared block frees only
    /// when `id` held its last reference).
    pub fn release(&mut self, id: u64) -> u64 {
        let Some(holding) = self.held.remove(&id) else {
            return 0;
        };
        let mut freed = holding.private;
        self.used_blocks -= holding.private;
        for block in holding.shared {
            if self.release_shared(block) {
                freed += 1;
            }
        }
        freed
    }

    /// Frees every holding and every shared block at once — the "replica
    /// died" path. A crash loses the HBM contents wholesale, so there is
    /// no per-request teardown to respect: all private blocks, all shared
    /// prefix blocks, and all references vanish together. Returns the
    /// number of physical blocks freed. High-water statistics survive the
    /// reset (they describe the incarnation that just died) and shared
    /// block ids are never reused across it.
    pub fn release_all(&mut self) -> u64 {
        let freed = self.used_blocks;
        self.held.clear();
        self.shared.clear();
        self.used_blocks = 0;
        freed
    }

    /// Blocks request `id` currently holds (private + shared references).
    pub fn held_blocks(&self, id: u64) -> u64 {
        self.held.get(&id).map_or(0, Holding::blocks)
    }

    /// Number of requests holding at least one block (or shared
    /// reference).
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        self.held.values().filter(|h| h.blocks() > 0).count()
    }

    /// Allocates a fresh shared block with one reference (the caller's —
    /// typically a prefix index retaining a copy-on-write tail copy).
    /// Returns `None` without allocating if no block is free.
    pub(crate) fn alloc_shared(&mut self) -> Option<u64> {
        if let Some(c) = self.capacity_blocks {
            if self.used_blocks >= c {
                return None;
            }
        }
        let block = self.next_shared;
        self.next_shared += 1;
        self.shared.insert(block, 1);
        self.used_blocks += 1;
        self.high_water_blocks = self.high_water_blocks.max(self.used_blocks);
        Some(block)
    }

    /// Converts one of request `id`'s private blocks into a shared block
    /// referenced by both the request and the caller (reference count 2) —
    /// how a prompt block enters a prefix index without copying. Returns
    /// `None` if the request holds no private block. Occupancy is
    /// unchanged: the same physical block, now identified.
    pub(crate) fn promote_to_shared(&mut self, id: u64) -> Option<u64> {
        let holding = self.held.get_mut(&id)?;
        if holding.private == 0 {
            return None;
        }
        holding.private -= 1;
        let block = self.next_shared;
        self.next_shared += 1;
        holding.shared.push(block);
        self.shared.insert(block, 2);
        Some(block)
    }

    /// Adds one reference to shared block `block`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the block is not live.
    pub fn retain_shared(&mut self, block: u64) {
        let refs = self.shared.get_mut(&block);
        debug_assert!(refs.is_some(), "retain of a dead shared block");
        if let Some(refs) = refs {
            *refs += 1;
        }
    }

    /// Drops one reference from shared block `block`, freeing the
    /// physical block when the count reaches zero. Returns whether the
    /// block was freed. A block referenced by anyone else survives — the
    /// "never free while shared" invariant.
    pub fn release_shared(&mut self, block: u64) -> bool {
        let Some(refs) = self.shared.get_mut(&block) else {
            debug_assert!(false, "release of a dead shared block");
            return false;
        };
        *refs -= 1;
        if *refs == 0 {
            self.shared.remove(&block);
            self.used_blocks -= 1;
            true
        } else {
            false
        }
    }

    /// Reference count of shared block `block` (0 if not live).
    pub(crate) fn shared_refs(&self, block: u64) -> u64 {
        self.shared.get(&block).copied().unwrap_or(0)
    }

    /// Live shared blocks (each counted once, whatever its refs).
    #[cfg(test)]
    pub(crate) fn shared_blocks(&self) -> u64 {
        self.shared.len() as u64
    }

    /// Shared-block references request `id` holds.
    #[cfg(test)]
    pub(crate) fn shared_held(&self, id: u64) -> u64 {
        self.held.get(&id).map_or(0, |h| h.shared.len() as u64)
    }

    /// Atomically attaches the given shared blocks to request `id` (one
    /// reference each — capacity-free, the blocks are already resident)
    /// and allocates whatever private blocks are still needed to cover
    /// `tokens` tokens. On failure nothing changes: no references taken,
    /// no blocks allocated. The request must hold nothing beforehand
    /// (admission happens once per residency).
    pub fn try_admit(&mut self, id: u64, shared: &[u64], tokens: u64) -> bool {
        debug_assert_eq!(
            self.held_blocks(id),
            0,
            "admission of a request already holding"
        );
        let need = self.blocks_for(tokens);
        let extra = need.saturating_sub(shared.len() as u64);
        if let Some(c) = self.capacity_blocks {
            if self.used_blocks + extra > c {
                return false;
            }
        }
        for &block in shared {
            self.retain_shared(block);
        }
        let holding = self.held.entry(id).or_default();
        holding.shared.extend_from_slice(shared);
        holding.private += extra;
        self.used_blocks += extra;
        self.high_water_blocks = self.high_water_blocks.max(self.used_blocks);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_block_size() {
        assert!(PagedKvAllocator::new(0, 8).is_err());
        assert!(PagedKvAllocator::unlimited(0).is_err());
    }

    #[test]
    fn grow_release_roundtrip() {
        let mut a = PagedKvAllocator::new(16, 4).unwrap();
        assert!(a.try_grow(7, 32)); // 2 blocks
        assert_eq!(a.used_blocks(), 2);
        assert!(a.try_grow(7, 33)); // 3 blocks (grow by 1)
        assert_eq!(a.held_blocks(7), 3);
        assert!(a.try_grow(7, 16)); // never shrinks
        assert_eq!(a.held_blocks(7), 3);
        assert!(!a.try_grow(8, 32)); // 2 more do not fit in 1 free
        assert_eq!(a.used_blocks(), 3, "failed grow must allocate nothing");
        assert!(a.try_grow(8, 16));
        assert_eq!(a.free_blocks(), Some(0));
        assert_eq!(a.release(7), 3);
        assert_eq!(a.release(7), 0, "double release is a no-op");
        assert_eq!(a.used_blocks(), 1);
        assert_eq!(a.high_water_blocks(), 4);
        assert_eq!(a.high_water_frac(), 1.0);
    }

    #[test]
    fn release_all_frees_private_and_shared_but_keeps_high_water() {
        let mut a = PagedKvAllocator::new(16, 8).unwrap();
        assert!(a.try_grow(0, 32)); // 2 private blocks
        let b = a.promote_to_shared(0).unwrap();
        assert!(a.try_admit(1, &[b], 17)); // shares b + 1 private
        assert!(a.try_grow(2, 16)); // 1 private block
        assert_eq!(a.used_blocks(), 4);
        assert_eq!(a.release_all(), 4);
        assert_eq!(a.used_blocks(), 0);
        assert_eq!(a.holders(), 0);
        assert_eq!(a.shared_blocks(), 0);
        assert_eq!(a.shared_refs(b), 0, "shared refs are gone wholesale");
        assert_eq!(a.held_blocks(1), 0);
        assert_eq!(a.high_water_blocks(), 4, "statistics outlive the crash");
        assert_eq!(a.release_all(), 0, "second reset is a no-op");
        // The allocator is usable again at full capacity.
        assert!(a.try_grow(9, 16 * 8));
        assert_eq!(a.free_blocks(), Some(0));
    }

    #[test]
    fn unlimited_never_fails_but_tracks() {
        let mut a = PagedKvAllocator::unlimited(16).unwrap();
        assert!(a.try_grow(0, 1 << 20));
        assert_eq!(a.capacity_blocks(), None);
        assert_eq!(a.free_blocks(), None);
        assert_eq!(a.used_blocks(), (1 << 20) / 16);
        assert_eq!(a.high_water_frac(), 0.0);
    }

    #[test]
    fn shared_blocks_are_refcounted_not_double_counted() {
        let mut a = PagedKvAllocator::new(16, 4).unwrap();
        // Request 0 prefills 32 tokens (2 private blocks), then both are
        // promoted into a prefix index.
        assert!(a.try_grow(0, 32));
        let b0 = a.promote_to_shared(0).unwrap();
        let b1 = a.promote_to_shared(0).unwrap();
        assert_eq!(a.promote_to_shared(0), None, "no private block left");
        assert_eq!(a.used_blocks(), 2, "promotion does not change occupancy");
        assert_eq!((a.shared_refs(b0), a.shared_refs(b1)), (2, 2));

        // Request 1 shares both blocks and needs one private for 33 tokens.
        assert!(a.try_admit(1, &[b0, b1], 33));
        assert_eq!(a.used_blocks(), 3, "shared blocks are counted once");
        assert_eq!(a.held_blocks(1), 3);
        assert_eq!(a.shared_held(1), 2);
        assert_eq!(a.shared_refs(b0), 3);

        // Request 0 releases: shared blocks survive (index + request 1).
        assert_eq!(a.release(0), 0);
        assert_eq!(a.shared_refs(b0), 2);
        assert_eq!(a.used_blocks(), 3);

        // Request 1 releases: its private frees, shared blocks survive on
        // the index's reference alone.
        assert_eq!(a.release(1), 1);
        assert_eq!((a.shared_refs(b0), a.shared_refs(b1)), (1, 1));
        assert_eq!(a.used_blocks(), 2);
        assert_eq!(a.shared_blocks(), 2);

        // The index evicts: last references free the blocks.
        assert!(a.release_shared(b0));
        assert!(a.release_shared(b1));
        assert_eq!(a.used_blocks(), 0);
        assert_eq!(a.shared_blocks(), 0);
    }

    #[test]
    fn failed_admit_takes_nothing() {
        let mut a = PagedKvAllocator::new(16, 2).unwrap();
        assert!(a.try_grow(0, 16));
        let b = a.promote_to_shared(0).unwrap();
        // 3 blocks needed, 1 shared + 2 private, but only 1 block is free.
        assert!(!a.try_admit(1, &[b], 48));
        assert_eq!(a.shared_refs(b), 2, "failed admission must not retain");
        assert_eq!(a.held_blocks(1), 0);
        assert_eq!(a.used_blocks(), 1);
        // Within capacity it succeeds.
        assert!(a.try_admit(1, &[b], 32));
        assert_eq!(a.used_blocks(), 2);
    }

    #[test]
    fn alloc_shared_respects_capacity() {
        let mut a = PagedKvAllocator::new(16, 1).unwrap();
        let b = a.alloc_shared().unwrap();
        assert_eq!(a.shared_refs(b), 1);
        assert_eq!(a.alloc_shared(), None, "capacity exhausted");
        assert!(a.release_shared(b));
        assert!(a.alloc_shared().is_some());
    }

    #[test]
    fn budget_derivation() {
        use cimtpu_models::TransformerConfig;
        let model = TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap();
        let fp = crate::KvFootprint::of(&model); // 1024 B/token
        let a = PagedKvAllocator::from_budget(Some(Bytes::from_kib(64)), &fp, 16).unwrap();
        assert_eq!(a.capacity_blocks(), Some(4));
        let unlimited = PagedKvAllocator::from_budget(None, &fp, 16).unwrap();
        assert_eq!(unlimited.capacity_blocks(), None);
        // Zero footprint (DiT): never limited.
        let dit =
            PagedKvAllocator::from_budget(Some(Bytes::new(1)), &crate::KvFootprint::none(), 16)
                .unwrap();
        assert_eq!(dit.capacity_blocks(), None);
    }

    #[test]
    fn budget_resolution() {
        use cimtpu_models::TransformerConfig;
        let model = TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap();
        let fp = crate::KvFootprint::of(&model);
        let hbm = Bytes::from_mib(8);
        assert_eq!(KvBudget::Unlimited.resolve(hbm, &fp), None);
        assert_eq!(
            KvBudget::Bytes(Bytes::from_kib(64)).resolve(hbm, &fp),
            Some(Bytes::from_kib(64))
        );
        let left = KvBudget::HbmMinusWeights.resolve(hbm, &fp).unwrap();
        assert_eq!(left, hbm.saturating_sub(fp.weight_bytes()));
    }
}
