//! Prefix sharing: a block-aligned radix index over prompt-token
//! prefixes, with copy-on-write on divergence.
//!
//! # Model
//!
//! Causal attention makes a token's KV entry a function of the token *and
//! every token before it*, so two requests whose prompts agree on their
//! first `n` tokens compute identical KV state for those `n` positions.
//! The [`PrefixIndex`] exploits that: it maps block-aligned prompt
//! prefixes onto resident KV blocks of a [`PagedKvAllocator`], so a new
//! request **shares** the cached blocks instead of re-allocating and
//! re-computing them.
//!
//! The index is a radix tree whose edges each carry up to one block's
//! worth of token content:
//!
//! - an **interior or full-leaf node** holds exactly `block_tokens`
//!   tokens and one shared block of the allocator;
//! - a **partial tail node** (always a leaf) holds the trailing
//!   `prompt_len % block_tokens` tokens of an inserted prompt, in its own
//!   shared block.
//!
//! The path from the root to a node spells out a prompt prefix; children
//! may overlap in content (two prompts that diverge mid-block each leave
//! a node for that block span), and lookup picks the longest match.
//!
//! # Sharing, copy-on-write, and the ref-count contract
//!
//! [`PrefixIndex::lookup`] walks a prompt through the tree and splits the
//! match into:
//!
//! - **fully matched blocks** — whole-block matches the request attaches
//!   by reference ([`PagedKvAllocator::try_admit`]); the blocks are
//!   immutable (a prompt never writes into a fully-ingested block), so
//!   aliasing is free;
//! - an optional **partial match** — the request's prompt diverges (or
//!   ends) mid-block. The cached KV for the matched positions is still
//!   valid, but the request must *write* later positions of that block
//!   span, so the block cannot be aliased: the matched tokens are
//!   **copied** into the request's own private block and the computation
//!   of those positions is skipped. That copy is the copy-on-write event
//!   ([`PrefixStats::cow_copies`]).
//!
//! [`PrefixIndex::commit`] inserts the request's uncached prompt blocks:
//! full blocks are *promoted* in place
//! (`PagedKvAllocator::promote_to_shared` — the request's own block
//! gains an identity and the index takes a reference; no copy), and the
//! partial tail is *retained by copy* into a fresh index-owned block
//! (also counted as a copy-on-write, and skipped best-effort when no
//! block is free or when the caller cannot afford speculative blocks —
//! run-to-completion engines, whose admission reserved the worst case).
//!
//! Ref-count invariants (enforced by the allocator, relied on here):
//!
//! 1. every indexed node holds exactly one reference to its block, and
//!    every resident request holds one reference per attached block;
//! 2. a shared block is freed only when its last reference drops — a
//!    block is **never** freed while any request (or the index) still
//!    references it;
//! 3. [`PrefixIndex::evict`] releases only blocks whose *sole* remaining
//!    reference is the index itself (unshared-or-last-reference blocks),
//!    leaves first in least-recently-used order, so eviction can never
//!    invalidate a resident request's cache.
//!
//! # Determinism
//!
//! All choices — longest-match ties, LRU ties, child ordering — resolve
//! by insertion order and node index, and the "clock" is a logical
//! counter bumped per commit, so equal request sequences produce equal
//! sharing decisions, bit-for-bit, run to run.

use crate::PagedKvAllocator;
use serde::{Deserialize, Serialize};

/// Aggregate counters of one [`PrefixIndex`] (or the sum over several —
/// see [`PrefixStats::absorb`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefixStats {
    /// Committed prefix lookups (one per successful request admission).
    pub lookups: u64,
    /// Lookups that matched at least one token.
    pub hits: u64,
    /// Whole blocks attached by reference instead of being recomputed.
    pub shared_blocks: u64,
    /// Prompt tokens served from the cache (full-block and partial).
    pub shared_tokens: u64,
    /// Copy-on-write events: partial-block divergences copied into a
    /// private block, plus partial prompt tails retained by copy.
    pub cow_copies: u64,
    /// Blocks inserted into the index (promotions + tail copies).
    pub inserted_blocks: u64,
    /// Index-held blocks evicted to free capacity.
    pub evicted_blocks: u64,
}

impl PrefixStats {
    /// Folds another index's counters into this one.
    pub fn absorb(&mut self, other: &PrefixStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.shared_blocks += other.shared_blocks;
        self.shared_tokens += other.shared_tokens;
        self.cow_copies += other.cow_copies;
        self.inserted_blocks += other.inserted_blocks;
        self.evicted_blocks += other.evicted_blocks;
    }
}

impl std::fmt::Display for PrefixStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hits {}/{}  shared {} block(s) / {} token(s)  cow {}  inserted {}  evicted {}",
            self.hits,
            self.lookups,
            self.shared_blocks,
            self.shared_tokens,
            self.cow_copies,
            self.inserted_blocks,
            self.evicted_blocks
        )
    }
}

/// What a [`PrefixIndex::lookup`] found for one prompt.
#[derive(Debug, Clone)]
pub struct PrefixMatch {
    /// Fully matched interior nodes, root-first.
    path: Vec<usize>,
    /// The partially matched node and how many of its tokens matched.
    partial: Option<(usize, u64)>,
    /// The partially matched node's block (the copy-on-write *source*).
    partial_block: Option<u64>,
    /// Shared blocks of the fully matched nodes — what the request
    /// attaches by reference.
    blocks: Vec<u64>,
    /// Total matched prompt tokens (full blocks + partial).
    matched_tokens: u64,
}

impl PrefixMatch {
    /// Shared blocks the request can attach by reference
    /// ([`PagedKvAllocator::try_admit`]).
    pub fn blocks(&self) -> &[u64] {
        &self.blocks
    }

    /// The block a partial match copies from, if any. A caller that runs
    /// [`PrefixIndex::evict`] between this lookup and its
    /// [`commit`](PrefixIndex::commit) must pin this block too
    /// ([`PagedKvAllocator::retain_shared`]) — the match's token skip is
    /// only valid while its source blocks stay resident.
    pub fn partial_block(&self) -> Option<u64> {
        self.partial_block
    }

    /// Total matched prompt tokens. Callers pricing a prefill should skip
    /// at most `matched_tokens` positions, and always compute at least the
    /// prompt's final token (its hidden state seeds the first output), so
    /// the priced skip is `matched_tokens.min(prompt_len - 1)`.
    pub fn matched_tokens(&self) -> u64 {
        self.matched_tokens
    }

    /// Whether anything matched.
    pub(crate) fn is_hit(&self) -> bool {
        self.matched_tokens > 0
    }

    /// Whether the match ends mid-block — the request reuses the matched
    /// positions by copy-on-write rather than by reference.
    pub(crate) fn is_partial(&self) -> bool {
        self.partial.is_some()
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Block-span token content (`block_tokens` long, except partial
    /// tails).
    tokens: Vec<u64>,
    /// The shared allocator block holding this span's KV.
    block: u64,
    parent: Option<usize>,
    children: Vec<usize>,
    last_use: u64,
    dead: bool,
}

/// A block-aligned radix index over prompt-token prefixes (module docs:
/// [`crate::prefix`]). One index serves one executor's
/// [`PagedKvAllocator`]; the caller passes the same allocator to every
/// call.
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    block_tokens: u64,
    nodes: Vec<Node>,
    /// Slots of evicted nodes, reused by the next insertion so churn
    /// does not grow `nodes` without bound.
    free: Vec<usize>,
    roots: Vec<usize>,
    clock: u64,
    stats: PrefixStats,
}

impl PrefixIndex {
    /// An empty index over `block_tokens`-token blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_tokens` is zero (the allocator rejects that
    /// earlier).
    pub fn new(block_tokens: u64) -> Self {
        assert!(block_tokens > 0, "prefix index needs >= 1 token per block");
        PrefixIndex {
            block_tokens,
            nodes: Vec::new(),
            free: Vec::new(),
            roots: Vec::new(),
            clock: 0,
            stats: PrefixStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> PrefixStats {
        self.stats
    }

    /// Live (non-evicted) nodes — one shared block each.
    #[cfg(test)]
    pub(crate) fn live_nodes(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead).count()
    }

    /// Longest cached prefix of `prompt`. Pure: no reference is taken and
    /// no state changes — admission control may fail after a lookup, in
    /// which case the request simply retries later. Follow a successful
    /// admission with [`commit`](PrefixIndex::commit).
    pub fn lookup(&self, prompt: &[u64]) -> PrefixMatch {
        let mut m = PrefixMatch {
            path: Vec::new(),
            partial: None,
            partial_block: None,
            blocks: Vec::new(),
            matched_tokens: 0,
        };
        let mut pos = 0usize;
        let mut children: &[usize] = &self.roots;
        while pos < prompt.len() {
            let rest = &prompt[pos..];
            // Longest-matching child; ties pick the earliest inserted.
            let mut best: Option<(usize, usize)> = None; // (matched, node)
            for &c in children {
                let node = &self.nodes[c];
                debug_assert!(!node.dead, "dead node still linked");
                let matched = node
                    .tokens
                    .iter()
                    .zip(rest)
                    .take_while(|(a, b)| a == b)
                    .count();
                if matched > 0 && best.is_none_or(|(bm, _)| matched > bm) {
                    best = Some((matched, c));
                }
            }
            let Some((matched, c)) = best else { break };
            let node = &self.nodes[c];
            if matched == node.tokens.len() && node.tokens.len() as u64 == self.block_tokens {
                // A whole immutable block: attach by reference, descend.
                m.path.push(c);
                m.blocks.push(node.block);
                m.matched_tokens += matched as u64;
                pos += matched;
                children = &node.children;
            } else {
                // Divergence (or prompt end / partial tail) mid-block: the
                // matched positions are reused by copy-on-write.
                m.partial = Some((c, matched as u64));
                m.partial_block = Some(node.block);
                m.matched_tokens += matched as u64;
                break;
            }
        }
        m
    }

    /// Commits an admitted request: touches the matched path (LRU),
    /// records the stats, and inserts the request's uncached prompt
    /// blocks — full blocks by promoting the request's own private blocks
    /// in place, the partial tail (if `retain_partial`) by copying it
    /// into a fresh index-owned block, best-effort. The caller must
    /// already have admitted `request` into `alloc` covering at least
    /// `prompt.len()` tokens with `m.blocks()` attached.
    ///
    /// Run-to-completion engines pass `retain_partial = false`: their
    /// admission reserved the worst case assuming no speculative blocks,
    /// so the tail copy could steal a reserved block mid-batch.
    pub fn commit(
        &mut self,
        prompt: &[u64],
        m: &PrefixMatch,
        request: u64,
        alloc: &mut PagedKvAllocator,
        retain_partial: bool,
    ) {
        self.clock += 1;
        let clock = self.clock;
        for &n in &m.path {
            self.nodes[n].last_use = clock;
        }
        if let Some((n, _)) = m.partial {
            self.nodes[n].last_use = clock;
        }
        self.stats.lookups += 1;
        if m.is_hit() {
            self.stats.hits += 1;
        }
        self.stats.shared_blocks += m.blocks.len() as u64;
        self.stats.shared_tokens += m.matched_tokens;
        if m.is_partial() {
            self.stats.cow_copies += 1;
        }

        // Insert the spans the full-block path does not cover. If the
        // partial match already covers the whole remaining prompt, the
        // cache holds everything this prompt could offer.
        let mut pos = m.path.len() * self.block_tokens as usize;
        if m.matched_tokens as usize >= prompt.len() {
            return;
        }
        let mut parent = m.path.last().copied();
        while pos < prompt.len() {
            let end = (pos + self.block_tokens as usize).min(prompt.len());
            let full = end - pos == self.block_tokens as usize;
            let block = if full {
                // The request's resident block gains an identity; the
                // index takes the second reference. No copy.
                let Some(block) = alloc.promote_to_shared(request) else {
                    debug_assert!(false, "committed request holds no private block");
                    return;
                };
                block
            } else {
                // Partial tail: retained by copying into an index-owned
                // block (a copy-on-write), only if a block is free.
                if !retain_partial {
                    return;
                }
                let Some(block) = alloc.alloc_shared() else {
                    return;
                };
                self.stats.cow_copies += 1;
                block
            };
            self.stats.inserted_blocks += 1;
            let node = Node {
                tokens: prompt[pos..end].to_vec(),
                block,
                parent,
                children: Vec::new(),
                last_use: clock,
                dead: false,
            };
            let idx = match self.free.pop() {
                Some(slot) => {
                    self.nodes[slot] = node;
                    slot
                }
                None => {
                    self.nodes.push(node);
                    self.nodes.len() - 1
                }
            };
            match parent {
                Some(p) => self.nodes[p].children.push(idx),
                None => self.roots.push(idx),
            }
            parent = Some(idx);
            pos = end;
        }
    }

    /// Drops every cached prefix at once — the "replica died" path,
    /// paired with [`PagedKvAllocator::release_all`]. The index does not
    /// touch any allocator here: the caller has already (or is about to)
    /// release the whole allocator, so per-block reference bookkeeping
    /// would be against state that no longer exists. Counters in
    /// [`stats`](Self::stats) are cumulative across the reset so a report
    /// still accounts for hits served before the crash.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.roots.clear();
    }

    /// Frees up to `need` blocks by evicting leaves whose block's sole
    /// remaining reference is the index (least-recently-used first, ties
    /// by node index). Blocks still referenced by resident requests are
    /// never touched. Returns how many blocks were freed.
    pub fn evict(&mut self, alloc: &mut PagedKvAllocator, need: u64) -> u64 {
        let mut freed = 0;
        while freed < need {
            let victim = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| {
                    !n.dead && n.children.is_empty() && alloc.shared_refs(n.block) == 1
                })
                .min_by_key(|(i, n)| (n.last_use, *i))
                .map(|(i, _)| i);
            let Some(v) = victim else { break };
            let released = alloc.release_shared(self.nodes[v].block);
            debug_assert!(released, "index held the last reference");
            self.nodes[v].dead = true;
            self.nodes[v].tokens = Vec::new();
            if let Some(p) = self.nodes[v].parent {
                self.nodes[p].children.retain(|&c| c != v);
            } else {
                self.roots.retain(|&c| c != v);
            }
            self.free.push(v);
            freed += 1;
        }
        self.stats.evicted_blocks += freed;
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic token stream: token `i` of stream `seed`.
    fn tok(seed: u64, i: u64) -> u64 {
        let mut z = (seed ^ i).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    /// A prompt: `head` tokens from stream `head_seed`, the rest from a
    /// unique stream.
    fn prompt(head_seed: u64, head: u64, tail_seed: u64, len: u64) -> Vec<u64> {
        (0..len)
            .map(|i| {
                if i < head {
                    tok(head_seed, i)
                } else {
                    tok(tail_seed, i)
                }
            })
            .collect()
    }

    /// Admit + commit one request, returning its matched tokens.
    fn admit(
        index: &mut PrefixIndex,
        alloc: &mut PagedKvAllocator,
        id: u64,
        tokens: &[u64],
    ) -> PrefixMatch {
        let m = index.lookup(tokens);
        assert!(alloc.try_admit(id, m.blocks(), tokens.len() as u64));
        index.commit(tokens, &m, id, alloc, true);
        m
    }

    #[test]
    fn identical_prompts_share_everything_but_one_token() {
        let mut alloc = PagedKvAllocator::unlimited(16).unwrap();
        let mut index = PrefixIndex::new(16);
        let p = prompt(7, 40, 0, 40); // whole prompt from one stream
        let m0 = admit(&mut index, &mut alloc, 0, &p);
        assert!(!m0.is_hit());
        // 2 full blocks promoted + 1 partial tail copied.
        assert_eq!(index.live_nodes(), 3);
        assert_eq!(index.stats().inserted_blocks, 3);
        assert_eq!(index.stats().cow_copies, 1, "tail retention is a copy");
        assert_eq!(alloc.used_blocks(), 4, "3 request blocks + 1 tail copy");

        // The same content again: full-block + partial-tail hit.
        let m1 = admit(&mut index, &mut alloc, 1, &p);
        assert_eq!(m1.matched_tokens(), 40);
        assert_eq!(m1.blocks().len(), 2);
        assert!(m1.is_partial());
        // Nothing new inserted; the priced skip caps at prompt_len - 1.
        assert_eq!(index.live_nodes(), 3);
        assert_eq!(m1.matched_tokens().min(p.len() as u64 - 1), 39);
    }

    #[test]
    fn clear_resets_structure_but_keeps_cumulative_stats() {
        let mut alloc = PagedKvAllocator::unlimited(16).unwrap();
        let mut index = PrefixIndex::new(16);
        let p = prompt(7, 40, 0, 40);
        admit(&mut index, &mut alloc, 0, &p);
        admit(&mut index, &mut alloc, 1, &p);
        assert!(index.live_nodes() > 0);
        let hits_before = index.stats().hits;
        assert!(hits_before > 0);

        // The replica dies: allocator resets wholesale, index follows.
        alloc.release_all();
        index.clear();
        assert_eq!(index.live_nodes(), 0);
        assert_eq!(index.stats().hits, hits_before, "counters are cumulative");
        let m = index.lookup(&p);
        assert_eq!(m.matched_tokens(), 0, "the restarted cache is cold");

        // The index rebuilds from scratch against the reset allocator.
        admit(&mut index, &mut alloc, 2, &p);
        assert_eq!(index.live_nodes(), 3);
        let m = index.lookup(&p);
        assert_eq!(m.matched_tokens(), 40);
    }

    #[test]
    fn shared_head_diverges_with_cow_mid_block() {
        let mut alloc = PagedKvAllocator::unlimited(16).unwrap();
        let mut index = PrefixIndex::new(16);
        // 24-token shared head: 1 full block + 8 tokens into block 2.
        let a = prompt(9, 24, 100, 48);
        let b = prompt(9, 24, 200, 48);
        admit(&mut index, &mut alloc, 0, &a);
        let m = admit(&mut index, &mut alloc, 1, &b);
        assert_eq!(
            m.matched_tokens(),
            24,
            "whole head shared, not floor(24/16)*16"
        );
        assert_eq!(m.blocks().len(), 1, "one full block by reference");
        assert!(m.is_partial(), "8 tokens reused by copy-on-write");
        // b inserts its own diverging span nodes under the shared block.
        let m2 = index.lookup(&b);
        assert_eq!(m2.matched_tokens(), 48, "b's own path is now cached");
    }

    #[test]
    fn lookup_prefers_longest_match_deterministically() {
        let mut alloc = PagedKvAllocator::unlimited(8).unwrap();
        let mut index = PrefixIndex::new(8);
        // Two siblings sharing a 4-token prefix of one block span.
        let a = prompt(3, 4, 50, 8);
        let b = prompt(3, 4, 60, 8);
        admit(&mut index, &mut alloc, 0, &a);
        admit(&mut index, &mut alloc, 1, &b);
        // A third prompt matching b for 6 tokens picks b's node.
        let mut c = prompt(3, 4, 60, 8);
        c[6] = 0xDEAD;
        c[7] = 0xBEEF;
        let m = index.lookup(&c);
        assert_eq!(m.matched_tokens(), 6);
        assert!(m.is_partial());
    }

    #[test]
    fn eviction_spares_referenced_blocks_and_is_lru() {
        let mut alloc = PagedKvAllocator::new(16, 8).unwrap();
        let mut index = PrefixIndex::new(16);
        let a = prompt(1, 32, 10, 32); // 2 full blocks
        let b = prompt(2, 32, 20, 32); // 2 full blocks, different head
        admit(&mut index, &mut alloc, 0, &a);
        admit(&mut index, &mut alloc, 1, &b);
        assert_eq!(alloc.used_blocks(), 4);
        // Request 0 is gone; its blocks are index-only. Request 1 stays.
        alloc.release(0);
        let freed = index.evict(&mut alloc, 8);
        // Only a's leaf-then-parent chain can free; b's blocks are
        // referenced by the resident request 1.
        assert_eq!(freed, 2);
        assert_eq!(index.stats().evicted_blocks, 2);
        assert_eq!(alloc.used_blocks(), 2);
        assert_eq!(index.lookup(&a).matched_tokens(), 0, "a evicted");
        assert_eq!(index.lookup(&b).matched_tokens(), 32, "b retained");
        // After request 1 releases, everything can free.
        alloc.release(1);
        assert_eq!(index.evict(&mut alloc, 8), 2);
        assert_eq!(alloc.used_blocks(), 0);
    }

    #[test]
    fn partial_source_survives_eviction_when_pinned() {
        let mut alloc = PagedKvAllocator::new(16, 8).unwrap();
        let mut index = PrefixIndex::new(16);
        // One request leaves 1 full block + a partial tail node, then
        // releases: both become index-only (evictable).
        let p = prompt(6, 24, 0, 24);
        admit(&mut index, &mut alloc, 0, &p);
        alloc.release(0);
        // A same-head request matches the full block and the partial
        // tail. Pinning everything the match reads must keep eviction
        // away from both, while unpinned blocks would go.
        let m = index.lookup(&p);
        assert_eq!(m.blocks().len(), 1);
        let src = m.partial_block().expect("tail matched partially");
        for b in m.blocks().iter().copied().chain(m.partial_block()) {
            alloc.retain_shared(b);
        }
        assert_eq!(
            index.evict(&mut alloc, u64::MAX),
            0,
            "everything reachable is pinned"
        );
        for b in m.blocks().iter().copied().chain(m.partial_block()) {
            alloc.release_shared(b);
        }
        assert_eq!(alloc.shared_refs(src), 1, "back to index-only");
        // The match is still fully valid after the pinned eviction pass.
        assert!(alloc.try_admit(1, m.blocks(), 24));
        index.commit(&p, &m, 1, &mut alloc, true);
        assert_eq!(index.lookup(&p).matched_tokens(), 24);
        // Unpinned, the same pass evicts both blocks.
        alloc.release(1);
        assert_eq!(index.evict(&mut alloc, u64::MAX), 2);
        assert_eq!(index.lookup(&p).matched_tokens(), 0);
        // Evicted slots are reused by the next insertion, not leaked.
        let slots = index.nodes.len();
        admit(&mut index, &mut alloc, 2, &p);
        assert_eq!(index.nodes.len(), slots, "insertion reuses freed slots");
        assert_eq!(index.live_nodes(), 2);
    }

    #[test]
    fn resumed_request_rehits_its_own_insertions() {
        let mut alloc = PagedKvAllocator::new(16, 8).unwrap();
        let mut index = PrefixIndex::new(16);
        let p = prompt(5, 64, 0, 64); // 4 full blocks, block-aligned
        admit(&mut index, &mut alloc, 0, &p);
        assert_eq!(alloc.used_blocks(), 4);
        // Preemption: the request drops its references; the index keeps
        // the blocks alive.
        alloc.release(0);
        assert_eq!(alloc.used_blocks(), 4);
        // Resume: a full-prefix hit, nothing re-inserted.
        let m = admit(&mut index, &mut alloc, 0, &p);
        assert_eq!(m.matched_tokens(), 64);
        assert_eq!(m.blocks().len(), 4);
        assert!(!m.is_partial(), "block-aligned prompts need no copy");
        assert_eq!(index.live_nodes(), 4);
    }

    #[test]
    fn partial_retention_is_best_effort_and_skippable() {
        // Capacity for the prompt itself but not the tail copy.
        let mut alloc = PagedKvAllocator::new(16, 2).unwrap();
        let mut index = PrefixIndex::new(16);
        let p = prompt(4, 24, 0, 24);
        let m = index.lookup(&p);
        assert!(alloc.try_admit(0, m.blocks(), 24));
        index.commit(&p, &m, 0, &mut alloc, true);
        // Full block promoted; the tail copy did not fit and was skipped.
        assert_eq!(index.live_nodes(), 1);
        assert_eq!(alloc.used_blocks(), 2);

        // retain_partial = false skips the copy even with room.
        let mut alloc2 = PagedKvAllocator::new(16, 8).unwrap();
        let mut index2 = PrefixIndex::new(16);
        let m2 = index2.lookup(&p);
        assert!(alloc2.try_admit(0, m2.blocks(), 24));
        index2.commit(&p, &m2, 0, &mut alloc2, false);
        assert_eq!(index2.live_nodes(), 1);
        assert_eq!(alloc2.used_blocks(), 2, "no speculative block taken");
    }

    #[test]
    fn stats_accumulate_and_absorb() {
        let mut alloc = PagedKvAllocator::unlimited(16).unwrap();
        let mut index = PrefixIndex::new(16);
        let p = prompt(11, 32, 0, 32);
        admit(&mut index, &mut alloc, 0, &p);
        admit(&mut index, &mut alloc, 1, &p);
        let s = index.stats();
        assert_eq!((s.lookups, s.hits), (2, 1));
        assert_eq!(s.shared_blocks, 2);
        assert_eq!(s.shared_tokens, 32);
        let mut total = PrefixStats::default();
        total.absorb(&s);
        total.absorb(&s);
        assert_eq!(total.lookups, 4);
        assert_eq!(total.hits, 2);
        let line = total.to_string();
        assert!(line.contains("hits 2/4"), "{line}");
    }
}
