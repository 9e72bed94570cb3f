//! KV-cache memory subsystem: per-request footprints and paged allocation.
//!
//! The serving layer prices *compute* through the chip simulator; this
//! crate models the *memory* side of LLM serving — the KV cache — which in
//! practice, not compute, caps how many requests a chip can run at once.
//!
//! # Bytes-per-token math
//!
//! A decoder layer caches one key and one value vector per token. With
//! grouped-query attention only the `kv_heads · d_head` channels are
//! stored, so for a model with `L` layers at element size `s` bytes:
//!
//! ```text
//! bytes/token/layer = 2 · kv_heads · d_head · s
//! bytes/token       = L · 2 · kv_heads · d_head · s
//! request bytes     = (prompt_len + generated) · bytes/token
//! ```
//!
//! Under `p`-way tensor parallelism the heads are partitioned across the
//! ring, so each shard stores `1/p` of the footprint (rounded up).
//! [`KvFootprint`] computes these quantities from a
//! [`TransformerConfig`](cimtpu_models::TransformerConfig) — the same
//! geometry the workload builders price — so the memory model can never
//! drift from the compute model.
//!
//! # Paged allocation
//!
//! Real servers (vLLM-style) carve the KV region into fixed-size blocks of
//! `block_tokens` tokens and allocate per request on demand; a request
//! holding `t` tokens occupies `⌈t / block_tokens⌉` blocks. The
//! [`PagedKvAllocator`] implements exactly that bookkeeping: reserve /
//! grow / release per request id, occupancy never exceeding capacity, and
//! a high-water mark for reporting. [`KvBudget`] names where the byte
//! budget comes from (unlimited, an explicit cap, or the chip's HBM
//! capacity minus the resident weights).
//!
//! # Prefix sharing
//!
//! Requests whose prompts agree on a common head compute identical KV
//! state for it, so the allocator also supports **shared blocks** with
//! reference counts, and the [`PrefixIndex`] maps block-aligned
//! prompt-token prefixes onto them: a new request attaches the cached
//! blocks by reference instead of re-allocating and re-computing them,
//! diverging mid-block copies on write, and index-held blocks are evicted
//! (last-reference-only, LRU) when capacity runs short. See the
//! [`prefix`] module docs for the full sharing / copy-on-write / eviction
//! contract.
//!
//! # Examples
//!
//! ```
//! use cimtpu_kv::{KvFootprint, PagedKvAllocator};
//! use cimtpu_models::TransformerConfig;
//! use cimtpu_units::Bytes;
//!
//! let model = TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024)?;
//! let fp = KvFootprint::of(&model);
//! // 2 layers x 2 (K+V) x 4 heads x 64 d_head x 1 byte (INT8).
//! assert_eq!(fp.bytes_per_token(), Bytes::new(1024));
//!
//! // A 64 KiB budget in 16-token blocks holds 4 blocks.
//! let mut alloc = PagedKvAllocator::from_budget(Some(Bytes::from_kib(64)), &fp, 16)?;
//! assert_eq!(alloc.capacity_blocks(), Some(4));
//! assert!(alloc.try_grow(0, 32)); // request 0 prefills 32 tokens: 2 blocks
//! assert!(!alloc.try_grow(1, 48)); // 3 more blocks do not fit
//! assert_eq!(alloc.release(0), 2);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod footprint;
mod paged;
pub mod prefix;

pub use footprint::KvFootprint;
pub use paged::{KvBudget, PagedKvAllocator};
pub use prefix::{PrefixIndex, PrefixMatch, PrefixStats};

#[cfg(test)]
mod proptests;
