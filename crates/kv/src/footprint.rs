//! Per-request KV-cache footprints derived from model geometry.

use serde::{Deserialize, Serialize};

use cimtpu_models::TransformerConfig;
use cimtpu_units::{Bytes, Error, Result};

/// The KV-cache byte footprint of one model (or one tensor-parallel shard
/// of it), derived from the same [`TransformerConfig`] geometry the
/// workload builders price.
///
/// All quantities are *per shard*: [`KvFootprint::of`] builds the
/// single-chip footprint, [`KvFootprint::sharded`] divides it across a
/// tensor-parallel ring (heads are partitioned, so each device stores
/// `1/p` of every token's cache, rounded up).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvFootprint {
    /// KV bytes one token occupies in one layer, on this shard.
    bytes_per_token_per_layer: u64,
    /// Decoder layers caching KV.
    layers: u64,
    /// Resident weight bytes on this shard (whole model).
    weight_bytes: u64,
}

impl KvFootprint {
    /// The single-chip footprint of `model`.
    pub fn of(model: &TransformerConfig) -> Self {
        Self::sharded(model, 1).expect("1-way sharding is always valid")
    }

    /// The per-device footprint of `model` under `shards`-way tensor
    /// parallelism: each device stores `1/shards` of every token's KV and
    /// of the weights (rounded up).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `shards` is zero.
    pub fn sharded(model: &TransformerConfig, shards: u64) -> Result<Self> {
        if shards == 0 {
            return Err(Error::invalid_config("KV footprint needs >= 1 shard"));
        }
        let per_layer = model.kv_cache_bytes_per_layer(1, 1).get();
        Ok(KvFootprint {
            bytes_per_token_per_layer: per_layer.div_ceil(shards),
            layers: model.layers(),
            weight_bytes: (model.weight_bytes_per_layer().get() * model.layers()).div_ceil(shards),
        })
    }

    /// A zero footprint, for models with no KV cache (e.g. DiT serving).
    pub fn none() -> Self {
        KvFootprint {
            bytes_per_token_per_layer: 0,
            layers: 0,
            weight_bytes: 0,
        }
    }

    /// KV bytes per token in one layer (per shard).
    pub fn bytes_per_token_per_layer(&self) -> Bytes {
        Bytes::new(self.bytes_per_token_per_layer)
    }

    /// KV bytes per token across all layers (per shard).
    pub fn bytes_per_token(&self) -> Bytes {
        Bytes::new(self.bytes_per_token_per_layer * self.layers)
    }

    /// Resident weight bytes (per shard) — what HBM holds before any KV.
    pub fn weight_bytes(&self) -> Bytes {
        Bytes::new(self.weight_bytes)
    }

    /// KV bytes a request holding `tokens` tokens occupies (per shard).
    pub fn request_bytes(&self, tokens: u64) -> Bytes {
        Bytes::new(tokens * self.bytes_per_token_per_layer * self.layers)
    }

    /// How many whole tokens of KV fit in `budget` bytes (`u64::MAX` for a
    /// zero footprint — nothing is ever consumed).
    pub fn tokens_fitting(&self, budget: Bytes) -> u64 {
        budget
            .get()
            .checked_div(self.bytes_per_token().get())
            .unwrap_or(u64::MAX)
    }

    /// Bytes that cross the interconnect when a request holding `tokens`
    /// tokens of cache migrates between paged allocators of
    /// `block_tokens`-token blocks (disaggregated prefill→decode handoff,
    /// future swap-to-host): whole blocks move, so the transfer is the
    /// block-aligned footprint `⌈tokens / block_tokens⌉ · block_tokens`
    /// tokens, not the raw token footprint.
    ///
    /// Computed on this footprint's shard; hand the unsharded
    /// ([`KvFootprint::of`]) footprint in to size a transfer of the full
    /// cache.
    pub fn handoff_bytes(&self, tokens: u64, block_tokens: u64) -> Bytes {
        let aligned = tokens.div_ceil(block_tokens.max(1)) * block_tokens.max(1);
        self.request_bytes(aligned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TransformerConfig {
        TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()
    }

    #[test]
    fn matches_model_kv_accounting() {
        let model = tiny();
        let fp = KvFootprint::of(&model);
        assert_eq!(
            fp.bytes_per_token_per_layer(),
            model.kv_cache_bytes_per_layer(1, 1)
        );
        // batch x ctx tokens of cache across one layer.
        assert_eq!(
            model.kv_cache_bytes_per_layer(8, 96).get(),
            8 * 96 * fp.bytes_per_token_per_layer().get()
        );
        // 2 (K+V) x kv_heads x d_head x dtype x layers per token.
        assert_eq!(fp.bytes_per_token(), Bytes::new(2 * 4 * 64 * 2));
        assert_eq!(fp.request_bytes(100), Bytes::new(100 * 1024));
    }

    #[test]
    fn gqa_shrinks_the_footprint() {
        let mha = TransformerConfig::new("mha", 4, 64, 8192, 28672).unwrap();
        let gqa = mha.clone().with_kv_heads(8).unwrap();
        let f_mha = KvFootprint::of(&mha);
        let f_gqa = KvFootprint::of(&gqa);
        assert_eq!(
            f_mha.bytes_per_token().get(),
            8 * f_gqa.bytes_per_token().get()
        );
    }

    #[test]
    fn sharding_divides_rounding_up() {
        let model = tiny(); // 512 B/token/layer
        let fp4 = KvFootprint::sharded(&model, 4).unwrap();
        assert_eq!(fp4.bytes_per_token_per_layer(), Bytes::new(128));
        let fp3 = KvFootprint::sharded(&model, 3).unwrap();
        assert_eq!(fp3.bytes_per_token_per_layer(), Bytes::new(171)); // ceil(512/3)
        assert!(KvFootprint::sharded(&model, 0).is_err());
        // Weights divide too.
        let full = KvFootprint::of(&model).weight_bytes().get();
        assert_eq!(fp4.weight_bytes().get(), full.div_ceil(4));
    }

    #[test]
    fn tokens_fitting_budget() {
        let fp = KvFootprint::of(&tiny()); // 1024 B/token
        assert_eq!(fp.tokens_fitting(Bytes::from_kib(64)), 64);
        assert_eq!(fp.tokens_fitting(Bytes::new(1023)), 0);
        assert_eq!(KvFootprint::none().tokens_fitting(Bytes::ZERO), u64::MAX);
    }

    #[test]
    fn handoff_moves_whole_blocks() {
        let fp = KvFootprint::of(&tiny()); // 1024 B/token
                                           // 100 tokens in 16-token blocks: 7 blocks = 112 tokens move.
        assert_eq!(fp.handoff_bytes(100, 16), Bytes::new(112 * 1024));
        // Exact block multiples are not padded.
        assert_eq!(fp.handoff_bytes(96, 16), fp.request_bytes(96));
        // A degenerate zero block size falls back to per-token transfer.
        assert_eq!(fp.handoff_bytes(100, 0), fp.request_bytes(100));
        assert_eq!(KvFootprint::none().handoff_bytes(100, 16), Bytes::ZERO);
    }
}
