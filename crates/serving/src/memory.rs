//! Serving-side memory configuration: KV budget, paging, chunked prefill.

use serde::{Deserialize, Serialize};

use cimtpu_kv::KvBudget;
use cimtpu_units::spec::{parse_bytes, SizeError};
use cimtpu_units::{Bytes, Error, Result};

/// How a serving engine manages chip memory.
///
/// The default ([`MemoryConfig::unlimited`]) reproduces the pre-memory
/// engine exactly: infinite KV capacity and monolithic prefill, so every
/// scheduling decision and priced segment is unchanged. Tightening the
/// budget turns on admission control (arrivals queue while no KV blocks
/// are free) and preemption (the youngest running request is evicted,
/// recompute-on-resume); setting [`chunk_tokens`](MemoryConfig::chunk_tokens)
/// splits prompts into fixed-size prefill chunks so decode steps of
/// running requests interleave with prefill instead of stalling behind
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Per-chip KV byte budget (replicas each get the full budget; a
    /// tensor-parallel ring shards the footprint, so the per-chip budget
    /// covers `1/p` of every token).
    pub budget: KvBudget,
    /// Tokens per paged KV block (vLLM-style; 16 is the common default).
    pub block_tokens: u64,
    /// `Some(c)` splits every prefill into chunks of `c` tokens
    /// (Sarathi-style chunked prefill); `None` runs prompts monolithically.
    pub chunk_tokens: Option<u64>,
    /// Enables prefix sharing: each executor keeps a
    /// [`PrefixIndex`](cimtpu_kv::PrefixIndex) over resident prompt
    /// blocks, requests with a common prompt head attach the cached
    /// blocks by reference and skip pricing the shared portion of their
    /// prefill (copy-on-write on mid-block divergence; index-held blocks
    /// evicted last-reference-only when capacity runs short). Off by
    /// default — disabled, the engine is bit-identical to the
    /// sharing-oblivious scheduler. Not supported on tensor-parallel
    /// rings (the shared-tail pricing needs
    /// `prefill_chunk`).
    pub prefix_sharing: bool,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig::unlimited()
    }
}

impl MemoryConfig {
    /// Infinite KV capacity, monolithic prefill — the exact pre-memory
    /// engine behaviour.
    pub fn unlimited() -> Self {
        MemoryConfig {
            budget: KvBudget::Unlimited,
            block_tokens: 16,
            chunk_tokens: None,
            prefix_sharing: false,
        }
    }

    /// An explicit per-chip KV byte budget.
    #[must_use]
    pub fn with_budget_bytes(mut self, bytes: Bytes) -> Self {
        self.budget = KvBudget::Bytes(bytes);
        self
    }

    /// Enables chunked prefill with `tokens`-token chunks.
    #[must_use]
    pub fn with_chunked_prefill(mut self, tokens: u64) -> Self {
        self.chunk_tokens = Some(tokens);
        self
    }

    /// Sets the paged-block granularity.
    #[must_use]
    pub fn with_block_tokens(mut self, tokens: u64) -> Self {
        self.block_tokens = tokens;
        self
    }

    /// Enables prefix sharing (copy-on-write KV blocks across requests
    /// with a common prompt head).
    #[must_use]
    pub fn with_prefix_sharing(mut self) -> Self {
        self.prefix_sharing = true;
        self
    }

    /// Checks the configuration is usable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero block or chunk size.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.block_tokens == 0 {
            return Err(Error::invalid_config("KV block size must be >= 1 token"));
        }
        if self.chunk_tokens == Some(0) {
            return Err(Error::invalid_config("prefill chunk must be >= 1 token"));
        }
        Ok(())
    }
}

/// Parses a CLI-style KV-budget argument — the grammar behind the
/// `--kv-budget` flag of `serve_sim` and `cluster_sim`:
///
/// - `unlimited` — no KV capacity limit ([`KvBudget::Unlimited`]);
/// - `hbm` — the chip's HBM capacity minus resident weights
///   ([`KvBudget::HbmMinusWeights`]);
/// - a byte count, optionally suffixed `KiB` / `MiB` / `GiB` / `TiB`
///   (e.g. `1GiB`, `64MiB`, `65536`) — an explicit cap
///   ([`KvBudget::Bytes`]).
///
/// Keywords and suffixes are case-insensitive; byte counts are the
/// shared token of [`cimtpu_units::spec::parse_bytes`].
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for anything else. Negative counts
/// and counts that overflow `u64` bytes get their own messages (they are
/// the two ways a plausible-looking number is still unusable) rather
/// than the generic grammar error.
pub fn parse_kv_budget(arg: &str) -> Result<KvBudget> {
    let t = arg.trim();
    if t.eq_ignore_ascii_case("unlimited") {
        return Ok(KvBudget::Unlimited);
    }
    if t.eq_ignore_ascii_case("hbm") {
        return Ok(KvBudget::HbmMinusWeights);
    }
    parse_bytes(t).map(KvBudget::Bytes).map_err(|e| {
        let why = match e {
            SizeError::Negative => "a KV budget cannot be negative",
            SizeError::Overflow => "overflows the u64 byte range",
            SizeError::Malformed => {
                "want 'unlimited', 'hbm', or a byte count with an optional KiB/MiB/GiB/TiB \
                 suffix (e.g. 1GiB)"
            }
        };
        Error::invalid_config(format!("bad KV budget '{arg}': {why}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited_and_valid() {
        let m = MemoryConfig::default();
        assert_eq!(m, MemoryConfig::unlimited());
        assert_eq!(m.budget, KvBudget::Unlimited);
        assert_eq!(m.chunk_tokens, None);
        m.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let m = MemoryConfig::unlimited()
            .with_budget_bytes(Bytes::from_mib(64))
            .with_block_tokens(32)
            .with_chunked_prefill(256)
            .with_prefix_sharing();
        assert_eq!(m.budget, KvBudget::Bytes(Bytes::from_mib(64)));
        assert_eq!(m.block_tokens, 32);
        assert_eq!(m.chunk_tokens, Some(256));
        assert!(m.prefix_sharing);
        assert!(!MemoryConfig::unlimited().prefix_sharing, "off by default");
        m.validate().unwrap();
    }

    #[test]
    fn rejects_zero_granularities() {
        assert!(MemoryConfig::unlimited()
            .with_block_tokens(0)
            .validate()
            .is_err());
        assert!(MemoryConfig::unlimited()
            .with_chunked_prefill(0)
            .validate()
            .is_err());
    }

    #[test]
    fn kv_budget_parsing() {
        assert_eq!(parse_kv_budget("unlimited").unwrap(), KvBudget::Unlimited);
        assert_eq!(parse_kv_budget("UNLIMITED").unwrap(), KvBudget::Unlimited);
        assert_eq!(parse_kv_budget("hbm").unwrap(), KvBudget::HbmMinusWeights);
        assert_eq!(
            parse_kv_budget("65536").unwrap(),
            KvBudget::Bytes(Bytes::from_kib(64))
        );
        assert_eq!(
            parse_kv_budget("64KiB").unwrap(),
            KvBudget::Bytes(Bytes::from_kib(64))
        );
        assert_eq!(
            parse_kv_budget("2mib").unwrap(),
            KvBudget::Bytes(Bytes::from_mib(2))
        );
        assert_eq!(
            parse_kv_budget(" 1GiB ").unwrap(),
            KvBudget::Bytes(Bytes::from_gib(1))
        );
        assert_eq!(
            parse_kv_budget("2TiB").unwrap(),
            KvBudget::Bytes(Bytes::from_gib(2048))
        );
        assert_eq!(
            parse_kv_budget(" 1tib ").unwrap(),
            KvBudget::Bytes(Bytes::from_gib(1024))
        );
        assert!(parse_kv_budget("").is_err());
        assert!(parse_kv_budget("1GB").is_err());
    }

    /// Pieces of the `--kv-budget` grammar, valid and near-miss.
    const PIECES: [&str; 14] = [
        "unlimited",
        "HBM",
        "1",
        "65536",
        "18446744073709551615",
        "-",
        "KiB",
        "gib",
        "TiB",
        "PiB",
        " ",
        ".5",
        "é",
        "",
    ];

    /// Parses `arg`: nothing panics, and every refusal is typed.
    fn check_kv_budget(arg: &str) {
        if let Err(e) = parse_kv_budget(arg) {
            assert!(
                matches!(e, Error::InvalidConfig(_)),
                "{arg:?}: untyped error {e:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Arbitrary strings (any Unicode scalar values) never panic the
        /// parser.
        #[test]
        fn parse_kv_budget_survives_arbitrary_strings(
            chars in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..16),
        ) {
            let arg: String = chars
                .iter()
                .map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}'))
                .collect();
            check_kv_budget(&arg);
        }

        /// Near-grammar strings glued from keywords, counts and suffixes.
        #[test]
        fn parse_kv_budget_survives_near_grammar_strings(
            picks in proptest::collection::vec(0..PIECES.len(), 0..4),
        ) {
            check_kv_budget(&picks.iter().map(|&i| PIECES[i]).collect::<String>());
        }
    }

    #[test]
    fn kv_budget_negative_and_overflow_are_typed() {
        let msg = |arg: &str| parse_kv_budget(arg).unwrap_err().to_string();
        assert!(msg("-3").contains("cannot be negative"), "{}", msg("-3"));
        assert!(
            msg("-1GiB").contains("cannot be negative"),
            "{}",
            msg("-1GiB")
        );
        // Digit-string overflow of u64 itself…
        assert!(msg("99999999999999999999GiB").contains("overflows"));
        // …and value overflow from the suffix shift (dropped high bits) are
        // both rejected as overflow, not wrapped and not a grammar error.
        assert!(msg("18446744073709551615GiB").contains("overflows"));
        assert!(msg("16777216TiB").contains("overflows"));
        // Junk stays the generic grammar error.
        assert!(msg("1PiB").contains("optional KiB/MiB/GiB/TiB suffix"));
    }
}
