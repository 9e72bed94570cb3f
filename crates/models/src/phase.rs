//! Execution phases: the serving-level structure of a workload.
//!
//! Operators describe *what* runs; phases describe *when* it runs in the
//! life of an inference request. A request-level scheduler batches and
//! interleaves work at phase granularity (prefill of one request between
//! decode steps of others, conditioning once per diffusion step), so every
//! workload builder tags its operator segments with a [`Phase`].

use std::fmt;

use serde::{Deserialize, Serialize};

/// The serving phase a workload segment belongs to.
///
/// Phases are orthogonal to [`OpCategory`](crate::OpCategory): categories
/// bucket operators for the paper's per-layer figures, phases bucket
/// *segments* for request-level scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Phase {
    /// Prompt ingestion (and other dense, compute-bound forward passes,
    /// e.g. a DiT block's attention/MLP work).
    Prefill,
    /// Auto-regressive token generation at GEMV-shaped intensity.
    Decode,
    /// DiT adaLN conditioning: per-image shift/scale/gate regression.
    Conditioning,
    /// Pre/post-processing around the model body: embedding lookups,
    /// patchify, prediction heads, un-patchify.
    PrePost,
    /// Cross-device communication (all-reduce, all-gather). Reserved for
    /// workloads that embed [`Op::AllReduce`](crate::Op::AllReduce)
    /// operators; the built-in tensor-parallel builders currently price
    /// ring collectives through the topology model *outside* the operator
    /// list, so none of them emits this phase yet.
    Collective,
}

impl Phase {
    /// All phases, in canonical reporting order.
    #[cfg(test)]
    pub(crate) const ALL: [Phase; 5] = [
        Phase::Prefill,
        Phase::Decode,
        Phase::Conditioning,
        Phase::PrePost,
        Phase::Collective,
    ];

    /// Human-readable label.
    pub(crate) const fn label(self) -> &'static str {
        match self {
            Phase::Prefill => "Prefill",
            Phase::Decode => "Decode",
            Phase::Conditioning => "Conditioning",
            Phase::PrePost => "Pre/Post",
            Phase::Collective => "Collective",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len());
    }
}
