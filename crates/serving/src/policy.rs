//! Batching policies: how queued requests are grouped onto a chip.

use serde::{Deserialize, Serialize};

/// How the scheduler forms batches from the request queue.
///
/// See the [crate-level documentation](crate) for the full semantics of
/// each policy; in brief:
///
/// - **Static** — wait for exactly `batch` requests (stream tail may be
///   smaller), run the batch to completion with slot padding;
/// - **Dynamic** — take what has queued (bounded by `max_batch` /
///   `max_wait_ms`), run to completion, shrinking as requests finish;
/// - **Continuous** — admit and retire requests between individual decode
///   steps, the vLLM/Orca-style policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BatchPolicy {
    /// Fixed-size batches, run to completion with padding.
    Static {
        /// Exact batch size to wait for.
        batch: u64,
    },
    /// Arrival-window batches, run to completion without padding.
    Dynamic {
        /// Largest batch the scheduler will form.
        max_batch: u64,
        /// Longest time the oldest queued request waits before the batch
        /// launches anyway, in milliseconds.
        max_wait_ms: f64,
    },
    /// Step-granular continuous batching of decode steps.
    Continuous {
        /// Largest number of concurrently active requests per chip.
        max_batch: u64,
    },
}

impl BatchPolicy {
    /// The policy's short name (used in reports and CLI output).
    pub fn name(&self) -> &'static str {
        match self {
            BatchPolicy::Static { .. } => "static",
            BatchPolicy::Dynamic { .. } => "dynamic",
            BatchPolicy::Continuous { .. } => "continuous",
        }
    }

    /// Upper bound on concurrent requests per chip under this policy.
    pub fn max_concurrency(&self) -> u64 {
        match *self {
            BatchPolicy::Static { batch } => batch.max(1),
            BatchPolicy::Dynamic { max_batch, .. } | BatchPolicy::Continuous { max_batch } => {
                max_batch.max(1)
            }
        }
    }

    /// Whether finished requests keep occupying their slot (padding) until
    /// the whole batch completes.
    pub(crate) fn pads_to_batch_end(&self) -> bool {
        matches!(self, BatchPolicy::Static { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_bounds() {
        assert_eq!(BatchPolicy::Static { batch: 8 }.name(), "static");
        assert_eq!(BatchPolicy::Static { batch: 8 }.max_concurrency(), 8);
        assert_eq!(
            BatchPolicy::Dynamic {
                max_batch: 4,
                max_wait_ms: 10.0
            }
            .max_concurrency(),
            4
        );
        assert_eq!(
            BatchPolicy::Continuous { max_batch: 0 }.max_concurrency(),
            1
        );
        assert!(BatchPolicy::Static { batch: 2 }.pads_to_batch_end());
        assert!(!BatchPolicy::Continuous { max_batch: 2 }.pads_to_batch_end());
    }
}
