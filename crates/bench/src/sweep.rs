//! Parallel design-space sweep driver: the experiments fan their
//! independent design points out on the [`cimtpu_units::pool`] worker
//! pool, re-exported here, one memoized
//! [`Simulator`](cimtpu_core::Simulator) per worker. [`SweepMode`]
//! selects that fast path or the sequential, uncached reference it is
//! checked against.

use cimtpu_units::pool::map_with_workers;
pub(crate) use cimtpu_units::pool::{available_workers, parallel_map, parallel_map_init};

/// How a sweep executes: the production fast path or the reference path
/// the fast path is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum SweepMode {
    /// Parallel fan-out with memoized simulators (the default).
    #[default]
    Parallel,
    /// One worker, mapping caches disabled: the pre-optimization baseline.
    /// Produces bit-identical results to [`SweepMode::Parallel`]; only the
    /// tests that check the fast path run it.
    #[cfg(test)]
    SequentialUncached,
}

impl SweepMode {
    /// Whether simulators created for this sweep should memoize pricing.
    pub(crate) fn cache_enabled(self) -> bool {
        self == SweepMode::Parallel
    }

    /// The worker count this mode allows for `items` work items.
    pub(crate) fn workers_for(self, items: usize) -> usize {
        match self {
            SweepMode::Parallel => available_workers().min(items).max(1),
            #[cfg(test)]
            SweepMode::SequentialUncached => 1,
        }
    }
}

/// [`parallel_map_init`] with the worker count of `mode` (see
/// [`SweepMode::workers_for`]).
pub(crate) fn map_with_mode<T, S, R, I, F>(mode: SweepMode, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    map_with_workers(items, mode.workers_for(items.len()), init, f)
}

#[cfg(test)]
mod tests {
    //! The worker pool's contract, through the re-exports, and the modes.
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = parallel_map(&[] as &[u64], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn init_runs_at_most_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map_init(
            &items,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0u64
            },
            |state, &x| {
                *state += 1;
                x
            },
        );
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= available_workers().min(items.len()));
    }

    #[test]
    fn sequential_mode_uses_one_worker() {
        assert_eq!(SweepMode::SequentialUncached.workers_for(100), 1);
        assert!(!SweepMode::SequentialUncached.cache_enabled());
        assert!(SweepMode::Parallel.cache_enabled());
        let items: Vec<u64> = (0..10).collect();
        let out = map_with_mode(SweepMode::SequentialUncached, &items, || (), |(), &x| x + 1);
        assert_eq!(out, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn errors_pass_through_as_results() {
        let items = [1u64, 0, 3];
        let out = parallel_map(&items, |&x| if x == 0 { Err("zero") } else { Ok(x) });
        assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
    }
}
