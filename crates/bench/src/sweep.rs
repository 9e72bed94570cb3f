//! Parallel design-space sweep driver.
//!
//! The paper's experiments fan the same evaluation over many independent
//! design points (hardware configurations, batch sizes, context lengths).
//! This module provides the std-only work-stealing fan-out used by every
//! sweep binary: [`parallel_map`] and [`parallel_map_init`] mirror rayon's
//! `par_iter().map()` / `map_init()` idioms over `std::thread::scope`
//! (rayon itself is gated out — the build environment has no registry
//! access, and the scoped-thread implementation needs no dependencies).
//!
//! Each worker owns its per-worker state — typically one
//! [`Simulator`](cimtpu_core::Simulator) per design point, whose
//! [`MappingCache`](cimtpu_core::MappingCache) then serves every repeated
//! operator query on that worker. Results always return in item order, so
//! parallel sweeps are output-identical to sequential ones.
//!
//! # The `CIMTPU_WORKERS` environment variable
//!
//! `CIMTPU_WORKERS=<n>` caps the worker count for every pool in the
//! process (`1` forces a sequential run); unset, pools size to
//! `std::thread::available_parallelism`. Values below 1 are clamped
//! to 1. Drivers with a command line (`repro_all`, `serve_sim`) expose
//! the same knob as `--workers N`, which simply overrides the variable —
//! child processes spawned by `repro_all` inherit it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How a sweep executes: the production fast path or the reference path
/// the fast path is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepMode {
    /// Parallel fan-out with memoized simulators (the default).
    #[default]
    Parallel,
    /// One worker, mapping caches disabled: the pre-optimization baseline.
    /// Produces bit-identical results to [`SweepMode::Parallel`].
    SequentialUncached,
}

impl SweepMode {
    /// Whether simulators created for this sweep should memoize pricing.
    pub fn cache_enabled(self) -> bool {
        self == SweepMode::Parallel
    }

    /// The worker count this mode allows for `items` work items.
    pub fn workers_for(self, items: usize) -> usize {
        match self {
            SweepMode::Parallel => available_workers().min(items).max(1),
            SweepMode::SequentialUncached => 1,
        }
    }
}

/// Worker threads available to sweeps (`CIMTPU_WORKERS` overrides the
/// detected CPU parallelism).
pub fn available_workers() -> usize {
    if let Some(n) = std::env::var("CIMTPU_WORKERS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
    {
        return n.max(1);
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Maps `f` over `items` on a worker pool, preserving item order.
///
/// Equivalent to rayon's `items.par_iter().map(f).collect()`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_init(items, || (), |(), item| f(item))
}

/// Maps `f` over `items` with per-worker state, preserving item order.
///
/// `init` runs once per worker thread; the resulting state is threaded
/// through every item that worker steals. This is the hook for "one warm
/// simulator per worker": the state's mapping cache accumulates across the
/// worker's share of the sweep. Equivalent to rayon's
/// `par_iter().map_init(init, f)`.
pub fn parallel_map_init<T, S, R, I, F>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    map_with_workers(items, available_workers(), &init, &f)
}

/// [`parallel_map_init`] with the worker count of `mode` (see
/// [`SweepMode::workers_for`]).
pub fn map_with_mode<T, S, R, I, F>(mode: SweepMode, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    map_with_workers(items, mode.workers_for(items.len()), &init, &f)
}

/// The worker pool every public entry point delegates to: work-stealing
/// over an atomic cursor, per-worker `init` state, results in item order.
fn map_with_workers<T, S, R, I, F>(items: &[T], workers: usize, init: &I, f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let n = items.len();
    let workers = workers.min(n).max(1);
    if workers == 1 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        // Work stealing: each worker grabs the next
                        // unclaimed item, so uneven per-item cost balances
                        // automatically.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(&mut state, &items[i])));
                    }
                })
            })
            .collect();
        for handle in handles {
            let done = handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every item is claimed once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
        let out = parallel_map(&items, |&x| {
            if x == 0 { Err("zero") } else { Ok(x) }
        });
        assert_eq!(out, vec![Ok(1), Err("zero"), Ok(3)]);
    }
}
