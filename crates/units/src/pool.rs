//! The std-only worker pool behind every parallel fan-out in the
//! workspace: the paper's design-space sweeps and the simulation
//! binaries' scenario runs.
//!
//! [`parallel_map`] and [`parallel_map_init`] mirror rayon's
//! `par_iter().map()` / `map_init()` over `std::thread::scope` (the build
//! has no registry access). Each worker owns its `init` state, typically
//! one memoizing simulator, and results return in item order, so a
//! parallel run is output-identical to a sequential one.
//!
//! `CIMTPU_WORKERS=<n>` caps the worker count of every pool in the
//! process (`1` runs sequentially, values below 1 count as 1); unset,
//! pools size to `std::thread::available_parallelism`. `repro_all`,
//! `serve_sim` and `cluster_sim` set it from `--workers N`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads available to a pool (`CIMTPU_WORKERS` overrides the
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
    map_with_workers(items, available_workers(), init, f)
}

/// [`parallel_map_init`] on at most `workers` threads: work-stealing
/// over an atomic cursor, per-worker `init` state, results in item order.
/// One worker runs on the calling thread.
pub fn map_with_workers<T, S, R, I, F>(items: &[T], workers: usize, init: I, f: F) -> Vec<R>
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

    let (init, f) = (&init, &f);
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
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item is claimed once"))
        .collect()
}
