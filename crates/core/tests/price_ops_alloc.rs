//! Heap allocations of warm operator pricing.
//!
//! A counting global allocator tallies the allocations made on the test's
//! own thread. Once the mapping cache holds every matrix operator of a
//! GPT-3-30B decode layer, pricing that layer again through
//! `Simulator::price_ops` must not touch the heap: it sums operator costs
//! and builds no per-operator report.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cimtpu_core::{Simulator, TpuConfig};
use cimtpu_models::presets;

/// Forwards to [`System`], counting this thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn warm_price_ops_does_not_allocate() {
    let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
    for cfg in [TpuConfig::tpuv4i(), TpuConfig::design_a()] {
        let sim = Simulator::new(cfg).unwrap();
        // The cold pass fills the mapping cache.
        let cold = sim.price_ops(layer.ops()).unwrap();
        let before = allocations();
        let warm = sim.price_ops(layer.ops()).unwrap();
        let made = allocations() - before;
        assert_eq!(
            made,
            0,
            "{}: warm price_ops made {made} allocations",
            sim.config().name()
        );
        assert_eq!(warm, cold);
    }
}
