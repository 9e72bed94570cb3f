//! Peak live heap of open-loop fleet runs, per offered request.
//!
//! A counting global allocator tracks the bytes live on the heap and
//! their high-water mark. Each fleet serves the same traffic shape at
//! two lengths; the difference of the two peaks over the difference of
//! the request counts is what one more offered request costs at the
//! peak, with every fixed cost (pricing memos, engine state, the test
//! harness) cancelled out. Allocation sizes do not depend on timing, so
//! the figures are deterministic.
//!
//! What a request has to cost: the 40 B completion the run returns, plus
//! one 8 B sample in the report's percentile buffer. The arrival stream
//! draws requests as they are served, so it adds nothing per request. A
//! colocated core also keeps each completion's 8 B finish time for the
//! whole run (its in-flight counts read them); the completion itself
//! leaves the core for the driver's list as soon as its step produced it.
//!
//! A multi-tenant run also holds its merged trace, one 40 B record per
//! offered request, for the whole run: the arrival stream replays it by
//! index, and completions, which carry no tenant, find theirs in it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use cimtpu_cluster::{
    ClusterEngine, InterconnectSpec, ReplicaSpec, RouterPolicy, SloClass, TenantSet, TenantSpec,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, MemoryConfig, Offered, PrefixTraffic, ServingModel,
    TrafficSpec,
};
use cimtpu_units::Bytes;

/// Forwards to [`System`], counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Offered-request counts the slope is taken between.
const SHORT: u64 = 20_000;
const LONG: u64 = 40_000;

fn tiny(name: String, max_batch: u64) -> ReplicaSpec {
    let model = ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
    ReplicaSpec::new(name, TpuConfig::tpuv4i(), model)
        .with_policy(BatchPolicy::Continuous { max_batch })
}

fn open_loop(requests: u64, rate_rps: f64) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival: ArrivalPattern::OpenLoop { rate_rps },
        prompt: LenDist::Uniform { lo: 16, hi: 64 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed: 49_568,
    }
}

/// Peak live heap, above what was live before, of one run of `engine`
/// over `offered` requests of `load` (the returned run included).
fn peak_of<'t>(engine: &ClusterEngine, load: impl Into<Offered<'t>>, offered: u64) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let run = engine.run("heap", load).unwrap();
    assert_eq!(run.report.completed, offered);
    drop(run);
    PEAK.load(Relaxed) - base
}

/// Peak-heap bytes per offered request between [`SHORT`] and [`LONG`].
fn slope(engine: &ClusterEngine, rate_rps: f64) -> f64 {
    let short = peak_of(engine, &open_loop(SHORT, rate_rps), SHORT);
    let long = peak_of(engine, &open_loop(LONG, rate_rps), LONG);
    (long as f64 - short as f64) / (LONG - SHORT) as f64
}

/// Two tenants, interactive and batch, splitting `requests` evenly at
/// `rate_rps` each.
fn two_tenants(requests: u64, rate_rps: f64) -> TenantSet {
    let tenant = |name, class, seed| {
        let traffic = TrafficSpec {
            seed,
            ..open_loop(requests / 2, rate_rps)
        };
        TenantSpec::new(name, class, 1.0, traffic)
    };
    TenantSet::new(vec![
        tenant("chat", SloClass::Interactive, 1),
        tenant("bulk", SloClass::Batch, 2),
    ])
    .unwrap()
}

/// [`slope`] of a two-tenant load at `rate_rps` per tenant.
fn tenant_slope(engine: &ClusterEngine, rate_rps: f64) -> f64 {
    let short = peak_of(engine, &two_tenants(SHORT, rate_rps), SHORT);
    let long = peak_of(engine, &two_tenants(LONG, rate_rps), LONG);
    (long as f64 - short as f64) / (LONG - SHORT) as f64
}

#[test]
fn open_loop_peak_heap_per_request_is_bounded() {
    // The `disagg-kv` benchmark fleet: 2 prefill + 4 decode tiny
    // replicas, 256 KiB of decode KV, open loop past its KV capacity.
    let kv = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(256))
        .with_block_tokens(16);
    let disagg = ClusterEngine::disaggregated(
        (0..2).map(|i| tiny(format!("prefill-{i}"), 4)).collect(),
        (0..4)
            .map(|i| tiny(format!("decode-{i}"), 8).with_memory(kv))
            .collect(),
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastKv,
        InterconnectSpec::ici(),
    )
    .unwrap();
    let colocated = ClusterEngine::colocated(
        (0..4).map(|i| tiny(format!("replica-{i}"), 8)).collect(),
        RouterPolicy::LeastOutstanding,
    )
    .unwrap();

    let disagg_slope = slope(&disagg, 120_000.0);
    let colocated_slope = slope(&colocated, 60_000.0);
    // The same fleet and total rate, split across two tenants. (One test,
    // so no other test's allocations run alongside the counting.)
    let tenant_slope = tenant_slope(&colocated, 30_000.0);
    println!(
        "peak heap per offered request: disaggregated {disagg_slope:.1} B, \
         colocated {colocated_slope:.1} B, two-tenant colocated {tenant_slope:.1} B"
    );
    // The completion (40 B) and one percentile sample (8 B), with slack.
    assert!(
        disagg_slope <= 56.0,
        "disaggregated fleet: {disagg_slope:.1} B per request"
    );
    // The completion (40 B), the percentile sample (8 B) and the core's
    // finish time (8 B), with slack.
    assert!(
        colocated_slope <= 64.0,
        "colocated fleet: {colocated_slope:.1} B per request"
    );
    // The colocated costs plus the merged trace's 40 B record, with the
    // same slack. Nothing else is kept per request: a completion finds its
    // tenant in that record.
    assert!(
        tenant_slope <= 104.0,
        "two-tenant colocated fleet: {tenant_slope:.1} B per request"
    );
}
