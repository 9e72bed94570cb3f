//! Multi-tenant scheduling invariants at the single-engine level:
//!
//! 1. **Conservation.** The engine sheds nothing: every request a tenant
//!    offers completes, and the per-tenant ledger partitions the run's
//!    totals exactly — across batching policies, tenant mixes, and seeds.
//! 2. **Single-tenant anchor.** A 1-tenant set reproduces the plain
//!    `run()` report bit-for-bit, with only the tenants section added.
//! 3. **Weighted-fair service.** Same-class tenants under a saturating
//!    burst are served in deficit-weighted order: at every completion
//!    prefix the weighted request counts stay within one quantum.
//! 4. **SLO-aware preemption.** Under KV pressure, batch-tier residents
//!    absorb every eviction; interactive tenants are never preempted.
//! 5. **`--tenants` parsing is total.** `parse_tenants` never panics, and
//!    every spec it accepts either overlays into a tenant set or is
//!    refused there with a typed error.

use cimtpu_core::TpuConfig;
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    parse_tenants, ArrivalPattern, BatchPolicy, LenDist, MemoryConfig, Parallelism, PrefixTraffic,
    ServingEngine, ServingModel, ServingRun, SloClass, TenantSet, TenantSpec, TrafficSpec,
};
use cimtpu_units::{Bytes, Error};
use proptest::prelude::*;

fn tiny() -> ServingModel {
    ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap())
}

fn engine(policy: BatchPolicy) -> ServingEngine {
    ServingEngine::new(
        TpuConfig::tpuv4i(),
        tiny(),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap()
}

fn open_loop(requests: u64, rate_rps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival: ArrivalPattern::OpenLoop { rate_rps },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 4, hi: 8 },
        prefix: PrefixTraffic::None,
        seed,
    }
}

const POLICIES: [BatchPolicy; 3] = [
    BatchPolicy::Static { batch: 4 },
    BatchPolicy::Dynamic {
        max_batch: 4,
        max_wait_ms: 0.05,
    },
    BatchPolicy::Continuous { max_batch: 4 },
];

/// Tenant of each completion, by id, from the merged trace (completions
/// carry no tenancy; the merged spec's request list does).
fn tenants_by_id(set: &TenantSet) -> Vec<u32> {
    let merged = set.merged_spec().unwrap();
    let mut out = vec![0u32; merged.requests as usize];
    for r in merged.generate() {
        out[r.id as usize] = r.tenant;
    }
    out
}

#[test]
fn single_tenant_set_is_bit_identical_to_plain_run() {
    for policy in POLICIES {
        let traffic = open_loop(16, 4_000.0, 7);
        let plain = engine(policy).run("anchor", &traffic).unwrap();
        let set = TenantSet::new(vec![TenantSpec::new(
            "only",
            SloClass::Standard,
            1.0,
            traffic.clone(),
        )])
        .unwrap();
        let tenanted = engine(policy).run("anchor", &set).unwrap();
        assert_eq!(tenanted.completions, plain.completions, "{}", policy.name());
        let mut stripped = tenanted.report.clone();
        let t = stripped
            .tenants
            .take()
            .expect("tenanted run reports tenants");
        assert_eq!(stripped, plain.report, "{}", policy.name());
        // The section itself is the trivial partition.
        assert_eq!(t.tenants.len(), 1);
        assert_eq!(t.tenants[0].offered, 16);
        assert_eq!(t.tenants[0].completed, plain.report.completed);
        assert_eq!(t.fairness, 1.0);
    }
}

#[test]
fn weighted_fair_admission_stays_within_one_quantum() {
    // Two same-class tenants, weights 3:1, identical fixed-size requests,
    // all arriving at t = 0: deficit-WFQ must interleave admissions so
    // that at every point the weighted served counts agree to within one
    // request quantum. Fixed sizes make completion order the admission
    // order.
    let fixed = |seed| TrafficSpec {
        requests: 12,
        arrival: ArrivalPattern::Burst,
        prompt: LenDist::Fixed(16),
        steps: LenDist::Fixed(4),
        prefix: PrefixTraffic::None,
        seed,
    };
    let set = TenantSet::new(vec![
        TenantSpec::new("heavy", SloClass::Standard, 3.0, fixed(1)),
        TenantSpec::new("light", SloClass::Standard, 1.0, fixed(2)),
    ])
    .unwrap();
    let run = engine(BatchPolicy::Continuous { max_batch: 2 })
        .run("wfq", &set)
        .unwrap();
    assert_eq!(run.report.completed, 24);
    let who = tenants_by_id(&set);
    let mut done = run.completions.clone();
    done.sort_by(|a, b| {
        a.finish
            .partial_cmp(&b.finish)
            .unwrap()
            .then(a.id.cmp(&b.id))
    });
    let (mut heavy, mut light) = (0u64, 0u64);
    for c in &done {
        if who[c.id as usize] == 0 {
            heavy += 1;
        } else {
            light += 1;
        }
        // While both tenants still have queued work, the weighted counts
        // track each other within one quantum (the larger 1/weight).
        if heavy < 12 && light < 12 {
            let gap = (heavy as f64 / 3.0 - light as f64).abs();
            assert!(
                gap <= 1.0 + 1e-9,
                "weighted service gap {gap} after {heavy}h/{light}l"
            );
        }
    }
    // The 3:1 weights show up as 3:1 service while both are backlogged:
    // by the time the light tenant has finished 4, the heavy one has
    // finished at least 9.
    let t = run.report.tenants.as_ref().unwrap();
    assert_eq!(t.tenants[0].completed, 12);
    assert_eq!(t.tenants[1].completed, 12);
}

#[test]
fn preemption_evicts_batch_before_interactive() {
    // The smoke-kv recipe (64 KiB budget, 16-token blocks) forces KV
    // evictions; with an interactive and a batch tenant resident, every
    // preemption must land on the batch tenant.
    let tight = MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(64))
        .with_block_tokens(16);
    let loop_at = |rate, seed| TrafficSpec {
        requests: 12,
        arrival: ArrivalPattern::OpenLoop { rate_rps: rate },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix: PrefixTraffic::None,
        seed,
    };
    let set = TenantSet::new(vec![
        TenantSpec::new("chat", SloClass::Interactive, 1.0, loop_at(20_000.0, 3)),
        TenantSpec::new("bulk", SloClass::Batch, 1.0, loop_at(20_000.0, 4)),
    ])
    .unwrap();
    let run = engine(BatchPolicy::Continuous { max_batch: 4 })
        .with_memory(tight)
        .run("evict", &set)
        .unwrap();
    assert_eq!(
        run.report.completed, 24,
        "tight KV delays but loses nothing"
    );
    let t = run.report.tenants.as_ref().unwrap();
    let chat = &t.tenants[0];
    let bulk = &t.tenants[1];
    assert!(run.report.preemptions >= 1, "recipe must provoke evictions");
    assert_eq!(
        chat.preemptions, 0,
        "interactive resident was evicted: {t:?}"
    );
    assert_eq!(
        bulk.preemptions, run.report.preemptions,
        "ledger conserves preemptions"
    );
}

fn conservation(run: &ServingRun) {
    let t = run
        .report
        .tenants
        .as_ref()
        .expect("multi-tenant run reports tenants");
    let mut offered = 0;
    let mut completed = 0;
    for u in &t.tenants {
        // No faults at the engine level: everything offered completes.
        assert_eq!(u.offered, u.completed + u.shed + u.timed_out);
        assert_eq!(u.shed + u.timed_out, 0);
        offered += u.offered;
        completed += u.completed;
    }
    assert_eq!(offered, run.report.offered);
    assert_eq!(completed, run.report.completed);
    assert!(
        t.fairness > 0.0 && t.fairness <= 1.0 + 1e-12,
        "fairness {}",
        t.fairness
    );
    let share: f64 = t.tenants.iter().map(|u| u.service_share).sum();
    assert!((share - 1.0).abs() < 1e-9, "service shares sum to {share}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-tenant conservation holds for every batching policy across
    /// seeds, weights, and a three-tier tenant mix — and the run replays
    /// deterministically.
    #[test]
    fn conservation_across_policies_randomized(
        seed in 0u64..1000,
        w in 1u64..8,
        rate in 2_000.0f64..20_000.0,
    ) {
        let set = TenantSet::new(vec![
            TenantSpec::new("chat", SloClass::Interactive, w as f64, open_loop(8, rate, seed)),
            TenantSpec::new("api", SloClass::Standard, 1.0, open_loop(8, rate, seed + 1)),
            TenantSpec::new("bulk", SloClass::Batch, 2.0, open_loop(8, rate / 2.0, seed + 2)),
        ]).unwrap();
        for policy in POLICIES {
            let run = engine(policy).run("conserve", &set).unwrap();
            conservation(&run);
            let again = engine(policy).run("conserve", &set).unwrap();
            prop_assert_eq!(&run.report, &again.report);
            prop_assert_eq!(&run.completions, &again.completions);
        }
    }
}

/// Pieces of the `name=class[:weight[:slo_ms]]` grammar, each list
/// mixing valid values with near misses: empty fields, a wrong-case
/// class, and numbers `f64` parses to zero, negatives, NaN and infinity.
const NAMES: [&str; 5] = ["chat", "bulk", "", " a ", "é"];
const EQUALS: [&str; 5] = ["=", "=", "=", "", "=="];
const CLASSES: [&str; 7] = [
    "interactive",
    "standard",
    "batch",
    "batch",
    "standard",
    "Batch",
    "",
];
const NUMBERS: [&str; 10] = ["1", "2.5", "250", "1", "0", "-1", "nan", "inf", "1e309", ""];
const COMMAS: [&str; 3] = [",", ", ", ",,"];

/// One near-grammar spec: each `u64` draws one entry's pieces (and up to
/// three `:number` fields) digit by digit.
fn near_grammar(draws: &[u64]) -> String {
    let mut spec = String::new();
    for &d in draws {
        let pick = |list: &[&'static str], at: u32| list[(d / 10u64.pow(at)) as usize % list.len()];
        spec += pick(&NAMES, 0);
        spec += pick(&EQUALS, 1);
        spec += pick(&CLASSES, 2);
        for field in 0..(d / 1_000) % 4 {
            spec += ":";
            spec += pick(&NUMBERS, 4 + field as u32);
        }
        spec += pick(&COMMAS, 8);
    }
    spec
}

/// Parses `spec`; an accepted spec must overlay a 12-request base into
/// one tenant per part, or be refused there with a typed error.
fn check_tenant_spec(spec: &str) {
    let parts = match parse_tenants(spec) {
        Ok(parts) => parts,
        Err(Error::InvalidConfig(_)) => return,
        Err(e) => panic!("{spec:?}: untyped parse error {e:?}"),
    };
    assert!(!parts.is_empty(), "{spec:?}: accepted with no tenants");
    match TenantSet::overlay(&open_loop(12, 4_000.0, 1), &parts) {
        Ok(set) => {
            assert_eq!(set.tenants.len(), parts.len(), "{spec:?}");
            let merged = set.merged_spec().unwrap();
            assert!(merged
                .generate()
                .iter()
                .all(|r| (r.tenant as usize) < parts.len()));
        }
        Err(Error::InvalidConfig(_)) => {}
        Err(e) => panic!("{spec:?}: untyped overlay error {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary strings (any Unicode scalar values) never panic the
    /// parser.
    #[test]
    fn parse_tenants_survives_arbitrary_strings(
        chars in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        let spec: String =
            chars.iter().map(|&c| char::from_u32(c % 0x11_0000).unwrap_or('\u{fffd}')).collect();
        check_tenant_spec(&spec);
    }

    /// Near-grammar strings: entries built from valid and near-miss
    /// pieces.
    #[test]
    fn parse_tenants_survives_near_grammar_strings(
        draws in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        check_tenant_spec(&near_grammar(&draws));
    }
}
