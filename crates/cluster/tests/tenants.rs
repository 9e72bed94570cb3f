//! Fleet-level multi-tenancy invariants:
//!
//! 1. **Single-tenant anchor.** A 1-tenant set dispatches to the same
//!    drivers as the plain run and reproduces its report bit-for-bit —
//!    on colocated and disaggregated topologies alike — with only the
//!    tenants section added.
//! 2. **Conservation.** The per-tenant ledger partitions the fleet
//!    totals exactly: `offered == completed + shed + timed_out` per
//!    tenant, and the sums match the report (and its availability
//!    section) — across router policies, chaos fault plans, both
//!    topologies, and an elastic autoscaled fleet.
//! 3. **Tenant-tagged traces.** Flight-recorder lifecycle events carry a
//!    tenant tag exactly when the run is multi-tenant; single-tenant
//!    traces stay byte-compatible with pre-tenancy ones.
//! 4. **Untenanted runs ignore tags.** Without a tenant set every request
//!    is scheduled as the one tenant, so a tenant-tagged trace replays
//!    exactly like the same trace with every tag zeroed.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use cimtpu_autoscale::{AutoscalePolicy, GroupPolicy};
use cimtpu_cluster::{
    ChaosSpec, ClusterEngine, ClusterRun, EventKind, FaultEvent, FaultPlan, InterconnectSpec,
    Recorder, RecoveryPolicy, ReplicaSpec, RouterPolicy, SharedRecorder, SloClass, TenantSet,
    TenantSpec,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::scenario::Scenario;
use cimtpu_serving::{
    parse_jsonl, replay_spec, synthesize, to_jsonl, ArrivalPattern, BatchPolicy, LenDist,
    PrefixTraffic, ServingModel, TraceRecord, TrafficSpec,
};
use cimtpu_units::Seconds;

fn tiny() -> ServingModel {
    ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
}

fn spec(name: &str) -> ReplicaSpec {
    ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny())
        .with_policy(BatchPolicy::Continuous { max_batch: 4 })
}

fn colocated(policy: RouterPolicy, faults: FaultPlan) -> ClusterEngine {
    ClusterEngine::colocated(vec![spec("t-0"), spec("t-1")], policy)
        .unwrap()
        .with_faults(faults)
}

fn disagg(faults: FaultPlan) -> ClusterEngine {
    ClusterEngine::disaggregated(
        vec![spec("p-0")],
        vec![spec("d-0"), spec("d-1")],
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastKv,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .with_faults(faults)
}

fn open(requests: u64, rate_rps: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival: ArrivalPattern::OpenLoop { rate_rps },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed,
    }
}

fn three_tenants(seed: u64, rate: f64) -> TenantSet {
    TenantSet::new(vec![
        TenantSpec::new("chat", SloClass::Interactive, 2.0, open(8, rate, seed)),
        TenantSpec::new("api", SloClass::Standard, 1.0, open(8, rate, seed + 1)),
        TenantSpec::new("bulk", SloClass::Batch, 1.0, open(8, rate / 2.0, seed + 2)),
    ])
    .unwrap()
}

fn chaos(fault_seed: u64) -> FaultPlan {
    FaultPlan::seeded(fault_seed).with_chaos(ChaosSpec {
        crashes: 2,
        window: (Seconds::new(0.000_2), Seconds::new(0.003)),
        repair: Seconds::new(0.002),
    })
}

/// The ledger partitions the fleet totals exactly — including shed and
/// timed-out work under faults.
fn assert_tenant_conservation(run: &ClusterRun) {
    let t = run
        .report
        .tenants
        .as_ref()
        .expect("multi-tenant run reports tenants");
    let (mut offered, mut completed, mut shed, mut timed_out) = (0, 0, 0, 0);
    for u in &t.tenants {
        assert_eq!(
            u.offered,
            u.completed + u.shed + u.timed_out,
            "tenant {} leaks requests: {u:?}",
            u.name
        );
        offered += u.offered;
        completed += u.completed;
        shed += u.shed;
        timed_out += u.timed_out;
    }
    assert_eq!(offered, run.report.offered);
    assert_eq!(completed, run.report.completed);
    match run.report.availability.as_ref() {
        Some(a) => {
            assert_eq!(
                shed, a.shed,
                "ledger and availability disagree on shed work"
            );
            assert_eq!(timed_out, a.timed_out);
        }
        None => assert_eq!(shed + timed_out, 0, "zero-fault run lost work"),
    }
    assert!(
        t.fairness > 0.0 && t.fairness <= 1.0 + 1e-12,
        "fairness {}",
        t.fairness
    );
}

#[test]
fn single_tenant_set_matches_plain_run_bit_for_bit() {
    let traffic = open(16, 4_000.0, 0xA11);
    let solo = |traffic: &TrafficSpec| {
        TenantSet::new(vec![TenantSpec::new(
            "only",
            SloClass::Standard,
            1.0,
            traffic.clone(),
        )])
        .unwrap()
    };
    let fleets = [
        colocated(RouterPolicy::RoundRobin, FaultPlan::none()),
        colocated(RouterPolicy::LeastOutstanding, FaultPlan::none()),
        colocated(RouterPolicy::SloAware, FaultPlan::none()),
        colocated(RouterPolicy::LeastOutstanding, chaos(7)),
        disagg(FaultPlan::none()),
        disagg(chaos(7)),
    ];
    for fleet in fleets {
        let plain = fleet.run("anchor", &traffic).unwrap();
        let tenanted = fleet.run("anchor", &solo(&traffic)).unwrap();
        assert_eq!(tenanted.completions, plain.completions);
        let mut stripped = tenanted.report.clone();
        let t = stripped
            .tenants
            .take()
            .expect("tenanted run reports tenants");
        assert_eq!(stripped, plain.report);
        assert_eq!(t.tenants.len(), 1);
        assert_eq!(t.fairness, 1.0);
    }
}

#[test]
fn autoscaled_tenants_conserve_and_replay() {
    let policy = AutoscalePolicy {
        interval: Seconds::new(0.001),
        provision: Seconds::new(0.001),
        warmup: Seconds::new(0.000_5),
        ..AutoscalePolicy::new(vec![GroupPolicy {
            min: 0,
            max: 3,
            initial: 1,
            concurrency: 4,
            up_cooldown: Seconds::new(0.001),
            down_cooldown: Seconds::new(0.002),
            ..GroupPolicy::default()
        }])
    };
    let engine = ClusterEngine::colocated(vec![spec("e")], RouterPolicy::LeastOutstanding)
        .unwrap()
        .with_slo_ms(2.0)
        .with_autoscale(policy);
    let set = three_tenants(0xE1A, 8_000.0);
    let run = engine.run("elastic", &set).unwrap();
    assert_tenant_conservation(&run);
    assert_eq!(
        run.report.completed, run.report.offered,
        "scale-to-zero parks, never drops"
    );
    assert!(run.report.scaling.is_some(), "elastic run reports scaling");
    let again = engine.run("elastic", &set).unwrap();
    assert_eq!(run.report, again.report);
    assert_eq!(run.completions, again.completions);
}

/// Lifecycle events carry a tenant tag exactly when the run is
/// multi-tenant, and the tags are valid tenant indices.
#[test]
fn trace_events_are_tenant_tagged_iff_multi_tenant() {
    let fresh = || -> SharedRecorder { Rc::new(RefCell::new(Recorder::new())) };
    for fleet in [
        colocated(RouterPolicy::SloAware, FaultPlan::none()),
        disagg(chaos(3)),
    ] {
        let multi = three_tenants(0x7A6, 6_000.0);
        let rec = fresh();
        let observed = fleet.run_observed("tagged", &multi, Some(&rec)).unwrap();
        let rec = rec.borrow();
        let lifecycle: Vec<_> = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Arrival | EventKind::Retry | EventKind::Park
                ) || e.kind.is_terminal()
            })
            .collect();
        assert!(!lifecycle.is_empty());
        for e in &lifecycle {
            let tag = e
                .tenant
                .unwrap_or_else(|| panic!("untagged {:?} in multi-tenant", e.kind));
            assert!((tag as usize) < 3, "tenant tag {tag} out of range");
        }
        // Zero observer effect: the recorder changes no scheduling.
        let blind = fleet.run("tagged", &multi).unwrap();
        assert_eq!(observed.report, blind.report);

        // A single-tenant run stays tag-free everywhere.
        let solo = TenantSet::new(vec![TenantSpec::new(
            "only",
            SloClass::Standard,
            1.0,
            open(12, 6_000.0, 0x7A7),
        )])
        .unwrap();
        let rec2 = fresh();
        fleet.run_observed("untagged", &solo, Some(&rec2)).unwrap();
        assert!(rec2.borrow().events().iter().all(|e| e.tenant.is_none()));
    }
}

/// The noisy-neighbor scenario's merged trace, as `cluster_sim
/// --scenario cluster-noisy-neighbor --trace-out` writes it (tenant tags
/// 0..=2), replays without a tenant set exactly like the same trace with
/// every tag zeroed — through the serving smoke engine and through the
/// scenario's colocated fleet.
#[test]
fn untenanted_replay_ignores_tenant_tags() {
    let scenario = cimtpu_cluster::scenario::by_name("cluster-noisy-neighbor").unwrap();
    let merged = scenario
        .tenants
        .as_ref()
        .expect("scenario carries tenants")
        .merged_spec();
    let jsonl = to_jsonl(&synthesize(&merged.unwrap()).unwrap());
    let tagged = parse_jsonl(&jsonl).unwrap();
    assert_eq!(
        tagged.iter().map(|r| r.tenant).max(),
        Some(2),
        "trace is tenant-tagged"
    );
    let zeroed = tagged
        .iter()
        .map(|r| TraceRecord {
            tenant: 0,
            ..r.clone()
        })
        .collect();
    let (tagged, zeroed) = (replay_spec(tagged).unwrap(), replay_spec(zeroed).unwrap());

    let serve = |traffic: &TrafficSpec| {
        let smoke = cimtpu_serving::scenario::smoke();
        let run = Scenario {
            traffic: traffic.clone(),
            ..smoke
        }
        .run(None)
        .unwrap();
        (serde_json::to_string(&run.report).unwrap(), run.completions)
    };
    assert_eq!(serve(&tagged), serve(&zeroed), "serving engine");

    let fleet = |traffic: &TrafficSpec| {
        let run = scenario.engine.run("replay", traffic).unwrap();
        (serde_json::to_string(&run.report).unwrap(), run.completions)
    };
    assert_eq!(fleet(&tagged), fleet(&zeroed), "colocated fleet");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation survives chaos on both topologies and every router
    /// policy, and each drawn timeline replays deterministically.
    #[test]
    fn conservation_under_chaos_randomized(seed in 0u64..500, fault_seed in 0u64..500) {
        let set = three_tenants(seed, 6_000.0);
        let policies =
            [RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding, RouterPolicy::SloAware];
        for policy in policies {
            let fleet = colocated(policy, chaos(fault_seed));
            let run = fleet.run("chaos", &set).unwrap();
            assert_tenant_conservation(&run);
            let again = fleet.run("chaos", &set).unwrap();
            prop_assert_eq!(&run.report, &again.report);
        }
        let fleet = disagg(chaos(fault_seed));
        let run = fleet.run("chaos", &set).unwrap();
        assert_tenant_conservation(&run);
        let again = fleet.run("chaos", &set).unwrap();
        prop_assert_eq!(&run.report, &again.report);
    }
}

/// Admission sheds under tenants: while a crash leaves the surviving
/// replica at the outstanding threshold, admission sheds the request it
/// is admitting and every waiting retry older than it. Each shed is
/// charged to its own tenant: conservation holds per tenant, and the
/// per-tenant sheds add up to the availability section's.
#[test]
fn admission_sheds_are_charged_to_their_tenants() {
    let set = TenantSet::new(vec![
        TenantSpec::new(
            "chat",
            SloClass::Interactive,
            1.0,
            open(40, 30_000.0, 0x5ED),
        ),
        TenantSpec::new("bulk", SloClass::Batch, 1.0, open(40, 30_000.0, 0x5EE)),
    ])
    .unwrap();
    let crash = |at: f64, replica| FaultEvent::Crash {
        at: Seconds::new(at),
        replica,
        repair: Seconds::new(0.002),
    };
    // An unbounded retry budget: every shed is an admission shed.
    let recovery = RecoveryPolicy {
        max_attempts: u32::MAX,
        shed_outstanding: Some(3),
        ..RecoveryPolicy::default()
    };
    let plan = FaultPlan::none()
        .with_events([crash(0.000_4, 0), crash(0.000_8, 1)])
        .with_recovery(recovery);
    let rec: SharedRecorder = Rc::new(RefCell::new(Recorder::new()));
    let run = colocated(RouterPolicy::LeastOutstanding, plan)
        .run_observed("shed", &set, Some(&rec))
        .unwrap();
    assert_tenant_conservation(&run);
    let tenants = &run.report.tenants.as_ref().unwrap().tenants;
    assert!(
        tenants.iter().all(|u| u.shed > 0),
        "every tenant has requests shed: {tenants:?}"
    );
    // A retry shed before its backoff fired was shed as an older waiting
    // request, not at its own admission.
    let events = rec.borrow().events().to_vec();
    let fires = |id| {
        events
            .iter()
            .filter(move |e| e.kind == EventKind::Retry && e.id == id)
            .map(|e| e.ts_s + e.dur_s)
    };
    let shed_waiting = events
        .iter()
        .filter(|e| e.kind == EventKind::Shed)
        .any(|e| fires(e.id).any(|fire| e.ts_s < fire));
    assert!(shed_waiting, "a waiting retry is shed before it fires");
    // Control-track events carry their own request's tenant.
    let requests = set.merged_spec().unwrap().generate();
    for e in events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Retry | EventKind::Shed))
    {
        assert_eq!(e.tenant, Some(requests[e.id as usize].tenant), "{e:?}");
    }
}
