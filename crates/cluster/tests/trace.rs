//! Flight-recorder invariants across every driver: event conservation,
//! well-formed spans, zero observer effect (recorder-on reports equal
//! recorder-off), and byte-identical same-seed trace exports.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use proptest::prelude::*;

use cimtpu_cluster::scenario::by_name;
use cimtpu_cluster::{
    ChaosSpec, ClusterEngine, ClusterRun, EventKind, FaultEvent, FaultPlan, InterconnectSpec,
    Offered, Recorder, ReplicaSpec, RouterPolicy, SharedRecorder, SloClass, TenantSet, TenantSpec,
    TraceFilter,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel, TrafficSpec,
};
use cimtpu_units::Seconds;

fn fresh() -> SharedRecorder {
    Rc::new(RefCell::new(Recorder::new()))
}

fn record(name: &str, seed: Option<u64>) -> (ClusterRun, SharedRecorder) {
    let rec = fresh();
    let s = by_name(name).unwrap();
    let run = s
        .engine
        .run_observed(s.name, &s.offered(seed), Some(&rec))
        .unwrap();
    (run, rec)
}

/// Conservation: every offered request has exactly one `Arrival` and
/// exactly one terminal event (`Complete` / `Shed` / `Timeout`), and the
/// two id sets coincide. Fleet events (crash, reconcile, ...) reuse the
/// id field for slot indices, so only lifecycle kinds are counted.
fn assert_conservation(run: &ClusterRun, rec: &SharedRecorder) {
    let mut arrivals: BTreeMap<u64, u64> = BTreeMap::new();
    let mut terminals: BTreeMap<u64, u64> = BTreeMap::new();
    for e in rec.borrow().events() {
        if e.kind == EventKind::Arrival {
            *arrivals.entry(e.id).or_default() += 1;
        }
        if e.kind.is_terminal() {
            *terminals.entry(e.id).or_default() += 1;
        }
    }
    assert_eq!(
        arrivals.len() as u64,
        run.report.offered,
        "every offered request must arrive exactly once"
    );
    assert!(
        arrivals.values().all(|&n| n == 1),
        "duplicate arrival: {arrivals:?}"
    );
    assert!(
        terminals.values().all(|&n| n == 1),
        "duplicate terminal: {terminals:?}"
    );
    assert_eq!(
        arrivals.keys().collect::<Vec<_>>(),
        terminals.keys().collect::<Vec<_>>(),
        "arrival and terminal id sets must coincide"
    );
    let completes = rec
        .borrow()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Complete)
        .count() as u64;
    assert_eq!(
        completes, run.report.completed,
        "one Complete per delivered completion"
    );
}

/// Spans carry non-negative durations; instants carry none. Timestamps
/// are finite simulated seconds.
fn assert_well_formed(rec: &SharedRecorder) {
    for e in rec.borrow().events() {
        assert!(e.ts_s.is_finite(), "non-finite timestamp: {e:?}");
        if e.kind.is_span() {
            assert!(e.dur_s >= 0.0, "negative span duration: {e:?}");
        } else {
            assert_eq!(e.dur_s, 0.0, "instant with a duration: {e:?}");
        }
    }
}

/// Two same-seed recorded runs must export byte-identical traces and
/// gauge CSVs — the determinism contract Perfetto diffs rely on.
fn assert_trace_deterministic(name: &str) {
    let (run_a, rec_a) = record(name, None);
    let (run_b, rec_b) = record(name, None);
    assert_eq!(run_a.report, run_b.report);
    assert_eq!(
        rec_a.borrow().to_chrome_json(&TraceFilter::default()),
        rec_b.borrow().to_chrome_json(&TraceFilter::default()),
        "{name}: same-seed traces must be byte-identical"
    );
    assert_eq!(
        rec_a.borrow().metrics_csv(name),
        rec_b.borrow().metrics_csv(name),
        "{name}: same-seed gauge CSVs must be byte-identical"
    );
}

/// Attaching the recorder must not change the simulation: recorder-on
/// and recorder-off runs report identically.
fn assert_no_observer_effect(name: &str) {
    let (observed, _rec) = record(name, None);
    let plain = by_name(name).unwrap().run(None).unwrap();
    assert_eq!(
        observed.report, plain.report,
        "{name}: recorder changed the report"
    );
    assert_eq!(observed.completions, plain.completions);
}

/// The scenario set covering all four drivers and both plan kinds of the
/// disaggregated one: colocated plain (hetero-fleet), colocated faulty
/// (cluster-chaos-crash, cluster-straggler), disaggregated under an
/// empty plan (smoke-cluster) and a degraded link
/// (cluster-degraded-link), and elastic (smoke-autoscale).
const DRIVER_SCENARIOS: [&str; 6] = [
    "hetero-fleet",
    "cluster-chaos-crash",
    "cluster-straggler",
    "smoke-cluster",
    "cluster-degraded-link",
    "smoke-autoscale",
];

#[test]
fn every_driver_conserves_requests_and_emits_well_formed_spans() {
    for name in DRIVER_SCENARIOS {
        let (run, rec) = record(name, None);
        assert_conservation(&run, &rec);
        assert_well_formed(&rec);
    }
}

#[test]
fn recorder_is_invisible_to_the_simulation() {
    for name in DRIVER_SCENARIOS {
        assert_no_observer_effect(name);
    }
}

#[test]
fn same_seed_traces_are_byte_identical() {
    for name in DRIVER_SCENARIOS {
        assert_trace_deterministic(name);
    }
}

#[test]
fn chaos_trace_shows_crash_and_retry() {
    let (_run, rec) = record("cluster-chaos-crash", None);
    let json = rec.borrow().to_chrome_json(&TraceFilter::default());
    // The exact patterns the CI traced-chaos smoke greps.
    assert!(json.contains("\"name\":\"crash\",\"ph\":\"i\""), "{json}");
    assert!(json.contains("\"name\":\"retry\",\"ph\":\"X\""), "{json}");
    let events = rec.borrow().events().to_vec();
    assert!(events.iter().any(|e| e.kind == EventKind::Repair));
    // The filter drops everything else.
    let only = rec
        .borrow()
        .to_chrome_json(&TraceFilter::parse("crash").unwrap());
    assert!(only.contains("\"name\":\"crash\""));
    assert!(!only.contains("\"name\":\"retry\""), "{only}");
    assert!(!only.contains("\"name\":\"complete\""), "{only}");
}

#[test]
fn autoscale_trace_shows_scaling_lifecycle() {
    let (run, rec) = record("smoke-autoscale", None);
    let events = rec.borrow().events().to_vec();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count() as u64;
    let s = run
        .report
        .scaling
        .as_ref()
        .expect("elastic run reports scaling");
    assert_eq!(
        count(EventKind::ScaleUp) + count(EventKind::SwapIn),
        s.scale_ups
    );
    assert_eq!(
        count(EventKind::ScaleDown) + count(EventKind::ScaleToZero) + count(EventKind::SwapOut),
        s.scale_downs
    );
    assert_eq!(count(EventKind::ScaleToZero), s.scale_to_zero);
    assert_eq!(count(EventKind::Reconcile), s.reconciles);
    assert!(count(EventKind::Up) >= 1, "provisioned slots must turn up");
    assert!(count(EventKind::Retired) >= 1, "drained slots must retire");
    assert!(
        count(EventKind::Park) >= 1,
        "scale-to-zero must park arrivals"
    );
}

#[test]
fn traced_gauges_sample_every_replica() {
    let (_run, rec) = record("hetero-fleet", None);
    let ts = rec.borrow().timeseries();
    let names: Vec<&str> = ts.gauges.iter().map(|g| g.name.as_str()).collect();
    assert!(names.contains(&"tpuv4i/queued"), "{names:?}");
    assert!(names.contains(&"design-a/kv_frac"), "{names:?}");
    assert!(ts.latency_ms.count > 0);
    for g in &ts.gauges {
        assert_eq!(g.t_s.len(), g.values.len());
        assert!(
            g.t_s.windows(2).all(|w| w[0] <= w[1]),
            "gauge times must be sorted"
        );
    }
}

/// The chaos testbed from the scenario set, parameterized over router
/// policy and fault plan for the property tests.
fn chaos_engine(router: RouterPolicy, faults: FaultPlan) -> ClusterEngine {
    let tiny = || ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
    ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("chaos-0", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 8 }),
            ReplicaSpec::new("chaos-1", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 8 }),
        ],
        router,
    )
    .expect("static fleet is valid")
    .with_faults(faults)
}

fn chaos_traffic(seed: u64) -> TrafficSpec {
    TrafficSpec {
        requests: 32,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 20_000.0 },
        prompt: LenDist::Uniform { lo: 16, hi: 64 },
        steps: LenDist::Uniform { lo: 8, hi: 16 },
        prefix: PrefixTraffic::None,
        seed,
    }
}

/// The disaggregated loop runs every plan: a traced benign-plan run (a
/// 1.0×/1.0× link window) exports the same Perfetto JSON and gauge CSV
/// as the traced empty-plan run, for plain and two-tenant traffic.
#[test]
fn benign_plan_disagg_traces_match_empty_plan() {
    let spec = |name: &str| {
        let tiny = ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
        ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny)
            .with_policy(BatchPolicy::Continuous { max_batch: 4 })
    };
    let benign = FaultPlan::none().with_event(FaultEvent::DegradedLink {
        from: Seconds::ZERO,
        until: Seconds::new(10.0),
        bandwidth_factor: 1.0,
        energy_factor: 1.0,
    });
    let traffic = chaos_traffic(7);
    let tenants = TenantSet::new(vec![
        TenantSpec::new("chat", SloClass::Interactive, 2.0, chaos_traffic(8)),
        TenantSpec::new("bulk", SloClass::Batch, 1.0, chaos_traffic(9)),
    ])
    .unwrap();
    let export = |plan: &FaultPlan, tenanted: bool| {
        let engine = ClusterEngine::disaggregated(
            vec![spec("p-0")],
            vec![spec("d-0"), spec("d-1")],
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastKv,
            InterconnectSpec::ici(),
        )
        .unwrap()
        .with_faults(plan.clone());
        let rec = fresh();
        if tenanted {
            engine.run_observed("benign", &tenants, Some(&rec)).unwrap();
        } else {
            engine.run_observed("benign", &traffic, Some(&rec)).unwrap();
        }
        let rec = rec.borrow();
        (
            rec.to_chrome_json(&TraceFilter::default()),
            rec.metrics_csv("benign"),
        )
    };
    for tenanted in [false, true] {
        let (json, csv) = export(&FaultPlan::none(), tenanted);
        assert!(
            json.contains("\"name\":\"kv_handoff\",\"ph\":\"X\""),
            "{json}"
        );
        assert_eq!(json.contains("\"tenant\""), tenanted, "{json}");
        assert_eq!(
            (json, csv),
            export(&benign, tenanted),
            "tenanted: {tenanted}"
        );
    }
}

/// The colocated counterpart: a static fleet traces one layout under
/// every plan. Across batch policies × routers × traffic (open loop,
/// zero-think closed loop, two tenants), a traced ×1-straggler run
/// exports the same request-lifecycle events and gauge CSV as the traced
/// empty-plan run, whose trace carries the control track too. The
/// plan's own `straggler` span is filtered out.
#[test]
fn benign_plan_colocated_traces_match_empty_plan() {
    let lifecycle =
        TraceFilter::parse("arrival,queue,prefill,decode,complete,preempt,retry,shed,timeout,park")
            .unwrap();
    let benign = FaultPlan::none().with_event(FaultEvent::Straggler {
        replica: 0,
        from: Seconds::ZERO,
        until: Seconds::new(10.0),
        slowdown: 1.0,
    });
    let policies = [
        BatchPolicy::Continuous { max_batch: 4 },
        BatchPolicy::Static { batch: 4 },
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait_ms: 0.5,
        },
    ];
    let open = chaos_traffic(7);
    let closed = TrafficSpec {
        arrival: ArrivalPattern::ClosedLoop {
            clients: 6,
            think_ms: 0.0,
        },
        ..chaos_traffic(8)
    };
    let tenants = TenantSet::new(vec![
        TenantSpec::new("chat", SloClass::Interactive, 2.0, chaos_traffic(8)),
        TenantSpec::new("bulk", SloClass::Batch, 1.0, chaos_traffic(9)),
    ])
    .unwrap();
    let offered = [
        ("open loop", Offered::from(&open)),
        ("closed loop", Offered::from(&closed)),
        ("two tenants", Offered::from(&tenants)),
    ];
    for policy in policies {
        for router in [RouterPolicy::RoundRobin, RouterPolicy::LeastOutstanding] {
            let export = |plan: &FaultPlan, offered: Offered<'_>| {
                let tiny = || ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer());
                let engine = ClusterEngine::colocated(
                    (0..3)
                        .map(|k| {
                            ReplicaSpec::new(format!("r-{k}"), TpuConfig::tpuv4i(), tiny())
                                .with_policy(policy)
                        })
                        .collect(),
                    router,
                )
                .unwrap()
                .with_faults(plan.clone());
                let rec = fresh();
                engine.run_observed("benign", offered, Some(&rec)).unwrap();
                let rec = rec.borrow();
                (rec.to_chrome_json(&lifecycle), rec.metrics_csv("benign"))
            };
            for (traffic, offered) in offered {
                let case = format!("{policy:?} / {router:?} / {traffic}");
                let (json, csv) = export(&FaultPlan::none(), offered);
                assert!(
                    json.contains("\"args\":{\"name\":\"control\"}"),
                    "{case}: {json}"
                );
                assert_eq!((json, csv), export(&benign, offered), "{case}");
            }
        }
    }
}

fn router_strategy() -> impl Strategy<Value = RouterPolicy> {
    (0u64..3).prop_map(|i| match i {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::LeastOutstanding,
        _ => RouterPolicy::SessionAffinity,
    })
}

fn fault_strategy() -> impl Strategy<Value = FaultPlan> {
    (0u32..3, any::<u64>(), any::<bool>()).prop_map(|(crashes, seed, straggle)| {
        let mut plan = if crashes == 0 {
            FaultPlan::seeded(seed)
        } else {
            FaultPlan::seeded(seed).with_chaos(ChaosSpec {
                crashes,
                window: (Seconds::new(0.000_5), Seconds::new(0.002)),
                repair: Seconds::new(0.002),
            })
        };
        if straggle {
            plan = plan.with_event(FaultEvent::Straggler {
                replica: 0,
                from: Seconds::new(0.000_5),
                until: Seconds::new(0.005),
                slowdown: 4.0,
            });
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Across router policies × fault plans × traffic seeds: requests
    /// are conserved, spans are well-formed, the recorder is invisible,
    /// and same-seed traces replay byte-for-byte.
    #[test]
    fn faulty_traces_hold_invariants(
        router in router_strategy(),
        faults in fault_strategy(),
        seed in 0u64..1_000,
    ) {
        let engine = chaos_engine(router, faults);
        let traffic = chaos_traffic(seed);
        let rec = fresh();
        let run = engine.run_observed("prop", &traffic, Some(&rec)).unwrap();
        assert_conservation(&run, &rec);
        assert_well_formed(&rec);
        let plain = engine.run("prop", &traffic).unwrap();
        prop_assert_eq!(&run.report, &plain.report);
        let rec2 = fresh();
        let run2 = engine.run_observed("prop", &traffic, Some(&rec2)).unwrap();
        prop_assert_eq!(&run.report, &run2.report);
        prop_assert_eq!(
            rec.borrow().to_chrome_json(&TraceFilter::default()),
            rec2.borrow().to_chrome_json(&TraceFilter::default())
        );
    }

    /// The elastic driver under varied seeds: parked wake-ups and drains
    /// still deliver every request exactly once, traced or not.
    #[test]
    fn autoscale_traces_hold_invariants(seed in 0u64..1_000) {
        let scenario = by_name("smoke-autoscale").unwrap();
        let rec = fresh();
        let run = scenario
            .engine
            .run_observed(scenario.name, &scenario.offered(Some(seed)), Some(&rec))
            .unwrap();
        assert_conservation(&run, &rec);
        assert_well_formed(&rec);
        let plain = scenario.run(Some(seed)).unwrap();
        prop_assert_eq!(&run.report, &plain.report);
    }
}

/// An export's 64-bit FNV-1a digest and byte length.
type Digest = (u64, usize);

fn digest(export: &str) -> Digest {
    let fnv1a = export.bytes().fold(0xcbf2_9ce4_8422_2325, |h: u64, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    (fnv1a, export.len())
}

/// Trace and gauge-CSV bytes pinned across commits, not only across two
/// runs of one build: `(scenario, (json digest, json len), (csv digest,
/// csv len))`. The set covers a static colocated fleet under an empty
/// plan (closed loop), a crash plan, the disaggregated loop, an elastic
/// fleet and tenant-tagged events. A refactor of the observer plumbing
/// must leave every entry unchanged.
#[test]
fn trace_exports_are_pinned() {
    const PINNED: [(&str, Digest, Digest); 5] = [
        (
            "closed-loop-c8",
            (0x5d32_a038_8221_a21c, 24_240),
            (0x0f09_fa08_c531_3371, 1_264),
        ),
        (
            "cluster-chaos-crash",
            (0x5048_634d_b6a2_ea37, 25_300),
            (0xf3c1_a5e3_1c02_eef7, 718),
        ),
        (
            "smoke-cluster",
            (0x9fde_a19f_f3d5_b88b, 2_660),
            (0x4bbd_8ed0_7533_70fe, 217),
        ),
        (
            "smoke-autoscale",
            (0x7cf3_a0ab_edeb_67a8, 1_603_874),
            (0xdbad_ae71_74e5_1839, 23_323),
        ),
        (
            "cluster-noisy-neighbor",
            (0xb900_b270_0943_200b, 36_406),
            (0x66e7_2c22_877e_5a54, 1_006),
        ),
    ];
    let got: Vec<_> = PINNED
        .iter()
        .map(|&(name, _, _)| {
            let (_run, rec) = record(name, None);
            let rec = rec.borrow();
            (
                name,
                digest(&rec.to_chrome_json(&TraceFilter::default())),
                digest(&rec.metrics_csv(name)),
            )
        })
        .collect();
    assert_eq!(got, PINNED, "trace or metrics CSV bytes moved");
}
