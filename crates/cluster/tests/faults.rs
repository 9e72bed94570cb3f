//! Fault-injection invariants, end to end:
//!
//! 1. **Zero-fault bit-identity.** An empty `FaultPlan` is no plan at
//!    all: each topology's one event loop runs with no fault timeline,
//!    an all-up health view, and no availability section. A *benign*
//!    non-empty plan (a 1.0× straggler window, a 1.0× link window) must
//!    still reproduce the empty-plan completions bit-for-bit, under every
//!    batching policy — the check that fault handling adds accounting,
//!    not new scheduling semantics. (Both loops are pinned against the
//!    crate's reference model, and it against `drive`, by unit
//!    proptests.)
//! 2. **Determinism.** The same fault seed replays the same chaos run;
//!    fault draws come from their own RNG stream, so they never perturb
//!    the traffic.
//! 3. **Crash accounting.** A crash loses exactly the in-flight work,
//!    retries recover it, and every offered request is conserved:
//!    `arrived == completed + shed + timed_out`.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use cimtpu_cluster::scenario::by_name;
use cimtpu_cluster::{
    ChaosSpec, ClusterEngine, ClusterRun, EventKind, FaultEvent, FaultPlan, InterconnectSpec,
    Recorder, RecoveryPolicy, ReplicaSpec, RouterPolicy,
};
use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel, TrafficSpec,
};
use cimtpu_units::Seconds;
use proptest::prelude::*;

fn tiny() -> ServingModel {
    ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
}

/// The batching policies of the single-engine scheduler: continuous, plus
/// the run-to-completion static (with its closed-loop stall flush) and
/// dynamic batchers.
const BATCHING: [BatchPolicy; 3] = [
    BatchPolicy::Continuous { max_batch: 4 },
    BatchPolicy::Static { batch: 2 },
    BatchPolicy::Dynamic {
        max_batch: 4,
        max_wait_ms: 0.5,
    },
];

fn fleet(policy: RouterPolicy, faults: FaultPlan) -> ClusterEngine {
    colocated_unplanned(policy).with_faults(faults)
}

/// The colocated testbed with no fault plan installed at all.
fn colocated_unplanned(policy: RouterPolicy) -> ClusterEngine {
    batched_fleet(BATCHING[0], policy)
}

/// The two-replica colocated testbed, every replica batching under `batch`.
fn batched_fleet(batch: BatchPolicy, policy: RouterPolicy) -> ClusterEngine {
    ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("f-0", TpuConfig::tpuv4i(), tiny()).with_policy(batch),
            ReplicaSpec::new("f-1", TpuConfig::tpuv4i(), tiny()).with_policy(batch),
        ],
        policy,
    )
    .unwrap()
}

fn disagg_fleet(faults: FaultPlan) -> ClusterEngine {
    disagg_unplanned().with_faults(faults)
}

/// The disaggregated testbed with no fault plan installed at all.
fn disagg_unplanned() -> ClusterEngine {
    ClusterEngine::disaggregated(
        vec![ReplicaSpec::new("p-0", TpuConfig::tpuv4i(), tiny())
            .with_policy(BatchPolicy::Continuous { max_batch: 4 })],
        vec![
            ReplicaSpec::new("d-0", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ReplicaSpec::new("d-1", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
        ],
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastKv,
        InterconnectSpec::ici(),
    )
    .unwrap()
}

/// Open loop, closed loop with think time, and closed loop with none (a
/// completion re-arms its client at its own finish instant).
fn traffics(seed: u64) -> [TrafficSpec; 3] {
    let base = TrafficSpec {
        requests: 16,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed,
    };
    [
        base.clone(),
        TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 3,
                think_ms: 1.0,
            },
            ..base.clone()
        },
        TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 6,
                think_ms: 0.0,
            },
            ..base
        },
    ]
}

/// A non-empty plan that injects nothing observable: a 1.0× straggler
/// window. It forces the fault-aware colocated driver, so comparing
/// against the plain run validates the new event loop wholesale.
fn benign_colocated_plan() -> FaultPlan {
    FaultPlan::none().with_event(FaultEvent::Straggler {
        replica: 0,
        from: Seconds::new(0.001),
        until: Seconds::new(0.010),
        slowdown: 1.0,
    })
}

/// The disaggregated counterpart: a 1.0×/1.0× link window.
fn benign_disagg_plan() -> FaultPlan {
    FaultPlan::none().with_event(FaultEvent::DegradedLink {
        from: Seconds::ZERO,
        until: Seconds::new(10.0),
        bandwidth_factor: 1.0,
        energy_factor: 1.0,
    })
}

/// Asserts the faulty run equals the plain run bit-for-bit, modulo the
/// availability section (present, all-zero) that only fault runs carry.
fn assert_benign_equal(plain: &ClusterRun, faulty: &ClusterRun, label: &str) {
    assert_eq!(
        plain.completions, faulty.completions,
        "{label}: completions diverged"
    );
    let avail = faulty.report.availability.as_ref().expect(label);
    assert_eq!(avail.crashes, 0, "{label}");
    assert_eq!(avail.availability, 1.0, "{label}");
    assert_eq!(avail.retries + avail.shed + avail.timed_out, 0, "{label}");
    let mut stripped = faulty.report.clone();
    stripped.availability = None;
    assert_eq!(&stripped, &plain.report, "{label}: report diverged");
}

/// An installed empty plan is no plan at all, on both topologies: same
/// report and completions, and no `availability` key in the JSON.
#[test]
fn empty_plan_is_the_zero_fault_path() {
    let policy = RouterPolicy::LeastOutstanding;
    let fleets = [
        (
            colocated_unplanned(policy),
            fleet(policy, FaultPlan::none()),
        ),
        (disagg_unplanned(), disagg_fleet(FaultPlan::none())),
    ];
    for (bare, explicit) in &fleets {
        for traffic in traffics(0xFA) {
            let plain = bare.run("zero", &traffic).unwrap();
            let planned = explicit.run("zero", &traffic).unwrap();
            assert_eq!(plain.report, planned.report);
            assert_eq!(plain.completions, planned.completions);
            assert!(planned.report.availability.is_none());
            let json = serde_json::to_string(&planned.report).unwrap();
            assert!(!json.contains("\"availability\""), "{json}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Benign-plan equivalence across batching policies, router policies
    /// and open/closed loop: under a benign plan the colocated loop
    /// schedules exactly as under an empty one, and only adds bookkeeping.
    #[test]
    fn benign_plan_matches_plain_colocated(seed in 0u64..500) {
        let policies = [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::LeastKv,
            RouterPolicy::SessionAffinity,
            RouterPolicy::PrefixAffinity,
        ];
        for batch in BATCHING {
            for policy in policies {
                for traffic in traffics(seed) {
                    let engine = batched_fleet(batch, policy);
                    let plain = engine.clone().run("benign", &traffic).unwrap();
                    let faulty = engine
                        .with_faults(benign_colocated_plan())
                        .run("benign", &traffic)
                        .unwrap();
                    assert_benign_equal(&plain, &faulty, &format!("{} {batch:?}", policy.name()));
                }
            }
        }
    }

    /// The disaggregated counterpart of the benign-plan equivalence.
    #[test]
    fn benign_plan_matches_plain_disagg(seed in 0u64..500) {
        for traffic in traffics(seed) {
            let plain = disagg_fleet(FaultPlan::none()).run("benign", &traffic).unwrap();
            let faulty = disagg_fleet(benign_disagg_plan()).run("benign", &traffic).unwrap();
            assert_benign_equal(&plain, &faulty, "disagg");
        }
    }

    /// The same fault seed replays the same chaos run, completions and
    /// report bit-for-bit.
    #[test]
    fn same_fault_seed_replays_bit_for_bit(fault_seed in 0u64..10_000) {
        let chaos = FaultPlan::seeded(fault_seed).with_chaos(ChaosSpec {
            crashes: 2,
            window: (Seconds::new(0.000_2), Seconds::new(0.003)),
            repair: Seconds::new(0.002),
        });
        let traffic = traffics(0xBEEF)[0].clone();
        let a = fleet(RouterPolicy::LeastOutstanding, chaos.clone())
            .run("chaos", &traffic)
            .unwrap();
        let b = fleet(RouterPolicy::LeastOutstanding, chaos).run("chaos", &traffic).unwrap();
        prop_assert_eq!(a.report, b.report);
        prop_assert_eq!(a.completions, b.completions);
        // Conservation holds for every drawn timeline.
        let avail = a.report.availability.unwrap();
        prop_assert_eq!(
            a.report.completed + avail.shed + avail.timed_out,
            a.report.offered
        );
    }
}

/// A NaN crash instant is a configuration error, not a run that never
/// returns (the timeline would never reach it). `Seconds::new` refuses
/// NaN in debug builds, but arithmetic does not.
#[test]
fn nan_crash_time_is_rejected() {
    let plan = FaultPlan::none().with_event(FaultEvent::Crash {
        at: Seconds::new(1.0) * f64::NAN,
        replica: 0,
        repair: Seconds::new(0.001),
    });
    let err = fleet(RouterPolicy::RoundRobin, plan)
        .run("nan", &traffics(1)[0])
        .unwrap_err();
    assert!(
        matches!(err, cimtpu_units::Error::InvalidConfig(_)),
        "{err:?}"
    );
}

/// One request, one replica, one crash mid-decode: the crash loses
/// exactly that in-flight request, the retry lands after restart, and
/// the completion is accounted against the *original* arrival.
#[test]
fn crash_mid_decode_loses_exactly_the_in_flight_work() {
    let traffic = TrafficSpec {
        requests: 1,
        arrival: ArrivalPattern::OpenLoop {
            rate_rps: 1_000_000.0,
        },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(100),
        prefix: PrefixTraffic::None,
        seed: 7,
    };
    let crash_at = Seconds::new(0.000_2);
    let plan = FaultPlan::none().with_event(FaultEvent::Crash {
        at: crash_at,
        replica: 0,
        repair: Seconds::new(0.001),
    });
    let run = ClusterEngine::colocated(
        vec![ReplicaSpec::new("solo", TpuConfig::tpuv4i(), tiny())
            .with_policy(BatchPolicy::Continuous { max_batch: 4 })],
        RouterPolicy::PassThrough,
    )
    .unwrap()
    .with_faults(plan)
    .run("crash-mid-decode", &traffic)
    .unwrap();

    let avail = run.report.availability.as_ref().unwrap();
    assert_eq!(avail.crashes, 1);
    assert_eq!(avail.retries, 1, "the lone in-flight request retries once");
    assert_eq!(avail.retried_ok, 1, "and completes after the restart");
    assert_eq!(run.report.completed, 1);
    assert_eq!(avail.shed + avail.timed_out, 0);
    assert!(avail.availability < 1.0);
    assert_eq!(avail.time_to_recover_s.len(), 1);
    let c = &run.completions[0];
    // Latency spans the crash: original arrival stands, the finish is
    // after restart + recompute.
    assert_eq!(c.arrival, Seconds::ZERO);
    assert!(
        c.finish > crash_at + Seconds::new(0.001),
        "finish {} not after repair",
        c.finish
    );
}

/// A fresh request that arrives while the only replica is down parks,
/// and on restart lands right behind a retry pushed at that instant: the
/// replica cannot see work arrive before its queue tail, so the fresh
/// request's pushed arrival is clamped on its *first* attempt. Its
/// completion must still report its original arrival.
#[test]
fn clamped_first_attempt_keeps_its_original_arrival() {
    let traffic = TrafficSpec {
        requests: 2,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 2_000.0 },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(400),
        prefix: PrefixTraffic::None,
        seed: 7,
    };
    let solo = || {
        ClusterEngine::colocated(
            vec![ReplicaSpec::new("solo", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 })],
            RouterPolicy::PassThrough,
        )
        .unwrap()
    };
    let plain = solo().run("clamp", &traffic).unwrap();
    let second = plain.completions[1].arrival;
    assert!(second > Seconds::ZERO);
    assert!(
        plain.completions[0].finish > second,
        "request 0 must outlive request 1's arrival"
    );
    // Crash halfway to the second arrival and stay down past it; the
    // lost request's retry fires at once and parks beside the newcomer.
    let plan = FaultPlan::none()
        .with_event(FaultEvent::Crash {
            at: Seconds::new(second.get() / 2.0),
            replica: 0,
            repair: second,
        })
        .with_recovery(RecoveryPolicy {
            backoff: Seconds::from_micros(1.0),
            ..RecoveryPolicy::default()
        });
    let run = solo().with_faults(plan).run("clamp", &traffic).unwrap();
    let avail = run.report.availability.as_ref().unwrap();
    assert_eq!((avail.crashes, avail.retries, avail.retried_ok), (1, 1, 1));
    assert_eq!(run.report.completed, 2);
    assert_eq!(run.completions[0].arrival, Seconds::ZERO);
    assert_eq!(
        run.completions[1].arrival, second,
        "the clamp leaked into the report"
    );
}

/// A fresh request that arrives while the only replica is down parks and
/// is served once the replica is back up — not at its original arrival,
/// as if the replica had never been down: the restarted core's queue
/// tail starts at the replica's up instant.
#[test]
fn parked_first_attempt_is_served_after_the_replica_is_up() {
    let traffic = TrafficSpec {
        requests: 2,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 100.0 },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix: PrefixTraffic::None,
        seed: 7,
    };
    let solo = || {
        ClusterEngine::colocated(
            vec![ReplicaSpec::new("solo", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 })],
            RouterPolicy::PassThrough,
        )
        .unwrap()
    };
    let plain = solo().run("park", &traffic).unwrap();
    let (first, second) = (&plain.completions[0], &plain.completions[1]);
    assert!(
        first.finish < second.arrival,
        "request 0 must finish before request 1 arrives"
    );
    // Crash between the two and stay down past the second arrival.
    let crash = (first.finish + second.arrival) * 0.5;
    let repair = second.arrival - crash + Seconds::new(0.001);
    let warmup = RecoveryPolicy::default().warmup;
    let plan = FaultPlan::none().with_event(FaultEvent::Crash {
        at: crash,
        replica: 0,
        repair,
    });
    let run = solo().with_faults(plan).run("park", &traffic).unwrap();
    assert_eq!(run.report.completed, 2);
    let parked = &run.completions[1];
    let up_at = crash + repair + warmup;
    assert!(
        parked.finish > up_at,
        "served at {} while down until {up_at}",
        parked.finish
    );
    assert_eq!(
        parked.arrival, second.arrival,
        "latency counts from the original arrival"
    );
}

/// With a zero retry budget the lost work is shed — and still conserved.
#[test]
fn exhausted_retry_budget_sheds_and_conserves() {
    let traffic = TrafficSpec {
        requests: 4,
        arrival: ArrivalPattern::OpenLoop {
            rate_rps: 1_000_000.0,
        },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(100),
        prefix: PrefixTraffic::None,
        seed: 7,
    };
    let plan = FaultPlan::none()
        .with_event(FaultEvent::Crash {
            at: Seconds::new(0.000_5),
            replica: 0,
            repair: Seconds::new(0.001),
        })
        .with_recovery(RecoveryPolicy {
            max_attempts: 0,
            ..RecoveryPolicy::default()
        });
    let run = ClusterEngine::colocated(
        vec![ReplicaSpec::new("solo", TpuConfig::tpuv4i(), tiny())
            .with_policy(BatchPolicy::Continuous { max_batch: 4 })],
        RouterPolicy::PassThrough,
    )
    .unwrap()
    .with_faults(plan)
    .run("shed", &traffic)
    .unwrap();

    let avail = run.report.availability.as_ref().unwrap();
    assert_eq!(avail.crashes, 1);
    assert_eq!(avail.retries, 0, "no budget, no retries");
    assert!(
        avail.shed >= 1,
        "in-flight work at the crash instant is shed"
    );
    assert_eq!(
        run.report.completed + avail.shed + avail.timed_out,
        run.report.offered
    );
}

/// A decode-pool crash in a disaggregated fleet: lost decodes come back
/// (re-handoff or recompute) and the run conserves every request.
#[test]
fn disagg_decode_crash_recovers_and_conserves() {
    let traffic = TrafficSpec {
        requests: 12,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 50_000.0 },
        prompt: LenDist::Fixed(48),
        steps: LenDist::Fixed(32),
        prefix: PrefixTraffic::None,
        seed: 7,
    };
    let plan = FaultPlan::none().with_event(FaultEvent::Crash {
        at: Seconds::new(0.000_4),
        replica: 0, // decode-pool index
        repair: Seconds::new(0.001),
    });
    let run = disagg_fleet(plan).run("disagg-crash", &traffic).unwrap();
    let avail = run.report.availability.as_ref().unwrap();
    assert_eq!(avail.crashes, 1);
    assert_eq!(
        run.report.completed + avail.shed + avail.timed_out,
        run.report.offered,
        "report: {}",
        run.report
    );
    assert!(avail.availability < 1.0);
    // Deterministic replay.
    let again = disagg_fleet(FaultPlan::none().with_event(FaultEvent::Crash {
        at: Seconds::new(0.000_4),
        replica: 0,
        repair: Seconds::new(0.001),
    }))
    .run("disagg-crash", &traffic)
    .unwrap();
    assert_eq!(run.report, again.report);
}

/// Straggler faults don't apply to disaggregated pools, degraded-link
/// faults don't apply to colocated fleets — both are configuration
/// errors, not silent no-ops.
#[test]
fn cross_topology_faults_are_rejected() {
    let traffic = traffics(1)[0].clone();
    let err = disagg_fleet(benign_colocated_plan())
        .run("bad", &traffic)
        .unwrap_err();
    assert!(err.to_string().contains("straggler"), "{err}");
    let err = fleet(RouterPolicy::RoundRobin, benign_disagg_plan())
        .run("bad", &traffic)
        .unwrap_err();
    assert!(err.to_string().contains("link"), "{err}");
}

/// A bandwidth factor small enough to divide a transfer's wire time to
/// infinity (a subnormal one parses and passes validation) fails the run
/// with a typed error naming the window, instead of reporting a null
/// makespan. So do overlapping windows whose energy factors multiply
/// past `f64::MAX`.
#[test]
fn non_finite_degraded_transfer_is_a_typed_error() {
    let traffic = traffics(1)[0].clone();
    let link = |bandwidth_factor, energy_factor| FaultEvent::DegradedLink {
        from: Seconds::ZERO,
        until: Seconds::new(2.0),
        bandwidth_factor,
        energy_factor,
    };
    let plans = [
        FaultPlan::none().with_event(link(1e-320, 1.0)),
        FaultPlan::none().with_events([link(0.5, 1e200), link(1.0, 1e200)]),
    ];
    for plan in plans {
        let err = disagg_fleet(plan).run("inf-link", &traffic).unwrap_err();
        assert!(
            matches!(err, cimtpu_units::Error::InvalidConfig(_)),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .contains("degraded-link window link@0.0s-2.0s"),
            "{err}"
        );
    }
    let slow = FaultPlan::none().with_event(link(1e-300, 1e300));
    assert!(disagg_fleet(slow).run("slow-link", &traffic).is_ok());
}

/// `Park` events per request id when `scenario` runs under crashes
/// `(replica, at, repair)`, in seconds; every offered request must
/// recover.
fn parks(scenario: &str, crashes: &[(usize, f64, f64)]) -> BTreeMap<u64, u32> {
    let mut scenario = by_name(scenario).unwrap();
    let crash = |&(replica, at, repair): &(usize, f64, f64)| FaultEvent::Crash {
        at: Seconds::new(at),
        replica,
        repair: Seconds::new(repair),
    };
    let plan = FaultPlan::none().with_events(crashes.iter().map(crash));
    scenario.engine = scenario.engine.with_faults(plan);
    let rec = Rc::new(RefCell::new(Recorder::new()));
    let run = scenario
        .engine
        .run_observed(scenario.name, &scenario.offered(None), Some(&rec))
        .unwrap();
    assert_eq!(
        run.report.completed, run.report.offered,
        "every request recovers"
    );
    let mut parks: BTreeMap<u64, u32> = BTreeMap::new();
    for e in rec
        .borrow()
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::Park)
    {
        *parks.entry(e.id).or_default() += 1;
    }
    parks
}

/// With every replica down, a request parks once and waits for the first
/// restart: neither a retry firing into the outage nor a later restart
/// parks it again. Both replicas of `closed-loop-c8` crash at 5 ms and
/// restart after staggered repairs, and in the recorded run every parked
/// request id has exactly one `Park` event.
#[test]
fn whole_fleet_down_parks_each_request_once() {
    let parks = parks("closed-loop-c8", &[(0, 0.005, 0.003), (1, 0.005, 0.006)]);
    assert!(parks.len() >= 2, "the outage must park requests: {parks:?}");
    assert!(
        parks.values().all(|&n| n == 1),
        "a request parked twice: {parks:?}"
    );
}

/// The disaggregated rule is the same: a handoff that finds the whole
/// decode pool down parks until a decode replica is up — not until its
/// repair, which only starts the warmup. `smoke-cluster`'s one decode
/// replica crashes at 0.5 ms for 3 ms, and every parked request id has
/// exactly one `Park` event.
#[test]
fn whole_decode_pool_down_parks_each_request_once() {
    let parks = parks("smoke-cluster", &[(0, 0.000_5, 0.003)]);
    assert!(
        !parks.is_empty(),
        "the outage must park requests: {parks:?}"
    );
    assert!(
        parks.values().all(|&n| n == 1),
        "a request parked twice: {parks:?}"
    );
}
