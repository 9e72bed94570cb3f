//! Autoscaling control-plane invariants, end to end:
//!
//! 1. **Pinned bit-identity.** A pinned policy (every band `min == max`,
//!    no swaps) must dispatch to the plain fleet drivers: completions and
//!    report equal a manually-expanded static fleet bit-for-bit — across
//!    router policies, both topologies, and fault plans. The strongest
//!    check that installing the control plane changes nothing until a
//!    band actually opens.
//! 2. **Replay determinism.** The same seed replays the same elastic
//!    run, down to the full scaling-action log (serialized bytes).
//! 3. **Typed rejections.** Elastic + disaggregated and group-count
//!    mismatches are configuration errors, not silent fallbacks.
//! 4. **Swap under skew.** With swaps allowed, a starved group at its
//!    max borrows a machine from an idle one (`swap-out`/`swap-in`).
//! 5. **Elastic × faults.** A benign plan leaves an elastic run as it
//!    was, and crashes during a scale-up ramp conserve every request and
//!    replay bit-for-bit.

use cimtpu_autoscale::{action, AutoscalePolicy, GroupPolicy};
use cimtpu_cluster::{
    ChaosSpec, ClusterEngine, ClusterRun, FaultEvent, FaultPlan, InterconnectSpec, ReplicaSpec,
    RouterPolicy,
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

fn spec(name: &str) -> ReplicaSpec {
    ReplicaSpec::new(name, TpuConfig::tpuv4i(), tiny())
        .with_policy(BatchPolicy::Continuous { max_batch: 4 })
}

fn pinned(n: u64) -> GroupPolicy {
    GroupPolicy {
        min: n,
        max: n,
        initial: n,
        ..GroupPolicy::default()
    }
}

fn traffics(seed: u64) -> [TrafficSpec; 2] {
    let base = TrafficSpec {
        requests: 16,
        arrival: ArrivalPattern::OpenLoopSessions {
            rate_rps: 4_000.0,
            sessions: 5,
        },
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
            ..base
        },
    ]
}

/// A 2-group colocated fleet, pinned at sizes (2, 1) via the policy, vs
/// the same fleet expanded by hand to the plain driver's three replicas.
fn pinned_colocated(policy: RouterPolicy, faults: FaultPlan) -> (ClusterEngine, ClusterEngine) {
    let auto = ClusterEngine::colocated(vec![spec("f-0"), spec("f-1")], policy)
        .unwrap()
        .with_faults(faults.clone())
        .with_autoscale(AutoscalePolicy::new(vec![pinned(2), pinned(1)]));
    let plain = ClusterEngine::colocated(vec![spec("f-0-0"), spec("f-0-1"), spec("f-1-0")], policy)
        .unwrap()
        .with_faults(faults);
    (auto, plain)
}

/// The disaggregated counterpart: 1 prefill group pinned at 1, one
/// decode group pinned at 2.
fn pinned_disagg(faults: FaultPlan) -> (ClusterEngine, ClusterEngine) {
    let disagg = |prefill: Vec<ReplicaSpec>, decode: Vec<ReplicaSpec>| {
        ClusterEngine::disaggregated(
            prefill,
            decode,
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastKv,
            InterconnectSpec::ici(),
        )
        .unwrap()
        .with_faults(faults.clone())
    };
    let auto = disagg(vec![spec("p")], vec![spec("d")])
        .with_autoscale(AutoscalePolicy::new(vec![pinned(1), pinned(2)]));
    let plain = disagg(vec![spec("p-0")], vec![spec("d-0"), spec("d-1")]);
    (auto, plain)
}

/// Asserts the pinned-policy run equals the plain expanded run
/// bit-for-bit, modulo the `scaling` section only the pinned run carries.
fn assert_pinned_equal(auto: &ClusterRun, plain: &ClusterRun, label: &str) {
    assert_eq!(
        auto.completions, plain.completions,
        "{label}: completions diverged"
    );
    let scaling = auto.report.scaling.as_ref().expect(label);
    assert_eq!(
        scaling.reconciles, 0,
        "{label}: pinned fleets never reconcile"
    );
    assert_eq!(
        scaling.scale_ups + scaling.scale_downs + scaling.swaps,
        0,
        "{label}"
    );
    assert!(scaling.actions.is_empty(), "{label}");
    assert_eq!(scaling.peak_replicas, plain.report.replicas, "{label}");
    assert!(scaling.chip_seconds > 0.0, "{label}");
    let mut stripped = auto.report.clone();
    stripped.scaling = None;
    assert_eq!(&stripped, &plain.report, "{label}: report diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Pinned-policy bit-identity across router policies, open/closed
    /// loop, and colocated fault plans (none, a straggler window, seeded
    /// chaos crashes).
    #[test]
    fn pinned_policy_matches_plain_colocated(seed in 0u64..500) {
        let policies = [
            RouterPolicy::RoundRobin,
            RouterPolicy::LeastOutstanding,
            RouterPolicy::LeastKv,
            RouterPolicy::SessionAffinity,
            RouterPolicy::PrefixAffinity,
        ];
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_event(FaultEvent::Straggler {
                replica: 0,
                from: Seconds::new(0.000_5),
                until: Seconds::new(0.005),
                slowdown: 3.0,
            }),
            FaultPlan::seeded(seed).with_chaos(ChaosSpec {
                crashes: 1,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            }),
        ];
        for policy in policies {
            for plan in &plans {
                for traffic in traffics(seed) {
                    let (auto, plain) = pinned_colocated(policy, plan.clone());
                    let a = auto.run("pinned", &traffic).unwrap();
                    let p = plain.run("pinned", &traffic).unwrap();
                    assert_pinned_equal(&a, &p, policy.name());
                }
            }
        }
    }

    /// The disaggregated counterpart: pinned pools match the hand-sized
    /// fleet with and without a degraded handoff link.
    #[test]
    fn pinned_policy_matches_plain_disagg(seed in 0u64..500) {
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_event(FaultEvent::DegradedLink {
                from: Seconds::ZERO,
                until: Seconds::new(10.0),
                bandwidth_factor: 0.25,
                energy_factor: 2.0,
            }),
        ];
        for plan in plans {
            for traffic in traffics(seed) {
                let (auto, plain) = pinned_disagg(plan.clone());
                let a = auto.run("pinned", &traffic).unwrap();
                let p = plain.run("pinned", &traffic).unwrap();
                assert_pinned_equal(&a, &p, "disagg");
            }
        }
    }
}

/// An elastic single-group fleet under a bursty compressed day — the
/// replay-determinism workload.
fn elastic_fleet() -> (ClusterEngine, TrafficSpec) {
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
    let traffic = TrafficSpec {
        requests: 1_500,
        arrival: ArrivalPattern::Diurnal {
            peak_rps: 30_000.0,
            day_s: 0.24,
            burst_x: 2.0,
            bursts: 2,
        },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed: 0xD1E5,
    };
    (engine, traffic)
}

/// Same seed, same run: the report — including the *full* scaling-action
/// log — replays byte-for-byte.
#[test]
fn same_seed_replays_the_full_scaling_action_log() {
    let (engine, traffic) = elastic_fleet();
    let a = engine.run("replay", &traffic).unwrap();
    let b = engine.run("replay", &traffic).unwrap();
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.report, b.report);
    let (sa, sb) = (a.report.scaling.unwrap(), b.report.scaling.unwrap());
    assert!(!sa.actions.is_empty(), "the burst day must move the fleet");
    assert_eq!(sa.actions, sb.actions);
    // Byte-for-byte: the serialized logs are identical, and every entry
    // names a real kind at a non-decreasing simulated time.
    assert_eq!(
        serde_json::to_string(&sa.actions).unwrap(),
        serde_json::to_string(&sb.actions).unwrap()
    );
    let kinds = [
        action::SCALE_UP,
        action::SCALE_DOWN,
        action::SCALE_TO_ZERO,
        action::SWAP_OUT,
        action::SWAP_IN,
        action::UP,
        action::RETIRED,
    ];
    let mut last = 0.0f64;
    for entry in &sa.actions {
        assert!(
            kinds.contains(&entry.kind.as_str()),
            "unknown kind {}",
            entry.kind
        );
        assert!(
            entry.at_s >= last,
            "action log out of order at {}",
            entry.at_s
        );
        last = entry.at_s;
    }
    // A different seed moves the fleet differently.
    let c = engine
        .run("replay", &TrafficSpec { seed: 7, ..traffic })
        .unwrap();
    assert_ne!(sa.actions, c.report.scaling.unwrap().actions);
}

/// Under two-model skew with swaps allowed, the starved group at its max
/// borrows the idle group's machine instead of shedding load.
#[test]
fn skewed_traffic_swaps_a_replica_between_groups() {
    let groups = vec![
        GroupPolicy {
            min: 0,
            max: 1,
            initial: 1,
            concurrency: 4,
            down_cooldown: Seconds::new(0.002),
            ..GroupPolicy::default()
        };
        2
    ];
    let policy = AutoscalePolicy {
        interval: Seconds::new(0.001),
        provision: Seconds::new(0.001),
        warmup: Seconds::new(0.000_5),
        swap: true,
        ..AutoscalePolicy::new(groups)
    };
    let engine =
        ClusterEngine::colocated(vec![spec("hot"), spec("cold")], RouterPolicy::RoundRobin)
            .unwrap()
            .with_autoscale(policy);
    // Single-session open-loop traffic hashes every request onto one
    // group: the other group idles and donates.
    let traffic = TrafficSpec {
        requests: 600,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 30_000.0 },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 4, hi: 12 },
        prefix: PrefixTraffic::None,
        seed: 0x5A5A,
    };
    let run = engine.run("swap", &traffic).unwrap();
    assert_eq!(run.report.completed, run.report.offered);
    let s = run.report.scaling.unwrap();
    assert!(s.swaps >= 1, "scaling: {s:?}");
    let kinds: Vec<&str> = s.actions.iter().map(|a| a.kind.as_str()).collect();
    assert!(kinds.contains(&action::SWAP_OUT) && kinds.contains(&action::SWAP_IN));
}

#[test]
fn elastic_restrictions_are_typed_errors() {
    let traffic = traffics(1)[0].clone();
    let elastic = AutoscalePolicy::new(vec![GroupPolicy::default()]);

    // Elastic + disaggregated: rejected.
    let err = ClusterEngine::disaggregated(
        vec![spec("p")],
        vec![spec("d")],
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastKv,
        InterconnectSpec::ici(),
    )
    .unwrap()
    .with_autoscale(AutoscalePolicy::new(vec![GroupPolicy::default(); 2]))
    .run("bad", &traffic)
    .unwrap_err();
    assert!(err.to_string().contains("disaggregated"), "{err}");

    // One policy group per replica group, or it's a config error.
    let err = ClusterEngine::colocated(vec![spec("x"), spec("y")], RouterPolicy::RoundRobin)
        .unwrap()
        .with_autoscale(elastic)
        .run("bad", &traffic)
        .unwrap_err();
    assert!(err.to_string().contains("group"), "{err}");
}

/// An elastic run under a benign plan (a ×1 straggler window on the
/// initial slot) is the no-plan run plus an all-zero availability
/// section: same completions, report and scaling-action log.
#[test]
fn benign_plan_leaves_an_elastic_run_unchanged() {
    let (engine, traffic) = elastic_fleet();
    let plain = engine.run("benign", &traffic).unwrap();
    let benign = engine
        .with_faults(FaultPlan::none().with_event(FaultEvent::Straggler {
            replica: 0,
            from: Seconds::new(0.001),
            until: Seconds::new(0.050),
            slowdown: 1.0,
        }))
        .run("benign", &traffic)
        .unwrap();
    assert_eq!(plain.completions, benign.completions);
    let avail = benign
        .report
        .availability
        .clone()
        .expect("fault runs report availability");
    assert_eq!(
        (avail.crashes, avail.retries, avail.shed, avail.timed_out),
        (0, 0, 0, 0)
    );
    let mut stripped = benign.report.clone();
    stripped.availability = None;
    assert_eq!(stripped, plain.report);
    let actions = &plain.report.scaling.as_ref().unwrap().actions;
    assert!(
        actions.iter().any(|a| a.kind == action::SCALE_UP),
        "the day must scale"
    );
}

/// Crashes inside the first scale-up ramp — on the serving slot, and on
/// the booting slot while it warms — lose in-flight work to the retry
/// path and push the boot back, yet every offered request is conserved
/// and the run replays bit-for-bit.
#[test]
fn crash_during_a_scale_up_ramp_conserves_and_replays() {
    let (engine, traffic) = elastic_fleet();
    let plain = engine.run("ramp", &traffic).unwrap();
    let first_up = plain
        .report
        .scaling
        .unwrap()
        .actions
        .into_iter()
        .find(|a| a.kind == action::SCALE_UP)
        .expect("the burst day scales up");
    assert_eq!(first_up.replica, "e-1", "the lowest offline slot boots");
    // The ramp spans provision (1 ms) + warmup (0.5 ms).
    let t = first_up.at_s;
    let repair = Seconds::new(0.002);
    let plan = FaultPlan::none()
        .with_event(FaultEvent::Crash {
            at: Seconds::new(t + 0.000_5),
            replica: 0,
            repair,
        })
        .with_event(FaultEvent::Crash {
            at: Seconds::new(t + 0.001_2),
            replica: 1,
            repair,
        });
    let faulty = engine.with_faults(plan);
    let a = faulty.run("ramp", &traffic).unwrap();
    let b = faulty.run("ramp", &traffic).unwrap();
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.report, b.report);
    let avail = a.report.availability.as_ref().unwrap();
    assert_eq!(avail.crashes, 2, "an up slot and a warming slot both crash");
    assert!(avail.retries >= 1, "the serving slot had work in flight");
    assert_eq!(
        a.report.completed + avail.shed + avail.timed_out,
        a.report.offered
    );
    // The warming crash restarts the boot: slot 1 turns up only after the
    // repair and the recovery warmup, and its ramp closes then.
    let scaling = a.report.scaling.as_ref().unwrap();
    let up = scaling
        .actions
        .iter()
        .find(|x| x.kind == action::UP && x.replica == "e-1")
        .expect("the interrupted boot completes");
    assert!(
        up.at_s >= t + 0.001_2 + repair.get(),
        "up at {} before the repair",
        up.at_s
    );
    assert_ne!(a.completions, plain.completions);
}

/// A crash on a draining slot loses its in-flight work to the retry path
/// and retires the slot at once, without downtime; a crash on an offline
/// slot is a no-op.
#[test]
fn crash_retires_a_draining_slot_and_skips_an_offline_one() {
    let (engine, traffic) = elastic_fleet();
    let plain = engine.run("drain", &traffic).unwrap();
    let actions = plain.report.scaling.unwrap().actions;
    // A drain that still had work in flight: its slot retires later.
    let (drain, retired) = actions
        .iter()
        .filter(|a| a.kind == action::SCALE_DOWN)
        .find_map(|d| {
            let r = actions.iter().find(|r| {
                r.kind == action::RETIRED && r.replica == d.replica && r.at_s >= d.at_s
            })?;
            (r.at_s > d.at_s).then_some((d, r))
        })
        .expect("some drain finishes in-flight work");
    let slot = |name: &str| name.strip_prefix("e-").unwrap().parse::<usize>().unwrap();
    let at = (drain.at_s + retired.at_s) / 2.0;
    // Slot 2 is still offline at t = 0.1 ms.
    let plan = FaultPlan::none()
        .with_event(FaultEvent::Crash {
            at: Seconds::new(at),
            replica: slot(&drain.replica),
            repair: Seconds::new(0.001),
        })
        .with_event(FaultEvent::Crash {
            at: Seconds::new(0.000_1),
            replica: 2,
            repair: Seconds::new(0.001),
        });
    let run = engine.with_faults(plan).run("drain", &traffic).unwrap();
    let avail = run.report.availability.as_ref().unwrap();
    assert_eq!(avail.crashes, 1, "the offline slot's crash is a no-op");
    assert!(
        avail.retries >= 1,
        "the drained slot's in-flight work retries"
    );
    assert_eq!(avail.downtime_s, 0.0, "a retiring slot costs no downtime");
    assert_eq!(
        run.report.completed + avail.shed + avail.timed_out,
        run.report.offered
    );
    let retire = run
        .report
        .scaling
        .as_ref()
        .unwrap()
        .actions
        .iter()
        .find(|a| a.kind == action::RETIRED && a.replica == drain.replica && a.at_s >= drain.at_s);
    assert_eq!(
        retire.map(|a| a.at_s),
        Some(at),
        "the crash retires the slot at once"
    );
}
