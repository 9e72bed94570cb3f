//! Named cluster scenarios: the reference fleets the `cluster_sim`
//! binary and the CI smoke/baseline checks run, in the scenario shape
//! the serving crate defines ([`cimtpu_serving::scenario::Scenario`]).

use cimtpu_autoscale::{AutoscalePolicy, GroupPolicy};
use cimtpu_core::TpuConfig;
use cimtpu_models::presets;
use cimtpu_serving::scenario::{smoke_kv_memory, smoke_traffic, tiny_transformer, traffic, Engine};
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, KvBudget, LenDist, MemoryConfig, Offered, PrefixStats,
    PrefixTraffic, ServingModel, SloClass, TenantSet, TenantSpec, TrafficSpec,
};
use cimtpu_units::{Error, Result, Seconds};

use crate::disagg::InterconnectSpec;
use crate::engine::{ClusterEngine, ClusterRun};
use crate::fault::{ChaosSpec, FaultEvent, FaultPlan};
use crate::replica::ReplicaSpec;
use crate::report::ClusterReport;
use crate::router::RouterPolicy;

/// A named, fully specified cluster experiment: the shared scenario
/// shape over a fleet.
pub type Scenario = cimtpu_serving::scenario::Scenario<ClusterEngine>;

impl Engine for ClusterEngine {
    type Report = ClusterReport;
    type Run = ClusterRun;

    fn run(&self, label: &str, offered: Offered<'_>) -> Result<ClusterRun> {
        ClusterEngine::run(self, label, offered)
    }

    fn with_kv_budget(self, budget: KvBudget) -> Self {
        ClusterEngine::with_kv_budget(self, budget)
    }

    fn report(run: ClusterRun) -> (ClusterReport, PrefixStats) {
        (run.report, run.prefix)
    }
}

/// A `model` replica on `chip` under continuous batching.
fn replica(
    name: impl Into<String>,
    chip: TpuConfig,
    model: ServingModel,
    max_batch: u64,
) -> ReplicaSpec {
    ReplicaSpec::new(name, chip, model).with_policy(BatchPolicy::Continuous { max_batch })
}

/// A replica of the serving smoke model (two layers priced in
/// milliseconds of wall clock) on a baseline TPUv4i chip.
fn tiny(name: impl Into<String>, max_batch: u64) -> ReplicaSpec {
    replica(
        name,
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny_transformer()),
        max_batch,
    )
}

/// A GPT-3 6.7B replica on a CIM Design A chip.
fn design_a(name: &str) -> ReplicaSpec {
    replica(name, TpuConfig::design_a(), llm_6_7b(), 8)
}

fn llm_6_7b() -> ServingModel {
    ServingModel::Llm(presets::gpt3_6_7b())
}

fn colocated(replicas: Vec<ReplicaSpec>, router: RouterPolicy) -> ClusterEngine {
    ClusterEngine::colocated(replicas, router).expect("static fleet is valid")
}

/// One prefill replica handing KV over an ICI-class link to a decode
/// pool.
fn disaggregated(
    prefill: ReplicaSpec,
    decode: Vec<ReplicaSpec>,
    router: RouterPolicy,
    decode_router: RouterPolicy,
) -> ClusterEngine {
    let link = InterconnectSpec::ici();
    ClusterEngine::disaggregated(vec![prefill], decode, router, decode_router, link)
        .expect("static fleet is valid")
}

/// A tiny closed-loop fleet at a given client count — the saturation
/// sweep's design points.
fn closed_loop_point(name: &'static str, description: &'static str, clients: u64) -> Scenario {
    let closed = ArrivalPattern::ClosedLoop {
        clients,
        think_ms: 5.0,
    };
    Scenario {
        name,
        description,
        engine: colocated(
            vec![tiny("tiny-0", 8), tiny("tiny-1", 8)],
            RouterPolicy::LeastOutstanding,
        ),
        traffic: traffic(
            48,
            closed,
            LenDist::Uniform { lo: 16, hi: 64 },
            LenDist::Uniform { lo: 4, hi: 12 },
        ),
        tenants: None,
    }
}

/// The headline scenarios: a heterogeneous small+large-chip fleet, a
/// two-model fleet under session-skewed traffic, disaggregated
/// prefill/decode versus colocated at matched hardware, a closed-loop
/// saturation sweep (2 → 8 → 32 clients on one tiny fleet), the
/// chaos set (seeded crashes, a straggler window, a degraded handoff
/// link) exercising the failure-aware drivers, the `cluster-day`
/// scale point (10M requests over 100 replicas) exercising the
/// heap-scheduled event core, and the multi-tenant pair
/// (`cluster-noisy-neighbor`, `cluster-launch-spike`) exercising SLO
/// tiers under weighted-fair scheduling.
pub fn headline() -> Vec<Scenario> {
    let open = |rate_rps| ArrivalPattern::OpenLoop { rate_rps };
    let disagg_traffic = traffic(
        24,
        open(5.0),
        LenDist::Uniform { lo: 512, hi: 1024 },
        LenDist::Fixed(32),
    );
    let llama2_13b = ServingModel::Llm(presets::llama2_13b());
    let sessions = ArrivalPattern::OpenLoopSessions {
        rate_rps: 6.0,
        sessions: 6,
    };
    vec![
        Scenario {
            name: "hetero-fleet",
            description: "GPT-3 6.7B on one baseline TPUv4i + one CIM Design A chip, \
                          least-outstanding routing",
            engine: colocated(
                vec![
                    replica("tpuv4i", TpuConfig::tpuv4i(), llm_6_7b(), 8),
                    design_a("design-a"),
                ],
                RouterPolicy::LeastOutstanding,
            ),
            traffic: traffic(
                24,
                open(6.0),
                LenDist::Uniform { lo: 128, hi: 512 },
                LenDist::Uniform { lo: 16, hi: 64 },
            ),
            tenants: None,
        },
        Scenario {
            name: "two-model-skew",
            description: "a 6.7B and a 13B replica behind session-affinity routing under \
                          a 6-session pool (skew shows up as imbalance)",
            engine: colocated(
                vec![
                    design_a("gpt3-6.7b"),
                    replica("llama2-13b", TpuConfig::design_a(), llama2_13b, 8),
                ],
                RouterPolicy::SessionAffinity,
            ),
            traffic: traffic(
                24,
                sessions,
                LenDist::Uniform { lo: 128, hi: 512 },
                LenDist::Fixed(32),
            ),
            tenants: None,
        },
        Scenario {
            name: "disagg-prefill-decode",
            description: "1 prefill + 2 decode Design A chips with paged KV handoff over \
                          an ICI-class link, least-KV decode placement",
            engine: disaggregated(
                replica("prefill-0", TpuConfig::design_a(), llm_6_7b(), 4),
                vec![design_a("decode-0"), design_a("decode-1")],
                RouterPolicy::RoundRobin,
                RouterPolicy::LeastKv,
            ),
            traffic: disagg_traffic.clone(),
            tenants: None,
        },
        Scenario {
            name: "colo-matched",
            description: "the disagg-prefill-decode hardware (3 Design A chips) serving \
                          the same traffic colocated — the comparison baseline",
            engine: colocated(
                vec![design_a("colo-0"), design_a("colo-1"), design_a("colo-2")],
                RouterPolicy::LeastOutstanding,
            ),
            traffic: disagg_traffic,
            tenants: None,
        },
        closed_loop_point(
            "closed-loop-c2",
            "saturation sweep, 2 closed-loop clients on a 2-replica tiny fleet",
            2,
        ),
        closed_loop_point(
            "closed-loop-c8",
            "saturation sweep, 8 closed-loop clients on a 2-replica tiny fleet",
            8,
        ),
        closed_loop_point(
            "closed-loop-c32",
            "saturation sweep, 32 closed-loop clients on a 2-replica tiny fleet",
            32,
        ),
        Scenario {
            name: "cluster-shared-prefix",
            description: "4 shared system prompts over a 2-replica Design A fleet with \
                          prefix sharing + prefix-affinity routing",
            engine: prefix_fleet(true),
            traffic: cluster_prefix_traffic(),
            tenants: None,
        },
        Scenario {
            name: "cluster-cold-prefix",
            description: "the cluster-shared-prefix fleet and traffic with sharing \
                          disabled — the matched-hardware control",
            engine: prefix_fleet(false),
            traffic: cluster_prefix_traffic(),
            tenants: None,
        },
        Scenario {
            name: "cluster-chaos-crash",
            description: "2 seeded replica crashes (cold restart) under open-loop load \
                          on a 2-replica tiny fleet; lost work retries with backoff",
            engine: chaos_fleet(FaultPlan::seeded(0xFA17).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_5), Seconds::new(0.002)),
                repair: Seconds::new(0.002),
            })),
            traffic: chaos_traffic(),
            tenants: None,
        },
        Scenario {
            name: "cluster-straggler",
            description: "replica 0 runs 4x slow for a mid-run window; least-outstanding \
                          routing shifts load to the healthy replica",
            engine: chaos_fleet(FaultPlan::none().with_event(FaultEvent::Straggler {
                replica: 0,
                from: Seconds::new(0.000_5),
                until: Seconds::new(0.005),
                slowdown: 4.0,
            })),
            traffic: chaos_traffic(),
            tenants: None,
        },
        Scenario {
            name: "cluster-degraded-link",
            description: "tiny 1-prefill + 2-decode fleet with the handoff interconnect \
                          at one-tenth bandwidth (and double energy) all run",
            engine: disaggregated(
                tiny("prefill-0", 4),
                vec![tiny("decode-0", 8), tiny("decode-1", 8)],
                RouterPolicy::RoundRobin,
                RouterPolicy::LeastKv,
            )
            .with_faults(FaultPlan::none().with_event(FaultEvent::DegradedLink {
                from: Seconds::ZERO,
                until: Seconds::new(10.0),
                bandwidth_factor: 0.1,
                energy_factor: 2.0,
            })),
            traffic: chaos_traffic(),
            tenants: None,
        },
        // Appended last: the BENCH_cluster.json baseline grows at the
        // end, leaving every pre-existing entry byte-identical.
        cluster_day(),
        diurnal_point(
            "cluster-diurnal-autoscale",
            "a compressed diurnal day on an elastic 1..6-replica tiny group — \
             the reconcile loop rides the curve (scale-ups pay provisioning \
             + warmup, scale-downs drain)",
            false,
        ),
        diurnal_point(
            "cluster-diurnal-static",
            "the same diurnal day and hardware pinned at the 6-replica peak \
             size all day — the cost baseline the autoscaled run must beat",
            true,
        ),
        noisy_neighbor(),
        launch_spike(),
    ]
}

/// The multi-tenant headline scenario: three equal-weight tenants — an
/// interactive chat tier, a standard API tier, and a batch bulk tier —
/// share a two-replica tiny fleet squeezed into the smoke-kv 4-block KV
/// budget, behind SLO-aware routing. Every tenant offers the same decode
/// tokens, so Jain's fairness index sits at 1.0; the KV squeeze forces
/// preemptions, and the SLO-aware victim order makes the batch tier
/// absorb them while interactive attainment holds (CI asserts both).
fn noisy_neighbor() -> Scenario {
    let tenant_traffic = |rate_rps: f64, seed: u64| TrafficSpec {
        seed,
        ..traffic(
            16,
            ArrivalPattern::OpenLoop { rate_rps },
            LenDist::Fixed(32),
            LenDist::Fixed(8),
        )
    };
    let tenant = |name, class, rate_rps, seed| {
        TenantSpec::new(name, class, 1.0, tenant_traffic(rate_rps, seed))
    };
    let shared = |name| tiny(name, 4).with_memory(smoke_kv_memory());
    Scenario {
        name: "cluster-noisy-neighbor",
        description: "3 equal-weight SLO tiers (chat/api/bulk) on a 2-replica tiny \
                      fleet under the smoke-kv 4-block KV squeeze, SLO-aware routing \
                      (CI: fairness, batch-absorbed preemptions, interactive SLO)",
        engine: colocated(
            vec![shared("shared-0"), shared("shared-1")],
            RouterPolicy::SloAware,
        ),
        // The base shape `--tenants` overlays split; `tenants` below
        // supersedes it for plain runs.
        traffic: tenant_traffic(8_000.0, 0xC1A0),
        tenants: Some(
            TenantSet::new(vec![
                tenant("chat", SloClass::Interactive, 4_000.0, 0xC1A0),
                tenant("api", SloClass::Standard, 4_000.0, 0xC1A1),
                tenant("bulk", SloClass::Batch, 20_000.0, 0xC1A2),
            ])
            .expect("static tenant set is valid"),
        ),
    }
}

/// The launch-day spike: an interactive tenant whose traffic bursts hard
/// (a compressed diurnal day at double-rate burst) rides alongside a
/// steady batch backfill tenant at half its weight. Weighted-fair
/// scheduling keeps the backfill flowing through the spike instead of
/// starving it.
fn launch_spike() -> Scenario {
    let spike = ArrivalPattern::Diurnal {
        peak_rps: 24_000.0,
        day_s: 0.012,
        burst_x: 2.0,
        bursts: 1,
    };
    let launch = TrafficSpec {
        seed: 0x5B1E,
        ..traffic(
            32,
            spike,
            LenDist::Uniform { lo: 16, hi: 48 },
            LenDist::Uniform { lo: 4, hi: 8 },
        )
    };
    let backfill = TrafficSpec {
        seed: 0x5B1F,
        ..traffic(
            16,
            ArrivalPattern::OpenLoop { rate_rps: 2_000.0 },
            LenDist::Fixed(64),
            LenDist::Fixed(16),
        )
    };
    let base = ArrivalPattern::OpenLoop { rate_rps: 8_000.0 };
    Scenario {
        name: "cluster-launch-spike",
        description: "an interactive launch-day spike (diurnal burst, weight 2) over a \
                      steady weight-1 batch backfill on a 2-replica tiny fleet — \
                      weighted-fair scheduling keeps the backfill alive through the peak",
        engine: colocated(
            vec![tiny("spike-0", 8), tiny("spike-1", 8)],
            RouterPolicy::SloAware,
        ),
        traffic: TrafficSpec {
            seed: 0x5B1E,
            ..traffic(
                48,
                base,
                LenDist::Uniform { lo: 16, hi: 64 },
                LenDist::Uniform { lo: 4, hi: 12 },
            )
        },
        tenants: Some(
            TenantSet::new(vec![
                TenantSpec::new("launch", SloClass::Interactive, 2.0, launch),
                TenantSpec::new("backfill", SloClass::Batch, 1.0, backfill),
            ])
            .expect("static tenant set is valid"),
        ),
    }
}

/// The million-request scale point: `cluster-day` offers ten million
/// closed-loop requests (a thousand clients on ~8.6 s think time — about
/// one simulated day of traffic) to a 100-replica tiny fleet. The
/// round-robin router keeps routing O(1), so the run measures the
/// discrete-event core itself; `cluster_sim --perf-json` records how
/// fast the driver chews through it in wall clock.
fn cluster_day_point(name: &'static str, description: &'static str, requests: u64) -> Scenario {
    let replicas = (0..100).map(|i| tiny(format!("day-{i:02}"), 8)).collect();
    let closed = ArrivalPattern::ClosedLoop {
        clients: 1000,
        think_ms: 8640.0,
    };
    Scenario {
        name,
        description,
        engine: colocated(replicas, RouterPolicy::RoundRobin),
        traffic: traffic(
            requests,
            closed,
            LenDist::Uniform { lo: 16, hi: 48 },
            LenDist::Uniform { lo: 2, hi: 6 },
        ),
        tenants: None,
    }
}

/// The headline `cluster-day` scenario: 10M requests over 100 replicas.
fn cluster_day() -> Scenario {
    cluster_day_point(
        "cluster-day",
        "a simulated day of traffic: 10M closed-loop requests (1000 clients) \
         over a 100-replica tiny fleet, round-robin routing",
        10_000_000,
    )
}

/// The CI perf-smoke scenario: `cluster-day` at 1/40 the request count
/// (same fleet, same clients), small enough for every CI run. The
/// perf-smoke check replays it twice for the determinism diff and reads
/// the `--perf-json` sidecar against the committed
/// `requests_per_second` floor.
pub fn cluster_day_smoke() -> Scenario {
    cluster_day_point(
        "cluster-day-smoke",
        "cluster-day at 1/40 scale: 250k closed-loop requests over the same \
         100-replica fleet (CI perf floor + determinism check)",
        250_000,
    )
}

/// An elastic group grown from one tiny replica named `replica`, under
/// `policy` and a 2 ms SLO: the autoscale scenarios' fleet.
fn elastic_group(replica: &str, policy: AutoscalePolicy) -> ClusterEngine {
    colocated(vec![tiny(replica, 8)], RouterPolicy::LeastOutstanding)
        .with_slo_ms(2.0)
        .with_autoscale(policy)
}

/// `requests` arrivals over a compressed diurnal day (`day_s` long,
/// peaking at `peak_rps`, one burst at `burst_x`).
fn day_traffic(requests: u64, peak_rps: f64, day_s: f64, burst_x: f64) -> TrafficSpec {
    let day = ArrivalPattern::Diurnal {
        peak_rps,
        day_s,
        burst_x,
        bursts: 1,
    };
    traffic(
        requests,
        day,
        LenDist::Uniform { lo: 16, hi: 64 },
        LenDist::Uniform { lo: 4, hi: 12 },
    )
}

/// The diurnal head-to-head: one elastic group of tiny replicas under a
/// compressed diurnal day. `pinned_at_peak` selects the static baseline —
/// the same hardware held at the elastic band's 6-replica peak size all
/// day — so the pair compares elasticity cost (chip-seconds and joules)
/// at matched traffic. The elastic policy's utilization band is sized
/// from the tiny replica's measured operating curve (~31k rps saturated,
/// steady-state in-flight ≈ 0.6 at light load to ≈ 7 near saturation):
/// target concurrency 4 with the 0.25/0.75 band scales up past ~2/3 of
/// a replica's service rate and down below ~1/5 of it.
fn diurnal_point(name: &'static str, description: &'static str, pinned_at_peak: bool) -> Scenario {
    let elastic = GroupPolicy {
        min: 1,
        max: 6,
        initial: 2,
        concurrency: 4,
        scale_up_above: 0.75,
        scale_down_below: 0.25,
        up_cooldown: Seconds::new(0.002),
        down_cooldown: Seconds::new(0.008),
        slo_floor: 0.0,
    };
    let group = if pinned_at_peak {
        GroupPolicy {
            min: 6,
            initial: 6,
            ..elastic
        }
    } else {
        elastic
    };
    let policy = AutoscalePolicy {
        interval: Seconds::new(0.002),
        provision: Seconds::new(0.002),
        warmup: Seconds::new(0.001),
        ..AutoscalePolicy::new(vec![group])
    };
    Scenario {
        name,
        description,
        engine: elastic_group("diurnal", policy),
        // hour_len = 25 ms; ~32k requests per day
        traffic: day_traffic(30_000, 100_000.0, 0.6, 1.5),
        tenants: None,
    }
}

/// The CI autoscale smoke: a single tiny group allowed to scale to zero
/// (band 0..2) under a bursty compressed day, tuned so the committed
/// seed deterministically produces at least one scale-up, one
/// scale-down, and one scale-to-zero — the events the CI grep asserts.
pub(crate) fn smoke_autoscale() -> Scenario {
    let policy = AutoscalePolicy {
        interval: Seconds::new(0.001),
        provision: Seconds::new(0.001),
        warmup: Seconds::new(0.000_5),
        ..AutoscalePolicy::new(vec![GroupPolicy {
            min: 0,
            max: 2,
            initial: 1,
            concurrency: 4,
            scale_up_above: 0.75,
            scale_down_below: 0.25,
            up_cooldown: Seconds::new(0.001),
            down_cooldown: Seconds::new(0.002),
            slo_floor: 0.0,
        }])
    };
    Scenario {
        name: "smoke-autoscale",
        description: "bursty compressed day on a scale-to-zero 0..2-replica tiny \
                      group (CI grep: scale-up, scale-down, scale-to-zero)",
        engine: elastic_group("burst", policy),
        traffic: day_traffic(3_000, 24_000.0, 0.24, 2.0), // hour_len = 10 ms
        tenants: None,
    }
}

/// The chaos testbed: two identical tiny replicas behind
/// least-outstanding routing, with the given fault plan installed.
fn chaos_fleet(faults: FaultPlan) -> ClusterEngine {
    colocated(
        vec![tiny("chaos-0", 8), tiny("chaos-1", 8)],
        RouterPolicy::LeastOutstanding,
    )
    .with_faults(faults)
}

/// Chaos-set traffic: open-loop pressure past the tiny fleet's service
/// rate, so queues build and the fault windows always overlap in-flight
/// work.
fn chaos_traffic() -> TrafficSpec {
    let open = ArrivalPattern::OpenLoop { rate_rps: 20_000.0 };
    traffic(
        48,
        open,
        LenDist::Uniform { lo: 16, hi: 64 },
        LenDist::Uniform { lo: 8, hi: 16 },
    )
}

/// The shared-vs-cold prefix fleet: two identical Design A replicas
/// behind prefix-affinity routing (each shared head lands where its KV
/// blocks live); `sharing` toggles the replicas' prefix caches and is
/// the only difference between the pair.
fn prefix_fleet(sharing: bool) -> ClusterEngine {
    let memory = if sharing {
        MemoryConfig::unlimited().with_prefix_sharing()
    } else {
        MemoryConfig::unlimited()
    };
    let prefix = |name| design_a(name).with_memory(memory);
    colocated(
        vec![prefix("prefix-0"), prefix("prefix-1")],
        RouterPolicy::PrefixAffinity,
    )
}

/// Shared-system-prompt fleet traffic: four 512-token heads across 24
/// medium prompts.
fn cluster_prefix_traffic() -> TrafficSpec {
    let open = ArrivalPattern::OpenLoop { rate_rps: 6.0 };
    TrafficSpec {
        prefix: PrefixTraffic::SharedHead {
            tokens: 512,
            groups: 4,
        },
        ..traffic(
            24,
            open,
            LenDist::Uniform { lo: 640, hi: 1024 },
            LenDist::Fixed(32),
        )
    }
}

/// The CI smoke scenario: a tiny disaggregated fleet under a tight decode
/// KV budget, so KV handoffs *and* decode admission gating both fire in
/// milliseconds of wall clock. Must report at least one KV transfer — CI
/// asserts it.
pub(crate) fn smoke_cluster() -> Scenario {
    Scenario {
        name: "smoke-cluster",
        description: "tiny 1-prefill + 1-decode fleet, 4-block decode KV budget \
                      (CI handoff determinism check)",
        engine: disaggregated(
            tiny("prefill-0", 4),
            vec![tiny("decode-0", 4).with_memory(smoke_kv_memory())],
            RouterPolicy::PassThrough,
            RouterPolicy::PassThrough,
        ),
        traffic: smoke_traffic(PrefixTraffic::None),
        tenants: None,
    }
}

/// The smoke checks, listed after the headline set under `--help`.
pub fn checks() -> Vec<Scenario> {
    vec![smoke_cluster(), cluster_day_smoke(), smoke_autoscale()]
}

/// Looks a scenario up by name (the headline set plus the smoke checks).
/// A check is built alone; any other name builds the headline set.
///
/// # Errors
///
/// Returns [`Error::UnknownPreset`] for unrecognized names.
pub fn by_name(name: &str) -> Result<Scenario> {
    match name {
        "smoke-cluster" => Ok(smoke_cluster()),
        "cluster-day-smoke" => Ok(cluster_day_smoke()),
        "smoke-autoscale" => Ok(smoke_autoscale()),
        _ => headline()
            .into_iter()
            .find(|s| s.name == name)
            .ok_or_else(|| Error::unknown_preset(name.to_owned())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_covers_all_scenarios() {
        for s in headline() {
            assert_eq!(by_name(s.name).unwrap().name, s.name);
        }
        assert_eq!(by_name("smoke-cluster").unwrap().name, "smoke-cluster");
        assert_eq!(
            by_name("cluster-day-smoke").unwrap().name,
            "cluster-day-smoke"
        );
        assert_eq!(by_name("smoke-autoscale").unwrap().name, "smoke-autoscale");
        assert!(by_name("nope").is_err());
    }

    #[test]
    fn autoscaled_diurnal_beats_the_static_peak_fleet() {
        let auto = by_name("cluster-diurnal-autoscale")
            .unwrap()
            .run(None)
            .unwrap();
        let fixed = by_name("cluster-diurnal-static")
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!(auto.report.completed, auto.report.offered);
        assert_eq!(fixed.report.completed, fixed.report.offered);
        let a = auto
            .report
            .scaling
            .as_ref()
            .expect("elastic run reports scaling");
        let s = fixed
            .report
            .scaling
            .as_ref()
            .expect("pinned run reports scaling");
        // The elastic fleet breathes with the curve: it grows toward the
        // peak and shrinks back down the evening slope.
        assert!(
            a.scale_ups >= 1 && a.scale_downs >= 1,
            "expected scaling activity, got {} up / {} down",
            a.scale_ups,
            a.scale_downs
        );
        assert!(a.peak_replicas <= 6);
        // The pinned baseline holds 6 replicas all day and never acts.
        assert_eq!(fixed.report.replicas, 6);
        assert_eq!(s.scale_ups + s.scale_downs + s.swaps, 0);
        // The headline acceptance: strictly lower chip-seconds AND joules
        // at matched traffic.
        assert!(
            a.chip_seconds < s.chip_seconds,
            "elastic {:.4} chip-s !< static {:.4} chip-s",
            a.chip_seconds,
            s.chip_seconds
        );
        assert!(
            a.total_cost_j < s.total_cost_j,
            "elastic {:.4} J !< static {:.4} J",
            a.total_cost_j,
            s.total_cost_j
        );
        // SLO violations during provisioning/warmup ramps are bounded:
        // under 1% of the day's traffic.
        assert!(
            a.slo_violations_ramp <= auto.report.offered / 100,
            "{} ramp SLO misses on {} requests",
            a.slo_violations_ramp,
            auto.report.offered
        );
    }

    #[test]
    fn smoke_autoscale_emits_every_event_kind_deterministically() {
        let run = smoke_autoscale().run(None).unwrap();
        let s = run
            .report
            .scaling
            .as_ref()
            .expect("elastic run reports scaling");
        // The three events the CI grep asserts on the report text.
        assert!(s.scale_ups >= 1, "scaling: {s:?}");
        assert!(s.scale_downs >= 1, "scaling: {s:?}");
        assert!(s.scale_to_zero >= 1, "scaling: {s:?}");
        // Scale-to-zero parks arrivals rather than dropping them.
        assert_eq!(run.report.completed, run.report.offered);
        let again = smoke_autoscale().run(None).unwrap();
        assert_eq!(run.report, again.report);
        assert_eq!(run.completions, again.completions);
    }

    #[test]
    fn cluster_day_fleet_completes_everything_deterministically() {
        // The full cluster-day point is a release-binary benchmark; the
        // unit test drives the same 100-replica fleet at a debug-friendly
        // request count.
        let tiny_day = cluster_day_point("day-tiny", "", 2_000);
        let a = tiny_day.run(None).unwrap();
        assert_eq!(a.report.completed, 2_000);
        assert_eq!(a.report.replicas, 100);
        // Round-robin spreads a light closed loop evenly.
        assert!(a.report.imbalance < 1.5, "imbalance {}", a.report.imbalance);
        let b = tiny_day.run(None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions, b.completions);
    }

    #[test]
    fn smoke_cluster_hands_off_kv_deterministically() {
        let a = smoke_cluster().run(None).unwrap();
        let b = smoke_cluster().run(None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.report.completed, 6);
        // Every request's cache crossed the interconnect.
        assert_eq!(a.report.kv_transfers, 6, "report: {}", a.report);
        assert!(a.report.kv_transfer_bytes > 0);
        assert!(a.report.kv_transfer_s > 0.0);
        assert!(a.report.kv_transfer_energy_j > 0.0);
        // The 4-block decode budget (2.5 worst-case requests) gates
        // admission: decode queue-full time accrues.
        assert!(a.report.queue_full_s > 0.0, "report: {}", a.report);
        // A different seed changes the trace, hence the report.
        let c = smoke_cluster().run(Some(99)).unwrap();
        assert_ne!(a.report, c.report);
    }

    #[test]
    fn cluster_shared_prefix_beats_cold_at_matched_hardware() {
        let shared = by_name("cluster-shared-prefix").unwrap().run(None).unwrap();
        let cold = by_name("cluster-cold-prefix").unwrap().run(None).unwrap();
        // Same fleet, same trace: completions are token-for-token equal.
        assert_eq!(
            shared
                .completions
                .iter()
                .map(|c| (c.id, c.steps))
                .collect::<Vec<_>>(),
            cold.completions
                .iter()
                .map(|c| (c.id, c.steps))
                .collect::<Vec<_>>(),
        );
        // Affinity routing concentrates each head, so the caches hit.
        assert!(shared.prefix.hits > 0, "prefix stats: {}", shared.prefix);
        assert_eq!(cold.prefix, cimtpu_serving::PrefixStats::default());
        assert!(
            shared.report.ttft.mean_ms < cold.report.ttft.mean_ms,
            "shared TTFT {} ms !< cold {} ms",
            shared.report.ttft.mean_ms,
            cold.report.ttft.mean_ms
        );
        assert!(shared.report.total_energy_j < cold.report.total_energy_j);
        // Deterministic replay.
        let again = by_name("cluster-shared-prefix").unwrap().run(None).unwrap();
        assert_eq!(shared.report, again.report);
        assert_eq!(shared.prefix, again.prefix);
    }

    #[test]
    fn chaos_crash_reports_failures_and_recovers() {
        let run = by_name("cluster-chaos-crash").unwrap().run(None).unwrap();
        let avail = run
            .report
            .availability
            .as_ref()
            .expect("fault runs report availability");
        assert!(avail.crashes >= 1, "report: {}", run.report);
        assert!(avail.retries >= 1, "report: {}", run.report);
        assert!(avail.retried_ok >= 1, "report: {}", run.report);
        assert!(avail.availability < 1.0, "report: {}", run.report);
        assert!(avail.downtime_s > 0.0);
        assert_eq!(avail.time_to_recover_s.len(), avail.crashes as usize);
        // Conservation: every offered request is accounted for.
        assert_eq!(
            run.report.completed + avail.shed + avail.timed_out,
            run.report.offered,
            "report: {}",
            run.report
        );
        // Deterministic replay at the default fault seed.
        let again = by_name("cluster-chaos-crash").unwrap().run(None).unwrap();
        assert_eq!(run.report, again.report);
        assert_eq!(run.completions, again.completions);
    }

    #[test]
    fn straggler_window_slows_but_loses_nothing() {
        let faulty = by_name("cluster-straggler").unwrap().run(None).unwrap();
        let clean = Scenario {
            engine: chaos_fleet(FaultPlan::none()),
            ..by_name("cluster-straggler").unwrap()
        }
        .run(None)
        .unwrap();
        let avail = faulty.report.availability.as_ref().unwrap();
        assert_eq!(avail.crashes, 0);
        assert_eq!(avail.shed + avail.timed_out, 0);
        assert_eq!(faulty.report.completed, clean.report.completed);
        // A 4x-slow replica costs wall clock somewhere.
        assert!(
            faulty.report.latency.p99_ms > clean.report.latency.p99_ms,
            "straggler p99 {} ms !> clean {} ms",
            faulty.report.latency.p99_ms,
            clean.report.latency.p99_ms
        );
    }

    #[test]
    fn degraded_link_stretches_transfers() {
        let degraded = by_name("cluster-degraded-link").unwrap().run(None).unwrap();
        let clean = Scenario {
            engine: by_name("cluster-degraded-link")
                .unwrap()
                .engine
                .with_faults(FaultPlan::none()),
            ..by_name("cluster-degraded-link").unwrap()
        }
        .run(None)
        .unwrap();
        assert_eq!(degraded.report.completed, clean.report.completed);
        assert_eq!(degraded.report.kv_transfers, clean.report.kv_transfers);
        assert_eq!(
            degraded.report.kv_transfer_bytes,
            clean.report.kv_transfer_bytes
        );
        assert!(
            degraded.report.kv_transfer_s > clean.report.kv_transfer_s,
            "degraded transfer time {} s !> clean {} s",
            degraded.report.kv_transfer_s,
            clean.report.kv_transfer_s
        );
        assert!(degraded.report.kv_transfer_energy_j > clean.report.kv_transfer_energy_j);
    }

    #[test]
    fn noisy_neighbor_isolates_the_interactive_tenant() {
        let run = by_name("cluster-noisy-neighbor")
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!(run.report.completed, run.report.offered);
        let t = run
            .report
            .tenants
            .as_ref()
            .expect("multi-tenant run reports tenants");
        // Equal weights, equal decode tokens per tenant: Jain's index
        // should sit essentially at 1 (CI asserts > 0.9).
        assert!(t.fairness > 0.9, "fairness {}", t.fairness);
        let chat = t.tenants.iter().find(|u| u.name == "chat").unwrap();
        let bulk = t.tenants.iter().find(|u| u.name == "bulk").unwrap();
        // The headline acceptance: interactive SLO attainment under
        // contention, with the batch tenant absorbing every KV eviction.
        assert!(
            chat.slo_attainment >= 0.95,
            "chat SLO {}",
            chat.slo_attainment
        );
        assert!(
            bulk.preemptions >= 1,
            "expected batch preemptions, tenants: {t:?}"
        );
        assert_eq!(
            chat.preemptions, 0,
            "interactive tenant was preempted: {t:?}"
        );
        let total: u64 = t.tenants.iter().map(|u| u.preemptions).sum();
        assert_eq!(
            total, run.report.preemptions,
            "ledger must conserve preemptions"
        );
        let again = by_name("cluster-noisy-neighbor")
            .unwrap()
            .run(None)
            .unwrap();
        assert_eq!(run.report, again.report);
        assert_eq!(run.completions, again.completions);
    }

    #[test]
    fn launch_spike_completes_deterministically() {
        let run = by_name("cluster-launch-spike").unwrap().run(None).unwrap();
        assert_eq!(run.report.completed, run.report.offered);
        let t = run
            .report
            .tenants
            .as_ref()
            .expect("multi-tenant run reports tenants");
        assert_eq!(t.tenants.len(), 2);
        let launch = t.tenants.iter().find(|u| u.name == "launch").unwrap();
        assert_eq!(launch.completed, 32);
        assert!(
            launch.slo_attainment >= 0.95,
            "launch SLO {}",
            launch.slo_attainment
        );
        let again = by_name("cluster-launch-spike").unwrap().run(None).unwrap();
        assert_eq!(run.report, again.report);
        // Reseeding moves the merged trace, hence the report.
        let reseeded = by_name("cluster-launch-spike")
            .unwrap()
            .run(Some(7))
            .unwrap();
        assert_ne!(run.report, reseeded.report);
    }

    #[test]
    fn tenant_overlay_preserves_the_fleet_total() {
        // `--tenants` overlays split the scenario's base traffic across
        // equal-weight tenants; the fleet-level totals must be conserved.
        let base = by_name("hetero-fleet").unwrap();
        let parts = crate::parse_tenants("a=interactive,b=batch").unwrap();
        let tenants = TenantSet::overlay(&base.traffic, &parts).unwrap();
        let split = base.engine.run(base.name, &tenants).unwrap();
        assert_eq!(split.report.offered, base.traffic.requests);
        assert_eq!(split.report.completed, split.report.offered);
        let t = split
            .report
            .tenants
            .as_ref()
            .expect("overlay reports tenants");
        let done: u64 = t.tenants.iter().map(|u| u.completed).sum();
        assert_eq!(done, split.report.completed);
    }

    #[test]
    fn closed_loop_sweep_saturates() {
        let c2 = closed_loop_point("c2", "", 2).run(None).unwrap();
        let c32 = closed_loop_point("c32", "", 32).run(None).unwrap();
        assert!(
            c32.report.throughput_rps > c2.report.throughput_rps,
            "32 clients {:.1} rps should beat 2 clients {:.1} rps",
            c32.report.throughput_rps,
            c2.report.throughput_rps
        );
        assert!(
            c32.report.latency.p99_ms > c2.report.latency.p99_ms,
            "saturation should cost tail latency"
        );
    }
}
