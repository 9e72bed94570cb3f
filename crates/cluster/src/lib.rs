//! Cluster-scale serving simulation: fleets of serving engines behind a
//! router, with optional disaggregated prefill/decode.
//!
//! The `cimtpu-serving` crate prices one engine — one chip group, one
//! model, one batching policy. Production serving is a *fleet* problem:
//! heterogeneous replicas, request routing, closed-loop client
//! populations, and (since DistServe/Splitwise) pipelines where prefill
//! and decode run on different machines with the KV cache migrating
//! between them. This crate composes those out of the existing layers.
//!
//! # Topology
//!
//! ```text
//!                       ┌────────────────────────────────────────────┐
//!   TrafficSpec ──────► │ Router (round-robin / least-outstanding /  │
//!   (open / closed      │  least-KV / session- / prefix-affinity)    │
//!    loop, seeded)      └───────┬──────────────┬─────────────────────┘
//!                               │              │
//!                     Colocated │              │ Disaggregated
//!                               ▼              ▼
//!              ┌─ replica 0: EngineCore ┐   ┌─ prefill pool ─┐
//!              ├─ replica 1: EngineCore ┤   │ FCFS prompt    │
//!              ├─ replica 2: EngineCore ┤   │ ingestion      │
//!              └─ ... (any chip, model, ┘   └───────┬────────┘
//!                 policy, KV budget mix)            │ KV handoff:
//!                                                   │ paged blocks over
//!                                                   │ InterconnectSpec
//!                                                   ▼
//!                                            ┌─ decode pool ──┐
//!                                            │ continuous     │
//!                                            │ decode, paged  │
//!                                            │ KV admission   │
//!                                            └────────────────┘
//! ```
//!
//! **Colocated** fleets run one incremental
//! [`EngineCore`](cimtpu_serving::EngineCore) per [`ReplicaSpec`] — each
//! with its own chip config, model, batching policy, and KV budget — and
//! interleave them through one event loop, [`drive`](cimtpu_serving::drive)
//! re-derived with fault, lifecycle and reconcile events. The [`Router`] sees a
//! [`ReplicaSnapshot`] per replica at every arrival instant (outstanding
//! work, queue depth, live KV occupancy) and picks the target; see the
//! [`router`] module docs for the full trait contract. A 1-replica
//! colocated cluster with the [`RouterPolicy::PassThrough`] router
//! reproduces the corresponding single-engine
//! [`ServingReport`](cimtpu_serving::ServingReport) **bit-for-bit** —
//! the equivalence anchor the test suite pins for every batching policy
//! and both open- and closed-loop traffic.
//!
//! **Disaggregated** fleets split the pipeline: a prefill pool ingests
//! prompts FCFS, the finished prompt's paged KV cache migrates over an
//! [`InterconnectSpec`] (block-aligned
//! [`handoff_bytes`](cimtpu_kv::KvFootprint::handoff_bytes), serialized
//! per egress link, priced in seconds *and* joules), and a second router
//! places each handoff on a decode replica whose paged allocator gates
//! admission. See the [`disagg`] module docs for the full cost model.
//!
//! # Traffic
//!
//! Both topologies accept every
//! [`TrafficSpec`](cimtpu_serving::TrafficSpec) arrival pattern,
//! including closed-loop client populations — completions anywhere in
//! the fleet schedule that client's next arrival, so saturation studies
//! (throughput and latency versus client count) run fleet-wide.
//!
//! # Multi-tenancy
//!
//! [`ClusterEngine::run`] serves either [`Offered`] load: a
//! [`TrafficSpec`](cimtpu_serving::TrafficSpec), or a [`TenantSet`] —
//! named tenants with [`SloClass`] tiers, weights, and their own
//! open-loop traffic — merged into one deterministic trace. Colocated replicas arm each
//! [`EngineCore`](cimtpu_serving::EngineCore)'s weighted-fair scheduler
//! (priority admission, deficit-weighted service, SLO-aware preemption
//! that evicts batch-tier residents first); the
//! [`RouterPolicy::SloAware`] router reads per-class outstanding splits
//! from the [`ReplicaSnapshot`]s. Disaggregated pools keep tenancy at
//! the traffic and report level (the FCFS/continuous pools schedule
//! tenant-blind). Reports gain a `tenants` section — per-tenant goodput,
//! SLO attainment, preemptions, and Jain's fairness index — and a
//! one-tenant set reproduces the untenanted run bit for bit, plus that
//! section.
//!
//! Tenant state is read-only during a run: each book counts its events
//! per tenant from the request's own tag, completions (which carry none)
//! find theirs through [`RequestTenants`](cimtpu_serving::RequestTenants),
//! a view of the merged trace, and [`TenantReport::new`] builds the
//! section once, when the run ends.
//!
//! # Faults
//!
//! The [`fault`] module injects failures into either topology: replica
//! crashes (in-flight work and KV/prefix state lost, cold restart after
//! repair), straggler windows (multiplicative step-latency slowdown on
//! colocated replicas), and degraded interconnect windows (bandwidth /
//! energy multipliers on the disaggregated handoff link). A
//! [`FaultPlan`] combines explicit events with seeded [`ChaosSpec`]
//! draws from an RNG stream separate from the traffic's, so reseeding
//! faults never perturbs arrivals — and an *empty* plan injects
//! nothing, keeping today's runs bit-for-bit (no availability section).
//! Each topology runs one event loop for every plan; under faults it
//! routes around down replicas via a
//! [`HealthView`], retries lost requests with capped exponential backoff
//! under a per-request budget and deadline, and reports an
//! [`AvailabilityStats`] section (crashes, downtime, retries, shed /
//! timed-out work, time-to-recover) on the [`ClusterReport`].
//!
//! # Autoscaling
//!
//! [`ClusterEngine::with_autoscale`] installs an
//! [`AutoscalePolicy`]: each
//! [`ReplicaSpec`] becomes an elastic group of up to `max` slots that a
//! deterministic reconcile loop grows and
//! shrinks on a fixed interval of the simulated clock — scale-ups pay a
//! provisioning delay plus warmup before turning `Up` in the
//! [`HealthView`], scale-downs drain in-flight work, groups with
//! `min == 0` scale to zero and park arrivals until woken, and model
//! swaps repurpose capacity between groups under skewed traffic. The
//! report gains a `scaling` section (action log, ramp SLO violations,
//! chip-seconds and joules) so an elastic run compares head-to-head
//! with a peak-sized static fleet. The reconcile tick is one more event
//! class of the colocated loop, so elastic groups compose with fault
//! plans: a fault's replica index names a slot (`{group}-{j}`, in order
//! across groups), and the [`elastic`] module docs specify what a crash
//! does to a booting, draining or offline slot. A **pinned** policy
//! (`min == max` everywhere, no swaps) expands the fleet and runs it
//! through the static fleet's event loop bit-identically.
//!
//! # Observability
//!
//! [`ClusterEngine::run_observed`] is the one run entry point that
//! accepts a flight recorder: an optional [`SharedRecorder`] from
//! `cimtpu-obs` (`cluster_sim --trace` / `--metrics-csv` pass one with
//! the scenario's [`Scenario::offered`](scenario::Scenario::offered)
//! load). It picks the event loops' observer once: both loops are
//! generic over a crate-private `FleetObserver` trait, whose `()`
//! implementation is all no-ops (so a recorder-off run has no trace
//! branches at all) and whose `FleetTrace` implementation writes to the
//! recorder and owns the trace layout. A traced run emits typed lifecycle events (arrival →
//! queue → prefill → KV handoff → decode → complete, plus preempt /
//! retry / shed / timeout / park) and fleet events (crash, repair,
//! straggler windows, scale actions, reconcile ticks) keyed by
//! simulated time, onto one track per replica slot (a disaggregated
//! fleet's prefill pool, then its decode pool) plus a control track.
//! Every fleet traces this one layout: the loop emits each arrival as it
//! admits it and each completion as it delivers it. The recorder
//! exports a Chrome trace-event JSON
//! (Perfetto-loadable, via [`Recorder::to_chrome_json`] with a
//! [`TraceFilter`]), streaming log-bucketed latency/TTFT histograms and
//! downsampled gauge series ([`TimeseriesStats`], surfaced as the
//! report's optional `timeseries` section), and a gauge CSV. Traces are
//! a pure function of the simulated run: same seed, same bytes, and
//! reports byte-identical to a recorder-off run. New observers (profile
//! counts, latency attribution) land as further `FleetObserver`
//! implementations.
//!
//! # Reports
//!
//! A [`ClusterRun`] carries the fleet [`ClusterReport`] (p50/p95/p99
//! latency and TTFT, throughput and SLO-goodput, energy, KV-transfer
//! volume/time/energy, per-replica utilization rows and an imbalance
//! ratio), the per-request completions and the fleet's prefix-sharing
//! counters. The `cluster_sim` binary runs the headline scenarios and
//! writes `BENCH_cluster.json`, which CI diffs against the committed
//! baseline.
//!
//! # Example
//!
//! ```
//! use cimtpu_cluster::{ClusterEngine, ReplicaSpec, RouterPolicy};
//! use cimtpu_core::TpuConfig;
//! use cimtpu_models::TransformerConfig;
//! use cimtpu_serving::{ArrivalPattern, LenDist, PrefixTraffic, ServingModel, TrafficSpec};
//!
//! let tiny = TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024)?;
//! let fleet = ClusterEngine::colocated(
//!     vec![
//!         ReplicaSpec::new("a", TpuConfig::tpuv4i(), ServingModel::Llm(tiny.clone())),
//!         ReplicaSpec::new("b", TpuConfig::design_a(), ServingModel::Llm(tiny)),
//!     ],
//!     RouterPolicy::LeastOutstanding,
//! )?;
//! let run = fleet.run(
//!     "quickstart",
//!     &TrafficSpec {
//!         requests: 8,
//!         arrival: ArrivalPattern::ClosedLoop { clients: 4, think_ms: 5.0 },
//!         prompt: LenDist::Fixed(32),
//!         steps: LenDist::Fixed(4),
//!         prefix: PrefixTraffic::None,
//!         seed: 1,
//!     },
//! )?;
//! assert_eq!(run.report.completed, 8);
//! assert_eq!(run.report.per_replica.len(), 2);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod disagg;
pub mod elastic;
mod engine;
pub mod fault;
mod observe;
mod replica;
mod report;
pub mod router;
pub mod scenario;

pub use cimtpu_autoscale::{
    parse_autoscale, AutoscalePolicy, AutoscaleSpec, GroupPolicy, ScalingAction, ScalingStats,
};
pub use cimtpu_obs::{
    EventKind, Recorder, SharedRecorder, TimeseriesStats, TraceFilter, TraceHandle,
};
pub use cimtpu_serving::{
    parse_tenants, Offered, SloClass, TenantPart, TenantReport, TenantSet, TenantSpec, TenantUsage,
};
pub use disagg::InterconnectSpec;
pub use engine::{ClusterEngine, ClusterRun, ClusterTopology};
pub use fault::{
    parse_faults, AvailabilityStats, ChaosSpec, FaultEvent, FaultPlan, RecoveryPolicy,
};
pub use replica::ReplicaSpec;
pub use report::{ClusterReport, PerfRecord, ReplicaUtilization};
pub use router::{HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy};

#[cfg(test)]
mod reference;
