//! The fleet engine: topology + router + traffic → [`ClusterRun`].

use std::rc::Rc;

use cimtpu_obs::{EventKind, SharedRecorder, TraceHandle, TraceSink as _};
use cimtpu_serving::{
    drive_with, ActionHeap, ArrivalStream, Completion, DriveHooks, EngineCore, EngineSession,
    PrefixStats, Request, ServingReport, TenantLedger, TenantSched, TenantSet, TrafficSpec,
};
use cimtpu_autoscale::{AutoscalePolicy, ScalingStats};
use cimtpu_units::{Error, Joules, Result, Seconds};

use crate::disagg::{run_disaggregated, InterconnectSpec};
use crate::elastic::run_colocated_elastic;
use crate::fault::{FaultEvent, FaultPlan, RetryLedger};
use crate::replica::{fleet_sessions, ReplicaSpec};
use crate::report::{ClusterReport, KvTransferStats, ReplicaUtilization};
use crate::router::{
    HealthView, ReplicaHealth, ReplicaSnapshot, Router, RouterPolicy, SnapshotTracker,
};

/// How the fleet's replicas divide the serving pipeline.
#[derive(Debug, Clone)]
pub enum ClusterTopology {
    /// Every replica runs whole requests (prefill + decode on the same
    /// chips); the router spreads arrivals across them.
    Colocated {
        /// The replica groups.
        replicas: Vec<ReplicaSpec>,
        /// Arrival routing policy.
        router: RouterPolicy,
    },
    /// DistServe/Splitwise-style disaggregation: a prefill pool ingests
    /// prompts, hands the KV cache over the interconnect to a decode pool,
    /// and decode admission is gated by the target replica's paged
    /// allocator.
    Disaggregated {
        /// Prefill-pool replicas.
        prefill: Vec<ReplicaSpec>,
        /// Decode-pool replicas.
        decode: Vec<ReplicaSpec>,
        /// Arrival routing policy (across the prefill pool).
        router: RouterPolicy,
        /// KV-handoff routing policy (across the decode pool).
        decode_router: RouterPolicy,
        /// The link KV caches migrate over.
        interconnect: InterconnectSpec,
    },
}

/// Tenancy wiring threaded through the fleet drivers: the weighted-fair
/// schedule armed on every engine core plus the driver-side ledger that
/// attributes sheds, timeouts, and preemptions back to tenants.
pub(crate) struct Tenancy<'a> {
    pub(crate) sched: &'a TenantSched,
    pub(crate) ledger: &'a mut TenantLedger,
}

impl Tenancy<'_> {
    /// Whether the run has more than one tenant — the gate for class-split
    /// snapshot maintenance and tenant-tagged trace events (single-tenant
    /// runs stay bit-identical to runs without tenancy).
    pub(crate) fn multi(&self) -> bool {
        self.sched.classes.len() > 1
    }
}

/// The tenant tag for request `id`'s flight-recorder events: present only
/// for multi-tenant runs, so single-tenant traces stay byte-identical.
pub(crate) fn tenant_tag(tenancy: &Option<Tenancy<'_>>, id: u64) -> Option<u32> {
    tenancy
        .as_ref()
        .and_then(|t| t.multi().then(|| t.ledger.tenant_of(id) as u32))
}

/// A complete fleet-simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterEngine {
    topology: ClusterTopology,
    slo_ms: Option<f64>,
    faults: FaultPlan,
    autoscale: Option<AutoscalePolicy>,
}

/// Everything a cluster run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRun {
    /// The fleet aggregate.
    pub report: ClusterReport,
    /// Per-replica `ServingReport`s (colocated fleets only — one per
    /// replica that completed at least one request, labelled with the
    /// replica name; empty for disaggregated fleets, whose pools don't
    /// run the single-engine scheduler).
    pub replica_reports: Vec<ServingReport>,
    /// Per-request lifecycle records, in request-id order.
    pub completions: Vec<Completion>,
    /// Fleet-wide prefix-sharing counters, summed over replicas (all
    /// zero when no replica enables sharing; disaggregated pools do not
    /// run the prefix cache).
    pub prefix: cimtpu_serving::PrefixStats,
}

impl ClusterEngine {
    /// A colocated fleet.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty replica list.
    pub fn colocated(replicas: Vec<ReplicaSpec>, router: RouterPolicy) -> Result<Self> {
        if replicas.is_empty() {
            return Err(Error::invalid_config("a cluster needs at least one replica"));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Colocated { replicas, router },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// A disaggregated prefill/decode fleet.
    ///
    /// # Errors
    ///
    /// Returns an error if either pool is empty.
    pub fn disaggregated(
        prefill: Vec<ReplicaSpec>,
        decode: Vec<ReplicaSpec>,
        router: RouterPolicy,
        decode_router: RouterPolicy,
        interconnect: InterconnectSpec,
    ) -> Result<Self> {
        if prefill.is_empty() || decode.is_empty() {
            return Err(Error::invalid_config(
                "a disaggregated cluster needs at least one prefill and one decode replica",
            ));
        }
        Ok(ClusterEngine {
            topology: ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            },
            slo_ms: None,
            faults: FaultPlan::none(),
            autoscale: None,
        })
    }

    /// Sets the latency SLO the report's goodput is computed against.
    #[must_use]
    pub fn with_slo_ms(mut self, slo_ms: f64) -> Self {
        self.slo_ms = Some(slo_ms);
        self
    }

    /// Overrides every replica's KV budget (both pools of a disaggregated
    /// fleet) — what the `cluster_sim --kv-budget` flag applies.
    #[must_use]
    pub fn with_kv_budget(mut self, budget: cimtpu_serving::KvBudget) -> Self {
        let apply = |replicas: &mut Vec<ReplicaSpec>| {
            for r in replicas {
                r.memory.budget = budget;
            }
        };
        match &mut self.topology {
            ClusterTopology::Colocated { replicas, .. } => apply(replicas),
            ClusterTopology::Disaggregated { prefill, decode, .. } => {
                apply(prefill);
                apply(decode);
            }
        }
        self
    }

    /// Installs a fault plan. An **empty** plan (the default) injects
    /// nothing: runs stay bit-identical to an engine without any plan and
    /// the report has no availability section. A colocated fleet takes
    /// its zero-fault driver under an empty plan; the disaggregated loop
    /// runs every plan, an empty one as no crashes, no link windows and
    /// an all-up health view. A non-empty plan brings the failure-aware
    /// machinery (replica health view, retries, shedding) and the report
    /// grows an availability section.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The installed fault plan (empty by default).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Installs an autoscale policy: one [`GroupPolicy`] per replica
    /// group, making each group an elastic pool of up to `max` slots
    /// named `{name}-{slot}` that a reconcile loop grows and shrinks
    /// against the policy's utilization band.
    ///
    /// A **pinned** policy (every band `min == max`, no swaps) keeps the
    /// plain fleet code paths: the fleet is expanded to its pinned sizes
    /// and dispatched to the non-elastic drivers bit-identically — the
    /// report just gains a `scaling` section pricing the static fleet.
    /// An *elastic* policy switches a colocated fleet to the autoscaled
    /// driver; elastic disaggregated fleets and elastic runs under a
    /// fault plan are rejected by [`run`](ClusterEngine::run).
    ///
    /// [`GroupPolicy`]: cimtpu_autoscale::GroupPolicy
    #[must_use]
    pub fn with_autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = Some(policy);
        self
    }

    /// The installed autoscale policy, if any.
    pub fn autoscale(&self) -> Option<&AutoscalePolicy> {
        self.autoscale.as_ref()
    }

    /// The fleet topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// Simulates `traffic` across the fleet. Deterministic: identical
    /// inputs give identical reports (CI replays seeded runs and diffs).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid traffic spec or replica
    /// configuration, an unmappable operator, or a KV budget too small to
    /// hold a single request.
    pub fn run(&self, label: &str, traffic: &TrafficSpec) -> Result<ClusterRun> {
        self.run_observed(label, traffic, None)
    }

    /// [`run`](Self::run) with an optional flight recorder threaded
    /// through whichever driver the topology dispatches to: replicas get
    /// one track each, control-plane events (crashes, retries, scaling
    /// actions, reconcile ticks) land on a control track, and queue/KV
    /// gauges stream into the recorder's timeseries. `None` is exactly
    /// [`run`](Self::run) — the recorder-off paths stay bit-identical.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_observed(
        &self,
        label: &str,
        traffic: &TrafficSpec,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        self.dispatch(label, traffic, None, recorder)
    }

    /// Simulates a multi-tenant [`TenantSet`] across the fleet: merges the
    /// per-tenant traffics into one trace, arms weighted-fair scheduling
    /// on every replica's engine core, and fills the report's per-tenant
    /// section (goodput, SLO attainment, Jain's fairness). A
    /// single-tenant set produces a report bit-identical to
    /// [`run`](Self::run) on that tenant's traffic, plus the tenant
    /// section.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run), plus invalid tenant sets.
    pub fn run_tenants(&self, label: &str, tenants: &TenantSet) -> Result<ClusterRun> {
        self.run_tenants_observed(label, tenants, None)
    }

    /// [`run_tenants`](Self::run_tenants) with an optional flight
    /// recorder; multi-tenant runs tag every request-lifecycle event
    /// (arrival, retry, shed, timeout, park, complete) with its tenant
    /// index.
    ///
    /// # Errors
    ///
    /// As for [`run_tenants`](Self::run_tenants).
    pub fn run_tenants_observed(
        &self,
        label: &str,
        tenants: &TenantSet,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        let merged = tenants.merged_spec()?;
        let sched = tenants.sched();
        let mut ledger = TenantLedger::new(tenants, &merged);
        self.dispatch(
            label,
            &merged,
            Some(Tenancy { sched: &sched, ledger: &mut ledger }),
            recorder,
        )
    }

    fn dispatch(
        &self,
        label: &str,
        traffic: &TrafficSpec,
        tenancy: Option<Tenancy<'_>>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        if let Some(policy) = &self.autoscale {
            return self.run_autoscaled(policy, label, traffic, tenancy, recorder);
        }
        match &self.topology {
            ClusterTopology::Colocated { replicas, router } => {
                if self.faults.is_empty() {
                    run_colocated(replicas, *router, label, traffic, self.slo_ms, tenancy, recorder)
                } else {
                    run_colocated_faulty(
                        replicas,
                        *router,
                        label,
                        traffic,
                        self.slo_ms,
                        &self.faults,
                        tenancy,
                        recorder,
                    )
                }
            }
            ClusterTopology::Disaggregated {
                prefill,
                decode,
                router,
                decode_router,
                interconnect,
            } => run_disaggregated(
                prefill,
                decode,
                *router,
                *decode_router,
                *interconnect,
                label,
                traffic,
                self.slo_ms,
                &self.faults,
                tenancy,
                recorder,
            ),
        }
    }

    /// Dispatch under an autoscale policy: pinned policies expand the
    /// fleet and reuse the plain drivers unchanged (bit-identity is
    /// proptested); elastic policies take the reconcile-loop driver.
    fn run_autoscaled(
        &self,
        policy: &AutoscalePolicy,
        label: &str,
        traffic: &TrafficSpec,
        tenancy: Option<Tenancy<'_>>,
        recorder: Option<&SharedRecorder>,
    ) -> Result<ClusterRun> {
        policy.validate()?;
        let ngroups = match &self.topology {
            ClusterTopology::Colocated { replicas, .. } => replicas.len(),
            ClusterTopology::Disaggregated { prefill, decode, .. } => {
                prefill.len() + decode.len()
            }
        };
        if policy.groups.len() != ngroups {
            return Err(Error::invalid_config(format!(
                "the autoscale policy covers {} group(s) but the fleet has {ngroups}",
                policy.groups.len()
            )));
        }
        if policy.is_pinned() {
            // Expand every group to its pinned size and run the plain
            // (non-elastic) drivers unchanged; the report just gains a
            // `scaling` section pricing the static fleet.
            let expand = |specs: &[ReplicaSpec], offset: usize| -> Vec<ReplicaSpec> {
                specs
                    .iter()
                    .enumerate()
                    .flat_map(|(g, base)| {
                        (0..policy.groups[offset + g].min).map(move |j| {
                            let mut spec = base.clone();
                            spec.name = format!("{}-{j}", base.name);
                            spec
                        })
                    })
                    .collect()
            };
            let topology = match &self.topology {
                ClusterTopology::Colocated { replicas, router } => ClusterTopology::Colocated {
                    replicas: expand(replicas, 0),
                    router: *router,
                },
                ClusterTopology::Disaggregated {
                    prefill,
                    decode,
                    router,
                    decode_router,
                    interconnect,
                } => ClusterTopology::Disaggregated {
                    prefill: expand(prefill, 0),
                    decode: expand(decode, prefill.len()),
                    router: *router,
                    decode_router: *decode_router,
                    interconnect: *interconnect,
                },
            };
            let pinned = ClusterEngine {
                topology,
                slo_ms: self.slo_ms,
                faults: self.faults.clone(),
                autoscale: None,
            };
            let mut run = pinned.dispatch(label, traffic, tenancy, recorder)?;
            let chip_seconds = run.report.chips as f64 * run.report.makespan_s;
            let busy_chip_s: f64 = run
                .report
                .per_replica
                .iter()
                .map(|r| r.busy_s * r.chips as f64)
                .sum();
            run.report.scaling = Some(ScalingStats::static_fleet(
                run.report.replicas,
                chip_seconds,
                busy_chip_s,
                run.report.total_energy_j,
                policy.idle_watts,
            ));
            return Ok(run);
        }
        match &self.topology {
            ClusterTopology::Colocated { replicas, router } if self.faults.is_empty() => {
                run_colocated_elastic(
                    replicas, *router, label, traffic, self.slo_ms, policy, tenancy, recorder,
                )
            }
            ClusterTopology::Colocated { .. } => Err(Error::invalid_config(
                "an elastic autoscale policy cannot run under a fault plan; pin the \
                 policy (min == max, no swap) or drop the faults",
            )),
            ClusterTopology::Disaggregated { .. } => Err(Error::invalid_config(
                "autoscaling a disaggregated fleet is not supported; pin the policy \
                 (min == max, no swap) to size the pools statically",
            )),
        }
    }
}

/// [`DriveHooks`] for the zero-fault colocated fleet: routes each
/// arrival over a [`SnapshotTracker`]'s incrementally-maintained fleet
/// view instead of rebuilding every [`ReplicaSnapshot`] — one
/// `outstanding_at` per replica — at every arrival. The
/// tracker-vs-rebuild equivalence is proptested in this module's tests.
struct ColocatedHooks {
    router: Box<dyn Router>,
    tracker: SnapshotTracker,
    /// Multi-tenant run: refresh per-class outstanding splits before every
    /// routing decision (the `SloAware` policy reads them). Off for
    /// single-tenant runs, preserving the tracker's `O(1)`-per-event path.
    classed: bool,
    /// Recorder + per-replica `[queued, kv_frac]` gauge series, when the
    /// run is observed.
    gauges: Option<(SharedRecorder, Vec<[usize; 2]>)>,
}

impl DriveHooks for ColocatedHooks {
    fn route(&mut self, request: &Request, cores: &[EngineCore<'_>]) -> usize {
        let t = request.arrival();
        if t < self.tracker.now() {
            // A stall flush launched work in the past and re-armed a
            // closed-loop client below the tracker's clock: rebuild.
            self.tracker.resync(t, cores);
        } else {
            self.tracker.advance_to(t);
        }
        if self.classed {
            self.tracker.refresh_classes(cores);
        }
        self.router.route(request, self.tracker.snapshots())
    }

    fn on_push(&mut self, k: usize, cores: &[EngineCore<'_>]) {
        self.tracker.on_push(k, cores[k].queued());
    }

    fn on_step(&mut self, k: usize, cores: &[EngineCore<'_>], new: &[Completion]) {
        self.tracker.on_step(k, cores[k].queued(), cores[k].kv_frac(), new);
        if let Some((rec, series)) = &self.gauges {
            let t = new
                .iter()
                .map(|c| c.finish.get())
                .fold(self.tracker.now().get(), f64::max);
            let mut rec = rec.borrow_mut();
            rec.sample(series[k][0], t, cores[k].queued() as f64);
            rec.sample(series[k][1], t, cores[k].kv_frac());
        }
    }
}

/// Registers one track per replica (named after the spec), attaches a
/// [`TraceHandle`] to each core, and returns the track ids plus one
/// `[queued, kv_frac]` gauge-series pair per replica.
fn attach_replica_tracks(
    rec: &SharedRecorder,
    specs: &[ReplicaSpec],
    cores: &mut [EngineCore<'_>],
) -> (Vec<u32>, Vec<[usize; 2]>) {
    let mut tracks = Vec::with_capacity(specs.len());
    let mut series = Vec::with_capacity(specs.len());
    {
        let mut r = rec.borrow_mut();
        for spec in specs {
            tracks.push(r.track(&spec.name));
            series.push([
                r.gauge_series(&format!("{}/queued", spec.name)),
                r.gauge_series(&format!("{}/kv_frac", spec.name)),
            ]);
        }
    }
    for (core, &track) in cores.iter_mut().zip(&tracks) {
        core.attach_trace(TraceHandle::new(Rc::clone(rec), track));
    }
    (tracks, series)
}

/// Everything the failure-aware drivers need to emit: the shared
/// recorder, one track and one `[queued, kv_frac]` gauge pair per
/// replica, and a control track for fleet-level events (arrivals,
/// retries, sheds, reconcile ticks).
struct FleetTrace {
    rec: SharedRecorder,
    tracks: Vec<u32>,
    series: Vec<[usize; 2]>,
    control: u32,
}

impl FleetTrace {
    fn attach(
        rec: &SharedRecorder,
        specs: &[ReplicaSpec],
        cores: &mut [EngineCore<'_>],
    ) -> FleetTrace {
        let (tracks, series) = attach_replica_tracks(rec, specs, cores);
        let control = rec.borrow_mut().track("control");
        FleetTrace { rec: Rc::clone(rec), tracks, series, control }
    }
}

fn run_colocated(
    replicas: &[ReplicaSpec],
    policy: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    mut tenancy: Option<Tenancy<'_>>,
    recorder: Option<&SharedRecorder>,
) -> Result<ClusterRun> {
    let (pricing, sessions) = fleet_sessions(replicas)?;
    let mut cores: Vec<EngineCore<'_>> =
        sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
    if let Some(t) = &tenancy {
        for core in &mut cores {
            core.set_tenancy(t.sched);
        }
    }
    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let gauges = recorder.map(|rec| {
        let (_, series) = attach_replica_tracks(rec, replicas, &mut cores);
        (Rc::clone(rec), series)
    });

    drive_with(
        &mut cores,
        &mut stream,
        ColocatedHooks {
            router: policy.build(),
            tracker: SnapshotTracker::new(replicas.len()),
            classed: tenancy.as_ref().is_some_and(Tenancy::multi),
            gauges,
        },
    )?;

    let mut completions: Vec<Completion> = Vec::new();
    let mut chip_energy = Joules::ZERO;
    let mut preemptions = 0;
    let mut queue_full_s = 0.0;
    let mut prefix = cimtpu_serving::PrefixStats::default();
    let mut rows = Vec::with_capacity(replicas.len());
    let mut replica_reports = Vec::new();
    for (spec, core) in replicas.iter().zip(&cores) {
        let memory = core.memory_stats();
        preemptions += memory.preemptions;
        queue_full_s += memory.queue_full_s;
        prefix.absorb(&core.prefix_stats());
        chip_energy += core.energy();
        completions.extend_from_slice(core.completions());
        if let Some(t) = tenancy.as_mut() {
            if let Some(per_tenant) = core.tenant_preemptions() {
                t.ledger.absorb_preemptions(per_tenant);
            }
        }
        if let Some(rec) = recorder {
            let track = core.trace_track().expect("recorder attached above");
            let mut rec = rec.borrow_mut();
            for c in core.completions() {
                rec.complete_for(
                    track,
                    c.id,
                    c.finish.get(),
                    c.latency().as_millis(),
                    c.ttft().as_millis(),
                    tenant_tag(&tenancy, c.id),
                );
            }
        }
        rows.push(ReplicaUtilization {
            name: spec.name.clone(),
            model: spec.model.name().to_owned(),
            role: "serve".to_owned(),
            chips: spec.chips(),
            requests: core.completions().len() as u64,
            busy_s: core.busy().get(),
            utilization: 0.0, // filled against the fleet makespan
            energy_j: core.energy().get(),
            kv_hwm_frac: memory.kv_hwm_frac,
        });
        if !core.completions().is_empty() {
            replica_reports.push(core.finish(&spec.name).report);
        }
    }
    completions.sort_by_key(|c| c.id);
    let mut report = ClusterReport::build(
        label,
        "colocated",
        policy.name().to_owned(),
        offered,
        &completions,
        chip_energy,
        preemptions,
        queue_full_s,
        KvTransferStats::default(),
        rows,
        slo_ms,
        None,
    );
    if let Some(t) = tenancy {
        report.tenants = Some(t.ledger.report(&completions, report.makespan_s));
    }
    pricing.persist_caches();
    Ok(ClusterRun { report, replica_reports, completions, prefix })
}

/// A point action on the fault timeline (a [`FaultEvent`] window expands
/// into a start and an end action).
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    Crash { replica: usize, repair: Seconds },
    SlowStart { replica: usize, factor: f64 },
    SlowEnd { replica: usize },
}

/// A request waiting to (re-)enter the fleet: a fresh arrival queued for
/// admission, a crash-lost request backing off before its retry, or a
/// request parked until some replica restarts.
#[derive(Debug, Clone, Copy)]
struct WaitingRetry {
    /// When the request (re-)enters admission.
    fire: Seconds,
    /// The request (for retries, `arrival_s` is rewritten to the fire
    /// time at push; the original arrival lives in the driver's origin
    /// map and is restored on the delivered completion).
    request: Request,
    /// Retries already charged against the request's budget (0 for a
    /// fresh arrival).
    attempts: u32,
}

/// Per-replica counters accumulated across incarnations: a crash replaces
/// the replica's core, so its energy/busy/KV history is harvested at the
/// crash instant and the restarted core starts a new ledger.
#[derive(Default)]
pub(crate) struct ReplicaAccum {
    pub(crate) busy_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) preemptions: u64,
    pub(crate) queue_full_s: f64,
    pub(crate) kv_hwm: f64,
    pub(crate) prefix: PrefixStats,
}

impl ReplicaAccum {
    pub(crate) fn harvest(&mut self, core: &EngineCore<'_>) {
        let memory = core.memory_stats();
        self.busy_s += core.busy().get();
        self.energy_j += core.energy().get();
        self.preemptions += memory.preemptions;
        self.queue_full_s += memory.queue_full_s;
        self.kv_hwm = self.kv_hwm.max(memory.kv_hwm_frac);
        self.prefix.absorb(&core.prefix_stats());
    }
}

/// Router snapshots over the healthy subset, re-indexed `0..up.len()` so
/// index-returning and positional routers agree (see the health-view
/// section of the [`router`](crate::router) module docs); the driver maps
/// the routed position back through `up`.
fn healthy_snapshots(
    cores: &[EngineCore<'_>],
    up: &[usize],
    t: Seconds,
    assigned: &[u64],
    classed: bool,
) -> Vec<ReplicaSnapshot> {
    up.iter()
        .enumerate()
        .map(|(pos, &k)| ReplicaSnapshot {
            index: pos,
            outstanding: cores[k].outstanding_at(t),
            queued: cores[k].queued(),
            kv_frac: cores[k].kv_frac(),
            assigned: assigned[k],
            class_outstanding: if classed {
                cores[k].outstanding_by_class_at(t)
            } else {
                [0; 3]
            },
        })
        .collect()
}

/// The failure-aware colocated driver: `drive` re-derived as an explicit
/// event loop so fault events, deferred completion delivery, and retry
/// timers can interleave with arrivals and engine steps.
///
/// Event classes at one instant resolve in a fixed order — faults/health
/// transitions, then arrivals, then completion deliveries, then retry
/// fires (admission), then engine steps — chosen so a run whose faults
/// are all benign (e.g. a ×1 straggler window) replays the plain driver
/// bit-for-bit. Completions are *delivered* (fed to closed-loop clients,
/// added to the run ledger) at their finish time rather than inside the
/// step that produced them, which is what lets a crash revoke
/// in-flight-but-undelivered completions.
#[allow(clippy::too_many_arguments)] // one call site, in `dispatch`
fn run_colocated_faulty(
    replicas: &[ReplicaSpec],
    policy: RouterPolicy,
    label: &str,
    traffic: &TrafficSpec,
    slo_ms: Option<f64>,
    plan: &FaultPlan,
    mut tenancy: Option<Tenancy<'_>>,
    recorder: Option<&SharedRecorder>,
) -> Result<ClusterRun> {
    let mut timeline: Vec<(Seconds, FaultAction)> = Vec::new();
    for event in plan.resolve(replicas.len())? {
        match event {
            FaultEvent::Crash { at, replica, repair } => {
                timeline.push((at, FaultAction::Crash { replica, repair }));
            }
            FaultEvent::Straggler { replica, from, until, slowdown } => {
                timeline.push((from, FaultAction::SlowStart { replica, factor: slowdown }));
                timeline.push((until, FaultAction::SlowEnd { replica }));
            }
            FaultEvent::DegradedLink { .. } => {
                return Err(Error::invalid_config(
                    "degraded-link faults apply to the disaggregated interconnect; \
                     a colocated fleet has no handoff link",
                ));
            }
        }
    }
    timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
    let mut next_fault = 0usize;

    let (pricing, sessions) = fleet_sessions(replicas)?;
    let mut cores: Vec<EngineCore<'_>> =
        sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
    if let Some(t) = &tenancy {
        for core in &mut cores {
            core.set_tenancy(t.sched);
        }
    }
    let classed = tenancy.as_ref().is_some_and(Tenancy::multi);
    let mut stream = ArrivalStream::new(traffic)?;
    let offered = stream.total();
    let mut router = policy.build();
    let n = replicas.len();
    let trace = recorder.map(|rec| FleetTrace::attach(rec, replicas, &mut cores));
    // Start of the straggler window in flight per replica (NaN = none);
    // the Straggler span is emitted when the window closes.
    let mut slow_since = vec![f64::NAN; n];
    let mut assigned = vec![0u64; n];
    let mut health = HealthView::all_up(n);
    // Core liveness: a crashed core stays in `cores` (stale) until its
    // replica restarts and a fresh core replaces it.
    let mut stale = vec![false; n];
    let mut slowdown = vec![1.0f64; n];
    let mut last_push = vec![f64::NEG_INFINITY; n];
    let mut exhausted_closed = false;

    // The run ledger lives in the driver, not the cores: cores are
    // replaced on restart, and a completion only counts once delivered.
    let mut delivered: Vec<Completion> = Vec::new();
    let mut deliveries: Vec<(usize, Completion)> = Vec::new();
    let mut delivered_by = vec![0u64; n];
    let mut waiting: Vec<WaitingRetry> = Vec::new();
    let mut ledger = RetryLedger::new(
        *plan.recovery(),
        trace.as_ref().map(|tr| TraceHandle::new(Rc::clone(&tr.rec), tr.control)),
    );
    let mut accum: Vec<ReplicaAccum> = (0..n).map(|_| ReplicaAccum::default()).collect();

    // The step-event queue: one slot per replica, keyed by the core's
    // next-action time (`None` while the replica is down). Every
    // core-mutating event below refreshes the owning slot, so the heap
    // minimum always matches what a fresh `O(replicas)` scan over the
    // non-stale cores would pick — same time, same lowest-index
    // tie-break (pinned against the scan oracle by this module's
    // proptests).
    let mut step_heap = ActionHeap::new(n);
    for (i, core) in cores.iter().enumerate() {
        step_heap.set(i, core.next_action());
    }

    loop {
        // Candidate events, classes in tie-break order.
        let step_at = step_heap.peek();
        let delivery_at: Option<(usize, Seconds)> = deliveries
            .iter()
            .enumerate()
            .min_by(|(ai, a), (bi, b)| {
                a.1.finish.get().total_cmp(&b.1.finish.get()).then(ai.cmp(bi))
            })
            .map(|(i, d)| (i, d.1.finish));
        let retry_at: Option<usize> = waiting
            .iter()
            .enumerate()
            .min_by(|(ai, a), (bi, b)| {
                let ka = (a.fire.get(), a.request.arrival_s, a.request.id);
                let kb = (b.fire.get(), b.request.arrival_s, b.request.id);
                ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(ai.cmp(bi))
            })
            .map(|(i, _)| i);
        let fault_at: Option<Seconds> = {
            let scripted = (next_fault < timeline.len()).then(|| timeline[next_fault].0);
            match (scripted, health.next_transition()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            }
        };
        let arrival_at = stream.peek();

        // The run is over when nothing can produce or receive work —
        // trailing fault events on an idle fleet are dropped.
        if stream.exhausted() && waiting.is_empty() && deliveries.is_empty() && step_at.is_none()
        {
            break;
        }

        let candidates = [
            (fault_at, 0u8),
            (arrival_at, 1),
            (delivery_at.map(|(_, t)| t), 2),
            (retry_at.map(|i| waiting[i].fire), 3),
            (step_at.map(|(_, t)| t), 4),
        ];
        let mut chosen: Option<(Seconds, u8)> = None;
        for (t, class) in candidates {
            if let Some(t) = t {
                // Iteration order is ascending class: strict `<` keeps
                // the earlier class on ties.
                if chosen.is_none_or(|(bt, _)| t < bt) {
                    chosen = Some((t, class));
                }
            }
        }
        let Some((now, class)) = chosen else {
            // Closed-loop stall: clients wait on completions held in
            // partial batches. Flush the lowest stalled core (mirrors
            // `drive`); its completions become deliveries.
            let mut progressed = false;
            for (i, core) in cores.iter_mut().enumerate() {
                if stale[i] {
                    continue;
                }
                if core.flush_stalled()? {
                    step_heap.set(i, core.next_action());
                    for &c in core.drain_new() {
                        deliveries.push((i, c));
                    }
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                return Err(Error::invalid_config(
                    "serving driver stalled: closed-loop clients wait on completions \
                     no engine can produce",
                ));
            }
            continue;
        };

        match class {
            // Faults and health transitions.
            0 => {
                // Restores first: a replica back up at `now` can take a
                // crash scripted for the same instant.
                for k in health.advance(now, plan.recovery().warmup) {
                    cores[k] = sessions[k].core()?;
                    if let Some(t) = &tenancy {
                        cores[k].set_tenancy(t.sched);
                    }
                    stale[k] = false;
                    last_push[k] = f64::NEG_INFINITY;
                    if let Some(tr) = &trace {
                        cores[k].attach_trace(TraceHandle::new(Rc::clone(&tr.rec), tr.tracks[k]));
                        tr.rec.borrow_mut().instant(tr.tracks[k], EventKind::Repair, 0, now.get());
                    }
                    if slowdown[k] != 1.0 {
                        cores[k].set_slowdown(slowdown[k]);
                    }
                    if exhausted_closed {
                        cores[k].close();
                    }
                    step_heap.set(k, cores[k].next_action());
                }
                ledger.on_health(&health, now);
                while next_fault < timeline.len() && timeline[next_fault].0 <= now {
                    let (_, action) = timeline[next_fault];
                    next_fault += 1;
                    match action {
                        FaultAction::Crash { replica, repair } => {
                            if matches!(health.state(replica), ReplicaHealth::Down { .. }) {
                                // Already down: nothing left to kill.
                                continue;
                            }
                            let lost = cores[replica].crash(now);
                            accum[replica].harvest(&cores[replica]);
                            if let Some(t) = tenancy.as_mut() {
                                if let Some(p) = cores[replica].tenant_preemptions() {
                                    t.ledger.absorb_preemptions(p);
                                }
                            }
                            stale[replica] = true;
                            step_heap.set(replica, None);
                            health.mark_down(replica, now + repair);
                            ledger.on_crash(replica, now);
                            if let Some(tr) = &trace {
                                tr.rec.borrow_mut().instant(
                                    tr.tracks[replica],
                                    EventKind::Crash,
                                    0,
                                    now.get(),
                                );
                            }
                            // Revoke the dead incarnation's undelivered
                            // completions — their requests are in `lost`.
                            let lost_ids: Vec<u64> = lost.iter().map(|r| r.id).collect();
                            deliveries
                                .retain(|(k, c)| *k != replica || !lost_ids.contains(&c.id));
                            for r in lost {
                                if let Some((fire, attempts)) =
                                    ledger.on_lost(&r, now, &mut stream, &mut tenancy)
                                {
                                    waiting.push(WaitingRetry { fire, request: r, attempts });
                                }
                            }
                        }
                        FaultAction::SlowStart { replica, factor } => {
                            slowdown[replica] = factor;
                            slow_since[replica] = now.get();
                            if !stale[replica] {
                                cores[replica].set_slowdown(factor);
                                step_heap.set(replica, cores[replica].next_action());
                            }
                        }
                        FaultAction::SlowEnd { replica } => {
                            slowdown[replica] = 1.0;
                            if let Some(tr) = &trace {
                                if slow_since[replica].is_finite() {
                                    tr.rec.borrow_mut().span(
                                        tr.tracks[replica],
                                        EventKind::Straggler,
                                        0,
                                        slow_since[replica],
                                        now.get(),
                                    );
                                }
                            }
                            slow_since[replica] = f64::NAN;
                            if !stale[replica] {
                                cores[replica].set_slowdown(1.0);
                                step_heap.set(replica, cores[replica].next_action());
                            }
                        }
                    }
                }
            }
            // Arrival: enters the admission queue (fires this instant;
            // admission is the retry class so arrivals and retries share
            // one code path).
            1 => {
                let request = stream.pop();
                if let Some(tr) = &trace {
                    // Emitted by the driver, not the core: a request can
                    // be shed or time out before ever reaching a core.
                    tr.rec.borrow_mut().request_arrival_for(
                        tr.control,
                        request.id,
                        request.arrival_s,
                        tenant_tag(&tenancy, request.id),
                    );
                }
                waiting.push(WaitingRetry { fire: now, request, attempts: 0 });
                if stream.exhausted() {
                    exhausted_closed = true;
                    for (i, core) in cores.iter_mut().enumerate() {
                        if !stale[i] {
                            core.close();
                            step_heap.set(i, core.next_action());
                        }
                    }
                }
            }
            // Completion delivery.
            2 => {
                let (idx, _) = delivery_at
                    .ok_or_else(|| Error::internal("class 2 implies a pending delivery"))?;
                let (k, mut c) = deliveries.remove(idx);
                ledger.on_complete(k, &mut c);
                stream.on_complete(&c);
                delivered_by[k] += 1;
                if let Some(tr) = &trace {
                    tr.rec.borrow_mut().complete_for(
                        tr.tracks[k],
                        c.id,
                        c.finish.get(),
                        c.latency().as_millis(),
                        c.ttft().as_millis(),
                        tenant_tag(&tenancy, c.id),
                    );
                }
                delivered.push(c);
            }
            // Admission (fresh arrivals and retries).
            3 => {
                let idx = retry_at
                    .ok_or_else(|| Error::internal("class 3 implies a waiting request"))?;
                let item = waiting.remove(idx);
                let r = item.request;
                if ledger.expired(&r, now, &mut stream, &mut tenancy) {
                    continue;
                }
                let up = health.up_replicas();
                if up.is_empty() {
                    // Nowhere to go: park until the next repair finishes.
                    let fire = ledger.park(&health, r.id, now, &tenancy)?;
                    waiting.push(WaitingRetry { fire, ..item });
                    continue;
                }
                if let Some(threshold) = plan.recovery().shed_outstanding {
                    if up.iter().all(|&k| cores[k].outstanding_at(now) >= threshold) {
                        // Surviving capacity is saturated: shed oldest
                        // first — this request and every waiting request
                        // older than it (closest to their deadlines).
                        let orig = ledger.origin(&r);
                        let key = (orig, r.id);
                        let mut doomed = vec![(r.id, orig)];
                        waiting.retain(|w| {
                            let worig = ledger.origin(&w.request);
                            if (worig, w.request.id) <= key {
                                doomed.push((w.request.id, worig));
                                false
                            } else {
                                true
                            }
                        });
                        for (id, worig) in doomed {
                            ledger.shed(id, worig, now, &mut stream, &mut tenancy);
                        }
                        continue;
                    }
                }
                let snaps = healthy_snapshots(&cores, &up, now, &assigned, classed);
                let pos = router.route(&r, &snaps).min(up.len() - 1);
                let k = up[pos];
                assigned[k] += 1;
                ledger.on_placed(item.attempts);
                let mut pushed = r;
                pushed.arrival_s = if item.attempts > 0 { now.get() } else { r.arrival_s };
                // A replica cannot see work arrive before its queue tail
                // (a parked request can land on a replica that has taken
                // later work meanwhile) — even on a first attempt, so the
                // ledger is told about every rewritten arrival.
                pushed.arrival_s = pushed.arrival_s.max(last_push[k]);
                ledger.readmit(&r, pushed.arrival_s);
                last_push[k] = pushed.arrival_s;
                if exhausted_closed {
                    cores[k].reopen();
                    cores[k].push(pushed);
                    cores[k].close();
                } else {
                    cores[k].push(pushed);
                }
                step_heap.set(k, cores[k].next_action());
            }
            // Engine step; completions become pending deliveries.
            _ => {
                let (i, _) =
                    step_at.ok_or_else(|| Error::internal("class 4 implies a steppable core"))?;
                cores[i].step()?;
                step_heap.set(i, cores[i].next_action());
                for &c in cores[i].drain_new() {
                    deliveries.push((i, c));
                }
                if let Some(tr) = &trace {
                    let mut rec = tr.rec.borrow_mut();
                    rec.sample(tr.series[i][0], now.get(), cores[i].queued() as f64);
                    rec.sample(tr.series[i][1], now.get(), cores[i].kv_frac());
                }
            }
        }
    }

    // Harvest the surviving incarnations (crashed ones were harvested at
    // their crash instant).
    for (k, core) in cores.iter().enumerate() {
        if !stale[k] {
            accum[k].harvest(core);
            if let Some(t) = tenancy.as_mut() {
                if let Some(p) = core.tenant_preemptions() {
                    t.ledger.absorb_preemptions(p);
                }
            }
        }
    }
    delivered.sort_by_key(|c| c.id);
    let avail = ledger.finish(&delivered, offered, n);

    let mut chip_energy = Joules::ZERO;
    let mut preemptions = 0;
    let mut queue_full_s = 0.0;
    let mut prefix = PrefixStats::default();
    let mut rows = Vec::with_capacity(n);
    for (k, spec) in replicas.iter().enumerate() {
        let a = &accum[k];
        chip_energy += Joules::new(a.energy_j);
        preemptions += a.preemptions;
        queue_full_s += a.queue_full_s;
        prefix.absorb(&a.prefix);
        rows.push(ReplicaUtilization {
            name: spec.name.clone(),
            model: spec.model.name().to_owned(),
            role: "serve".to_owned(),
            chips: spec.chips(),
            requests: delivered_by[k],
            busy_s: a.busy_s,
            utilization: 0.0, // filled against the fleet makespan
            energy_j: a.energy_j,
            kv_hwm_frac: a.kv_hwm,
        });
    }
    let mut report = ClusterReport::build(
        label,
        "colocated",
        policy.name().to_owned(),
        offered,
        &delivered,
        chip_energy,
        preemptions,
        queue_full_s,
        KvTransferStats::default(),
        rows,
        slo_ms,
        Some(avail),
    );
    if let Some(t) = tenancy {
        report.tenants = Some(t.ledger.report(&delivered, report.makespan_s));
    }
    pricing.persist_caches();
    // Per-incarnation ServingReports are not meaningful across crashes:
    // fault runs report the fleet aggregate only.
    Ok(ClusterRun { report, replica_reports: Vec::new(), completions: delivered, prefix })
}

#[cfg(test)]
mod tests {
    use cimtpu_core::TpuConfig;
    use cimtpu_serving::{
        drive, ArrivalPattern, BatchPolicy, LenDist, PrefixTraffic, ServingModel,
    };
    use proptest::prelude::*;
    use rustc_hash::FxHashMap;

    use super::*;
    use crate::fault::{release_client, AvailabilityStats, ChaosSpec, CrashRecord};

    // ------------------------------------------------------------------
    // Scan oracles: the pre-heap drivers, kept verbatim so proptests can
    // pin the heap-scheduled drivers bit-for-bit against them.
    // ------------------------------------------------------------------

    /// Pre-refactor router view: rebuilds every replica's snapshot (with
    /// an `outstanding_at` query each) at instant `t`.
    fn snapshots(cores: &[EngineCore<'_>], t: Seconds, assigned: &[u64]) -> Vec<ReplicaSnapshot> {
        cores
            .iter()
            .enumerate()
            .map(|(index, core)| ReplicaSnapshot {
                index,
                outstanding: core.outstanding_at(t),
                queued: core.queued(),
                kv_frac: core.kv_frac(),
                assigned: assigned[index],
                class_outstanding: [0; 3],
            })
            .collect()
    }

    /// The zero-fault colocated driver as it was before the
    /// [`SnapshotTracker`] port: per-arrival snapshot rebuilds over the
    /// (already heap-scheduled) [`drive`] loop.
    fn run_colocated_oracle(
        replicas: &[ReplicaSpec],
        policy: RouterPolicy,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
    ) -> Result<ClusterRun> {
        let sessions: Vec<EngineSession> = replicas
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let mut cores: Vec<EngineCore<'_>> =
            sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut router = policy.build();
        let mut assigned = vec![0u64; replicas.len()];

        drive(&mut cores, &mut stream, |request, cores| {
            let snaps = snapshots(cores, request.arrival(), &assigned);
            let k = router.route(request, &snaps).min(cores.len() - 1);
            assigned[k] += 1;
            k
        })?;

        let mut completions: Vec<Completion> = Vec::new();
        let mut chip_energy = Joules::ZERO;
        let mut preemptions = 0;
        let mut queue_full_s = 0.0;
        let mut prefix = cimtpu_serving::PrefixStats::default();
        let mut rows = Vec::with_capacity(replicas.len());
        let mut replica_reports = Vec::new();
        for (spec, core) in replicas.iter().zip(&cores) {
            let memory = core.memory_stats();
            preemptions += memory.preemptions;
            queue_full_s += memory.queue_full_s;
            prefix.absorb(&core.prefix_stats());
            chip_energy += core.energy();
            completions.extend_from_slice(core.completions());
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "serve".to_owned(),
                chips: spec.chips(),
                requests: core.completions().len() as u64,
                busy_s: core.busy().get(),
                utilization: 0.0, // filled against the fleet makespan
                energy_j: core.energy().get(),
                kv_hwm_frac: memory.kv_hwm_frac,
            });
            if !core.completions().is_empty() {
                replica_reports.push(core.finish(&spec.name).report);
            }
        }
        completions.sort_by_key(|c| c.id);
        let report = ClusterReport::build(
            label,
            "colocated",
            policy.name().to_owned(),
            offered,
            &completions,
            chip_energy,
            preemptions,
            queue_full_s,
            KvTransferStats::default(),
            rows,
            slo_ms,
            None,
        );
        for session in &sessions {
            session.persist_cache();
        }
        Ok(ClusterRun { report, replica_reports, completions, prefix })
    }

    /// The failure-aware colocated driver as it was before the
    /// [`ActionHeap`] port: the step event re-derived by an `O(replicas)`
    /// scan over the non-stale cores at every loop iteration.
    #[allow(clippy::too_many_lines)]
    fn run_colocated_faulty_oracle(
        replicas: &[ReplicaSpec],
        policy: RouterPolicy,
        label: &str,
        traffic: &TrafficSpec,
        slo_ms: Option<f64>,
        plan: &FaultPlan,
    ) -> Result<ClusterRun> {
        let recovery = *plan.recovery();
        let mut timeline: Vec<(Seconds, FaultAction)> = Vec::new();
        for event in plan.resolve(replicas.len())? {
            match event {
                FaultEvent::Crash { at, replica, repair } => {
                    timeline.push((at, FaultAction::Crash { replica, repair }));
                }
                FaultEvent::Straggler { replica, from, until, slowdown } => {
                    timeline.push((from, FaultAction::SlowStart { replica, factor: slowdown }));
                    timeline.push((until, FaultAction::SlowEnd { replica }));
                }
                FaultEvent::DegradedLink { .. } => {
                    return Err(Error::invalid_config(
                        "degraded-link faults apply to the disaggregated interconnect; \
                         a colocated fleet has no handoff link",
                    ));
                }
            }
        }
        timeline.sort_by(|a, b| a.0.get().total_cmp(&b.0.get()));
        let mut next_fault = 0usize;

        let sessions: Vec<EngineSession> = replicas
            .iter()
            .map(|r| EngineSession::new(&r.engine()?))
            .collect::<Result<_>>()?;
        let mut cores: Vec<EngineCore<'_>> =
            sessions.iter().map(EngineSession::core).collect::<Result<_>>()?;
        let mut stream = ArrivalStream::new(traffic)?;
        let offered = stream.total();
        let mut router = policy.build();
        let n = replicas.len();
        let mut assigned = vec![0u64; n];
        let mut health = HealthView::all_up(n);
        let mut stale = vec![false; n];
        let mut slowdown = vec![1.0f64; n];
        let mut last_push = vec![f64::NEG_INFINITY; n];
        let mut exhausted_closed = false;

        let mut delivered: Vec<Completion> = Vec::new();
        let mut deliveries: Vec<(usize, Completion)> = Vec::new();
        let mut delivered_by = vec![0u64; n];
        let mut waiting: Vec<WaitingRetry> = Vec::new();
        let mut origin: FxHashMap<u64, f64> = FxHashMap::default();
        let mut attempts_of: FxHashMap<u64, u32> = FxHashMap::default();
        let mut avail = AvailabilityStats::zero();
        let mut crash_log: Vec<CrashRecord> = Vec::new();
        let mut accum: Vec<ReplicaAccum> = (0..n).map(|_| ReplicaAccum::default()).collect();

        loop {
            let mut step_at: Option<(usize, Seconds)> = None;
            for (i, core) in cores.iter().enumerate() {
                if stale[i] {
                    continue;
                }
                if let Some(t) = core.next_action() {
                    if step_at.is_none_or(|(_, best)| t < best) {
                        step_at = Some((i, t));
                    }
                }
            }
            let delivery_at: Option<(usize, Seconds)> = deliveries
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    a.1.finish.get().total_cmp(&b.1.finish.get()).then(ai.cmp(bi))
                })
                .map(|(i, d)| (i, d.1.finish));
            let retry_at: Option<usize> = waiting
                .iter()
                .enumerate()
                .min_by(|(ai, a), (bi, b)| {
                    let ka = (a.fire.get(), a.request.arrival_s, a.request.id);
                    let kb = (b.fire.get(), b.request.arrival_s, b.request.id);
                    ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(ai.cmp(bi))
                })
                .map(|(i, _)| i);
            let fault_at: Option<Seconds> = {
                let scripted = (next_fault < timeline.len()).then(|| timeline[next_fault].0);
                match (scripted, health.next_transition()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            let arrival_at = stream.peek();

            if stream.exhausted()
                && waiting.is_empty()
                && deliveries.is_empty()
                && step_at.is_none()
            {
                break;
            }

            let candidates = [
                (fault_at, 0u8),
                (arrival_at, 1),
                (delivery_at.map(|(_, t)| t), 2),
                (retry_at.map(|i| waiting[i].fire), 3),
                (step_at.map(|(_, t)| t), 4),
            ];
            let mut chosen: Option<(Seconds, u8)> = None;
            for (t, class) in candidates {
                if let Some(t) = t {
                    if chosen.is_none_or(|(bt, _)| t < bt) {
                        chosen = Some((t, class));
                    }
                }
            }
            let Some((now, class)) = chosen else {
                let mut progressed = false;
                for (i, core) in cores.iter_mut().enumerate() {
                    if stale[i] {
                        continue;
                    }
                    if core.flush_stalled()? {
                        for c in core.drain_new().to_vec() {
                            deliveries.push((i, c));
                        }
                        progressed = true;
                        break;
                    }
                }
                if !progressed {
                    return Err(Error::invalid_config(
                        "serving driver stalled: closed-loop clients wait on completions \
                         no engine can produce",
                    ));
                }
                continue;
            };

            match class {
                0 => {
                    for k in health.advance(now, recovery.warmup) {
                        cores[k] = sessions[k].core()?;
                        stale[k] = false;
                        last_push[k] = f64::NEG_INFINITY;
                        if slowdown[k] != 1.0 {
                            cores[k].set_slowdown(slowdown[k]);
                        }
                        if exhausted_closed {
                            cores[k].close();
                        }
                    }
                    for rec in crash_log.iter_mut() {
                        if rec.up_again.is_none() && health.is_up(rec.replica) {
                            rec.up_again = Some(now);
                        }
                    }
                    while next_fault < timeline.len() && timeline[next_fault].0 <= now {
                        let (_, action) = timeline[next_fault];
                        next_fault += 1;
                        match action {
                            FaultAction::Crash { replica, repair } => {
                                if matches!(health.state(replica), ReplicaHealth::Down { .. }) {
                                    continue;
                                }
                                let lost = cores[replica].crash(now);
                                accum[replica].harvest(&cores[replica]);
                                stale[replica] = true;
                                health.mark_down(replica, now + repair);
                                avail.crashes += 1;
                                crash_log.push(CrashRecord {
                                    replica,
                                    at: now,
                                    up_again: None,
                                    first_completion: None,
                                });
                                let lost_ids: Vec<u64> = lost.iter().map(|r| r.id).collect();
                                deliveries
                                    .retain(|(k, c)| *k != replica || !lost_ids.contains(&c.id));
                                for r in lost {
                                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                                    let attempts =
                                        attempts_of.get(&r.id).copied().unwrap_or(0) + 1;
                                    if attempts > recovery.max_attempts {
                                        avail.shed += 1;
                                        release_client(&mut stream, r.id, orig, now);
                                        continue;
                                    }
                                    let fire = now + recovery.backoff_for(attempts);
                                    if fire.get() > orig + recovery.deadline.get() {
                                        avail.timed_out += 1;
                                        release_client(&mut stream, r.id, orig, now);
                                        continue;
                                    }
                                    attempts_of.insert(r.id, attempts);
                                    waiting.push(WaitingRetry { fire, request: r, attempts });
                                }
                            }
                            FaultAction::SlowStart { replica, factor } => {
                                slowdown[replica] = factor;
                                if !stale[replica] {
                                    cores[replica].set_slowdown(factor);
                                }
                            }
                            FaultAction::SlowEnd { replica } => {
                                slowdown[replica] = 1.0;
                                if !stale[replica] {
                                    cores[replica].set_slowdown(1.0);
                                }
                            }
                        }
                    }
                }
                1 => {
                    let request = stream.pop();
                    origin.insert(request.id, request.arrival_s);
                    waiting.push(WaitingRetry { fire: now, request, attempts: 0 });
                    if stream.exhausted() {
                        exhausted_closed = true;
                        for (i, core) in cores.iter_mut().enumerate() {
                            if !stale[i] {
                                core.close();
                            }
                        }
                    }
                }
                2 => {
                    let (idx, _) = delivery_at
                        .ok_or_else(|| Error::internal("class 2 implies a pending delivery"))?;
                    let (k, mut c) = deliveries.remove(idx);
                    if let Some(orig) = origin.get(&c.id) {
                        c.arrival = Seconds::new(*orig);
                    }
                    if attempts_of.get(&c.id).copied().unwrap_or(0) > 0 {
                        avail.retried_ok += 1;
                    }
                    stream.on_complete(&c);
                    delivered_by[k] += 1;
                    for rec in crash_log.iter_mut() {
                        if rec.replica == k && rec.first_completion.is_none() && c.finish > rec.at
                        {
                            rec.first_completion = Some(c.finish);
                        }
                    }
                    delivered.push(c);
                }
                3 => {
                    let idx = retry_at
                        .ok_or_else(|| Error::internal("class 3 implies a waiting request"))?;
                    let item = waiting.remove(idx);
                    let r = item.request;
                    let orig = *origin.get(&r.id).unwrap_or(&r.arrival_s);
                    if now.get() > orig + recovery.deadline.get() {
                        avail.timed_out += 1;
                        release_client(&mut stream, r.id, orig, now);
                        continue;
                    }
                    let up = health.up_replicas();
                    if up.is_empty() {
                        let fire = health.next_transition().ok_or_else(|| {
                            Error::internal(
                                "every replica is down and none is scheduled to restart",
                            )
                        })?;
                        waiting.push(WaitingRetry { fire, ..item });
                        continue;
                    }
                    if let Some(threshold) = recovery.shed_outstanding {
                        if up.iter().all(|&k| cores[k].outstanding_at(now) >= threshold) {
                            let key = (orig, r.id);
                            let mut doomed = vec![(r.id, orig)];
                            waiting.retain(|w| {
                                let worig =
                                    *origin.get(&w.request.id).unwrap_or(&w.request.arrival_s);
                                if (worig, w.request.id) <= key {
                                    doomed.push((w.request.id, worig));
                                    false
                                } else {
                                    true
                                }
                            });
                            for (id, worig) in doomed {
                                avail.shed += 1;
                                release_client(&mut stream, id, worig, now);
                            }
                            continue;
                        }
                    }
                    let snaps = healthy_snapshots(&cores, &up, now, &assigned, false);
                    let pos = router.route(&r, &snaps).min(up.len() - 1);
                    let k = up[pos];
                    assigned[k] += 1;
                    if item.attempts > 0 {
                        avail.retries += 1;
                    }
                    let mut pushed = r;
                    pushed.arrival_s = if item.attempts > 0 { now.get() } else { r.arrival_s };
                    pushed.arrival_s = pushed.arrival_s.max(last_push[k]);
                    last_push[k] = pushed.arrival_s;
                    if exhausted_closed {
                        cores[k].reopen();
                        cores[k].push(pushed);
                        cores[k].close();
                    } else {
                        cores[k].push(pushed);
                    }
                }
                _ => {
                    let (i, _) = step_at
                        .ok_or_else(|| Error::internal("class 4 implies a steppable core"))?;
                    cores[i].step()?;
                    for c in cores[i].drain_new().to_vec() {
                        deliveries.push((i, c));
                    }
                }
            }
        }

        for (k, core) in cores.iter().enumerate() {
            if !stale[k] {
                accum[k].harvest(core);
            }
        }
        delivered.sort_by_key(|c| c.id);
        debug_assert_eq!(
            delivered.len() as u64 + avail.shed + avail.timed_out,
            offered,
            "request conservation: arrived == completed + shed + timed out"
        );

        let finish = delivered.iter().map(|c| c.finish).fold(Seconds::ZERO, Seconds::max);
        let first_arrival = delivered.iter().map(|c| c.arrival).fold(finish, Seconds::min);
        let makespan = (finish - first_arrival).get().max(f64::MIN_POSITIVE);
        let mut downtime = 0.0;
        for rec in &crash_log {
            let clip = |t: f64| t.clamp(first_arrival.get(), finish.get());
            let start = clip(rec.at.get());
            let end = clip(rec.up_again.map_or(finish.get(), |u| u.get()));
            downtime += (end - start).max(0.0);
            avail
                .time_to_recover_s
                .push((rec.first_completion.unwrap_or(finish).get() - rec.at.get()).max(0.0));
        }
        avail.downtime_s = downtime;
        avail.availability = (1.0 - downtime / (n as f64 * makespan)).clamp(0.0, 1.0);

        let mut chip_energy = Joules::ZERO;
        let mut preemptions = 0;
        let mut queue_full_s = 0.0;
        let mut prefix = PrefixStats::default();
        let mut rows = Vec::with_capacity(n);
        for (k, spec) in replicas.iter().enumerate() {
            let a = &accum[k];
            chip_energy += Joules::new(a.energy_j);
            preemptions += a.preemptions;
            queue_full_s += a.queue_full_s;
            prefix.absorb(&a.prefix);
            rows.push(ReplicaUtilization {
                name: spec.name.clone(),
                model: spec.model.name().to_owned(),
                role: "serve".to_owned(),
                chips: spec.chips(),
                requests: delivered_by[k],
                busy_s: a.busy_s,
                utilization: 0.0, // filled against the fleet makespan
                energy_j: a.energy_j,
                kv_hwm_frac: a.kv_hwm,
            });
        }
        let report = ClusterReport::build(
            label,
            "colocated",
            policy.name().to_owned(),
            offered,
            &delivered,
            chip_energy,
            preemptions,
            queue_full_s,
            KvTransferStats::default(),
            rows,
            slo_ms,
            Some(avail),
        );
        for session in &sessions {
            session.persist_cache();
        }
        Ok(ClusterRun { report, replica_reports: Vec::new(), completions: delivered, prefix })
    }

    // ------------------------------------------------------------------
    // Equivalence proptests: heap-scheduled drivers == scan oracles.
    // ------------------------------------------------------------------

    fn tiny() -> ServingModel {
        ServingModel::Llm(cimtpu_serving::scenario::tiny_transformer())
    }

    /// A three-replica fleet mixing batching policies (continuous,
    /// static, dynamic) so the equivalence runs cross every scheduler
    /// state machine, including the static stall-flush path.
    fn mixed_fleet() -> Vec<ReplicaSpec> {
        vec![
            ReplicaSpec::new("cont", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Continuous { max_batch: 4 }),
            ReplicaSpec::new("stat", TpuConfig::tpuv4i(), tiny())
                .with_policy(BatchPolicy::Static { batch: 2 }),
            ReplicaSpec::new("dyn", TpuConfig::design_a(), tiny())
                .with_policy(BatchPolicy::Dynamic { max_batch: 4, max_wait_ms: 0.5 }),
        ]
    }

    fn traffics(seed: u64) -> [TrafficSpec; 2] {
        let base = TrafficSpec {
            requests: 24,
            arrival: ArrivalPattern::OpenLoop { rate_rps: 4_000.0 },
            prompt: LenDist::Uniform { lo: 8, hi: 48 },
            steps: LenDist::Uniform { lo: 2, hi: 10 },
            prefix: PrefixTraffic::None,
            seed,
        };
        let closed = TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop { clients: 5, think_ms: 0.2 },
            ..base
        };
        [base, closed]
    }

    const POLICIES: [RouterPolicy; 6] = [
        RouterPolicy::PassThrough,
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastOutstanding,
        RouterPolicy::LeastKv,
        RouterPolicy::SessionAffinity,
        RouterPolicy::PrefixAffinity,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// The tracker-routed zero-fault driver replays the per-arrival
        /// snapshot rebuild bit-for-bit, for every router policy and
        /// both open- and closed-loop traffic.
        #[test]
        fn tracked_colocated_matches_rebuild_oracle(seed in 0u64..1_000) {
            let fleet = mixed_fleet();
            for traffic in traffics(seed) {
                for policy in POLICIES {
                    let fast =
                        run_colocated(&fleet, policy, "eq", &traffic, Some(50.0), None, None).unwrap();
                    let slow =
                        run_colocated_oracle(&fleet, policy, "eq", &traffic, Some(50.0)).unwrap();
                    prop_assert_eq!(&fast, &slow, "policy {}", policy.name());
                }
            }
        }

        /// The heap-scheduled failure-aware driver replays the scan
        /// oracle bit-for-bit under scripted crashes + a straggler
        /// window and under seeded chaos, for every router policy.
        #[test]
        fn heap_faulty_matches_scan_oracle(seed in 0u64..1_000) {
            let fleet = mixed_fleet();
            let scripted = FaultPlan::none()
                .with_event(FaultEvent::Crash {
                    at: Seconds::new(0.000_4),
                    replica: 0,
                    repair: Seconds::new(0.001),
                })
                .with_event(FaultEvent::Straggler {
                    replica: 2,
                    from: Seconds::new(0.000_2),
                    until: Seconds::new(0.002),
                    slowdown: 3.0,
                });
            let chaos = FaultPlan::seeded(seed ^ 0xFA417).with_chaos(ChaosSpec {
                crashes: 2,
                window: (Seconds::new(0.000_2), Seconds::new(0.003)),
                repair: Seconds::new(0.002),
            });
            for traffic in traffics(seed) {
                for plan in [&scripted, &chaos] {
                    for policy in POLICIES {
                        let fast =
                            run_colocated_faulty(&fleet, policy, "eq", &traffic, None, plan, None, None)
                                .unwrap();
                        let slow =
                            run_colocated_faulty_oracle(&fleet, policy, "eq", &traffic, None, plan)
                                .unwrap();
                        prop_assert_eq!(&fast, &slow, "policy {}", policy.name());
                    }
                }
            }
        }
    }
}
