//! The serving-engine configuration and its batch run entry point. The
//! actual event-driven scheduler lives in [`crate::step`] as the
//! incremental [`EngineCore`](crate::EngineCore); `run` instantiates one
//! ([`EngineSession`]), feeds it the traffic, and reports.

use cimtpu_core::TpuConfig;
use cimtpu_units::{Error, Result};

use crate::memory::MemoryConfig;
use crate::metrics::{Completion, ServingReport};
use crate::policy::BatchPolicy;
use crate::pricer::ServingModel;
use crate::request::ArrivalStream;
use crate::session::EngineSession;
use crate::step::drive;
use crate::tenant::{Offered, RequestTenants, TenantReport};

/// How simulated chips cooperate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// `chips` independent replicas share one request queue; each batch
    /// runs on the earliest-free replica.
    Replicated {
        /// Number of replica chips.
        chips: u64,
    },
    /// `chips` form one tensor-parallel ring (Megatron-style sharding via
    /// `cimtpu-multi`); the ring serves batches as a single logical chip.
    TensorParallel {
        /// Number of ring devices.
        chips: u64,
    },
}

impl Parallelism {
    /// Physical chips involved.
    pub fn chips(&self) -> u64 {
        match *self {
            Parallelism::Replicated { chips } | Parallelism::TensorParallel { chips } => chips,
        }
    }

    /// Independent schedulable executors (1 for a tensor-parallel ring).
    pub(crate) fn executors(&self) -> usize {
        match *self {
            Parallelism::Replicated { chips } => chips as usize,
            Parallelism::TensorParallel { .. } => 1,
        }
    }
}

/// A complete serving-simulation configuration.
#[derive(Debug, Clone)]
pub struct ServingEngine {
    chip: TpuConfig,
    model: ServingModel,
    parallelism: Parallelism,
    policy: BatchPolicy,
    memory: MemoryConfig,
}

/// Everything a serving run produced: the aggregate report plus the
/// per-request completion records it was computed from.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingRun {
    /// Aggregate throughput / latency / energy / memory metrics.
    pub report: ServingReport,
    /// Per-request lifecycle records, in request-id order.
    pub completions: Vec<Completion>,
    /// Prefix-sharing counters (all zero when sharing is off — the
    /// [`ServingReport`] JSON shape is unchanged either way, keeping the
    /// committed `BENCH_serving.json` baseline format stable).
    pub prefix: cimtpu_kv::PrefixStats,
}

impl ServingEngine {
    /// Creates an engine serving `model` on `chip` hardware with
    /// unlimited KV capacity (see [`ServingEngine::with_memory`]).
    ///
    /// # Errors
    ///
    /// Returns an error for zero chips or (checked at run time) a DiT
    /// model under tensor parallelism.
    pub fn new(
        chip: TpuConfig,
        model: ServingModel,
        parallelism: Parallelism,
        policy: BatchPolicy,
    ) -> Result<Self> {
        if parallelism.chips() == 0 {
            return Err(Error::invalid_config("serving needs at least one chip"));
        }
        Ok(ServingEngine {
            chip,
            model,
            parallelism,
            policy,
            memory: MemoryConfig::unlimited(),
        })
    }

    /// Replaces the memory configuration (KV budget / paging / chunked
    /// prefill). With [`MemoryConfig::unlimited`] the engine reproduces
    /// the memory-oblivious scheduler bit-exactly.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// The chip configuration.
    pub(crate) fn chip(&self) -> &TpuConfig {
        &self.chip
    }

    /// The hosted model.
    pub(crate) fn model(&self) -> &ServingModel {
        &self.model
    }

    /// The batching policy.
    pub(crate) fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The memory configuration.
    pub(crate) fn memory(&self) -> MemoryConfig {
        self.memory
    }

    /// The chip organization.
    pub(crate) fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Simulates the offered load — a [`TrafficSpec`](crate::TrafficSpec)
    /// or a multi-tenant [`TenantSet`](crate::TenantSet) — to completion
    /// and reports request-level metrics. Deterministic: identical inputs
    /// give identical reports.
    ///
    /// Every arrival pattern runs through the shared
    /// [`drive`](crate::drive) loop: open-loop, burst and trace arrivals
    /// are fed in time order as the core steps (bit-identical to handing
    /// it the whole trace up front), and closed-loop traffic couples each
    /// client's next arrival to its previous completion. A tenant
    /// set's traffics merge into one trace, the core arms weighted-fair
    /// scheduling, and the report gains a per-tenant section (goodput,
    /// SLO attainment, fairness); a single-tenant set reports
    /// bit-identically to its tenant's traffic, plus that section.
    ///
    /// A serving engine takes no flight recorder; fleets record
    /// (`ClusterEngine::run_observed` in `cimtpu-cluster`), and a core
    /// driven directly takes one through
    /// [`EngineCore::attach_trace`](crate::EngineCore::attach_trace).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid traffic spec or tenant set, an
    /// empty prompt on an LLM ([`TrafficSpec::validate_prompts`]), an
    /// unmappable operator, chunked prefill on a tensor-parallel ring, or
    /// a KV budget too small to hold even a single request.
    ///
    /// [`TrafficSpec::validate_prompts`]: crate::TrafficSpec::validate_prompts
    pub fn run<'t>(&self, label: &str, offered: impl Into<Offered<'t>>) -> Result<ServingRun> {
        let offered = offered.into();
        let traffic = offered.spec()?;
        if self.model.has_prefill() {
            traffic.validate_prompts()?;
        }
        let mut stream = ArrivalStream::new(&traffic)?;
        let tenants = offered.tenants();
        let session = EngineSession::new(self)?;
        let mut core = session.core()?;
        if let Some(set) = tenants {
            core.set_tenancy(&set.sched());
        }
        drive(std::slice::from_mut(&mut core), &mut stream, |_, _| 0)?;
        // `finish` consumes the core: read its per-tenant preemptions first.
        let preempted = core.tenant_preemptions().to_vec();
        let mut run = core.finish(label);
        if let Some(set) = tenants {
            let (requests, done) = (RequestTenants::new(&traffic), &run.completions);
            let makespan_s = run.report.makespan_s;
            let report = TenantReport::new(set, requests, done, makespan_s, &[], &[], &preempted);
            run.report.tenants = Some(report);
        }
        Ok(run)
    }
}
