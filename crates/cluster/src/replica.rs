//! Replica groups: one serving engine's worth of hardware and policy,
//! named so fleet reports can attribute work.

use cimtpu_core::TpuConfig;
use cimtpu_serving::{
    BatchPolicy, EngineSession, MemoryConfig, Parallelism, PricingPool, ServingEngine, ServingModel,
};
use cimtpu_units::Result;

/// One replica group of the fleet: a [`ServingEngine`] configuration
/// (chip, model, chip organization, batching policy, KV budget) plus a
/// display name. Heterogeneity is the point — every replica may use a
/// different chip *and* a different model, and the router balances across
/// them.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Display name (report rows, trace tracks).
    pub name: String,
    /// Chip configuration.
    pub chip: TpuConfig,
    /// Hosted model.
    pub model: ServingModel,
    /// Chip organization within the replica (replicated executors or one
    /// tensor-parallel ring).
    pub parallelism: Parallelism,
    /// Batching policy (for disaggregated pools, its
    /// [`max_concurrency`](BatchPolicy::max_concurrency) caps the pool's
    /// batch size).
    pub policy: BatchPolicy,
    /// KV-cache budget / paging / chunked-prefill configuration.
    pub memory: MemoryConfig,
}

impl ReplicaSpec {
    /// A replica named `name` serving `model` on `chip` with the
    /// defaults: one chip, continuous batching up to 8 requests,
    /// unlimited KV.
    pub fn new(name: impl Into<String>, chip: TpuConfig, model: ServingModel) -> Self {
        ReplicaSpec {
            name: name.into(),
            chip,
            model,
            parallelism: Parallelism::Replicated { chips: 1 },
            policy: BatchPolicy::Continuous { max_batch: 8 },
            memory: MemoryConfig::unlimited(),
        }
    }

    /// Replaces the batching policy.
    #[must_use]
    pub fn with_policy(mut self, policy: BatchPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the chip organization.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Replaces the memory configuration.
    #[must_use]
    pub fn with_memory(mut self, memory: MemoryConfig) -> Self {
        self.memory = memory;
        self
    }

    /// Physical chips this replica occupies.
    pub(crate) fn chips(&self) -> u64 {
        self.parallelism.chips()
    }

    /// Builds the serving-engine configuration this replica runs.
    ///
    /// # Errors
    ///
    /// Returns an error for zero chips.
    pub fn engine(&self) -> Result<ServingEngine> {
        Ok(ServingEngine::new(
            self.chip.clone(),
            self.model.clone(),
            self.parallelism,
            self.policy,
        )?
        .with_memory(self.memory))
    }
}

/// Instantiates `specs` for one run: one [`EngineSession`] per spec, all
/// built through one [`PricingPool`]. Replicas of one chip, model and chip
/// organization — and every core a driver rebuilds for them at a boot or
/// a crash restart — share one pricing state, which lives as long as the
/// sessions do, so every run starts cold.
///
/// # Errors
///
/// Returns an error for an invalid chip or memory configuration.
pub(crate) fn fleet_sessions<'r>(
    specs: impl IntoIterator<Item = &'r ReplicaSpec>,
) -> Result<Vec<EngineSession>> {
    let mut pool = PricingPool::new();
    specs
        .into_iter()
        .map(|spec| pool.session(&spec.engine()?))
        .collect()
}
