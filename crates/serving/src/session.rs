//! An instantiated serving backend: the simulator (or tensor-parallel
//! ring) a [`ServingEngine`] configuration prices against, owned so that
//! incremental [`EngineCore`]s and [`PhasePricer`]s can borrow it.
//!
//! The pricing state — simulator or ring with its `MappingCache`, plus
//! the phase memo above it — depends only on the chip, the model and the
//! chip organization. A [`PricingPool`] builds it once per
//! distinct such configuration and hands every session of that
//! configuration the same state, so a fleet of identical replicas (and
//! every core a driver rebuilds for them) prices each query once.

use std::rc::Rc;

use cimtpu_core::Simulator;
use cimtpu_kv::{KvFootprint, PagedKvAllocator};
use cimtpu_multi::MultiTpu;
use cimtpu_units::{Error, Result};

use crate::engine::{Parallelism, ServingEngine};
use crate::memory::MemoryConfig;
use crate::policy::BatchPolicy;
use crate::pricer::{PhaseMemo, PhasePricer, ServingModel};
use crate::step::EngineCore;

#[derive(Debug)]
enum Backend {
    Single(Simulator),
    Ring(MultiTpu),
}

/// The pricing state of one (chip, model, chip organization): the
/// simulator or ring with its `MappingCache`, and the phase memo every
/// pricer over it shares.
#[derive(Debug)]
struct Pricing {
    model: ServingModel,
    parallelism: Parallelism,
    backend: Backend,
    phases: PhaseMemo,
}

impl Pricing {
    fn new(engine: &ServingEngine) -> Result<Self> {
        let backend = match engine.parallelism() {
            Parallelism::Replicated { .. } => {
                Backend::Single(Simulator::new(engine.chip().clone())?)
            }
            Parallelism::TensorParallel { chips } => {
                Backend::Ring(MultiTpu::new(engine.chip().clone(), chips)?)
            }
        };
        Ok(Pricing {
            model: engine.model().clone(),
            parallelism: engine.parallelism(),
            backend,
            phases: PhaseMemo::default(),
        })
    }

    fn simulator(&self) -> &Simulator {
        match &self.backend {
            Backend::Single(sim) => sim,
            Backend::Ring(ring) => ring.simulator(),
        }
    }

    /// Whether this state prices `engine`'s chip, model and organization.
    fn serves(&self, engine: &ServingEngine) -> bool {
        self.parallelism == engine.parallelism()
            && self.model == *engine.model()
            && self.simulator().config() == engine.chip()
    }

    fn pricer(&self) -> PhasePricer<'_> {
        let ring = match &self.backend {
            Backend::Single(_) => None,
            Backend::Ring(ring) => Some(ring),
        };
        PhasePricer::sharing(&self.model, self.simulator(), ring, Rc::clone(&self.phases))
    }
}

/// The pricing states of one simulation run, one per distinct (chip,
/// model, chip organization). Sessions built through the same pool share
/// the state of their configuration: its `MappingCache` and phase memo.
/// A pool lives as long as the run that owns it — nothing is cached
/// across runs — so every run starts cold.
#[derive(Debug, Default)]
pub struct PricingPool {
    states: Vec<Rc<Pricing>>,
}

impl PricingPool {
    /// An empty pool.
    pub fn new() -> Self {
        PricingPool::default()
    }

    /// A session for `engine`, priced by the pool's state for the
    /// engine's chip, model and chip organization (built on first use).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid chip or memory configuration, or
    /// chunked prefill or prefix sharing on a tensor-parallel ring.
    pub fn session(&mut self, engine: &ServingEngine) -> Result<EngineSession> {
        let memory = engine.memory();
        memory.validate()?;
        let parallelism = engine.parallelism();
        if memory.chunk_tokens.is_some()
            && matches!(parallelism, Parallelism::TensorParallel { .. })
        {
            return Err(Error::invalid_config(
                "chunked prefill is not supported on a tensor-parallel ring",
            ));
        }
        if memory.prefix_sharing && matches!(parallelism, Parallelism::TensorParallel { .. }) {
            return Err(Error::invalid_config(
                "prefix sharing is not supported on a tensor-parallel ring \
                 (shared-tail pricing needs chunked prefill)",
            ));
        }
        let pricing = match self.states.iter().find(|p| p.serves(engine)) {
            Some(p) => Rc::clone(p),
            None => {
                let p = Rc::new(Pricing::new(engine)?);
                self.states.push(Rc::clone(&p));
                p
            }
        };
        Ok(EngineSession {
            policy: engine.policy(),
            memory,
            pricing,
        })
    }

    /// Distinct pricing states built so far.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }
}

/// One engine configuration instantiated against real pricing state: the
/// chip simulator (or tensor-parallel ring), the hosted model, and the
/// policy/memory configuration. The session gives the borrowing
/// front-ends what they need:
///
/// - [`EngineSession::core`] — an incremental [`EngineCore`] running the
///   full batching engine (what [`ServingEngine::run`] drives, and what a
///   cluster driver interleaves across replicas);
/// - [`EngineSession::pricer`] — a bare [`PhasePricer`] for drivers that
///   schedule phases themselves (the cluster crate's disaggregated
///   prefill/decode pools);
/// - [`EngineSession::allocator`] / `EngineSession::footprint` — the
///   paged KV allocator and per-executor footprint derived from the
///   configured budget.
///
/// Every core and pricer of a session — and of every session sharing its
/// [`PricingPool`] state — shares one set of pricing memos.
#[derive(Debug)]
pub struct EngineSession {
    policy: BatchPolicy,
    memory: MemoryConfig,
    pricing: Rc<Pricing>,
}

impl EngineSession {
    /// Instantiates `engine`'s backend in a pool of its own (builds the
    /// simulator or ring).
    ///
    /// # Errors
    ///
    /// As for [`PricingPool::session`].
    pub fn new(engine: &ServingEngine) -> Result<Self> {
        PricingPool::new().session(engine)
    }

    /// The hosted model.
    pub(crate) fn model(&self) -> &ServingModel {
        &self.pricing.model
    }

    /// The batching policy.
    #[cfg(test)]
    pub(crate) fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// The chip organization.
    pub(crate) fn parallelism(&self) -> Parallelism {
        self.pricing.parallelism
    }

    /// A phase pricer against this session's pricing state: its phase
    /// memo and the `MappingCache` underneath are shared with every other
    /// pricer and core over that state.
    pub fn pricer(&self) -> PhasePricer<'_> {
        self.pricing.pricer()
    }

    /// A fresh incremental engine core over this session.
    ///
    /// # Errors
    ///
    /// Returns an error if the KV budget cannot be derived (zero-sized
    /// blocks, invalid sharding).
    pub fn core(&self) -> Result<EngineCore<'_>> {
        let executors = self.parallelism().executors();
        let allocs: Vec<PagedKvAllocator> = (0..executors)
            .map(|_| self.allocator())
            .collect::<Result<_>>()?;
        Ok(EngineCore::new(
            self.pricer(),
            self.policy,
            self.memory,
            self.parallelism().chips(),
            allocs,
        ))
    }

    /// Per-executor KV footprint of the hosted model (sharded across a
    /// tensor-parallel ring).
    ///
    /// # Errors
    ///
    /// Returns an error for zero-way sharding (unreachable via public
    /// constructors).
    pub(crate) fn footprint(&self) -> Result<KvFootprint> {
        match (self.model(), self.parallelism()) {
            (ServingModel::Llm(m), Parallelism::TensorParallel { chips }) => {
                KvFootprint::sharded(m, chips)
            }
            (ServingModel::Llm(m), Parallelism::Replicated { .. }) => Ok(KvFootprint::of(m)),
            (ServingModel::Dit { .. }, _) => Ok(KvFootprint::none()),
        }
    }

    /// One executor's paged KV allocator from the configured budget.
    ///
    /// # Errors
    ///
    /// Returns an error for a zero block size.
    pub fn allocator(&self) -> Result<PagedKvAllocator> {
        let footprint = self.footprint()?;
        let budget = self.memory.budget.resolve(self.hbm_capacity(), &footprint);
        PagedKvAllocator::from_budget(budget, &footprint, self.memory.block_tokens)
    }

    fn hbm_capacity(&self) -> cimtpu_units::Bytes {
        self.pricing.simulator().config().hbm_capacity()
    }
}

#[cfg(test)]
mod tests {
    use cimtpu_core::TpuConfig;

    use super::*;
    use crate::scenario::tiny_transformer;

    #[test]
    fn pool_builds_one_pricing_state_per_configuration() {
        let engine = |chip: TpuConfig, parallelism, policy| {
            ServingEngine::new(
                chip,
                ServingModel::Llm(tiny_transformer()),
                parallelism,
                policy,
            )
            .unwrap()
        };
        let one = Parallelism::Replicated { chips: 1 };
        let batch = BatchPolicy::Continuous { max_batch: 8 };
        let engines = [
            engine(TpuConfig::tpuv4i(), one, batch),
            // Policy and memory are per session, not per pricing state.
            engine(TpuConfig::tpuv4i(), one, BatchPolicy::Static { batch: 2 })
                .with_memory(MemoryConfig::unlimited().with_block_tokens(8)),
            engine(TpuConfig::design_a(), one, batch),
            engine(
                TpuConfig::tpuv4i(),
                Parallelism::TensorParallel { chips: 2 },
                batch,
            ),
            engine(TpuConfig::design_a(), one, batch),
        ];
        let mut pool = PricingPool::new();
        for engine in &engines {
            assert_eq!(pool.session(engine).unwrap().policy(), engine.policy());
        }
        assert_eq!(pool.len(), 3, "tpuv4i, design A, and the tpuv4i ring");
    }
}
