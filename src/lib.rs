//! `cimtpu` — a compute-in-memory TPU architecture simulator.
//!
//! Reproduction of *"Leveraging Compute-in-Memory for Efficient Generative
//! Model Inference in TPUs"* (DATE 2025). This facade crate re-exports the
//! workspace so downstream users depend on a single crate:
//!
//! - [`units`] — quantities, data types, GEMM shapes;
//! - [`systolic`] — the baseline digital MXU (SCALE-Sim-style);
//! - [`cim`] — the digital CIM macro and CIM-MXU grid;
//! - [`models`] — LLM/DiT workload builders and presets, structured into
//!   phase-tagged segments (Prefill / Decode / Conditioning / PrePost /
//!   Collective);
//! - [`mapper`] — the tiling/scheduling engine;
//! - [`core`] — the TPU architecture model and simulator;
//! - [`multi`] — multi-chip parallelism and throughput;
//! - [`kv`] — the KV-cache memory subsystem (per-request footprints,
//!   paged block allocation);
//! - [`serving`] — request-level serving simulation (open- and
//!   closed-loop traffic, batching policies, KV admission control /
//!   preemption / chunked prefill, latency percentiles);
//! - [`cluster`] — fleet-level serving (request routing over
//!   heterogeneous replica groups, disaggregated prefill/decode with KV
//!   handoff over the interconnect, closed-loop saturation studies);
//! - [`autoscale`] — the reconcile-loop autoscaling control plane
//!   (declarative per-group policies, deterministic scaling decisions,
//!   elasticity cost accounting) the cluster layer applies.
//!
//! The repo-root `ARCHITECTURE.md` maps the five-layer stack, the data
//! flow of one served request, the determinism/bit-identity contract,
//! and the `BENCH_*.json` CI-diff workflow; `README.md` has the build
//! quickstart and the scenario catalogs of the `serve_sim` /
//! `cluster_sim` binaries.
//!
//! # Quickstart
//!
//! ```
//! use cimtpu::prelude::*;
//!
//! // Build the two TPUs the paper compares.
//! let baseline = Simulator::new(TpuConfig::tpuv4i())?;
//! let cim_tpu = Simulator::new(TpuConfig::cim_base())?;
//!
//! // One GPT-3-30B decoding step at the 256th output token (Fig. 6).
//! let layer = presets::gpt3_30b().decode_layer(8, 1280)?;
//! let base = baseline.run(&layer)?;
//! let cim = cim_tpu.run(&layer)?;
//!
//! println!("decode speedup: {:.2}x", cim.speedup_vs(&base));
//! println!("MXU energy: {:.1}x less", cim.mxu_energy_reduction_vs(&base));
//! assert!(cim.speedup_vs(&base) > 1.0);
//! # Ok::<(), cimtpu::units::Error>(())
//! ```
//!
//! # Request-level serving
//!
//! The serving layer turns the per-workload simulator into a traffic
//! model: seeded open-loop arrivals, static / dynamic / continuous
//! batching, one or more chips (replicated or a tensor-parallel ring),
//! and p50/p95/p99 latency out the other end. Runs are deterministic for
//! a fixed seed.
//!
//! ```
//! use cimtpu::prelude::*;
//!
//! let engine = ServingEngine::new(
//!     TpuConfig::design_a(),
//!     ServingModel::Llm(presets::gpt3_6_7b()),
//!     Parallelism::Replicated { chips: 1 },
//!     BatchPolicy::Continuous { max_batch: 8 },
//! )?;
//! let traffic = TrafficSpec {
//!     requests: 4,
//!     arrival: ArrivalPattern::OpenLoop { rate_rps: 20.0 },
//!     prompt: LenDist::Fixed(64),
//!     steps: LenDist::Fixed(4),
//!     prefix: PrefixTraffic::None,
//!     seed: 1,
//! };
//! let run = engine.run("quickstart", &traffic)?;
//! assert_eq!(run.report.completed, 4);
//! println!("p99 latency: {:.2} ms", run.report.latency.p99_ms);
//! # Ok::<(), cimtpu::units::Error>(())
//! ```
//!
//! Under the hood pricing is memoized at two levels: each distinct
//! `(phase, batch, length)` query is priced once by a
//! [`PhasePricer`](serving::PhasePricer) and replayed per request, and
//! each distinct matrix operator runs the map-space search once in its
//! simulator's [`MappingCache`](core::MappingCache).
//!
//! # Cluster-scale serving
//!
//! The cluster layer scales the request-level simulator to fleets: N
//! replica groups — each its own chip config, model, batching policy, and
//! KV budget — behind a pluggable router (round-robin,
//! least-outstanding, least-KV-occupancy, session-affinity), with
//! closed-loop client populations
//! ([`ArrivalPattern::ClosedLoop`](serving::ArrivalPattern)) and
//! DistServe-style **disaggregated prefill/decode**, where finished
//! prompts hand their paged KV cache to a decode pool over an
//! interconnect link priced in seconds and joules. A 1-replica cluster
//! with the pass-through router reproduces the single-engine
//! [`ServingReport`](serving::ServingReport) bit-for-bit (tested). See
//! `examples/cluster.rs` and the `cluster_sim` binary
//! (`BENCH_cluster.json` tracks the headline fleet metrics in CI).
//!
//! # KV-cache memory subsystem
//!
//! Serving is memory-bound before it is compute-bound: the KV cache, not
//! the MXUs, caps concurrency. A [`MemoryConfig`](serving::MemoryConfig)
//! budgets a paged allocator (`cimtpu-kv`) against the chip's HBM
//! capacity — admission control queues arrivals while no blocks are
//! free, decode steps that cannot grow evict the youngest resident
//! request (recompute-on-resume), and chunked prefill interleaves prompt
//! chunks with running decodes. See `examples/kv_pressure.rs` and the
//! `llm-kv-pressure` / `llm-chunked-prefill` scenarios in `serve_sim`;
//! `BENCH_serving.json` tracks the headline serving metrics.
//!
//! # Prefix sharing (copy-on-write KV blocks)
//!
//! Requests whose prompts open with a common head (a shared system
//! prompt, a few-shot preamble) compute identical KV state for it.
//! [`MemoryConfig::with_prefix_sharing`](serving::MemoryConfig::with_prefix_sharing)
//! gives every executor a [`PrefixIndex`](kv::PrefixIndex) — a
//! block-aligned radix tree over resident prompt blocks — so later
//! requests attach the cached blocks by reference (ref-counted; freed
//! only at the last reference), copy-on-write where their prompts
//! diverge mid-block, and price only their prompt *tails*. Traffic opts
//! in with [`PrefixTraffic::SharedHead`](serving::PrefixTraffic), and
//! fleets route hits onto the right replica with
//! [`RouterPolicy::PrefixAffinity`](cluster::RouterPolicy). Sharing
//! changes cost, never text: completions are token-for-token identical
//! to the unshared path (proptested across all three batching
//! policies), and with sharing off the engine is bit-identical to
//! before. See `examples/prefix_sharing.rs` and the
//! `llm-shared-prefix` / `cluster-shared-prefix` scenarios with their
//! cold controls.
//!
//! # Performance architecture: memoized pricing + parallel sweeps
//!
//! Design-space exploration evaluates full LLM/DiT inference across many
//! hardware points, and the same `(shape, dtype, residency)` mapping
//! queries recur constantly — identical transformer layers, the
//! decode-context samples inside [`inference::run_llm`](core::inference::run_llm),
//! and re-runs on one configuration. Two layers keep that fast:
//!
//! - **[`MappingCache`](core::MappingCache)** — every [`Simulator`](core::Simulator)
//!   memoizes per-operator pricing, so each distinct matrix query runs the
//!   Timeloop-style map-space search exactly once per configuration.
//!   Results are bit-identical with the cache on or off; inspect hit rates
//!   with [`Simulator::cache_stats`](core::Simulator::cache_stats).
//! - **[`units::pool`]** — a std-only work-stealing fan-out
//!   (`parallel_map` / `parallel_map_init`, rayon-style) that runs one
//!   memoized simulator per worker and returns results in item order, so
//!   parallel sweeps are output-identical to sequential ones.
//!   `cimtpu_bench` runs the paper's sweeps on it (the `fig7`,
//!   `sweep_extensions` and `moe_study` report sections), checked by a
//!   unit test against a sequential uncached reference run; `serve_sim`
//!   and `cluster_sim` fan their scenarios out on it.
//!
//! Outside the simulator (map-space studies, external drivers),
//! [`Mapper::best_gemm_mapping`](mapper::Mapper::best_gemm_mapping) maps
//! one shape against any [`TileCostModel`](mapper::TileCostModel); the
//! search walks `(tk, tn)` pairs and picks `tm` for its winner only.
//! `simbench`'s `design-sweep` workload times the memoized path on the
//! paper's Table IV and seeded CIM geometries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cimtpu_autoscale as autoscale;
pub use cimtpu_cim as cim;
pub use cimtpu_cluster as cluster;
pub use cimtpu_core as core;
pub use cimtpu_kv as kv;
pub use cimtpu_mapper as mapper;
pub use cimtpu_models as models;
pub use cimtpu_multi as multi;
pub use cimtpu_serving as serving;
pub use cimtpu_systolic as systolic;
pub use cimtpu_units as units;

/// The most common imports for simulator users.
pub mod prelude {
    pub use cimtpu_cluster::{
        ClusterEngine, ClusterReport, InterconnectSpec, ReplicaSpec, Router, RouterPolicy,
    };
    pub use cimtpu_core::{
        inference, MatrixEngine, MxuKind, PhasedReport, Report, SegmentCost, Simulator, TpuConfig,
    };
    pub use cimtpu_kv::{KvBudget, KvFootprint, PagedKvAllocator, PrefixIndex, PrefixStats};
    pub use cimtpu_models::{
        presets, DitConfig, LlmInferenceSpec, LlmModelConfig, MoeConfig, Op, OpCategory,
        OpInstance, Phase, Segment, TransformerConfig, Workload,
    };
    pub use cimtpu_multi::{MultiTpu, RingTopology};
    pub use cimtpu_serving::{
        ArrivalPattern, BatchPolicy, LenDist, MemoryConfig, MemoryStats, Parallelism,
        PrefixTraffic, PromptPrefix, ServingEngine, ServingModel, ServingReport, TrafficSpec,
    };
    pub use cimtpu_units::{
        Bandwidth, Bytes, Cycles, DataType, Energy, Error, Frequency, GemmShape, Joules, Result,
        Seconds, Watts,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        use crate::prelude::*;
        let cfg = TpuConfig::design_a();
        let sim = Simulator::new(cfg).expect("preset is valid");
        assert!(sim.config().peak_tops() > 0.0);
    }
}
