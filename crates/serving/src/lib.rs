//! Request-level serving simulation on top of the cimtpu chip model.
//!
//! The per-chip [`Simulator`](cimtpu_core::Simulator) prices one workload
//! at a time; real inference systems serve many concurrent requests whose
//! phases interleave. This crate adds that layer: open- and closed-loop
//! traffic ([`TrafficSpec`] — seeded, deterministic), an event-driven
//! engine ([`ServingEngine`]) that schedules phase segments onto one or
//! more simulated chips, and request-level metrics ([`ServingReport`] —
//! throughput, p50/p95/p99 latency and time-to-first-token, energy per
//! request).
//!
//! # Traffic
//!
//! [`ArrivalPattern`] covers open-loop Poisson arrivals (optionally drawn
//! from a fixed session pool), bursts, and **closed-loop** traffic:
//! `ClosedLoop { clients, think_ms }` keeps `clients` concurrent clients
//! each with one request in flight — a completion schedules that client's
//! next request after a think time, so offered load tracks service
//! capacity (the saturation-study regime). Closed-loop arrivals depend on
//! completions, so they are produced incrementally by an
//! [`ArrivalStream`] coupled to the engine through the [`drive`] loop.
//!
//! # Incremental stepping
//!
//! The scheduler is exposed as an incremental state machine,
//! [`EngineCore`] (obtained from an [`EngineSession`]): a driver pushes
//! arrivals, steps scheduling decisions one at a time, and reads
//! completions as they happen. `ServingEngine::run` is a thin driver over
//! it; the `cimtpu-cluster` crate interleaves many cores behind a router
//! to simulate whole fleets. Scheduling decisions depend only on queue
//! contents — not on when the driver pushes — so incremental and batch
//! feeding produce bit-identical results.
//!
//! Pricing reuses the whole existing stack through two memos: each
//! distinct `(phase, batch, length)` query is priced once by a
//! [`PhasePricer`] (summing the phase's operators through
//! [`Simulator::price_ops`](cimtpu_core::Simulator::price_ops), on top of
//! the simulator's `MappingCache` memoizing per-operator map-space
//! searches) and replayed for every batch that repeats it.
//!
//! # Batching-policy semantics
//!
//! A [`BatchPolicy`] decides how queued requests are grouped:
//!
//! - **Static `{ batch }`** — the scheduler waits until exactly `batch`
//!   requests have arrived (the stream tail may form a smaller batch),
//!   then runs the batch to completion. Prompts pad to the longest member
//!   and every slot is held until the whole batch finishes: per-request
//!   completion is the batch end, the classic pre-Orca serving model.
//! - **Dynamic `{ max_batch, max_wait_ms }`** — when a chip frees, the
//!   scheduler launches whatever has queued, as soon as either `max_batch`
//!   requests are waiting or the oldest has waited `max_wait_ms`. The
//!   batch runs to completion but does not pad: as members finish, decode
//!   steps shrink to the surviving batch size, and each request completes
//!   at its own last token.
//! - **Continuous `{ max_batch }`** — scheduling happens between
//!   individual decode steps (vLLM/Orca style): new requests are admitted
//!   into free slots (their prefill runs as its own grouped segment
//!   between steps), finished requests retire immediately, and each step
//!   prices at the currently active batch size and the longest live
//!   context.
//!
//! Multi-chip configurations come in two flavours ([`Parallelism`]):
//! **replicated** chips share one queue (each batch runs on the
//! earliest-free replica), and **tensor-parallel** rings shard every layer
//! across the ring (Megatron-style, priced via `cimtpu-multi` including
//! the two per-layer ring all-reduces) and serve as one logical chip.
//!
//! # Memory subsystem
//!
//! A [`MemoryConfig`] bounds the KV cache with a paged allocator from
//! `cimtpu-kv` (per-token footprint derived from the model geometry,
//! tensor-parallel rings sharding it across devices):
//!
//! - **Admission control** — a request is admitted only when its prompt's
//!   KV blocks are free; otherwise it queues (the report's
//!   `queue_full_s` clock).
//! - **Preemption** — when a decode step cannot grow a running request by
//!   one token, the youngest resident request is evicted and later
//!   resumed by recomputing its whole context (recompute-on-resume, the
//!   recomputed prefill re-priced through the execution context); counted
//!   in `preemptions`.
//! - **Chunked prefill** — [`MemoryConfig::chunk_tokens`] splits prompts
//!   into fixed-size chunks (Sarathi-style) so decode steps of running
//!   requests interleave with prefill chunks instead of stalling behind
//!   a monolithic prompt.
//!
//! The default [`MemoryConfig::unlimited`] (infinite KV, no chunking)
//! reproduces the memory-oblivious scheduler bit-exactly.
//!
//! # Prefix sharing
//!
//! [`MemoryConfig::with_prefix_sharing`] turns on vLLM/SGLang-style
//! prefix caching: every executor keeps a
//! [`PrefixIndex`](cimtpu_kv::PrefixIndex) over its resident prompt
//! blocks, and a request whose prompt shares a head with cached content
//! attaches those blocks by reference (ref-counted, copy-on-write on
//! mid-block divergence) and prices only its prompt *tail* — a chunk
//! attending to the cached past, through the same
//! `prefill_chunk` machinery as chunked
//! prefill, with which it composes. Traffic opts in via
//! [`TrafficSpec::prefix`] ([`PrefixTraffic::SharedHead`] models a shared
//! system prompt across request groups); [`ServingRun::prefix`] reports
//! hits, shared blocks/tokens, copy-on-write events, and evictions.
//! Sharing changes *when* work happens, never *what* is generated:
//! completions are token-for-token identical to the unshared path, and
//! with sharing off the engine is bit-identical to before.
//!
//! # Examples
//!
//! ```
//! use cimtpu_core::TpuConfig;
//! use cimtpu_models::presets;
//! use cimtpu_serving::{
//!     ArrivalPattern, BatchPolicy, LenDist, Parallelism, PrefixTraffic, ServingEngine,
//!     ServingModel, TrafficSpec,
//! };
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
//! let run = engine.run("example", &traffic)?;
//! assert_eq!(run.report.completed, 4);
//! assert!(run.report.latency.p99_ms >= run.report.latency.p50_ms);
//! # Ok::<(), cimtpu_units::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod cli;
mod engine;
mod heap;
mod memory;
mod metrics;
mod policy;
mod pricer;
mod request;
pub mod scenario;
mod session;
mod step;
mod tenant;
pub mod trace;

pub use cimtpu_kv::{KvBudget, PrefixStats};
pub use engine::{Parallelism, ServingEngine, ServingRun};
pub use heap::{ActionHeap, EventKey};
pub use memory::{parse_kv_budget, MemoryConfig};
pub use metrics::{Completion, CompletionStats, LatencyStats, MemoryStats, ServingReport};
pub use policy::BatchPolicy;
pub use pricer::{PhasePricer, ServingModel};
pub use request::{
    ArrivalPattern, ArrivalStream, LenDist, PrefixTraffic, PromptPrefix, Request, TrafficSpec,
    DIURNAL_CURVE,
};
pub use session::{EngineSession, PricingPool};
pub use step::{drive, drive_with, DriveHooks, EngineCore};
pub use tenant::{
    parse_tenants, Offered, RequestTenants, SloClass, TenantPart, TenantReport, TenantSched,
    TenantSet, TenantSpec, TenantUsage,
};
pub use trace::{parse_jsonl, replay_spec, synthesize, to_jsonl, TraceRecord};
