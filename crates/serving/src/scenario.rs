//! Named serving scenarios — the reference workloads `serve_sim` and the
//! CI smoke checks run — and the one scenario shape both simulation
//! binaries share: a [`Scenario`] is a name, an [`Engine`] (one
//! [`ServingEngine`] here, a fleet in `cimtpu-cluster`) and the load it
//! is offered.

use cimtpu_core::TpuConfig;
use cimtpu_models::{presets, TransformerConfig};
use cimtpu_units::{Bytes, Error, Result};

use crate::engine::{Parallelism, ServingEngine, ServingRun};
use crate::memory::MemoryConfig;
use crate::policy::BatchPolicy;
use crate::pricer::ServingModel;
use crate::request::{ArrivalPattern, LenDist, PrefixTraffic, TrafficSpec};
use crate::tenant::{Offered, TenantSet};
use crate::{KvBudget, PrefixStats};

/// What a [`Scenario`] runs on. The command-line front end
/// ([`crate::cli`]) drives the serving engine and a fleet through it; a
/// traced fleet run (`cluster_sim --trace`) calls the fleet's own
/// recording entry point instead.
pub trait Engine: Clone + Send + Sync {
    /// The report a run prints and writes under `--json`.
    type Report: std::fmt::Display + serde::Serialize + Send;
    /// Everything a run produced.
    type Run: Send;

    /// Serves `offered` to completion under the label `label`.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn run(&self, label: &str, offered: Offered<'_>) -> Result<Self::Run>;

    /// The same engine with every KV budget replaced (`--kv-budget`).
    #[must_use]
    fn with_kv_budget(self, budget: KvBudget) -> Self;

    /// A run's report and its prefix-cache counters.
    fn report(run: Self::Run) -> (Self::Report, PrefixStats);
}

impl Engine for ServingEngine {
    type Report = crate::ServingReport;
    type Run = ServingRun;

    fn run(&self, label: &str, offered: Offered<'_>) -> Result<ServingRun> {
        ServingEngine::run(self, label, offered)
    }

    fn with_kv_budget(self, budget: KvBudget) -> Self {
        let memory = MemoryConfig {
            budget,
            ..self.memory()
        };
        self.with_memory(memory)
    }

    fn report(run: ServingRun) -> (crate::ServingReport, PrefixStats) {
        (run.report, run.prefix)
    }
}

/// A named, fully specified experiment.
#[derive(Debug, Clone)]
pub struct Scenario<E = ServingEngine> {
    /// Scenario name (CLI argument).
    pub name: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// What serves the load.
    pub engine: E,
    /// Traffic to offer.
    pub traffic: TrafficSpec,
    /// A tenant set; when present it supersedes `traffic` (which then
    /// only anchors the base shape a `--tenants` overlay splits) and the
    /// run schedules weighted-fair.
    pub tenants: Option<TenantSet>,
}

/// The load a scenario offers, owned: what [`Scenario::offered`] hands to
/// a run and to a `--trace-out` export.
#[derive(Debug, Clone)]
pub enum Load {
    /// Single-tenant traffic.
    Traffic(TrafficSpec),
    /// Multi-tenant traffic.
    Tenants(TenantSet),
}

impl<'a> From<&'a Load> for Offered<'a> {
    fn from(load: &'a Load) -> Self {
        match load {
            Load::Traffic(traffic) => Offered::Traffic(traffic),
            Load::Tenants(tenants) => Offered::Tenants(tenants),
        }
    }
}

impl<E> Scenario<E> {
    /// The seed rule: the load offered under an optional `--seed`. A
    /// seed replaces the traffic's own, or reseeds every tenant's stream
    /// of a tenant set ([`TenantSet::with_seed`]). Runs and `--trace-out`
    /// both read this, so a written trace is what a run with the same
    /// seed serves.
    pub fn offered(&self, seed: Option<u64>) -> Load {
        match (&self.tenants, seed) {
            (Some(set), Some(seed)) => Load::Tenants(set.with_seed(seed)),
            (Some(set), None) => Load::Tenants(set.clone()),
            (None, seed) => {
                let mut traffic = self.traffic.clone();
                if let Some(seed) = seed {
                    traffic.seed = seed;
                }
                Load::Traffic(traffic)
            }
        }
    }
}

impl<E: Engine> Scenario<E> {
    /// Runs the scenario under an optional `--seed` ([`offered`](Self::offered)).
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn run(&self, seed: Option<u64>) -> Result<E::Run> {
        self.engine.run(self.name, (&self.offered(seed)).into())
    }
}

/// A deliberately tiny Transformer for smoke tests: two layers priced in
/// milliseconds of wall clock.
pub fn tiny_transformer() -> TransformerConfig {
    TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).expect("static geometry is valid")
}

/// `model` on `chips` replicated `chip`s under `policy` and `memory`.
fn engine(
    chip: TpuConfig,
    model: ServingModel,
    chips: u64,
    policy: BatchPolicy,
    memory: MemoryConfig,
) -> ServingEngine {
    ServingEngine::new(chip, model, Parallelism::Replicated { chips }, policy)
        .expect("static engine is valid")
        .with_memory(memory)
}

/// GPT-3 6.7B on one Design A chip: every LLM headline scenario's
/// hardware.
fn design_a_6_7b(policy: BatchPolicy, memory: MemoryConfig) -> ServingEngine {
    let model = ServingModel::Llm(presets::gpt3_6_7b());
    engine(TpuConfig::design_a(), model, 1, policy, memory)
}

/// Catalogue traffic: `requests` arrivals of `arrival`, no shared
/// prefixes, at the catalogues' common seed `0xC1A0`.
pub fn traffic(
    requests: u64,
    arrival: ArrivalPattern,
    prompt: LenDist,
    steps: LenDist,
) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival,
        prompt,
        steps,
        prefix: PrefixTraffic::None,
        seed: 0xC1A0,
    }
}

/// The smoke-kv squeeze: a 64 KiB paged KV budget of 16-token blocks
/// (four blocks of the tiny model).
pub fn smoke_kv_memory() -> MemoryConfig {
    MemoryConfig::unlimited()
        .with_budget_bytes(Bytes::from_kib(64))
        .with_block_tokens(16)
}

/// The headline scenarios: prefill-heavy LLM traffic under dynamic
/// batching, decode-heavy LLM traffic under continuous batching, a burst
/// of DiT image requests under static batching, and the two
/// memory-subsystem studies — continuous batching against a tight paged
/// KV budget (admission control + preemption), and chunked prefill
/// interleaving long prompts with running decodes.
pub fn headline() -> Vec<Scenario> {
    let unlimited = MemoryConfig::unlimited();
    let decode_heavy = traffic(
        40,
        ArrivalPattern::OpenLoop { rate_rps: 6.0 },
        LenDist::Fixed(128),
        LenDist::Uniform { lo: 64, hi: 256 },
    );
    vec![
        Scenario {
            name: "llm-prefill-heavy",
            description: "long prompts, short answers; dynamic batching on Design A",
            engine: design_a_6_7b(
                BatchPolicy::Dynamic {
                    max_batch: 8,
                    max_wait_ms: 40.0,
                },
                unlimited,
            ),
            traffic: traffic(
                32,
                ArrivalPattern::OpenLoop { rate_rps: 8.0 },
                LenDist::Uniform { lo: 512, hi: 1024 },
                LenDist::Fixed(8),
            ),
            tenants: None,
        },
        Scenario {
            name: "llm-decode-heavy",
            description: "short prompts, long generations; continuous batching on Design A",
            engine: design_a_6_7b(BatchPolicy::Continuous { max_batch: 16 }, unlimited),
            traffic: decode_heavy.clone(),
            tenants: None,
        },
        Scenario {
            name: "dit-burst",
            description: "a burst of image requests; static batching on Design B",
            engine: engine(
                TpuConfig::design_b(),
                ServingModel::Dit {
                    dit: presets::dit_b_2(),
                    resolution: 256,
                },
                2,
                BatchPolicy::Static { batch: 4 },
                unlimited,
            ),
            traffic: TrafficSpec {
                requests: 16,
                arrival: ArrivalPattern::Burst,
                prompt: LenDist::Fixed(0),
                steps: LenDist::Fixed(20),
                prefix: PrefixTraffic::None,
                seed: 0xC1A0,
            },
            tenants: None,
        },
        Scenario {
            name: "llm-kv-pressure",
            description: "decode-heavy traffic against a 1 GiB paged KV budget on Design A \
                          (admission control + preemption)",
            engine: design_a_6_7b(
                BatchPolicy::Continuous { max_batch: 16 },
                unlimited.with_budget_bytes(Bytes::from_gib(1)),
            ),
            traffic: decode_heavy,
            tenants: None,
        },
        Scenario {
            name: "llm-chunked-prefill",
            description: "long prompts split into 256-token chunks so running decodes \
                          interleave with prefill on Design A",
            engine: design_a_6_7b(
                BatchPolicy::Continuous { max_batch: 8 },
                unlimited.with_chunked_prefill(256),
            ),
            traffic: traffic(
                24,
                ArrivalPattern::OpenLoop { rate_rps: 4.0 },
                LenDist::Uniform { lo: 1024, hi: 2048 },
                LenDist::Fixed(32),
            ),
            tenants: None,
        },
        Scenario {
            name: "llm-shared-prefix",
            description: "2 shared 512-token system prompts across 24 requests with \
                          prefix sharing (copy-on-write KV blocks) on Design A",
            engine: design_a_6_7b(
                BatchPolicy::Continuous { max_batch: 8 },
                unlimited.with_prefix_sharing(),
            ),
            traffic: shared_prefix_traffic(),
            tenants: None,
        },
        Scenario {
            name: "llm-cold-prefix",
            description: "the llm-shared-prefix traffic with sharing disabled — the \
                          matched-hardware control that recomputes every prompt",
            engine: design_a_6_7b(BatchPolicy::Continuous { max_batch: 8 }, unlimited),
            traffic: shared_prefix_traffic(),
            tenants: None,
        },
    ]
}

/// Shared-system-prompt traffic for the shared-vs-cold prefix pair: two
/// 512-token shared heads over medium prompts. Shared and cold run the
/// byte-identical trace; only the engine's sharing flag differs.
fn shared_prefix_traffic() -> TrafficSpec {
    TrafficSpec {
        prefix: PrefixTraffic::SharedHead {
            tokens: 512,
            groups: 2,
        },
        ..traffic(
            24,
            ArrivalPattern::OpenLoop { rate_rps: 6.0 },
            LenDist::Uniform { lo: 640, hi: 1024 },
            LenDist::Fixed(32),
        )
    }
}

/// The smoke checks' engine: the tiny model on one TPUv4i chip,
/// continuous batching.
fn tiny_engine(memory: MemoryConfig) -> ServingEngine {
    let model = ServingModel::Llm(tiny_transformer());
    engine(
        TpuConfig::tpuv4i(),
        model,
        1,
        BatchPolicy::Continuous { max_batch: 4 },
        memory,
    )
}

/// The smoke checks' traffic: six tiny requests whose arrivals land
/// within a few service times of each other, so the continuous batcher
/// actually batches (and the latency percentiles spread).
pub fn smoke_traffic(prefix: PrefixTraffic) -> TrafficSpec {
    TrafficSpec {
        requests: 6,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 20_000.0 },
        prompt: LenDist::Fixed(32),
        steps: LenDist::Fixed(8),
        prefix,
        seed: 7,
    }
}

/// The CI smoke scenario: a tiny model, a handful of requests, seconds of
/// wall clock. Deterministic for a fixed seed.
pub fn smoke() -> Scenario {
    Scenario {
        name: "smoke",
        description: "tiny 2-layer LLM, continuous batching (CI determinism check)",
        engine: tiny_engine(MemoryConfig::unlimited()),
        traffic: smoke_traffic(PrefixTraffic::None),
        tenants: None,
    }
}

/// The CI memory-pressure smoke scenario: the tiny model squeezed into a
/// 64 KiB paged KV budget (4 blocks of 16 tokens), so admission control
/// and preemption both fire within milliseconds of wall clock. Must
/// report at least one preemption — CI asserts it.
pub(crate) fn smoke_kv() -> Scenario {
    Scenario {
        name: "smoke-kv",
        description: "tiny LLM under a 4-block KV budget (CI preemption determinism check)",
        engine: tiny_engine(smoke_kv_memory()),
        traffic: smoke_traffic(PrefixTraffic::None),
        tenants: None,
    }
}

/// The CI prefix-sharing smoke scenario: six tiny requests sharing a
/// 24-token head (deliberately *not* block-aligned, so both the
/// reference-sharing and the copy-on-write paths fire within
/// milliseconds of wall clock). Must report at least one shared-prefix
/// hit — CI asserts it on the `prefix cache` output line.
pub(crate) fn smoke_prefix() -> Scenario {
    Scenario {
        name: "smoke-prefix",
        description: "tiny LLM, 24-token shared head, prefix sharing on (CI \
                      shared-prefix determinism check)",
        engine: tiny_engine(MemoryConfig::unlimited().with_prefix_sharing()),
        traffic: smoke_traffic(PrefixTraffic::SharedHead {
            tokens: 24,
            groups: 1,
        }),
        tenants: None,
    }
}

/// The smoke checks, listed after the headline set under `--help`.
pub fn checks() -> Vec<Scenario> {
    vec![smoke(), smoke_kv(), smoke_prefix()]
}

/// Looks a scenario up by name (the headline set plus the smoke checks).
///
/// # Errors
///
/// Returns [`Error::UnknownPreset`] for unrecognized names.
pub fn by_name(name: &str) -> Result<Scenario> {
    checks()
        .into_iter()
        .chain(headline())
        .find(|s| s.name == name)
        .ok_or_else(|| Error::unknown_preset(name.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_covers_all_scenarios() {
        for s in headline() {
            assert_eq!(by_name(s.name).unwrap().name, s.name);
        }
        assert_eq!(by_name("smoke").unwrap().name, "smoke");
        assert_eq!(by_name("smoke-kv").unwrap().name, "smoke-kv");
        assert_eq!(by_name("smoke-prefix").unwrap().name, "smoke-prefix");
        assert!(by_name("nope").is_err());
    }

    #[test]
    fn smoke_prefix_hits_deterministically() {
        let a = smoke_prefix().run(None).unwrap();
        let b = smoke_prefix().run(None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.prefix, b.prefix);
        assert_eq!(a.report.completed, 6);
        // Five of the six requests re-hit the 24-token head, and the
        // unaligned head tail exercises copy-on-write.
        assert!(a.prefix.hits >= 1, "prefix stats: {}", a.prefix);
        assert!(a.prefix.shared_tokens >= 24, "prefix stats: {}", a.prefix);
        assert!(a.prefix.cow_copies >= 1, "prefix stats: {}", a.prefix);
        // Sharing must actually cut work against the identical sharing-off
        // run: same completions token-for-token, faster end to end.
        let cold = Scenario {
            engine: tiny_engine(MemoryConfig::unlimited()),
            ..smoke_prefix()
        }
        .run(None)
        .unwrap();
        assert_eq!(
            a.completions
                .iter()
                .map(|c| (c.id, c.steps))
                .collect::<Vec<_>>(),
            cold.completions
                .iter()
                .map(|c| (c.id, c.steps))
                .collect::<Vec<_>>(),
        );
        assert!(
            a.report.makespan_s < cold.report.makespan_s,
            "{} vs {}",
            a.report,
            cold.report
        );
        assert!(a.report.total_energy_j < cold.report.total_energy_j);
    }

    #[test]
    fn shared_prefix_headline_beats_cold_control() {
        // The headline pair at matched hardware: sharing must lower both
        // TTFT and (prefill) energy while generating the same tokens.
        let shared = by_name("llm-shared-prefix").unwrap().run(None).unwrap();
        let cold = by_name("llm-cold-prefix").unwrap().run(None).unwrap();
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
            "completions must be token-for-token equal"
        );
        assert!(shared.prefix.hits > 0, "prefix stats: {}", shared.prefix);
        assert!(
            shared.report.ttft.mean_ms < cold.report.ttft.mean_ms,
            "shared TTFT {} ms !< cold {} ms",
            shared.report.ttft.mean_ms,
            cold.report.ttft.mean_ms
        );
        assert!(
            shared.report.total_energy_j < cold.report.total_energy_j,
            "shared energy {} J !< cold {} J (decode work is identical, so the \
             difference is prefill energy)",
            shared.report.total_energy_j,
            cold.report.total_energy_j
        );
        assert_eq!(cold.prefix, cimtpu_kv::PrefixStats::default());
    }

    #[test]
    fn smoke_scenario_is_deterministic() {
        let a = smoke().run(None).unwrap();
        let b = smoke().run(None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.report.completed, 6);
        // Unlimited memory: no memory events.
        assert_eq!(a.report.preemptions, 0);
        assert_eq!(a.report.queue_full_s, 0.0);
        // A different seed changes the trace (arrival jitter), hence the
        // percentiles.
        let c = smoke().run(Some(99)).unwrap();
        assert_ne!(a.report, c.report);
    }

    #[test]
    fn smoke_kv_preempts_deterministically() {
        let a = smoke_kv().run(None).unwrap();
        let b = smoke_kv().run(None).unwrap();
        assert_eq!(a.report, b.report);
        assert_eq!(a.completions, b.completions);
        // Every request still completes, at the cost of evictions and
        // queueing.
        assert_eq!(a.report.completed, 6);
        assert!(a.report.preemptions >= 1, "report: {}", a.report);
        assert!(a.report.queue_full_s > 0.0, "report: {}", a.report);
        assert!(a.report.kv_hwm_frac > 0.5, "report: {}", a.report);
        // The pressure run is strictly slower end to end than unlimited.
        let unlimited = smoke().run(None).unwrap();
        assert!(a.report.makespan_s > unlimited.report.makespan_s);
    }
}
