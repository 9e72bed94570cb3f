//! Phase pricing for the serving loop: segment costs per (phase, batch,
//! length), memoized on top of the simulator's `MappingCache`.

use std::cell::RefCell;
use std::rc::Rc;

use cimtpu_core::{SegmentCost, Simulator};
use cimtpu_models::{DitConfig, TransformerConfig, Workload};
use cimtpu_multi::{tensor_parallel, MultiTpu};
use cimtpu_units::{Bytes, Result};
use rustc_hash::FxHashMap;

/// The model a serving engine hosts.
#[derive(Debug, Clone, PartialEq)]
pub enum ServingModel {
    /// An autoregressive LLM: prefill phase + per-token decode steps.
    Llm(TransformerConfig),
    /// A diffusion transformer: per-request denoising steps at a fixed
    /// image resolution (no prefill phase).
    Dit {
        /// The DiT geometry.
        dit: DitConfig,
        /// Square image resolution in pixels.
        resolution: u64,
    },
}

impl ServingModel {
    /// Whether requests carry a prefill phase.
    pub fn has_prefill(&self) -> bool {
        matches!(self, ServingModel::Llm(_))
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        match self {
            ServingModel::Llm(m) => m.name(),
            ServingModel::Dit { dit, .. } => dit.transformer().name(),
        }
    }
}

/// Memo key: phase tag + the shape knobs that vary at runtime (batch,
/// length, and — for prefill — the cached-context length).
type Key = (u8, u64, u64, u64);
const PREFILL: u8 = 0;
const STEP: u8 = 1;

/// Phase memo table; cloning shares it (see [`PhasePricer::sharing`]).
pub(crate) type PhaseMemo = Rc<RefCell<FxHashMap<Key, SegmentCost>>>;

/// Prices serving phases on one chip (or one tensor-parallel ring),
/// memoizing each distinct `(phase, batch, length)` query. Pricing is
/// memoized at two levels: the pricer memoizes whole phases, and the
/// simulator's `MappingCache` memoizes per-operator map-space searches.
/// A phase memo miss sums the phase's operators once through
/// [`Simulator::price_ops`].
///
/// This is the pricing back-end of the serving engine, exposed so
/// fleet-level drivers (the `cimtpu-cluster` crate's disaggregated
/// prefill/decode pools) can price phases against a replica without going
/// through the full batching engine. Obtain one from
/// [`EngineSession::pricer`](crate::EngineSession::pricer) — every pricer
/// of sessions sharing a [`PricingPool`](crate::PricingPool) entry shares
/// both memo levels — or build a standalone single-chip one, with a phase
/// memo of its own, via [`PhasePricer::single`].
#[derive(Debug)]
pub struct PhasePricer<'a> {
    model: &'a ServingModel,
    sim: &'a Simulator,
    /// Tensor-parallel ring; `None` prices whole layers on `sim`'s chip.
    ring: Option<&'a MultiTpu>,
    memo: PhaseMemo,
}

impl<'a> PhasePricer<'a> {
    /// A pricer for `model` hosted on the single chip `sim` simulates.
    pub fn single(model: &'a ServingModel, sim: &'a Simulator) -> Self {
        Self::sharing(model, sim, None, PhaseMemo::default())
    }

    /// A pricer over `sim` (the ring's simulator when `ring` is set)
    /// recording into the shared phase `memo`. Every pricer sharing it
    /// must price the same model on the same configuration.
    pub(crate) fn sharing(
        model: &'a ServingModel,
        sim: &'a Simulator,
        ring: Option<&'a MultiTpu>,
        memo: PhaseMemo,
    ) -> Self {
        PhasePricer {
            model,
            sim,
            ring,
            memo,
        }
    }

    fn memoized(
        &self,
        key: Key,
        build: impl FnOnce() -> Result<SegmentCost>,
    ) -> Result<SegmentCost> {
        if let Some(cost) = self.memo.borrow().get(&key) {
            return Ok(*cost);
        }
        let cost = build()?;
        self.memo.borrow_mut().insert(key, cost);
        Ok(cost)
    }

    /// Whole-workload cost. Pricing the flat op list keeps the summation
    /// order identical to `Simulator::run`, so a batch-1 serving run
    /// reproduces its latency bit-exactly.
    fn price(&self, w: &Workload) -> Result<SegmentCost> {
        self.sim.price_ops(w.ops())
    }

    /// Cost of one sharded layer on every ring device: shard compute (the
    /// slowest device bounds latency) plus two ring all-reduces, energy
    /// multiplied across the `p` participating chips.
    fn tp_layer(
        &self,
        ring: &MultiTpu,
        shard: &Workload,
        activations: Bytes,
    ) -> Result<SegmentCost> {
        let mut cost = self.price(shard)?;
        let p = ring.devices() as f64;
        cost.latency += ring.topology().all_reduce_time(activations) * 2.0;
        cost.mxu_energy = cost.mxu_energy * p;
        cost.vpu_energy = cost.vpu_energy * p;
        cost.hbm_bytes = Bytes::new((cost.hbm_bytes.get() as f64 * p) as u64);
        Ok(cost)
    }

    /// Prefill cost for `batch` requests of (padded) prompt length
    /// `prompt`: `prefill_chunk` with no cached context. Zero for models
    /// without a prefill phase.
    ///
    /// # Errors
    ///
    /// Returns an error if an operator cannot be mapped onto the hardware.
    pub fn prefill(&self, batch: u64, prompt: u64) -> Result<SegmentCost> {
        self.prefill_chunk(batch, prompt, 0)
    }

    /// Cost of one prefill pass: `batch` requests each ingest `chunk`
    /// prompt tokens attending to `past` already-cached tokens (`past ==
    /// 0` is a whole cold prefill). Zero for models without a prefill
    /// phase.
    ///
    /// # Errors
    ///
    /// Returns an error if an operator cannot be mapped onto the hardware.
    /// A tensor-parallel ring shards only cold passes, so it rejects
    /// `past > 0` (the engine rejects chunked prefill and prefix sharing
    /// on a ring up front).
    pub(crate) fn prefill_chunk(&self, batch: u64, chunk: u64, past: u64) -> Result<SegmentCost> {
        let ServingModel::Llm(model) = self.model else {
            return Ok(SegmentCost::ZERO);
        };
        if self.ring.is_some() && past > 0 {
            return Err(cimtpu_units::Error::invalid_config(
                "chunked prefill is not supported on a tensor-parallel ring",
            ));
        }
        self.memoized((PREFILL, batch, chunk, past), || {
            let layers = model.layers() as f64;
            match self.ring {
                None => Ok(self
                    .price(&model.prefill_chunk_layer(batch, chunk, past)?)?
                    .repeated(layers)),
                Some(ring) => {
                    let shard =
                        tensor_parallel::prefill_layer_shard(model, batch, chunk, ring.devices())?;
                    let act =
                        Bytes::new(batch * chunk * model.d_model() * model.dtype().size_bytes());
                    Ok(self.tp_layer(ring, &shard, act)?.repeated(layers))
                }
            }
        })
    }

    /// Cost of one generation step for `batch` concurrently active
    /// requests: an LLM decode step at context length `ctx`, or one DiT
    /// forward pass (`ctx` is ignored).
    ///
    /// # Errors
    ///
    /// Returns an error if an operator cannot be mapped onto the hardware,
    /// or for a DiT model on a tensor-parallel ring.
    pub fn step(&self, batch: u64, ctx: u64) -> Result<SegmentCost> {
        match self.model {
            ServingModel::Llm(model) => self.memoized((STEP, batch, ctx, 0), || {
                let layers = model.layers() as f64;
                match self.ring {
                    None => Ok(self
                        .price(&model.decode_layer(batch, ctx)?)?
                        .repeated(layers)),
                    Some(ring) => {
                        let shard =
                            tensor_parallel::decode_layer_shard(model, batch, ctx, ring.devices())?;
                        let act = Bytes::new(batch * model.d_model() * model.dtype().size_bytes());
                        Ok(self.tp_layer(ring, &shard, act)?.repeated(layers))
                    }
                }
            }),
            ServingModel::Dit { dit, resolution } => self.memoized((STEP, batch, 0, 0), || {
                if self.ring.is_some() {
                    return Err(cimtpu_units::Error::invalid_config(
                        "tensor-parallel serving supports LLM engines only",
                    ));
                }
                self.price(&dit.full_forward(batch, *resolution)?)
            }),
        }
    }

    /// The hosted model.
    pub(crate) fn model(&self) -> &ServingModel {
        self.model
    }

    /// Latency of one step without the full cost (convenience for tests).
    #[cfg(test)]
    pub(crate) fn step_latency(&self, batch: u64, ctx: u64) -> Result<cimtpu_units::Seconds> {
        Ok(self.step(batch, ctx)?.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_core::{Simulator, TpuConfig};
    use cimtpu_models::presets;
    use cimtpu_units::Seconds;

    /// A standalone pricer for `model` sharded across `ring`, with a phase
    /// memo of its own: the pricer a `Backend::Ring` session hands out.
    fn ring_pricer<'a>(model: &'a ServingModel, ring: &'a MultiTpu) -> PhasePricer<'a> {
        PhasePricer::sharing(model, ring.simulator(), Some(ring), PhaseMemo::default())
    }

    fn tiny_llm() -> ServingModel {
        ServingModel::Llm(TransformerConfig::new("tiny", 2, 4, 256, 1024).expect("valid geometry"))
    }

    #[test]
    fn llm_phase_costs_scale_by_layers() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let model = tiny_llm();
        let pricer = PhasePricer::single(&model, &sim);
        let ServingModel::Llm(cfg) = &model else {
            unreachable!()
        };

        let per_layer = sim
            .run(&cfg.decode_layer(2, 64).unwrap())
            .unwrap()
            .total_latency();
        let step = pricer.step_latency(2, 64).unwrap();
        assert_eq!(step, per_layer * cfg.layers() as f64);

        // Memoized: second query returns the identical cost.
        assert_eq!(pricer.step(2, 64).unwrap().latency, step);
    }

    #[test]
    fn dit_steps_ignore_context_and_skip_prefill() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let model = ServingModel::Dit {
            dit: presets::dit_b_2(),
            resolution: 256,
        };
        let pricer = PhasePricer::single(&model, &sim);
        assert!(!model.has_prefill());
        assert_eq!(pricer.prefill(4, 128).unwrap(), SegmentCost::ZERO);
        assert_eq!(
            pricer.step(2, 17).unwrap(),
            pricer.step(2, 4096).unwrap(),
            "DiT step cost is context-independent"
        );
    }

    #[test]
    fn chunk_pricing_matches_plain_prefill_at_zero_past() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let model = tiny_llm();
        let pricer = PhasePricer::single(&model, &sim);
        // Same workload, so bit-identical cost.
        assert_eq!(
            pricer.prefill_chunk(2, 64, 0).unwrap(),
            pricer.prefill(2, 64).unwrap()
        );
        // Later chunks attend to the cached context, so they cost more
        // than a fresh chunk of the same size.
        let late = pricer.prefill_chunk(2, 64, 448).unwrap();
        assert!(late.latency > pricer.prefill_chunk(2, 64, 0).unwrap().latency);

        // On a tensor-parallel ring too, and each standalone pricer
        // prices the pass itself rather than reading the other's memo.
        let model = ServingModel::Llm(presets::gpt3_30b());
        let ring = MultiTpu::new(TpuConfig::tpuv4i(), 4).unwrap();
        let whole = ring_pricer(&model, &ring).prefill(2, 64).unwrap();
        let pass = ring_pricer(&model, &ring).prefill_chunk(2, 64, 0).unwrap();
        let bits = |c: SegmentCost| {
            let (t, mxu, vpu) = (c.latency.get(), c.mxu_energy.get(), c.vpu_energy.get());
            (t.to_bits(), mxu.to_bits(), vpu.to_bits(), c.hbm_bytes)
        };
        assert_eq!(bits(whole), bits(pass));
    }

    #[test]
    fn chunk_pricing_rejects_tensor_parallel() {
        let model = ServingModel::Llm(presets::gpt3_30b());
        let ring = MultiTpu::new(TpuConfig::tpuv4i(), 4).unwrap();
        let tp = ring_pricer(&model, &ring);
        assert!(tp.prefill_chunk(2, 64, 64).is_err());
    }

    #[test]
    fn tensor_parallel_step_is_faster_but_costs_comm() {
        let model = ServingModel::Llm(presets::gpt3_30b());
        let single_sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let single = PhasePricer::single(&model, &single_sim);

        let ring = MultiTpu::new(TpuConfig::tpuv4i(), 4).unwrap();
        let tp = ring_pricer(&model, &ring);

        let t1 = single.step(8, 1280).unwrap();
        let t4 = tp.step(8, 1280).unwrap();
        assert!(
            t4.latency < t1.latency,
            "tp4 {} vs tp1 {}",
            t4.latency,
            t1.latency
        );
        // Matches the cimtpu-multi tensor-parallel model exactly.
        let reference = ring
            .llm_tensor_parallel_decode_layer(&presets::gpt3_30b(), 8, 1280)
            .unwrap();
        let per_layer = Seconds::new(t4.latency.get() / presets::gpt3_30b().layers() as f64);
        let rel = (per_layer.get() - reference.get()).abs() / reference.get();
        assert!(rel < 1e-9, "rel err {rel:e}");
    }
}
