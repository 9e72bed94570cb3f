//! The workload simulator: executes operator lists on a TPU configuration.

use cimtpu_mapper::{Mapper, MemoryLevels};
use cimtpu_models::{OpInstance, Workload};
use cimtpu_units::{Bytes, Joules, Result, Watts};

use crate::arch::TpuConfig;
use crate::cache::{CacheStats, MappingCache};
use crate::context::{PhasedReport, SegmentCost, SegmentReport};
use crate::engine::MatrixEngine;
use crate::exec;
use crate::report::{OpReport, Report};

/// Executes [`Workload`]s on one TPU chip and produces [`Report`]s.
///
/// Operators run sequentially on the TensorCore; within a matrix operator,
/// work is split across the configured number of MXUs and DMA overlaps
/// compute according to the memory hierarchy's scheduling options.
///
/// Each simulator owns a [`MappingCache`]: every distinct matrix-operator
/// query runs the map-space search exactly once, and repeats (identical
/// transformer layers, decode-context samples, sweep re-runs) are answered
/// from the cache with bit-identical results. Inspect it with
/// [`cache_stats`](Simulator::cache_stats); disable it with
/// [`mapping_cache`](Simulator::mapping_cache)`().set_enabled(false)` when
/// measuring the raw search cost.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: TpuConfig,
    engine: MatrixEngine,
    /// Mapper with per-MXU bandwidth/capacity shares.
    per_mxu_mapper: Mapper,
    /// Memoized operator pricing (see [`MappingCache`]).
    cache: MappingCache,
}

impl Simulator {
    /// Creates a simulator for `config`.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: TpuConfig) -> Result<Self> {
        config.validate()?;
        let engine = MatrixEngine::from_kind(config.mxu())?;
        let levels = config.levels();
        let per_mxu_levels: MemoryLevels = levels
            .clone()
            .with_vmem(Bytes::new(levels.vmem().get() / config.mxu_count()))
            .with_hbm_bandwidth(levels.hbm_bandwidth() / config.mxu_count() as f64);
        Ok(Simulator {
            engine,
            per_mxu_mapper: Mapper::new(per_mxu_levels),
            cache: MappingCache::for_config(&config),
            config,
        })
    }

    /// The architecture being simulated.
    pub fn config(&self) -> &TpuConfig {
        &self.config
    }

    /// The matrix engine model.
    pub fn engine(&self) -> &MatrixEngine {
        &self.engine
    }

    /// The per-MXU mapping engine.
    pub fn per_mxu_mapper(&self) -> &Mapper {
        &self.per_mxu_mapper
    }

    /// The operator-pricing memoization cache.
    pub fn mapping_cache(&self) -> &MappingCache {
        &self.cache
    }

    /// Hit/miss/occupancy counters of the mapping cache, with the
    /// map-space search counts of the per-MXU mapper since construction.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            map_candidates: self.per_mxu_mapper.candidates_enumerated(),
            map_priced: self.per_mxu_mapper.candidates_priced(),
            ..self.cache.stats()
        }
    }

    /// Combined leakage of all MXUs (charged over every op's window — the
    /// array leaks whether or not it computes).
    pub(crate) fn mxu_static_power(&self) -> Watts {
        Watts::new(self.engine.static_power().get() * self.config.mxu_count() as f64)
    }

    /// Simulates a workload.
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn run(&self, workload: &Workload) -> Result<Report> {
        debug_assert!(
            self.cache.matches(&self.config),
            "mapping cache fingerprint does not match this simulator's config"
        );
        let mut report = Report::new(workload.name(), self.config.name());
        for inst in workload.ops() {
            report.push(self.run_instance(inst)?);
        }
        Ok(report)
    }

    /// Simulates a workload segment by segment, reporting per-phase costs.
    ///
    /// Each segment is priced by [`price_ops`](Simulator::price_ops), so
    /// the summed totals equal [`run`](Simulator::run)'s flat totals up to
    /// float-summation associativity (exactly, on integer traffic).
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn run_phased(&self, workload: &Workload) -> Result<PhasedReport> {
        let mut segments = Vec::with_capacity(workload.segment_count());
        for seg in workload.segments() {
            segments.push(SegmentReport {
                name: seg.name().to_owned(),
                phase: seg.phase(),
                cost: self.price_ops(seg.ops())?,
            });
        }
        Ok(PhasedReport {
            workload: workload.name().to_owned(),
            segments,
        })
    }

    /// Prices a run of consecutive operators: the per-operator costs of
    /// `run_instance`, summed in execution
    /// order without building its reports. Pricing a workload's flat
    /// operator list this way reproduces [`run`](Simulator::run)'s total
    /// latency and MXU energy bit-exactly; once the operators' mappings
    /// are cached it allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns an error if any operator cannot be mapped onto the hardware.
    pub fn price_ops(&self, ops: &[OpInstance]) -> Result<SegmentCost> {
        let mut total = SegmentCost::ZERO;
        for inst in ops {
            total += self.instance_cost(inst)?.0;
        }
        Ok(total)
    }

    /// Simulates a single operator instance: its
    /// [`price_ops`](Simulator::price_ops) cost with the operator's name,
    /// category and the dynamic/leakage split of its MXU energy.
    ///
    /// # Errors
    ///
    /// Returns an error if the operator cannot be mapped onto the hardware.
    pub(crate) fn run_instance(&self, inst: &OpInstance) -> Result<OpReport> {
        let (cost, mxu_dynamic, mxu_static) = self.instance_cost(inst)?;
        Ok(OpReport {
            name: inst.name().to_owned(),
            category: inst.category(),
            count: inst.count(),
            latency: cost.latency,
            mxu_energy: cost.mxu_energy,
            mxu_dynamic,
            mxu_static,
            vpu_energy: cost.vpu_energy,
            hbm_bytes: cost.hbm_bytes,
        })
    }

    /// The cost of one operator instance (all repetitions, leakage
    /// included), with its MXU energy's dynamic and leakage parts.
    fn instance_cost(&self, inst: &OpInstance) -> Result<(SegmentCost, Joules, Joules)> {
        let cost = exec::exec_op(self, inst.op())?;
        let n = inst.count() as f64;
        let latency = cost.latency * n;
        // Leakage accrues over the whole window regardless of op type.
        let mxu_static = self.mxu_static_power().for_duration(latency);
        let mxu_dynamic = cost.mxu_dynamic * n;
        let total = SegmentCost {
            latency,
            mxu_energy: mxu_dynamic + mxu_static,
            vpu_energy: cost.vpu_energy * n
                + self.config.vpu().static_power().for_duration(latency),
            hbm_bytes: cost.hbm_bytes * inst.count(),
        };
        Ok((total, mxu_dynamic, mxu_static))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cimtpu_models::presets;
    use cimtpu_units::Seconds;

    #[test]
    fn baseline_prefill_layer_is_compute_bound() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let layer = presets::gpt3_30b().prefill_layer(8, 1024).unwrap();
        let rep = sim.run(&layer).unwrap();
        // Closed form: ~5.17e12 MACs at 68.8e12 MACs/s plus vector ops —
        // tens of milliseconds.
        let ms = rep.total_latency().as_millis();
        assert!((50.0..150.0).contains(&ms), "prefill layer = {ms} ms");
        // GEMM categories dominate (paper: 84.9%).
        let gemm: Seconds = [
            cimtpu_models::OpCategory::QkvGen,
            cimtpu_models::OpCategory::Projection,
            cimtpu_models::OpCategory::Ffn1,
            cimtpu_models::OpCategory::Ffn2,
        ]
        .iter()
        .map(|&c| rep.latency_in(c))
        .sum();
        let frac = gemm / rep.total_latency();
        assert!((0.75..0.95).contains(&frac), "GEMM fraction {frac:.3}");
    }

    #[test]
    fn baseline_decode_layer_matches_memory_bound_scale() {
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
        let rep = sim.run(&layer).unwrap();
        // Weights are ~616 MB; at 614 GB/s the floor is ~1 ms. With
        // attention serialization the baseline lands around 1.5-2.5 ms.
        let ms = rep.total_latency().as_millis();
        assert!((1.0..3.0).contains(&ms), "decode layer = {ms} ms");
    }

    #[test]
    fn attention_fraction_of_baseline_decode() {
        // Paper: attention ~33.7% of baseline decode latency.
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
        let rep = sim.run(&layer).unwrap();
        let frac = rep.latency_in(cimtpu_models::OpCategory::Attention) / rep.total_latency();
        assert!((0.2..0.5).contains(&frac), "attention fraction {frac:.3}");
    }

    #[test]
    fn cim_decode_layer_faster_than_baseline() {
        // Paper Fig. 6: 29.9% decode latency reduction.
        let base = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
        let b = base.run(&layer).unwrap();
        let c = cim.run(&layer).unwrap();
        let reduction = 1.0 - c.total_latency() / b.total_latency();
        assert!(
            (0.15..0.45).contains(&reduction),
            "decode latency reduction {reduction:.3}"
        );
    }

    #[test]
    fn cim_prefill_layer_close_to_baseline() {
        // Paper Fig. 6: +2.43% (CIM about equal on compute-bound prefill).
        let base = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let layer = presets::gpt3_30b().prefill_layer(8, 1024).unwrap();
        let b = base.run(&layer).unwrap();
        let c = cim.run(&layer).unwrap();
        let ratio = c.total_latency() / b.total_latency();
        assert!((0.9..1.1).contains(&ratio), "prefill ratio {ratio:.3}");
    }

    #[test]
    fn cim_energy_reduction_about_an_order_of_magnitude() {
        // Paper Fig. 6: 9.21x (prefill) and 13.4x (decode) MXU energy.
        let base = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let gpt3 = presets::gpt3_30b();

        let prefill = gpt3.prefill_layer(8, 1024).unwrap();
        let rp = cim
            .run(&prefill)
            .unwrap()
            .mxu_energy_reduction_vs(&base.run(&prefill).unwrap());
        assert!(
            (6.0..13.0).contains(&rp),
            "prefill energy reduction {rp:.2}"
        );

        let decode = gpt3.decode_layer(8, 1280).unwrap();
        let rd = cim
            .run(&decode)
            .unwrap()
            .mxu_energy_reduction_vs(&base.run(&decode).unwrap());
        assert!((9.0..20.0).contains(&rd), "decode energy reduction {rd:.2}");
        assert!(rd > rp, "decode should benefit more than prefill");
    }

    #[test]
    fn warm_cache_reproduces_cold_reports_exactly() {
        // Running the same workload twice must produce identical reports,
        // with the second run answered from the cache.
        let sim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let layer = presets::gpt3_30b().decode_layer(8, 1280).unwrap();
        let cold = sim.run(&layer).unwrap();
        let misses_after_cold = sim.cache_stats().misses;
        let warm = sim.run(&layer).unwrap();
        assert_eq!(cold, warm);
        let stats = sim.cache_stats();
        assert_eq!(stats.misses, misses_after_cold, "warm run must not miss");
        assert!(stats.hits >= misses_after_cold);
    }

    #[test]
    fn disabled_cache_matches_enabled_cache() {
        let cached = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let uncached = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        uncached.mapping_cache().set_enabled(false);
        let layer = presets::gpt3_30b().prefill_layer(8, 1024).unwrap();
        // Two passes each: the cached simulator answers the second from
        // memory, the uncached one recomputes; results must be identical.
        for _ in 0..2 {
            assert_eq!(cached.run(&layer).unwrap(), uncached.run(&layer).unwrap());
        }
        assert_eq!(uncached.cache_stats().entries, 0);
        assert!(cached.cache_stats().hits > 0);
    }

    #[test]
    fn dit_block_softmax_is_major_bottleneck() {
        // Paper: softmax ~36.9% of baseline DiT block latency.
        let sim = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let block = presets::dit_xl_2().block(8, 512).unwrap();
        let rep = sim.run(&block).unwrap();
        let softmax: Seconds = rep
            .ops()
            .iter()
            .filter(|o| o.name == "Softmax")
            .map(|o| o.latency)
            .sum();
        let frac = softmax / rep.total_latency();
        assert!((0.2..0.5).contains(&frac), "softmax fraction {frac:.3}");
    }

    #[test]
    fn dit_block_cim_slightly_faster_much_less_energy() {
        // Paper Fig. 6: -6.67% latency, 10.4x MXU energy for a DiT block.
        let base = Simulator::new(TpuConfig::tpuv4i()).unwrap();
        let cim = Simulator::new(TpuConfig::cim_base()).unwrap();
        let block = presets::dit_xl_2().block(8, 512).unwrap();
        let b = base.run(&block).unwrap();
        let c = cim.run(&block).unwrap();
        let latency_ratio = c.total_latency() / b.total_latency();
        assert!(
            (0.85..1.02).contains(&latency_ratio),
            "DiT ratio {latency_ratio:.3}"
        );
        let e = c.mxu_energy_reduction_vs(&b);
        assert!((6.0..15.0).contains(&e), "DiT energy reduction {e:.2}");
    }
}
