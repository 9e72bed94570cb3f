//! Per-operator execution: latency and energy of one [`Op`].

use cimtpu_models::Op;
use cimtpu_units::{Bytes, Joules, Result, Seconds};

use crate::cache::PriceKey;
use crate::engine::EngineCost;
use crate::simulator::Simulator;

/// Cost of executing one operator once (no repetition, no leakage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpCost {
    pub latency: Seconds,
    /// MXU dynamic energy (MACs, weight movement, streaming).
    pub mxu_dynamic: Joules,
    /// VPU dynamic energy.
    pub vpu_energy: Joules,
    /// Unique main-memory traffic.
    pub hbm_bytes: Bytes,
}

impl OpCost {
    fn vector(latency: Seconds, vpu_energy: Joules) -> Self {
        OpCost {
            latency,
            mxu_dynamic: Joules::ZERO,
            vpu_energy,
            hbm_bytes: Bytes::ZERO,
        }
    }
}

/// Random-gather penalty on HBM for embedding lookups.
const GATHER_PENALTY: f64 = 2.0;

pub(crate) fn exec_op(sim: &Simulator, op: &Op) -> Result<OpCost> {
    let cfg = sim.config();
    let clock = cfg.clock();
    let vpu = cfg.vpu();

    match *op {
        Op::Gemm { shape, dtype } => {
            let key = PriceKey::Gemm {
                shape,
                dtype,
                weights_resident: false,
            };
            sim.mapping_cache().get_or_try_insert(key, || {
                // Output channels are sharded across the MXUs; each MXU maps
                // its shard independently against its bandwidth share. The
                // largest shard bounds latency.
                let parts = shape.split_n(cfg.mxu_count());
                let widest = parts[0];
                let engine_cost = EngineCost::new(sim.engine(), clock);
                let mapping =
                    sim.per_mxu_mapper()
                        .best_gemm_mapping(widest, dtype, &engine_cost, false)?;
                Ok(OpCost {
                    latency: mapping.total(),
                    mxu_dynamic: sim.engine().gemm_dynamic_energy(shape, dtype),
                    vpu_energy: Joules::ZERO,
                    hbm_bytes: shape.weight_bytes(dtype),
                })
            })
        }
        Op::BatchedMatmul {
            batch,
            shape,
            dtype,
            static_weights,
        } => {
            let key = PriceKey::Batched {
                batch,
                shape,
                dtype,
                static_weights,
            };
            sim.mapping_cache().get_or_try_insert(key, || {
                // Items are distributed round-robin across MXUs; the per-item
                // weight operands stream from main memory at full chip
                // bandwidth.
                let items_per_mxu = batch.div_ceil(cfg.mxu_count());
                let compute = sim
                    .engine()
                    .batched_gemm_cycles_with(items_per_mxu, shape, dtype, static_weights)
                    .at(clock);
                let kv_bytes = shape.weight_bytes(dtype) * batch;
                let dma = cfg.levels().hbm_time(kv_bytes);
                let latency = if cfg.levels().double_buffering() {
                    compute.max(dma)
                } else {
                    compute + dma
                };
                Ok(OpCost {
                    latency,
                    mxu_dynamic: sim
                        .engine()
                        .batched_gemm_dynamic_energy(batch, shape, dtype),
                    vpu_energy: Joules::ZERO,
                    hbm_bytes: kv_bytes,
                })
            })
        }
        Op::Softmax { rows, cols } => {
            let latency = vpu.softmax_cycles(rows, cols).at(clock);
            let energy = vpu.dynamic_energy(vpu.softmax_ops(rows, cols), 1);
            Ok(OpCost::vector(latency, energy))
        }
        Op::LayerNorm { rows, d } => {
            let latency = vpu.layernorm_cycles(rows, d).at(clock);
            let energy = vpu.dynamic_energy(vpu.layernorm_ops(rows, d), 1);
            Ok(OpCost::vector(latency, energy))
        }
        Op::Gelu { elems } => {
            let latency = vpu.gelu_cycles(elems).at(clock);
            let energy = vpu.dynamic_energy(vpu.gelu_ops(elems), 1);
            Ok(OpCost::vector(latency, energy))
        }
        Op::Elementwise {
            elems,
            ops_per_elem,
        } => {
            let latency = vpu.elementwise_cycles(elems, ops_per_elem).at(clock);
            let energy = vpu.dynamic_energy(elems, ops_per_elem);
            Ok(OpCost::vector(latency, energy))
        }
        Op::EmbeddingLookup {
            tokens,
            d_model,
            dtype,
        } => {
            let bytes = Bytes::new(tokens * d_model * dtype.size_bytes());
            let latency = cfg.levels().hbm_time(bytes) * GATHER_PENALTY;
            Ok(OpCost {
                latency,
                mxu_dynamic: Joules::ZERO,
                vpu_energy: Joules::ZERO,
                hbm_bytes: bytes,
            })
        }
        Op::AllReduce { bytes } => {
            // Single-hop approximation on this chip's ICI links; proper ring
            // collectives live in `cimtpu-multi`.
            let bw = cfg.ici_link_bandwidth() * cfg.ici_links() as f64;
            Ok(OpCost {
                latency: bw.transfer_time(bytes),
                mxu_dynamic: Joules::ZERO,
                vpu_energy: Joules::ZERO,
                hbm_bytes: Bytes::ZERO,
            })
        }
        // `Op` is non-exhaustive: fail loudly on operators this executor
        // does not know rather than silently mis-costing them.
        ref other => Err(cimtpu_units::Error::invalid_config(format!(
            "unsupported operator {other:?}"
        ))),
    }
}
