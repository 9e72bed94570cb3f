//! Design-space exploration: sweep custom CIM-MXU configurations beyond
//! Table IV and find the best design for your own workload mix, then
//! map the decode layer's weight GEMMs on the winner with
//! [`Mapper::best_gemm_mapping`].
//!
//! Run with: `cargo run --release --example design_space`

use cimtpu::mapper::TileCostModel;
use cimtpu::prelude::*;

/// Adapter pricing tiles on a [`MatrixEngine`] for the mapper.
struct EngineModel<'a> {
    engine: &'a MatrixEngine,
    clock: Frequency,
}

impl TileCostModel for EngineModel<'_> {
    fn tile_cycles(&self, shape: GemmShape, dtype: DataType) -> Cycles {
        self.engine.gemm_cycles(shape, dtype)
    }
    fn clock(&self) -> Frequency {
        self.clock
    }
    fn preferred_k(&self) -> u64 {
        self.engine.preferred_k()
    }
    fn preferred_n(&self) -> u64 {
        self.engine.preferred_n()
    }
}

fn main() -> Result<()> {
    let gpt3 = presets::gpt3_30b();
    let spec = LlmInferenceSpec::new(8, 1024, 256)?;
    let dit = presets::dit_xl_2();

    // A finer grid than Table IV, including asymmetric options.
    let mut candidates = Vec::new();
    for &count in &[2u64, 4, 6, 8] {
        for &(gr, gc) in &[(8u64, 8u64), (8, 16), (16, 8), (16, 16), (32, 8)] {
            candidates.push(TpuConfig::cim_variant(count, gr, gc));
        }
    }

    // Objective: energy-delay product over a 70/30 LLM/DiT workload mix.
    println!(
        "{:<22} {:>10} {:>12} {:>12} {:>14}",
        "config", "peak TOPS", "LLM EDP", "DiT EDP", "mixed EDP"
    );
    let mut best: Option<(TpuConfig, f64)> = None;
    for cfg in candidates {
        let sim = Simulator::new(cfg)?;
        let llm = inference::run_llm(&sim, &gpt3, spec)?;
        let dit_run = inference::run_dit(&sim, &dit, 8, 512)?;
        let llm_edp = llm.total_latency().get() * llm.total_mxu_energy().get();
        let dit_edp = dit_run.total_latency.get() * dit_run.total_mxu_energy.get();
        // Normalize the two objectives before mixing.
        let mixed = 0.7 * llm_edp + 0.3 * dit_edp * 1e3;
        println!(
            "{:<22} {:>10.1} {:>12.3} {:>12.6} {:>14.3}",
            sim.config().name(),
            sim.config().peak_tops(),
            llm_edp,
            dit_edp,
            mixed
        );
        match &best {
            Some((_, b)) if *b <= mixed => {}
            _ => best = Some((sim.config().clone(), mixed)),
        }
    }

    let (winner, edp) = best.expect("non-empty sweep");
    println!(
        "\nBest energy-delay design for the 70/30 mix: {} (EDP {edp:.3})",
        winner.name()
    );

    // Map-space study on the winner: map every weight GEMM of a decode
    // layer (its widest per-MXU shard) against the winner's engine.
    let sim = Simulator::new(winner)?;
    let layer = gpt3.decode_layer(8, 1280)?;
    let engine = EngineModel {
        engine: sim.engine(),
        clock: sim.config().clock(),
    };
    println!(
        "\nChosen tilings on {} (per-MXU shards):",
        sim.config().name()
    );
    for inst in layer.ops() {
        let Op::Gemm { shape, dtype } = *inst.op() else {
            continue;
        };
        let shard = shape.split_n(sim.config().mxu_count())[0];
        let m = sim
            .per_mxu_mapper()
            .best_gemm_mapping(shard, dtype, &engine, false)?;
        println!(
            "  {:<28} tile [{} x {} x {}] x{:<4} {:>8.1} us ({})",
            shard.to_string(),
            m.tile().m(),
            m.tile().k(),
            m.tile().n(),
            m.tiles(),
            m.total().as_micros(),
            if m.is_memory_bound() {
                "memory-bound"
            } else {
                "compute-bound"
            },
        );
    }
    Ok(())
}
