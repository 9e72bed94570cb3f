//! Multi-TPU serving: scale GPT-3-30B and DiT-XL/2 across a ring of 1-4
//! chips with pipeline parallelism, and compare tensor parallelism for the
//! latency-critical decode path.
//!
//! Run with: `cargo run --release --example multi_tpu`

use cimtpu::prelude::*;

fn main() -> Result<()> {
    let gpt3 = presets::gpt3_30b();
    let spec = LlmInferenceSpec::paper_fig7(8)?;

    println!("Pipeline parallelism over the ICI ring (Fig. 8 setup):\n");
    println!(
        "{:<12} {:>5} {:>12} {:>14} {:>12}",
        "config", "TPUs", "LLM tok/s", "J/token", "DiT img/s"
    );
    for cfg in [
        TpuConfig::tpuv4i(),
        TpuConfig::design_a(),
        TpuConfig::design_b(),
    ] {
        for devices in [1u64, 2, 4] {
            let cluster = MultiTpu::new(cfg.clone(), devices)?;
            let llm = cluster.llm_pipeline_throughput(&gpt3, spec)?;
            let dit = cluster.dit_pipeline_throughput(&presets::dit_xl_2(), 8, 512, 50)?;
            println!(
                "{:<12} {:>5} {:>12.1} {:>14.4} {:>12.3}",
                cfg.name(),
                devices,
                llm.throughput,
                llm.mxu_energy_per_unit.get(),
                dit.throughput,
            );
        }
    }

    println!("\nTensor parallelism for latency (one decode-layer step, ctx 1280):");
    for devices in [1u64, 2, 4] {
        let cluster = MultiTpu::new(TpuConfig::cim_base(), devices)?;
        let t = cluster.llm_tensor_parallel_decode_layer(&gpt3, 8, 1280)?;
        println!("  {devices} TPUs: {:.3} ms/layer", t.as_millis());
    }
    println!(
        "\nPipeline parallelism maximizes throughput; tensor parallelism cuts\n\
         per-token latency by sharding each layer's weights across chips."
    );
    Ok(())
}
