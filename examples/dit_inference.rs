//! DiT image-generation analysis: one DiT-XL/2 forward pass per design
//! point, plus the per-category breakdown showing the softmax bottleneck.
//!
//! Run with: `cargo run --release --example dit_inference`

use cimtpu::prelude::*;

fn main() -> Result<()> {
    let dit = presets::dit_xl_2();
    let (batch, resolution, steps) = (8, 512, 50);

    println!("DiT-XL/2 @ {resolution}x{resolution}, batch {batch}, {steps}-step sampler, INT8\n");
    println!(
        "{:<18} {:>14} {:>14} {:>12}",
        "config", "forward (ms)", "MXU E (mJ)", "img/s"
    );
    for cfg in [
        TpuConfig::tpuv4i(),
        TpuConfig::cim_base(),
        TpuConfig::design_b(),
    ] {
        let sim = Simulator::new(cfg)?;
        let r = inference::run_dit(&sim, &dit, batch, resolution)?;
        println!(
            "{:<18} {:>14.2} {:>14.1} {:>12.3}",
            sim.config().name(),
            r.total_latency.as_millis(),
            r.total_mxu_energy.as_millijoules(),
            r.images_per_second(steps),
        );
    }

    // Where does a DiT block spend its time? (Fig. 6, right.)
    let sim = Simulator::new(TpuConfig::tpuv4i())?;
    let block = sim.run(&dit.block(batch, resolution)?)?;
    println!("\nBaseline DiT block breakdown (softmax is the bottleneck):");
    for row in block.by_category() {
        println!(
            "  {:<14} {:>8.3} ms ({:>5.1}%)",
            row.category.label(),
            row.latency.as_millis(),
            row.latency_fraction * 100.0
        );
    }
    Ok(())
}
