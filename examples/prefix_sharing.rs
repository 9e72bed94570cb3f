//! Prefix sharing: the same shared-system-prompt traffic served cold
//! (every prompt recomputed) and with copy-on-write KV block sharing —
//! plus a fleet where prefix-affinity routing concentrates each shared
//! head on the replica already holding its blocks.
//!
//! Run with: `cargo run --release --example prefix_sharing`

use cimtpu::prelude::*;

fn main() -> Result<()> {
    // 24 requests whose prompts open with one of two 512-token system
    // prompts (tails are unique). Requests with equal heads compute
    // identical KV state for them — the work prefix sharing removes.
    let traffic = TrafficSpec {
        requests: 24,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 6.0 },
        prompt: LenDist::Uniform { lo: 640, hi: 1024 },
        steps: LenDist::Fixed(32),
        prefix: PrefixTraffic::SharedHead {
            tokens: 512,
            groups: 2,
        },
        seed: 0xC1A0,
    };
    let engine = |memory: MemoryConfig| -> Result<ServingEngine> {
        Ok(ServingEngine::new(
            TpuConfig::design_a(),
            ServingModel::Llm(presets::gpt3_6_7b()),
            Parallelism::Replicated { chips: 1 },
            BatchPolicy::Continuous { max_batch: 8 },
        )?
        .with_memory(memory))
    };

    // Cold: every request pays its full prefill.
    let cold = engine(MemoryConfig::unlimited())?.run("cold prefix", &traffic)?;
    println!("{}", cold.report);

    // Shared: each executor keeps a radix index over resident prompt
    // blocks; later requests attach the cached head by reference
    // (copy-on-write where their prompts diverge mid-block) and price
    // only their tails.
    let shared =
        engine(MemoryConfig::unlimited().with_prefix_sharing())?.run("shared prefix", &traffic)?;
    println!("{}", shared.report);
    println!("prefix cache  {}", shared.prefix);
    println!(
        "sharing win: TTFT {:.2}x lower, energy {:.2}x lower — completions are \
         token-for-token identical\n",
        cold.report.ttft.mean_ms / shared.report.ttft.mean_ms,
        cold.report.total_energy_j / shared.report.total_energy_j,
    );

    // Fleet-level: prefix-affinity routing hashes each request's
    // shared-head identity, so a head's requests land where its KV blocks
    // already live instead of re-prefilling once per replica.
    let replica = |name: &str| {
        ReplicaSpec::new(
            name,
            TpuConfig::design_a(),
            ServingModel::Llm(presets::gpt3_6_7b()),
        )
        .with_policy(BatchPolicy::Continuous { max_batch: 8 })
        .with_memory(MemoryConfig::unlimited().with_prefix_sharing())
    };
    let fleet = ClusterEngine::colocated(
        vec![replica("prefix-0"), replica("prefix-1")],
        RouterPolicy::PrefixAffinity,
    )?;
    let run = fleet.run("prefix-affinity fleet", &traffic)?;
    println!("{}", run.report);
    println!("fleet prefix cache  {}", run.prefix);
    Ok(())
}
