//! Cluster-scale serving: a heterogeneous colocated fleet behind a
//! load-aware router, the same hardware disaggregated into prefill and
//! decode pools with KV handoff over the interconnect, and a closed-loop
//! client population saturating the fleet.
//!
//! Run with: `cargo run --release --example cluster`

use cimtpu::prelude::*;

fn main() -> Result<()> {
    let model = ServingModel::Llm(presets::gpt3_6_7b());
    let traffic = TrafficSpec {
        requests: 24,
        arrival: ArrivalPattern::OpenLoop { rate_rps: 5.0 },
        prompt: LenDist::Uniform { lo: 512, hi: 1024 },
        steps: LenDist::Fixed(32),
        prefix: PrefixTraffic::None,
        seed: 0xC1A0,
    };

    // A colocated fleet: three Design A chips, least-outstanding routing.
    let colocated = ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("colo-0", TpuConfig::design_a(), model.clone()),
            ReplicaSpec::new("colo-1", TpuConfig::design_a(), model.clone()),
            ReplicaSpec::new("colo-2", TpuConfig::design_a(), model.clone()),
        ],
        RouterPolicy::LeastOutstanding,
    )?
    .run("colocated", &traffic)?;
    println!("{}", colocated.report);

    // The same three chips disaggregated: one dedicated prefill chip
    // hands each finished prompt's paged KV cache over an ICI-class link
    // to two decode chips (placement by KV occupancy).
    let disaggregated = ClusterEngine::disaggregated(
        vec![ReplicaSpec::new(
            "prefill-0",
            TpuConfig::design_a(),
            model.clone(),
        )],
        vec![
            ReplicaSpec::new("decode-0", TpuConfig::design_a(), model.clone()),
            ReplicaSpec::new("decode-1", TpuConfig::design_a(), model.clone()),
        ],
        RouterPolicy::PassThrough,
        RouterPolicy::LeastKv,
        InterconnectSpec::ici(),
    )?
    .run("disaggregated", &traffic)?;
    println!("{}", disaggregated.report);
    println!(
        "disaggregation moved {:.1} MiB of KV over the wire in {} transfer(s) \
         ({:.3} ms link time, {:.3} mJ)\n",
        disaggregated.report.kv_transfer_bytes as f64 / (1 << 20) as f64,
        disaggregated.report.kv_transfers,
        disaggregated.report.kv_transfer_s * 1e3,
        disaggregated.report.kv_transfer_energy_j * 1e3,
    );

    // Closed-loop saturation: 16 clients, each re-issuing after 50 ms of
    // think time — offered load tracks what the fleet can absorb.
    let closed = ClusterEngine::colocated(
        vec![
            ReplicaSpec::new("cl-0", TpuConfig::design_a(), model.clone()),
            ReplicaSpec::new("cl-1", TpuConfig::design_a(), model),
        ],
        RouterPolicy::LeastOutstanding,
    )?
    .with_slo_ms(4_000.0)
    .run(
        "closed-loop",
        &TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 16,
                think_ms: 50.0,
            },
            ..traffic
        },
    )?;
    println!("{}", closed.report);
    Ok(())
}
