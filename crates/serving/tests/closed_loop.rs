//! Closed-loop traffic: seeded determinism, concurrency bounds, and
//! think-time semantics of `ArrivalPattern::ClosedLoop`.

use cimtpu_core::TpuConfig;
use cimtpu_models::TransformerConfig;
use cimtpu_serving::{
    ArrivalPattern, BatchPolicy, LenDist, Parallelism, PrefixTraffic, ServingEngine, ServingModel,
    ServingRun, TrafficSpec,
};

fn tiny() -> TransformerConfig {
    TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()
}

fn engine(policy: BatchPolicy) -> ServingEngine {
    ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(tiny()),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap()
}

fn closed_loop(requests: u64, clients: u64, think_ms: f64, seed: u64) -> TrafficSpec {
    TrafficSpec {
        requests,
        arrival: ArrivalPattern::ClosedLoop { clients, think_ms },
        prompt: LenDist::Uniform { lo: 16, hi: 48 },
        steps: LenDist::Uniform { lo: 2, hi: 8 },
        prefix: PrefixTraffic::None,
        seed,
    }
}

fn run(policy: BatchPolicy, traffic: &TrafficSpec) -> ServingRun {
    engine(policy).run("closed-loop", traffic).unwrap()
}

#[test]
fn closed_loop_is_seeded_deterministic_for_every_policy() {
    for policy in [
        BatchPolicy::Static { batch: 2 },
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait_ms: 1.0,
        },
        BatchPolicy::Continuous { max_batch: 4 },
    ] {
        let traffic = closed_loop(12, 3, 10.0, 42);
        let a = run(policy, &traffic);
        let b = run(policy, &traffic);
        assert_eq!(a.report, b.report, "{}", policy.name());
        assert_eq!(a.completions, b.completions, "{}", policy.name());
        assert_eq!(a.report.completed, 12);

        // A different seed samples different lengths, changing the run.
        let c = run(policy, &closed_loop(12, 3, 10.0, 43));
        assert_ne!(a.report, c.report, "{}", policy.name());
    }
}

#[test]
fn closed_loop_caps_concurrency_at_client_count() {
    let clients = 3;
    let a = run(
        BatchPolicy::Continuous { max_batch: 16 },
        &closed_loop(15, clients, 0.0, 7),
    );
    // At every arrival instant, at most `clients` requests are in flight.
    for c in &a.completions {
        let t = c.arrival;
        let in_flight = a
            .completions
            .iter()
            .filter(|o| o.arrival <= t && o.finish > t)
            .count() as u64;
        assert!(in_flight <= clients, "at t={t}: {in_flight} in flight");
    }
}

#[test]
fn think_time_spaces_a_clients_requests() {
    let think_ms = 25.0;
    let a = run(
        BatchPolicy::Continuous { max_batch: 4 },
        &closed_loop(8, 2, think_ms, 9),
    );
    // Requests alternate between the two clients in issue order; each
    // client's next arrival is its previous completion plus think time.
    // Reconstruct per-client chains from the serving completions: ids are
    // issue-ordered, so pair each id with the client that issued it by
    // replaying the stream coupling.
    let mut per_client_last_finish: Vec<Option<f64>> = vec![None; 2];
    let mut completions = a.completions.clone();
    completions.sort_by_key(|c| c.id);
    for c in &completions {
        // The issuing client is whichever client's (finish + think)
        // matches this arrival — or either idle client at t = 0.
        let arrival = c.arrival.get();
        let client = if arrival == 0.0 {
            per_client_last_finish
                .iter()
                .position(Option::is_none)
                .expect("an idle client")
        } else {
            per_client_last_finish
                .iter()
                .position(|f| f.is_some_and(|f| (arrival - (f + think_ms / 1000.0)).abs() < 1e-9))
                .unwrap_or_else(|| panic!("arrival {arrival} matches no client chain"))
        };
        per_client_last_finish[client] = Some(c.finish.get());
    }
}

#[test]
fn more_clients_saturate_throughput() {
    // Closed-loop throughput grows with the client count until the
    // engine saturates (1 client leaves the chip idle during think time).
    let lo = run(
        BatchPolicy::Continuous { max_batch: 8 },
        &closed_loop(10, 1, 20.0, 5),
    );
    let hi = run(
        BatchPolicy::Continuous { max_batch: 8 },
        &closed_loop(10, 8, 20.0, 5),
    );
    assert!(
        hi.report.throughput_rps > lo.report.throughput_rps,
        "8 clients {:.2} rps should beat 1 client {:.2} rps",
        hi.report.throughput_rps,
        lo.report.throughput_rps
    );
}

#[test]
fn static_batching_flushes_partial_closed_loop_batches() {
    // 2 clients can never fill a static batch of 4: the engine must
    // flush partial batches instead of deadlocking.
    let a = run(BatchPolicy::Static { batch: 4 }, &closed_loop(6, 2, 1.0, 3));
    assert_eq!(a.report.completed, 6);
}
