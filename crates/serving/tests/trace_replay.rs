//! Trace-driven traffic, end to end, against the committed golden
//! fixture:
//!
//! 1. **Byte-stable format.** Parsing the fixture and re-rendering it
//!    reproduces the record bytes exactly (modulo the comment header).
//! 2. **Double-replay identity.** Replaying the same trace twice gives
//!    bit-identical reports and completions — a trace run draws nothing
//!    from the RNG.
//! 3. **Synthesize-then-replay.** Materializing a Diurnal spec into a
//!    trace and replaying it reproduces the live-generated run
//!    token-for-token, through the engine, not just the request list.
//! 4. **Empty prompts.** An LLM engine rejects a request without a
//!    prompt, typed, whether it comes from a trace (`serve_sim
//!    --trace-in` included) or a prompt distribution, under continuous
//!    and dynamic batching alike; a DiT engine still takes prompt 0.

use std::process::Command;

use cimtpu_core::TpuConfig;
use cimtpu_models::{presets, TransformerConfig};
use cimtpu_serving::{
    parse_jsonl, replay_spec, synthesize, to_jsonl, ArrivalPattern, BatchPolicy, LenDist,
    Parallelism, PrefixTraffic, ServingEngine, ServingModel, SloClass, TrafficSpec,
};
use cimtpu_units::Error;

const GOLDEN: &str = include_str!("fixtures/golden_trace.jsonl");

fn engine() -> ServingEngine {
    engine_with(BatchPolicy::Continuous { max_batch: 4 })
}

fn engine_with(policy: BatchPolicy) -> ServingEngine {
    ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Llm(TransformerConfig::new("Tiny-2L", 2, 4, 256, 1024).unwrap()),
        Parallelism::Replicated { chips: 1 },
        policy,
    )
    .unwrap()
}

/// Two records; the second has no prompt.
const EMPTY_PROMPT: &str = "\
{\"t_s\":0.0,\"prompt\":16,\"steps\":4,\"session\":0,\"tenant\":0,\"class\":\"Standard\"}
{\"t_s\":0.001,\"prompt\":0,\"steps\":4,\"session\":1,\"tenant\":0,\"class\":\"Standard\"}
";

fn is_invalid_config<T: std::fmt::Debug>(result: cimtpu_units::Result<T>) -> bool {
    matches!(result, Err(Error::InvalidConfig(_)))
}

#[test]
fn golden_fixture_parses_and_rerenders_byte_identically() {
    let records = parse_jsonl(GOLDEN).unwrap();
    assert_eq!(records.len(), 16);
    // The fixture carries all three service tiers.
    for class in [SloClass::Interactive, SloClass::Standard, SloClass::Batch] {
        assert!(
            records.iter().any(|r| r.class == class),
            "fixture lacks {class:?}"
        );
    }
    // Writer round trip: the data lines (comments stripped) come back
    // byte-for-byte.
    let data: String = GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(to_jsonl(&records), data);
    assert_eq!(parse_jsonl(&to_jsonl(&records)).unwrap(), records);
}

#[test]
fn golden_fixture_replays_deterministically() {
    let spec = replay_spec(parse_jsonl(GOLDEN).unwrap()).unwrap();
    let a = engine().run("golden", &spec).unwrap();
    let b = engine().run("golden", &spec).unwrap();
    assert_eq!(a.report, b.report);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.report.completed, 16, "every fixture record completes");
    // Replay preserves the trace's per-request shape: ids are the line
    // numbers and decode lengths match the records.
    let records = parse_jsonl(GOLDEN).unwrap();
    for c in &a.completions {
        assert_eq!(c.steps, records[c.id as usize].steps);
    }
}

#[test]
fn synthesized_diurnal_replays_token_for_token_through_the_engine() {
    let spec = TrafficSpec {
        requests: 32,
        arrival: ArrivalPattern::Diurnal {
            peak_rps: 3_000.0,
            day_s: 0.03,
            burst_x: 2.0,
            bursts: 2,
        },
        prompt: LenDist::Uniform { lo: 8, hi: 32 },
        steps: LenDist::Uniform { lo: 2, hi: 6 },
        prefix: PrefixTraffic::None,
        seed: 0xD1A,
    };
    let live = engine().run("diurnal", &spec).unwrap();
    let replayed = replay_spec(synthesize(&spec).unwrap()).unwrap();
    let trace = engine().run("diurnal", &replayed).unwrap();
    assert_eq!(
        trace.completions, live.completions,
        "replay diverged from the live run"
    );
    assert_eq!(trace.report, live.report);
    // And the file format is transparent: write → parse → replay again.
    let reparsed = replay_spec(parse_jsonl(&to_jsonl(&synthesize(&spec).unwrap())).unwrap());
    let again = engine().run("diurnal", &reparsed.unwrap()).unwrap();
    assert_eq!(again.completions, live.completions);
}

#[test]
fn llm_engines_reject_empty_prompts_dit_engines_take_them() {
    let sampled = |prompt| TrafficSpec {
        requests: 4,
        arrival: ArrivalPattern::Burst,
        prompt,
        steps: LenDist::Fixed(2),
        prefix: PrefixTraffic::None,
        seed: 1,
    };
    let traced = replay_spec(parse_jsonl(EMPTY_PROMPT).unwrap()).unwrap();
    for policy in [
        BatchPolicy::Continuous { max_batch: 4 },
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait_ms: 1.0,
        },
    ] {
        let engine = engine_with(policy);
        let name = policy.name();
        assert!(
            is_invalid_config(engine.run("trace", &traced)),
            "{name}: trace"
        );
        for prompt in [LenDist::Fixed(0), LenDist::Uniform { lo: 0, hi: 8 }] {
            assert!(
                is_invalid_config(engine.run("dist", &sampled(prompt))),
                "{name}: {prompt:?}"
            );
        }
        let run = engine
            .run("dist", &sampled(LenDist::Uniform { lo: 1, hi: 8 }))
            .unwrap();
        assert_eq!(run.report.completed, 4, "{name}");
    }
    let dit = ServingEngine::new(
        TpuConfig::tpuv4i(),
        ServingModel::Dit {
            dit: presets::dit_b_2(),
            resolution: 256,
        },
        Parallelism::Replicated { chips: 1 },
        BatchPolicy::Dynamic {
            max_batch: 4,
            max_wait_ms: 1.0,
        },
    )
    .unwrap();
    assert_eq!(
        dit.run("dit", &sampled(LenDist::Fixed(0)))
            .unwrap()
            .report
            .completed,
        4
    );
    assert_eq!(dit.run("dit", &traced).unwrap().report.completed, 2);
}

/// `serve_sim --trace-in` with an empty prompt fails the run with a typed
/// message under continuous (`smoke`) and dynamic (`llm-prefill-heavy`)
/// batching alike.
#[test]
fn serve_sim_trace_in_rejects_empty_prompts() {
    let path = std::env::temp_dir().join(format!("empty_prompt_{}.jsonl", std::process::id()));
    std::fs::write(&path, EMPTY_PROMPT).unwrap();
    for scenario in ["smoke", "llm-prefill-heavy"] {
        let out = Command::new(env!("CARGO_BIN_EXE_serve_sim"))
            .args(["--scenario", scenario, "--trace-in"])
            .arg(&path)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scenario}: {stderr}");
        let want =
            format!("{scenario}: invalid configuration: trace request 1 has an empty prompt");
        assert!(stderr.contains(&want), "{scenario}: {stderr}");
    }
    std::fs::remove_file(&path).unwrap();
}
