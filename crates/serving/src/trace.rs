//! Trace-driven traffic: a JSONL request-trace format (parser + writer)
//! and a seeded synthesis tool, so any materializable [`TrafficSpec`] can
//! be committed as a trace file and replayed byte-identically.
//!
//! One [`TraceRecord`] per line, compact JSON, in arrival order:
//!
//! ```text
//! {"t_s":0.0,"prompt":16,"steps":4,"session":0,"tenant":0,"class":"Standard"}
//! ```
//!
//! [`synthesize`] materializes a spec into records; [`to_jsonl`] /
//! [`parse_jsonl`] round-trip the file format; [`replay_spec`] wraps a
//! record list back into an [`ArrivalPattern::Trace`] spec. Replaying a
//! synthesized trace reproduces the live-generated run token-for-token:
//! the trace carries exactly the fields [`TrafficSpec::generate`]
//! samples (arrival, prompt, steps, session, tenant, class), and the
//! replay path re-ids records `0..n` just as generation numbers requests.

use serde::{Deserialize, Serialize};

use cimtpu_units::{Error, Result};

use crate::request::{ArrivalPattern, PrefixTraffic, TrafficSpec};
use crate::tenant::SloClass;

/// One request of a committed trace: everything [`TrafficSpec::generate`]
/// would have sampled for it. Request ids are implicit — line `i` replays
/// as request `i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Arrival time in seconds (nondecreasing across the file).
    pub t_s: f64,
    /// Prompt tokens (zero for DiT requests).
    pub prompt: u64,
    /// Generation steps (clamped to at least 1 on replay).
    pub steps: u64,
    /// Session identifier (session-affinity routing keys on it).
    pub session: u64,
    /// Tenant index (0 for single-tenant traces).
    pub tenant: u32,
    /// The request's service tier.
    pub class: SloClass,
}

/// Renders records as JSONL: one compact-JSON record per line, trailing
/// newline (byte-stable — field order is declaration order).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r).expect("trace records always serialize"));
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace (blank lines and `#` comment lines are skipped).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] naming the offending line for
/// malformed JSON, or if arrival times are not nondecreasing and finite.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>> {
    let mut records = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let record: TraceRecord = serde_json::from_str(line)
            .map_err(|e| Error::invalid_config(format!("trace line {}: {e}", lineno + 1)))?;
        if !record.t_s.is_finite() || record.t_s < 0.0 {
            return Err(Error::invalid_config(format!(
                "trace line {}: arrival {} is not a finite non-negative time",
                lineno + 1,
                record.t_s
            )));
        }
        if let Some(prev) = records.last() {
            let prev: &TraceRecord = prev;
            if record.t_s < prev.t_s {
                return Err(Error::invalid_config(format!(
                    "trace line {}: arrival {} goes back in time (previous {})",
                    lineno + 1,
                    record.t_s,
                    prev.t_s
                )));
            }
        }
        records.push(record);
    }
    if records.is_empty() {
        return Err(Error::invalid_config("trace file contains no records"));
    }
    Ok(records)
}

/// Materializes a spec into trace records (the seeded synthesis tool
/// behind `--trace-out`).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an invalid spec or a closed-loop
/// one (closed-loop arrivals depend on service progress, so they cannot
/// be written down up front).
pub fn synthesize(spec: &TrafficSpec) -> Result<Vec<TraceRecord>> {
    spec.validate()?;
    if matches!(spec.arrival, ArrivalPattern::ClosedLoop { .. }) {
        return Err(Error::invalid_config(
            "closed-loop traffic cannot be synthesized into a trace \
             (arrivals depend on service progress)",
        ));
    }
    Ok(spec
        .sampler()
        .map(|r| TraceRecord {
            t_s: r.arrival_s,
            prompt: r.prompt_len,
            steps: r.steps,
            session: r.session,
            tenant: r.tenant,
            class: r.class,
        })
        .collect())
}

/// Wraps parsed records into a replayable spec. Prefix traffic is off and
/// the seed is 0: a trace file carries no prompt-content structure, and
/// replay draws nothing from the RNG (callers studying prefix sharing can
/// struct-update `prefix`/`seed` afterwards — assignment is by request id,
/// outside the RNG stream).
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an empty record list (via
/// `TrafficSpec::validate`).
pub fn replay_spec(records: Vec<TraceRecord>) -> Result<TrafficSpec> {
    let spec = TrafficSpec {
        requests: records.len() as u64,
        arrival: ArrivalPattern::Trace { records },
        prompt: crate::LenDist::Fixed(0),
        steps: crate::LenDist::Fixed(1),
        prefix: PrefixTraffic::None,
        seed: 0,
    };
    spec.validate()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LenDist, PrefixTraffic};

    fn diurnal_spec(seed: u64) -> TrafficSpec {
        TrafficSpec {
            requests: 40,
            arrival: ArrivalPattern::Diurnal {
                peak_rps: 2000.0,
                day_s: 2.4,
                burst_x: 2.0,
                bursts: 2,
            },
            prompt: LenDist::Uniform { lo: 8, hi: 32 },
            steps: LenDist::Uniform { lo: 2, hi: 6 },
            prefix: PrefixTraffic::None,
            seed,
        }
    }

    #[test]
    fn jsonl_round_trips_byte_identically() {
        let records = synthesize(&diurnal_spec(7)).unwrap();
        let text = to_jsonl(&records);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
        assert_eq!(to_jsonl(&back), text, "writer is byte-stable");
        assert_eq!(text.lines().count(), 40);
    }

    #[test]
    fn replaying_a_synthesized_trace_matches_generation() {
        // The golden guarantee: synthesize → replay reproduces the
        // live-generated request list token-for-token (ids, arrivals,
        // prompts, steps, sessions, tenants, classes, prefixes).
        let spec = diurnal_spec(11);
        let replay = replay_spec(synthesize(&spec).unwrap()).unwrap();
        assert_eq!(replay.generate(), spec.generate());
    }

    #[test]
    fn parser_rejects_malformed_traces() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("# only a comment\n").is_err());
        assert!(parse_jsonl("{\"t_s\":0.0}").is_err(), "missing fields");
        assert!(parse_jsonl("not json").is_err());
        let ok = "{\"t_s\":1.0,\"prompt\":8,\"steps\":2,\"session\":0,\
                  \"tenant\":0,\"class\":\"Batch\"}";
        let back_in_time = format!("{ok}\n{}", ok.replace("\"t_s\":1.0", "\"t_s\":0.5"));
        assert!(parse_jsonl(&back_in_time).is_err());
        let nan = ok.replace("\"t_s\":1.0", "\"t_s\":null");
        assert!(parse_jsonl(&nan).is_err());
        let parsed = parse_jsonl(ok).unwrap();
        assert_eq!(parsed[0].class, SloClass::Batch);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let records = synthesize(&diurnal_spec(3)).unwrap();
        let noisy = format!("# header\n\n{}\n# trailer\n", to_jsonl(&records[..2]));
        assert_eq!(parse_jsonl(&noisy).unwrap(), &records[..2]);
    }

    #[test]
    fn closed_loop_cannot_be_synthesized() {
        let spec = TrafficSpec {
            arrival: ArrivalPattern::ClosedLoop {
                clients: 2,
                think_ms: 1.0,
            },
            ..diurnal_spec(1)
        };
        assert!(synthesize(&spec).is_err());
    }
}
