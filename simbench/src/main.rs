//! `simbench`: the measuring half of the host-time benchmark.
//!
//! ```text
//! simbench measure --workload NAME --seed N --seconds S [--requests N]
//! simbench trace   --workload NAME --seed N --seconds S
//! simbench pin     --workload NAME --seeds A-B[,C...]
//! ```
//!
//! `measure` repeats the workload (set-up, then one timed call) until
//! `S` seconds have passed and prints every repetition's timings, work
//! and output digest; `--requests` changes a fleet workload's request
//! count (its digests then match no pin). `trace` runs the per-layer
//! probes instead. `pin` prints the output digest for each listed seed and
//! the full simulated result of the first. Each mode prints one JSON object; `run.py` turns
//! it into metrics and compares digests with the pinned outputs.
//!
//! Everything runs on one thread (worker count 1).

mod probes;
mod workloads;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use workloads::{Output, Workload};

/// Repetitions `measure` makes even when they outlast `--seconds`.
const MIN_REPS: usize = 3;
/// Times each repetition builds its inputs; the repetition's set-up time
/// is the median of these.
const SETUP_SAMPLES: usize = 15;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    seconds: f64,
    seeds: Vec<u64>,
    requests: Option<u64>,
}

fn parse_seeds(spec: &str) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        match part.split_once('-') {
            Some((a, b)) => out.extend(a.parse::<u64>().ok()?..=b.parse::<u64>().ok()?),
            None => out.push(part.parse().ok()?),
        }
    }
    Some(out)
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().ok_or("missing mode (measure, trace or pin)")?;
    if !matches!(mode.as_str(), "measure" | "trace" | "pin") {
        return Err(format!("unknown mode {mode}"));
    }
    let (mut workload, mut seed, mut seconds, mut seeds) = (None, 0, 10.0, Vec::new());
    let mut requests = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--seeds" => seeds = parse_seeds(&value).ok_or_else(bad)?,
            "--requests" => requests = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    Ok(Args {
        mode,
        workload,
        seed,
        seconds,
        seeds,
        requests,
    })
}

/// A finite number as JSON (`null` otherwise).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

/// A string as JSON (the benchmark's strings need only quote and
/// backslash escapes, plus control characters from error messages).
fn text(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn opt_text(s: Option<&str>) -> String {
    s.map_or_else(|| "null".to_owned(), text)
}

/// Seconds one pass of a fixed, simulator-independent loop takes: hash
/// map updates, lookups and a sort over a working set of about 1 MiB.
/// The hasher has fixed keys, so every pass does the same work.
fn calibrate() -> f64 {
    type Fixed = std::hash::BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let t = Instant::now();
    let mut map = std::collections::HashMap::with_capacity_and_hasher(1 << 16, Fixed::default());
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64);
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 50_000).or_insert(0u64) += i;
        acc = acc.wrapping_add(map.get(&(x % 60_000)).copied().unwrap_or(1));
    }
    let mut v: Vec<u64> = map.into_values().collect();
    v.sort_unstable();
    std::hint::black_box(acc.wrapping_add(v[v.len() / 2]));
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set (VmHWM) in KiB, 0 if unreadable.
fn vmhwm_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn measure(args: &Args, started: Instant) -> String {
    let deadline = Duration::from_secs_f64(args.seconds);
    let clock = Instant::now();
    let mut first_call_s = None;
    let mut reps = Vec::new();
    let mut gap_rows = None;
    let mut cal_before = calibrate();
    while reps.len() < MIN_REPS || clock.elapsed() < deadline {
        let mut samples = Vec::with_capacity(SETUP_SAMPLES);
        let prepared = (0..SETUP_SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                let prepared = std::hint::black_box(workloads::setup(args.workload, args.seed));
                samples.push(t0.elapsed().as_secs_f64());
                prepared
            })
            .last()
            .expect("at least one set-up sample");
        let setup_s = probes::median(&mut samples);
        let prepared = match prepared {
            Ok(workloads::Prepared::Fleet(mut s)) => {
                s.traffic.requests = args.requests.unwrap_or(s.traffic.requests);
                workloads::Prepared::Fleet(s)
            }
            Ok(p) => p,
            Err(e) => {
                reps.push(format!("{{\"error\":{}}}", text(&format!("set-up: {e}"))));
                break;
            }
        };
        first_call_s.get_or_insert_with(|| started.elapsed().as_secs_f64());
        let t1 = Instant::now();
        let output = std::hint::black_box(workloads::run(&prepared));
        let run_s = t1.elapsed().as_secs_f64();
        // The host's speed around this repetition: the mean of the
        // calibration passes just before and just after it.
        let cal_after = calibrate();
        let cal_s = (cal_before + cal_after) / 2.0;
        cal_before = cal_after;
        let work = workloads::work(&prepared);
        let (digest, ok, error) = match &output {
            Ok(out) => {
                let (digest, ok) = workloads::check(&prepared, out);
                (Some(digest), ok, None)
            }
            Err(e) => (None, false, Some(e.to_string())),
        };
        if let Ok(Output::Sweep(rows)) = output {
            gap_rows = Some(rows);
        }
        reps.push(format!(
            "{{\"setup_s\":{},\"run_s\":{},\"cal_s\":{},\"ops\":{},\"sim_requests\":{},\"design_points\":{},\
             \"digest\":{},\"ok\":{ok},\"error\":{}}}",
            num(setup_s),
            num(run_s),
            num(cal_s),
            work.ops,
            work.sim_requests,
            work.design_points,
            opt_text(digest.as_deref()),
            opt_text(error.as_deref()),
        ));
        if error.is_some() {
            break;
        }
    }
    // The model-accuracy guard: from the sweep's own Table IV rows, or
    // from the Table IV points alone for the fleet workloads.
    let gap = match gap_rows {
        Some(rows) => workloads::paper_gap_pct(&rows),
        None => workloads::table4_paper_gap_pct(),
    };
    format!(
        "{{\"mode\":\"measure\",\"workload\":{},\"seed\":{},\"worker_count\":1,\
         \"first_call_s\":{},\"paper_gap_pct\":{},\"vmhwm_kib\":{},\"reps\":[{}]}}",
        text(args.workload.name()),
        args.seed,
        num(first_call_s.unwrap_or(f64::NAN)),
        gap.map_or_else(|_| "null".to_owned(), num),
        vmhwm_kib(),
        reps.join(","),
    )
}

fn trace(args: &Args) -> String {
    let deadline = Duration::from_secs_f64(args.seconds);
    let clock = Instant::now();
    let mut layers = probes::Layers::new();
    let mut checks = Vec::new();
    let mut rounds = 0;
    let mut cal_before = calibrate();
    let mut cal = Vec::new();
    while rounds == 0 || clock.elapsed() < deadline {
        probes::round(args.workload, args.seed, &mut layers, &mut checks);
        let cal_after = calibrate();
        cal.push(num((cal_before + cal_after) / 2.0));
        cal_before = cal_after;
        rounds += 1;
    }
    let layers: Vec<String> = layers
        .iter()
        .map(|(k, v)| {
            let samples: Vec<String> = v.iter().map(|x| num(*x)).collect();
            format!("{}:[{}]", text(k), samples.join(","))
        })
        .collect();
    let checks: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"label\":{},\"workload\":{},\"ops\":{},\"digest\":{},\"ok\":{},\"error\":{}}}",
                text(c.label),
                opt_text(c.workload.map(Workload::name)),
                c.ops,
                opt_text(c.digest.as_deref()),
                c.ok,
                opt_text(c.error.as_deref()),
            )
        })
        .collect();
    format!(
        "{{\"mode\":\"trace\",\"workload\":{},\"seed\":{},\"worker_count\":1,\"rounds\":{rounds},\
         \"cal_s\":[{}],\"vmhwm_kib\":{},\"layers\":{{{}}},\"checks\":[{}]}}",
        text(args.workload.name()),
        args.seed,
        cal.join(","),
        vmhwm_kib(),
        layers.join(","),
        checks.join(","),
    )
}

fn pin(args: &Args) -> Result<String, String> {
    let mut digests = Vec::new();
    let mut result = None;
    for &seed in &args.seeds {
        let prepared = workloads::setup(args.workload, seed).map_err(|e| e.to_string())?;
        let output = workloads::run(&prepared).map_err(|e| format!("seed {seed}: {e}"))?;
        let (digest, ok) = workloads::check(&prepared, &output);
        if !ok {
            return Err(format!("seed {seed}: output fails the workload invariants"));
        }
        digests.push(format!("\"{seed}\":{}", text(&digest)));
        result.get_or_insert_with(|| match &output {
            Output::Fleet(run) => workloads::report_json(run),
            Output::Sweep(rows) => {
                let rows: Vec<String> = rows.iter().map(workloads::PointRow::json).collect();
                format!("[{}]", rows.join(","))
            }
        });
    }
    Ok(format!(
        "{{\"mode\":\"pin\",\"workload\":{},\"digests\":{{{}}},\"result\":{}}}",
        text(args.workload.name()),
        digests.join(","),
        result.unwrap_or_else(|| "null".to_owned()),
    ))
}

fn main() {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let out = match args.mode.as_str() {
        "measure" => measure(&args, started),
        "trace" => trace(&args),
        _ => match pin(&args) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("simbench: {e}");
                std::process::exit(1);
            }
        },
    };
    println!("{out}");
}
