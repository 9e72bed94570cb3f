#!/usr/bin/env python3
"""Host-time benchmark of the cimtpu simulator stack.

Usage, from the repository root:

    python3 simbench/run.py --workload fleet-day --seed 1 --seconds 25 --trace 0

Builds the `simbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs the named workload in a fresh process with
empty pricing caches, checks the simulated output against the outputs
pinned in `simbench/pinned/`, and prints two JSON lines: a full record
with provenance and quartiles, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of
`BENCHMARK.json`; with `--trace 1` they are its per-layer metrics.

`--pin SEEDS` (for example `0-99,49568`) rewrites the pinned outputs of
the named workload instead; do it only when a change is meant to alter
what is simulated.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED = HERE / "pinned"
# The repository's default scenario seed (0xC1A0).
DEFAULT_SEED = 49568
# Host time is reported in reference seconds. The shared host's speed
# drifts by tens of percent within minutes, so every repetition (and every
# traced round) is bracketed by passes of a fixed calibration loop that
# does not touch the simulator, and its host seconds are scaled by
# CAL_REFERENCE_S / (mean calibration pass time). CAL_REFERENCE_S is the
# calibration loop's time on a 2-core x86-64 VM; the record keeps the
# unscaled figures too.
CAL_REFERENCE_S = 0.015
# Per-layer units that are host time, and so scaled like the end-to-end ones.
TIME_UNITS = ("s", "ns")
# A measured run is split across this many processes, one after another.
# Each process gets its own memory layout, so no single layout that
# happens to be slow or fast sets the whole run's figures.
PROCESSES = 4
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("fleet-day", "fleet-elastic", "disagg-kv", "design-sweep")
# What the provenance digest covers: everything the measured binary is
# built from.
SOURCE_DIRS = ("crates", "vendor", "src", "simbench/src")
SOURCE_FILES = ("Cargo.toml", "simbench/Cargo.toml")


def fail(message):
    print(f"simbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The environment every child runs in: no disk-backed mapping cache,
    so each run starts with empty caches, and one sweep worker."""
    env = dict(os.environ)
    env.pop("CIMTPU_CACHE_DIR", None)
    env["CIMTPU_WORKERS"] = "1"
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "simbench"


def simbench(binary, args, env, timeout=RUN_TIMEOUT_S):
    try:
        done = subprocess.run([str(binary), *args], env=env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"simbench {args[0]} failed: {e}")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"simbench {args[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_pins():
    """Pinned digests: {workload: {seed (str): digest}}."""
    pins = {}
    for w in WORKLOADS:
        path = PINNED / f"{w}.json"
        if path.exists():
            pins[w] = json.loads(path.read_text())["digests"]
    return pins


def count_failed(items, pins, seed):
    """Operations that failed among `items` (repetitions or traced checks).

    An item fails, with all its operations, when the simulator errored,
    when the benchmark's own comparison did not hold (`ok`), or when its
    digest differs from the pinned digest of its workload at `seed`. For
    a seed with no pin, repetitions of one workload must agree with the
    first repetition's digest instead.
    """
    failed = 0
    first = {}
    for it in items:
        bad = it.get("error") is not None or not it.get("ok", False)
        workload, digest = it.get("workload"), it.get("digest")
        if workload and digest:
            pin = pins.get(workload, {}).get(str(seed))
            expected = pin if pin is not None else first.setdefault(workload, digest)
            bad = bad or digest != expected
        if bad:
            failed += it.get("ops", 0)
    return failed


def quartiles(values):
    """(median, q1, q3) of `values`."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def end_to_end(out, scaled=True):
    """Per-metric sample lists from a `measure` run, in reference seconds
    (or in host seconds with `scaled=False`)."""
    reps = [r for r in out["reps"] if r.get("error") is None and r.get("run_s")]
    if not reps:
        return {}

    def ref(r, host_s):
        return host_s * CAL_REFERENCE_S / r["cal_s"] if scaled else host_s

    return {
        "setup_s": [ref(r, r["setup_s"]) for r in reps],
        "sim_requests_per_s": [r["sim_requests"] / ref(r, r["run_s"]) for r in reps],
        "design_points_per_s": [r["design_points"] / ref(r, r["run_s"]) for r in reps],
        "peak_rss_mb": [out["vmhwm_kib"] / 1024.0],
        "paper_gap_pct": [out["paper_gap_pct"]],
    }


def per_layer(out, spec):
    """Per-metric sample lists from a `trace` run, host times in reference
    seconds."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    samples = {}
    for name, values in out["layers"].items():
        if units.get(name) in TIME_UNITS:
            values = [v * CAL_REFERENCE_S / c for v, c in zip(values, out["cal_s"])]
        samples[name] = values
    return samples


def merge(outs):
    """One `measure` result from several processes' results: repetitions
    pooled, peak RSS the median over processes."""
    merged = dict(outs[0])
    merged["reps"] = [r for o in outs for r in o["reps"]]
    merged["vmhwm_kib"] = statistics.median(o["vmhwm_kib"] for o in outs)
    return merged


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    """SHA-256 over the sources the binary is built from, so records from
    checkouts without git history still name the code they measured."""
    h = hashlib.sha256()
    paths = [ROOT / f for f in SOURCE_FILES]
    for d in SOURCE_DIRS:
        paths.extend(sorted(p for p in (ROOT / d).rglob("*") if p.is_file()))
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args, out, runs):
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "worker_count": out.get("worker_count"),
        "runs": runs,
        "processes": 1 if args.trace else PROCESSES,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "caches": "empty at the start of every repetition (no CIMTPU_CACHE_DIR)",
    }


def pin(args, binary, env):
    out = simbench(binary, ["pin", "--workload", args.workload, "--seeds", args.pin], env,
                   timeout=None)
    first = args.pin.split(",")[0].split("-")[0]
    record = {
        "workload": args.workload,
        "result_seed": int(first),
        "digests": out["digests"],
        "result": out["result"],
    }
    PINNED.mkdir(exist_ok=True)
    path = PINNED / f"{args.workload}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(out['digests'])} seeds of {args.workload} in {path}", file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", metavar="SEEDS")
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be non-negative and --seconds positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = clean_env()
    binary = build(env)
    if args.pin:
        pin(args, binary, env)
        return

    def child(mode, seconds):
        return simbench(binary, [mode, "--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(seconds)], env)

    if args.trace:
        out = child("trace", args.seconds)
    else:
        out = merge([child("measure", args.seconds / PROCESSES) for _ in range(PROCESSES)])
    pins = load_pins()
    if args.trace:
        items = out["checks"]
        samples = per_layer(out, spec)
        wanted = spec["per_layer"]
        runs = out["rounds"]
    else:
        items = [dict(r, workload=args.workload) for r in out["reps"]]
        samples = end_to_end(out)
        wanted = spec["end_to_end"]
        runs = len(out["reps"])
    attempted = sum(it.get("ops", 0) for it in items)
    failed = count_failed(items, pins, args.seed)

    metrics, summary = {}, {}
    for m in wanted:
        values = samples.get(m["name"])
        if not values or any(v is None for v in values):
            fail(f"no measurement for {m['name']}")
        med, q1, q3 = quartiles(values)
        metrics[m["name"]] = {"value": med, "unit": m["unit"]}
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "n": len(values),
                              "unit": m["unit"]}
    if args.trace:
        unscaled = {k: statistics.median(v) for k, v in out["layers"].items() if v}
    else:
        unscaled = {k: statistics.median(v) for k, v in end_to_end(out, scaled=False).items()}
    record = {
        "provenance": provenance(args, out, runs),
        "calibration_s": quartiles(out["cal_s"] if args.trace
                                   else [r["cal_s"] for r in out["reps"] if "cal_s" in r]),
        "unscaled_medians": unscaled,
        "pinned_seed": str(args.seed) in pins.get(args.workload, {}),
        "first_call_s": out.get("first_call_s"),
        "summary": summary,
    }
    if args.trace:
        record["checks"] = out["checks"]
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted > 0 else 1,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
