"""Tests of the benchmark's own checks and metric arithmetic.

Run from the repository root:

    python3 -m unittest discover -s simbench -p 'test_*.py'

The traced-versus-untraced comparison itself is made by the Rust probes
(`cargo test --manifest-path simbench/Cargo.toml` covers it); these tests
pin how `run.py` turns its verdicts and digest mismatches into failed
operations.
"""

import unittest

import run

PINS = {"fleet-day": {"7": "aaaa"}, "design-sweep": {"7": "bbbb"}}


def rep(digest, ops=100, ok=True, error=None, workload="fleet-day"):
    return {"workload": workload, "digest": digest, "ops": ops, "ok": ok, "error": error}


class CountFailed(unittest.TestCase):
    def test_matching_digests_fail_nothing(self):
        items = [rep("aaaa"), rep("aaaa")]
        self.assertEqual(run.count_failed(items, PINS, 7), 0)

    def test_digest_mismatch_fails_that_repetitions_operations(self):
        items = [rep("aaaa"), rep("ffff", ops=40), rep("aaaa")]
        self.assertEqual(run.count_failed(items, PINS, 7), 40)

    def test_each_workload_is_compared_with_its_own_pin(self):
        items = [rep("aaaa"), rep("aaaa", ops=74, workload="design-sweep")]
        self.assertEqual(run.count_failed(items, PINS, 7), 74)

    def test_traced_and_untraced_mismatch_fails_its_operations(self):
        traced = {"label": "traced drive equals untraced run", "workload": None,
                  "digest": None, "ops": 3000, "ok": False, "error": None}
        items = [rep("aaaa"), traced]
        self.assertEqual(run.count_failed(items, PINS, 7), 3000)

    def test_simulator_error_fails_its_operations(self):
        items = [rep(None, ops=55, ok=False, error="unmappable operator")]
        self.assertEqual(run.count_failed(items, PINS, 7), 55)

    def test_unpinned_seed_requires_repetitions_to_agree(self):
        items = [rep("cccc"), rep("cccc"), rep("dddd", ops=30)]
        self.assertEqual(run.count_failed(items, PINS, 8), 30)
        self.assertEqual(run.count_failed(items[:2], PINS, 8), 0)


class Metrics(unittest.TestCase):
    def test_host_seconds_scale_to_reference_seconds(self):
        slow = run.CAL_REFERENCE_S * 2  # the host ran at half the reference speed
        out = {
            "vmhwm_kib": 2048,
            "paper_gap_pct": 24.0,
            "reps": [{"setup_s": 0.002, "run_s": 1.0, "cal_s": slow, "sim_requests": 1000,
                      "design_points": 1, "error": None}],
        }
        m = run.end_to_end(out)
        self.assertAlmostEqual(m["sim_requests_per_s"][0], 2000.0)
        self.assertAlmostEqual(m["setup_s"][0], 0.001)
        self.assertAlmostEqual(m["design_points_per_s"][0], 2.0)
        self.assertEqual(m["peak_rss_mb"], [2.0])
        raw = run.end_to_end(out, scaled=False)
        self.assertAlmostEqual(raw["sim_requests_per_s"][0], 1000.0)

    def test_only_host_time_layers_are_scaled(self):
        spec = {"per_layer": [{"name": "cluster.run_s", "unit": "s"},
                              {"name": "serving.steps", "unit": "count"}]}
        out = {"cal_s": [run.CAL_REFERENCE_S * 2],
               "layers": {"cluster.run_s": [1.0], "serving.steps": [10.0]}}
        layers = run.per_layer(out, spec)
        self.assertAlmostEqual(layers["cluster.run_s"][0], 0.5)
        self.assertEqual(layers["serving.steps"], [10.0])

    def test_processes_pool_repetitions_and_take_median_rss(self):
        outs = [{"paper_gap_pct": 24.0, "vmhwm_kib": kib, "reps": [{"run_s": kib}]}
                for kib in (300, 100, 200)]
        merged = run.merge(outs)
        self.assertEqual([r["run_s"] for r in merged["reps"]], [300, 100, 200])
        self.assertEqual(merged["vmhwm_kib"], 200)
        self.assertEqual(outs[0]["reps"], [{"run_s": 300}])

    def test_quartiles(self):
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))
        med, q1, q3 = run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual(med, 3.0)
        self.assertLess(q1, med)
        self.assertGreater(q3, med)


if __name__ == "__main__":
    unittest.main()
