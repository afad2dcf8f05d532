#!/usr/bin/env python3
"""Unit tests for benchdiff.py (stdlib only; run with python3)."""

import contextlib
import io
import json
import os
import tempfile
import unittest

import benchdiff


def run_diff(base, cand, threshold=10.0):
    """Runs benchdiff.main on two dicts; returns (exit_code, output)."""
    with tempfile.TemporaryDirectory() as d:
        bp = os.path.join(d, "base.json")
        cp = os.path.join(d, "cand.json")
        with open(bp, "w") as f:
            json.dump(base, f)
        with open(cp, "w") as f:
            json.dump(cand, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = benchdiff.main([bp, cp, "--threshold", str(threshold)])
        return code, out.getvalue()


class Direction(unittest.TestCase):
    def test_higher_is_worse_names(self):
        for path in (
            "serial_ms",
            "latency_ms.p95",
            "runs[0].ms",
            "stage_p95_us.core",
            "runs[1].imbalance",
            "requests.timeouts",
            "requests.failures",
            "cache.evictions",
            "shed_rate",
        ):
            self.assertEqual(benchdiff.direction(path), +1, path)

    def test_lower_is_worse_names(self):
        for path in (
            "runs[0].speedup",
            "throughput_rps",
            "cache.hit_rate",
            "requests.ok",
        ):
            self.assertEqual(benchdiff.direction(path), -1, path)

    def test_neutral_names(self):
        for path in ("flops", "product_nnz", "lhs.rows", "config.clients"):
            self.assertEqual(benchdiff.direction(path), 0, path)


class Diffing(unittest.TestCase):
    def test_identical_files_pass(self):
        doc = {"serial_ms": 10.0, "runs": [{"threads": 2, "ms": 5.0}]}
        code, out = run_diff(doc, doc)
        self.assertEqual(code, 0)
        self.assertIn("no regressions", out)

    def test_slower_ms_past_threshold_fails(self):
        code, out = run_diff({"serial_ms": 10.0}, {"serial_ms": 12.0})
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)
        self.assertIn("serial_ms", out)

    def test_slower_ms_within_threshold_passes(self):
        code, out = run_diff({"serial_ms": 10.0}, {"serial_ms": 10.5})
        self.assertEqual(code, 0)
        # The delta is still reported, just not fatal.
        self.assertIn("serial_ms: 10 -> 10.5", out)

    def test_faster_ms_never_fails(self):
        code, _ = run_diff({"serial_ms": 10.0}, {"serial_ms": 1.0})
        self.assertEqual(code, 0)

    def test_lower_speedup_fails(self):
        base = {"runs": [{"threads": 4, "speedup": 3.0}]}
        cand = {"runs": [{"threads": 4, "speedup": 2.0}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("runs[0].speedup", out)

    def test_neutral_metric_never_fails(self):
        code, _ = run_diff({"flops": 100}, {"flops": 100000})
        self.assertEqual(code, 0)

    def test_one_sided_keys_reported_not_fatal(self):
        base = {"serial_ms": 10.0}
        cand = {"serial_ms": 10.0, "runs": [{"worker_busy_us": [1, 2]}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("only in candidate", out)

    def test_custom_threshold(self):
        code, _ = run_diff({"serial_ms": 10.0}, {"serial_ms": 12.0}, threshold=25)
        self.assertEqual(code, 0)
        code, _ = run_diff({"serial_ms": 10.0}, {"serial_ms": 13.0}, threshold=25)
        self.assertEqual(code, 1)

    def test_degraded_candidate_neutralizes_speedup(self):
        base = {"degraded": False, "runs": [{"threads": 4, "speedup": 3.0}]}
        cand = {"degraded": True, "runs": [{"threads": 4, "speedup": 1.0}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("warning: degraded run (candidate)", out)
        self.assertIn("runs[0].speedup", out)  # still reported
        self.assertNotIn("REGRESSION", out)

    def test_degraded_baseline_also_warns(self):
        base = {"degraded": True, "runs": [{"imbalance": 1.0, "ms": 5.0}]}
        cand = {"degraded": False, "runs": [{"imbalance": 2.0, "ms": 9.0}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("warning: degraded run (baseline)", out)

    def test_degraded_still_gates_serial_ms(self):
        base = {"degraded": True, "serial_ms": 10.0}
        cand = {"degraded": True, "serial_ms": 20.0}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("serial_ms", out)
        self.assertIn("REGRESSION", out)

    def test_non_degraded_files_unchanged_behavior(self):
        base = {"degraded": False, "runs": [{"speedup": 3.0}]}
        cand = {"degraded": False, "runs": [{"speedup": 1.0}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertNotIn("warning: degraded", out)

    def test_parallelism_sensitive_classifier(self):
        for path in (
            "runs[0].speedup",
            "runs[2].imbalance",
            "runs[1].ms",
            "runs[0].worker_busy_us[3]",
        ):
            self.assertTrue(benchdiff.parallelism_sensitive(path), path)
        for path in ("serial_ms", "reference_ms", "flops", "runs[0].dense_rows"):
            self.assertFalse(benchdiff.parallelism_sensitive(path), path)

    def test_resident_and_budget_bytes_are_informational(self):
        base = {"history": {"resident_bytes": 1000, "budget_bytes": 65536}}
        cand = {"history": {"resident_bytes": 5000, "budget_bytes": 262144}}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("history.resident_bytes", out)
        self.assertNotIn("REGRESSION", out)

    def test_slo_block_only_in_candidate_is_not_fatal(self):
        # Old baselines predate PR 9's slo/history blocks; gaining them
        # must never fail the diff.
        base = {"serial_ms": 10.0}
        cand = {
            "serial_ms": 10.0,
            "slo": {"latency": {"fast_burn": 0.2}},
            "history": {"resident_bytes": 4096},
        }
        code, out = run_diff(base, cand)
        self.assertEqual(code, 0)
        self.assertIn("only in candidate", out)

    def test_nested_arrays_and_paths(self):
        base = {"runs": [{"ms": 1.0}, {"ms": 2.0}]}
        cand = {"runs": [{"ms": 1.0}, {"ms": 4.0}]}
        code, out = run_diff(base, cand)
        self.assertEqual(code, 1)
        self.assertIn("runs[1].ms", out)
        self.assertNotIn("runs[0].ms: ", out.split("REGRESSION")[1])


if __name__ == "__main__":
    unittest.main()
