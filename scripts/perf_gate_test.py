#!/usr/bin/env python3
"""Unit tests for perf_gate.py on small fixture reports.

Run: python3 scripts/perf_gate_test.py
"""

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_gate  # noqa: E402

# A report in the shape the Go phases emit: labeled rows plus a phase
# object owning a declared bound.
REPORT = {
    "bench": "fixture",
    "results": [{"fs": "fx", "rows": [
        {"op": "crossing", "stock_ns": 100.0, "lxfi_ns": 200.0, "allocs_per_op": 0},
        {"op": "alloc", "stock_ns": 100.0, "lxfi_ns": 200.0, "allocs_per_op": 2.0},
    ]}],
    "phase": {
        "ratio": 1.2,
        "total_ns": 500.0,
        "bounds": {"ratio": {"min": 1, "max": 1.5}, "total_ns": {"max": 1000}},
    },
}


def report(edit=None):
    """A fresh copy of REPORT, changed in place by edit."""
    doc = copy.deepcopy(REPORT)
    if edit:
        edit(doc)
    return doc


def phase(doc, **fields):
    doc["phase"].update(fields)


def row(doc, op, **fields):
    next(r for r in doc["results"][0]["rows"] if r["op"] == op).update(fields)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def gate(self, cur, prev=None, summary=False):
        """Run the gate on fixture reports; return (exit code, stdout)."""
        paths = []
        for name, doc in (("prev.json", prev), ("cur.json", cur)):
            path = os.path.join(self.dir.name, name)
            if doc is not None:
                with open(path, "w") as f:
                    json.dump(doc, f)
            paths.append(path)
        out = io.StringIO()
        argv = (["--summary"] if summary else []) + paths
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = perf_gate.main(argv)
        return code, out.getvalue()

    def test_in_bounds_passes(self):
        self.assertEqual(self.gate(report())[0], 0)
        self.assertEqual(self.gate(report(), prev=report())[0], 0)

    def test_bound_edges_are_inclusive(self):
        self.assertEqual(self.gate(report(lambda d: phase(d, ratio=1.5)))[0], 0)
        self.assertEqual(self.gate(report(lambda d: phase(d, ratio=1)))[0], 0)

    def test_max_exceeded_fails(self):
        code, out = self.gate(report(lambda d: phase(d, ratio=1.51)))
        self.assertEqual(code, 1)
        self.assertIn("OUT OF BOUNDS", out)

    def test_min_exceeded_fails(self):
        self.assertEqual(self.gate(report(lambda d: phase(d, ratio=0.99)))[0], 1)

    def test_bounds_hold_with_a_baseline(self):
        self.assertEqual(self.gate(report(lambda d: phase(d, total_ns=1001.0)), prev=report())[0], 1)

    def test_missing_bounded_field_fails(self):
        code, out = self.gate(report(lambda d: d["phase"].pop("ratio")))
        self.assertEqual(code, 1)
        self.assertIn("MISSING", out)

    def test_bounds_leaves_are_not_delta_gated(self):
        prev = report(lambda d: phase(d, bounds={"total_ns": {"max": 10.0}}))
        self.assertEqual(self.gate(report(), prev=prev)[0], 0)
        self.assertNotIn("bounds", " ".join(p for p, _ in perf_gate.collect(REPORT, False)))

    def test_summary_omits_bounds_leaves(self):
        code, out = self.gate(report(), prev=report(), summary=True)
        self.assertEqual(code, 0)
        self.assertIn("phase", out)
        self.assertNotIn("bounds", out)
        self.assertNotIn("1000", out)

    def test_ns_regression_fails(self):
        self.assertEqual(self.gate(report(lambda d: row(d, "crossing", lxfi_ns=259.0)), prev=report())[0], 0)
        self.assertEqual(self.gate(report(lambda d: row(d, "crossing", lxfi_ns=261.0)), prev=report())[0], 1)

    def test_alloc_above_zero_baseline_fails(self):
        self.assertEqual(self.gate(report(lambda d: row(d, "crossing", allocs_per_op=0.02)), prev=report())[0], 1)

    def test_alloc_growth_within_threshold_passes(self):
        self.assertEqual(self.gate(report(lambda d: row(d, "alloc", allocs_per_op=2.5)), prev=report())[0], 0)

    def test_zeroed_leaf_fails(self):
        code, out = self.gate(report(lambda d: row(d, "crossing", stock_ns=0)), prev=report())
        self.assertEqual(code, 1)
        self.assertIn("STOPPED MEASURING", out)

    def test_new_and_removed_leaves_pass(self):
        self.assertEqual(self.gate(report(lambda d: row(d, "crossing", extra_ns=5.0)), prev=report())[0], 0)
        self.assertEqual(self.gate(report(), prev=report(lambda d: row(d, "crossing", extra_ns=5.0)))[0], 0)


if __name__ == "__main__":
    unittest.main()
