#!/usr/bin/env python3
"""Generic perf gate for the BENCH_*.json CI artifacts.

Two passes run over every benchmark report; the script knows no
report's fields.

Declared bounds. A report object may carry a "bounds" block naming
sibling fields and the inclusive range each must lie in, e.g.
    {"x": 3, "y": 0, "bounds": {"x": {"min": 1, "max": 4}, "y": {"max": 0}}}
The Go phase that measures a field declares its budget there. A bounded
field that is missing or outside its range fails the gate, with or
without a baseline, so the very first run is already held to it.

Relative regressions. Every numeric leaf whose key ends in `_ns` or
`_crossings_per_byte`, plus every `allocs_per_op` leaf, is compared
with the previous run's report. The gate fails when a leaf grew by more
than THRESHOLD percent, when a leaf with a positive baseline now reads
0 (its phase stopped measuring), or when allocations regressed: a phase
that was allocation-free (at most ALLOC_ZERO_EPS allocs/op) must stay
so, and one that allocated may grow at most THRESHOLD percent. Phases
or files present in only one run are listed but never fail, so adding or
removing a benchmark does not wedge CI; a missing baseline (first run,
expired retention) skips this pass for that file.

Usage:
    perf_gate.py PREV.json CURRENT.json       # one report
    perf_gate.py PREV_DIR  CURRENT_DIR        # every BENCH_*.json in CURRENT_DIR
    perf_gate.py --summary PREV CUR           # benchstat-style delta table
                                              # over every numeric field,
                                              # informational only (exit 0)
"""

import glob
import json
import os
import sys

THRESHOLD = 30.0  # percent
# A phase whose baseline is allocation-free must stay below this many
# allocs/op (MemStats sampling noise allowance, well under one real
# allocation per op).
ALLOC_ZERO_EPS = 0.01


def objects(node, path=""):
    """Yield (path, object) for every JSON object in the report except
    the "bounds" blocks. An array element is named by its first string
    field (else its index) in place of the array's key, so the element
    {"name": "a", ...} of array "k" has path "a", not "k/0"."""
    if isinstance(node, list):
        for i, val in enumerate(node):
            yield from objects(val, join(path, label(val, i)))
    elif isinstance(node, dict):
        yield path, node
        for key, val in node.items():
            if key != "bounds":
                yield from objects(val, path if isinstance(val, list) else join(path, key))


def join(path, key):
    return f"{path}/{key}" if path else key


def label(node, index):
    if isinstance(node, dict):
        for val in node.values():
            if isinstance(val, str):
                return val
    return str(index)


def is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def delta_gated(key):
    return (key.endswith("_ns") or key.endswith("_crossings_per_byte")
            or key == "allocs_per_op")


def collect(doc, ns_only):
    out = {}
    for path, obj in objects(doc):
        for key, val in obj.items():
            if is_number(val) and (delta_gated(key) or not ns_only):
                out[(path, key)] = float(val)
    return out


def load(path):
    with open(path) as f:
        return json.load(f)


def pair_files(prev, cur):
    """Yield (name, prev_path_or_None, cur_path) report pairs."""
    if os.path.isdir(cur):
        for cpath in sorted(glob.glob(os.path.join(cur, "BENCH_*.json"))):
            name = os.path.basename(cpath)
            ppath = os.path.join(prev, name)
            yield name, (ppath if os.path.isfile(ppath) else None), cpath
    else:
        yield os.path.basename(cur), (prev if os.path.isfile(prev) else None), cur


def alloc_regressed(was, now):
    """The allocation-free guarantee is absolute: a phase whose baseline
    was 0 allocs/op fails on any measurable increase; a phase that
    already allocated may grow by at most THRESHOLD percent."""
    if was <= ALLOC_ZERO_EPS:
        return now > ALLOC_ZERO_EPS
    return 100.0 * (now - was) / was > THRESHOLD


def bound_failures(doc):
    """Check every declared bound against the field beside it."""
    failures = []
    for path, obj in objects(doc):
        for field, rng in sorted(obj.get("bounds", {}).items()):
            val, lo, hi = obj.get(field), rng.get("min"), rng.get("max")
            if not is_number(val):
                shown, flag = "missing", "  <-- BOUNDED FIELD MISSING"
            else:
                shown = "%.4g" % val
                out = (lo is not None and val < lo) or (hi is not None and val > hi)
                flag = "  <-- OUT OF BOUNDS" if out else ""
            print("%-40s %-26s %12s in [%s, %s]%s"
                  % (path, field, shown, "-" if lo is None else "%g" % lo,
                     "-" if hi is None else "%g" % hi, flag))
            if flag:
                failures.append((path, field))
    return failures


def compare(prev_vals, cur_vals, gate):
    failures = []
    for key in sorted(cur_vals):
        path, field = key
        now = cur_vals[key]
        was = prev_vals.get(key)
        tag = "%-40s %-26s" % key
        if was is None:
            print("%s %38s" % (tag, "(new phase)"))
            continue
        if field == "allocs_per_op":
            regressed = gate and alloc_regressed(was, now)
            flag = "  <-- ALLOC REGRESSION" if regressed else ""
            print("%s %12.4f -> %12.4f%s" % (tag, was, now, flag))
            if regressed:
                failures.append(key)
            continue
        if was <= 0:
            continue  # no baseline to take a ratio against
        delta = 100.0 * (now - was) / was
        stopped = now <= 0
        regressed = gate and (stopped or delta > THRESHOLD)
        flag = ("  <-- STOPPED MEASURING" if stopped else "  <-- REGRESSION") if regressed else ""
        print("%s %12.1f -> %12.1f (%+6.1f%%)%s" % (tag, was, now, delta, flag))
        if regressed:
            failures.append(key)
    for key in sorted(set(prev_vals) - set(cur_vals)):
        print("%-40s %-26s %38s" % (key + ("(phase removed)",)))
    return failures


def main(argv):
    summary = "--summary" in argv
    args = [a for a in argv if a != "--summary"]
    if len(args) != 2:
        sys.exit(__doc__)
    prev, cur = args

    failures = []
    saw_any = False
    for name, ppath, cpath in pair_files(prev, cur):
        print(f"== {name} ==")
        doc = load(cpath)
        cur_vals = collect(doc, ns_only=not summary)
        if ppath is None:
            print("   (no previous report; delta gate skipped for this file)")
            for key in sorted(cur_vals):
                print("%-40s %-26s %12.1f" % (key + (cur_vals[key],)))
        else:
            saw_any = True
            failures += compare(collect(load(ppath), ns_only=not summary), cur_vals,
                                gate=not summary)
        if not summary:
            failures += bound_failures(doc)
        print()

    if summary:
        print("delta summary: informational only")
        return 0
    if failures:
        print("perf gate: %d failure(s): a leaf regressed more than %.0f%% or "
              "stopped measuring, allocations rose above an allocation-free "
              "baseline, or a field broke its declared bounds"
              % (len(failures), THRESHOLD), file=sys.stderr)
        return 1
    if saw_any:
        print("perf gate: OK")
    else:
        print("perf gate: no baselines available; declared bounds only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
