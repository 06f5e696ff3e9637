#!/usr/bin/env python3
"""Compare two sets of e2e runs: ``compare.py A.json B.json``.

A and B are documents written by ``run.py --out`` (one ``--out`` file
collects any number of runs).  For every (workload, end-to-end metric)
it prints each side's median and quartiles, the ratio B/A with its
base, and a verdict from the bounds in ``BENCHMARK.json``:

``better``
    B's median beats A's by more than A's own run-to-run spread;
``worse``
    B's median is worse than A's by more than the metric's bound;
``same``
    B is not worse by more than the bound, nor better by more than
    A's spread;
``unresolved``
    the spread of A or B (quartile distance ÷ median) exceeds the
    bound, so the runs cannot settle it -- unless every run of one
    side beats every run of the other.

Per-layer metrics that are exact counts (``workloads.EXACT_METRICS``)
must be identical between traced runs of the same workload and seed.
Exit code 1 when any metric is ``worse`` or any exact count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from workloads import EXACT_METRICS  # noqa: E402


def load_runs(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


def samples(runs: list[dict], trace: int) -> dict:
    """``(workload, metric) -> [values]`` over the runs with this trace flag."""
    out = defaultdict(list)
    for run in runs:
        if run["trace"] == trace:
            for name, m in run["metrics"].items():
                out[run["workload"], name].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    flip = 1.0 if better == "higher" else -1.0   # so that larger is better
    a1, a2, a3 = quartiles(a)
    b1, b2, b3 = quartiles(b)
    gain = flip * (b2 - a2) / a2
    spread_a, spread_b = (a3 - a1) / a2, (b3 - b1) / b2
    if max(spread_a, spread_b) > bound:
        good_a, good_b = [flip * v for v in a], [flip * v for v in b]
        if min(good_b) > max(good_a):
            return "better"
        if max(good_b) < min(good_a):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > spread_a else "same"


def exact_mismatches(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    def traced(runs):
        return {(r["workload"], r["seed"], r["scale"]): r["metrics"]
                for r in runs if r["trace"] == 1}

    a, b = traced(runs_a), traced(runs_b)
    out = []
    for key in sorted(set(a) & set(b)):
        for name in sorted(EXACT_METRICS):
            va, vb = a[key][name]["value"], b[key][name]["value"]
            if va != vb:
                out.append(f"{key[0]} seed={key[1]} {name}: {va!r} != {vb!r}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {m["name"]: m for m in bench["end_to_end"]}
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    a, b = samples(runs_a, 0), samples(runs_b, 0)

    bad = 0
    print(f"{'workload':14s} {'metric':18s} {'A q1/med/q3 (n)':38s} "
          f"{'B q1/med/q3 (n)':38s} {'B/A':>7s}  {'spreadA':>7s} {'bound':>5s}  verdict")
    for w in (w["name"] for w in bench["workloads"]):
        for name, m in spec.items():
            va, vb = a.get((w, name)), b.get((w, name))
            if not va or not vb:
                continue
            a1, a2, a3 = quartiles(va)
            b1, b2, b3 = quartiles(vb)
            v = verdict(va, vb, m["better"], m["bound"])
            bad += v == "worse"
            print(f"{w:14s} {name:18s} "
                  f"{f'{a1:.5g}/{a2:.5g}/{a3:.5g} ({len(va)})':38s} "
                  f"{f'{b1:.5g}/{b2:.5g}/{b3:.5g} ({len(vb)})':38s} "
                  f"{b2 / a2:7.3f}  {(a3 - a1) / a2:7.3f} {m['bound']:5.2f}  {v}"
                  f"  [base A median {a2:.5g} {m['unit']}]")

    mismatches = exact_mismatches(runs_a, runs_b)
    for line in mismatches:
        print(f"EXACT COUNT CHANGED: {line}")
    if not mismatches:
        print("exact per-layer counts: identical wherever both sides traced "
              "the same workload and seed")
    return 1 if bad or mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
