"""Smoke test of the e2e benchmark at 1/50 size.

Run with ``python -m pytest benchmarks/e2e -q``.  It is outside the
tier-1 ``testpaths`` on purpose: it spawns one process per workload.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SMALL = ["--seconds", "0.2", "--scale", "0.02"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

import compare  # noqa: E402  (pytest puts this directory on sys.path)
import run as e2e_run  # noqa: E402
import workloads  # noqa: E402


@lru_cache(maxsize=None)
def result(workload: str, trace: int, nonce: int = 0) -> dict:
    """Last stdout line of one small run (cached; *nonce* forces a rerun)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--trace", str(trace), *SMALL],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_is_within_the_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + WORKLOADS
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(workloads.WORKLOADS) == set(WORKLOADS)
    assert workloads.EXACT_METRICS <= {m["name"] for m in BENCH["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = result(workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0     # end-to-end metrics are never 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_bit_for_bit(workload):
    first, again = result(workload, 1), result(workload, 1, nonce=1)
    for name in workloads.EXACT_METRICS:
        assert first["metrics"][name] == again["metrics"][name], name
    busy = [n for n in workloads.EXACT_METRICS if first["metrics"][n]["value"]]
    assert busy, "every workload has exact counts of its own"


def test_a_flipped_count_is_a_failed_op(monkeypatch, capsys):
    real = workloads.count_kmers

    def tampered(*args, **kwargs):
        run = real(*args, **kwargs)
        counts = run.counts.counts.copy()
        counts[0] += 1
        bad = workloads.KmerCounts(run.counts.k, run.counts.kmers, counts)
        return dataclasses.replace(run, counts=bad)

    monkeypatch.setattr(workloads, "count_kmers", tampered)
    code = e2e_run.main(["--workload", "sim-dakc", "--seed", "7", *SMALL])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert out["correct"] is False and out["failed"] > 0


def test_compare_reads_what_run_writes(tmp_path, capsys):
    out = tmp_path / "runs.json"
    for trace in ("0", "1"):
        assert e2e_run.main(["--workload", "sim-dakc", "--seed", "7", "--trace", trace,
                             "--out", str(out), *SMALL]) == 0
    trace_doc = json.loads((tmp_path / "runs.sim-dakc.trace.json").read_text())
    assert {e["ph"] for e in trace_doc["traceEvents"]} == {"M", "X"}
    capsys.readouterr()
    assert compare.main([str(out), str(out)]) == 0
    report = capsys.readouterr().out
    assert "sim-dakc" in report and "worse" not in report
