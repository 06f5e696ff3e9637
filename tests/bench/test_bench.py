"""Tests for the benchmark harness (workloads, runner, tables)."""

from __future__ import annotations

import math

from repro.bench.harness import best_time, run_point, sweep_nodes
from repro.bench.tables import (
    format_bytes,
    format_speedup,
    format_table,
    format_time,
)
from repro.bench.workloads import (
    PAPER_BATCH,
    build_workload,
    fidelity_for_budget,
    scaled_batch_size,
)
from repro.seq.datasets import get_spec


class TestWorkloads:
    def test_budget_respected(self):
        w = build_workload("synthetic-24", 31, budget_kmers=100_000)
        assert 0.5 * 100_000 <= w.n_kmers(31) <= 2 * 100_000

    def test_cache_returns_same_object(self):
        a = build_workload("synthetic-24", 31, budget_kmers=50_000)
        b = build_workload("synthetic-24", 31, budget_kmers=50_000)
        assert a is b

    def test_coverage_override_grows_genome(self):
        dense = build_workload("synthetic-26", 31, budget_kmers=100_000)
        sparse = build_workload("synthetic-26", 31, budget_kmers=100_000, coverage=5)
        assert sparse.genome_len > dense.genome_len

    def test_fidelity_for_budget_clamps(self):
        spec = get_spec("synthetic-20")
        assert fidelity_for_budget(spec, 31, 10**18) == 1.0
        assert 0 < fidelity_for_budget(spec, 31, 1000) < 1e-3

    def test_scaled_batch_preserves_supersteps(self):
        """ceil(local/b) must match between paper scale and replica."""
        w = build_workload("synthetic-27", 31, budget_kmers=200_000)
        spec = w.spec
        for nodes in (2, 8, 32):
            full_local = spec.n_kmers(31) / nodes
            scaled_local = w.n_kmers(31) / nodes
            b = scaled_batch_size(w, 31)
            assert math.ceil(scaled_local / b) == math.ceil(full_local / PAPER_BATCH)


class TestRunPoint:
    def test_basic_run(self):
        w = build_workload("synthetic-20", 31, budget_kmers=60_000)
        pt = run_point("dakc", w, 31, nodes=2)
        assert not pt.oom
        assert pt.sim_time > 0
        assert pt.global_syncs == 3
        assert pt.row()["algorithm"] == "dakc"

    def test_oom_gate_fires(self):
        w = build_workload("synthetic-32", 31, budget_kmers=60_000)
        pt = run_point("pakman*", w, 31, nodes=16)
        assert pt.oom
        assert "OOM" in pt.row()["time"]
        assert math.isnan(pt.sim_time)

    def test_oom_gate_can_be_disabled(self):
        w = build_workload("synthetic-32", 31, budget_kmers=60_000)
        pt = run_point("pakman*", w, 31, nodes=16, enforce_oom_gate=False)
        assert not pt.oom

    def test_verification_hook(self):
        from repro.core.serial import serial_count

        w = build_workload("synthetic-20", 31, budget_kmers=60_000)
        ref = serial_count(w.reads, 31)
        pt = run_point("dakc", w, 31, nodes=2, verify_against=ref)
        assert not pt.oom

    def test_keep_stats(self):
        w = build_workload("synthetic-20", 31, budget_kmers=60_000)
        pt = run_point("dakc", w, 31, nodes=2, keep_stats=True)
        assert pt.stats is not None and pt.counts is not None

    def test_sweep_and_best(self):
        w = build_workload("synthetic-20", 31, budget_kmers=60_000)
        pts = sweep_nodes(["dakc", "hysortk"], w, 31, [1, 2], verify=True)
        assert len(pts) == 4
        assert best_time(pts, "dakc") > 0
        assert math.isnan(best_time(pts, "kmc3"))

    def test_scaled_machine_consistency(self):
        """Time scaling must not change the counting result."""
        from repro.core.serial import serial_count

        w = build_workload("synthetic-20", 31, budget_kmers=60_000)
        ref = serial_count(w.reads, 31)
        a = run_point("dakc", w, 31, nodes=2, scale_time=False, verify_against=ref)
        b = run_point("dakc", w, 31, nodes=2, scale_time=True, verify_against=ref)
        assert not a.oom and not b.oom


class TestTables:
    def test_format_time_units(self):
        assert format_time(120) == "120 s"
        assert format_time(1.5) == "1.50 s"
        assert format_time(2e-3) == "2.00 ms"
        assert format_time(3e-6) == "3.00 us"
        assert format_time(5e-10) == "0.5 ns"
        assert format_time(float("nan")) == "-"

    def test_format_bytes(self):
        assert format_bytes(1.5e9) == "1.50 GB"
        assert format_bytes(100) == "100 B"

    def test_format_speedup(self):
        assert format_speedup(2.345) == "2.35x"
        assert format_speedup(float("nan")) == "-"

    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "== T =="
        assert "222" in out

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="T")
