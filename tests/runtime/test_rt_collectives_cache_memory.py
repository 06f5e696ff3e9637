"""Tests for collectives, cache accounting and memory tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.cache import CacheAccounting, scan_misses
from repro.runtime.collectives import (
    ALLTOALL_BW_EFFICIENCY,
    alltoallv,
    barrier,
    exchange_matrix_bytes,
)
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.memory import (
    MemoryTracker,
    OutOfMemoryError,
    aggregation_memory_per_pe,
    table3_rows,
)
from repro.runtime.stats import RunStats
from repro.serve.cache import HotKeyCache
from repro.trace.replay import simulate_cache


class TestBarrier:
    def test_synchronises_clocks(self):
        cost = CostModel(laptop(nodes=2, cores=2))
        stats = RunStats(n_pes=4)
        stats.pe[2].clock = 5.0
        t = barrier(cost, stats)
        assert all(pe.clock == pytest.approx(t) for pe in stats.pe)
        assert t > 5.0

    def test_wait_time_recorded(self):
        cost = CostModel(laptop(nodes=2, cores=2))
        stats = RunStats(n_pes=4)
        stats.pe[0].clock = 10.0
        barrier(cost, stats)
        assert stats.pe[1].sync_wait_time == pytest.approx(10.0)
        assert stats.pe[0].sync_wait_time == pytest.approx(0.0)
        assert stats.global_syncs == 1


class TestAlltoallv:
    def _setup(self, p=4, nodes=2):
        cost = CostModel(laptop(nodes=nodes, cores=p // nodes))
        stats = RunStats(n_pes=p)
        return cost, stats

    def test_exchange_matrix_split(self):
        cost, _ = self._setup()
        m = np.full((4, 4), 8.0)
        send_off, send_on, recv_off, recv_on = exchange_matrix_bytes(cost, m)
        # Each PE sends 2x8 on-node (incl. self) and 2x8 off-node.
        assert send_on.tolist() == [16.0] * 4
        assert send_off.tolist() == [16.0] * 4
        assert recv_off.tolist() == [16.0] * 4

    def test_shape_validation(self):
        cost, _ = self._setup()
        with pytest.raises(ValueError):
            exchange_matrix_bytes(cost, np.zeros((2, 3)))

    def test_blocking_synchronises_everyone(self):
        cost, stats = self._setup()
        stats.pe[3].clock = 1.0
        m = np.zeros((4, 4))
        m[0, 3] = 1e6
        out = alltoallv(cost, stats, m, blocking=True)
        assert np.all(out == out[0])
        assert all(pe.clock == pytest.approx(out[0]) for pe in stats.pe)

    def test_blocking_slowest_gates_all(self):
        """The skew tax: one hot receiver delays every PE."""
        cost, stats = self._setup()
        hot = np.zeros((4, 4))
        hot[0, 2] = 1e9  # huge off-node transfer to PE 2
        t_hot = alltoallv(cost, stats, hot, blocking=True)[0]
        cost2, stats2 = self._setup()
        cold = np.zeros((4, 4))
        cold[0, 2] = 1e3
        t_cold = alltoallv(cost2, stats2, cold, blocking=True)[0]
        assert t_hot > 10 * t_cold

    def test_nonblocking_leaves_clocks(self):
        cost, stats = self._setup()
        m = np.zeros((4, 4))
        m[0, 3] = 1e6
        before = [pe.clock for pe in stats.pe]
        completion = alltoallv(cost, stats, m, blocking=False)
        assert [pe.clock for pe in stats.pe] == before
        assert completion[3] > before[3]

    def test_offnode_derated_bandwidth(self):
        cost, stats = self._setup()
        m = np.zeros((4, 4))
        m[0, 2] = 1e9  # node 0 -> node 1
        t = alltoallv(cost, stats, m, blocking=True)[0]
        assert t >= 1e9 / (cost.pe_link_bw * ALLTOALL_BW_EFFICIENCY)

    def test_onnode_at_memory_bandwidth(self):
        cost, stats = self._setup()
        m = np.zeros((4, 4))
        m[0, 1] = 1e9  # same node
        t = alltoallv(cost, stats, m, blocking=True)[0]
        # Double shm copy, but no NIC involvement.
        assert t < 1e9 / cost.pe_link_bw

    def test_collective_counted(self):
        cost, stats = self._setup()
        alltoallv(cost, stats, np.zeros((4, 4)))
        assert stats.global_syncs == 1
        assert all(pe.collectives == 1 for pe in stats.pe)


class TestCacheModel:
    def test_scan_misses(self):
        assert scan_misses(0, 64) == 1
        assert scan_misses(64 * 100, 64) == 101

    def test_scan_invalid(self):
        with pytest.raises(ValueError):
            scan_misses(-1, 64)

    def test_accounting_accumulates(self):
        acc = CacheAccounting(64)
        acc.stream(6400)
        acc.stream(6400)
        assert acc.misses == 2 * scan_misses(6400, 64)
        old = acc.reset()
        assert old > 0 and acc.misses == 0

    @staticmethod
    def lru(cache_bytes: int, line_bytes: int) -> HotKeyCache:
        """Exact LRU over line ids (admit on first sight)."""
        return HotKeyCache(cache_bytes // line_bytes, admit_threshold=1)

    def test_lru_sim_sequential(self):
        lru = self.lru(cache_bytes=1024, line_bytes=64)
        lines = np.arange(640 // 64, dtype=np.uint64)
        assert simulate_cache(lines, lru)["misses"] == 10
        # Re-access while resident: hits.
        assert simulate_cache(lines, lru)["misses"] == 0

    def test_lru_sim_eviction(self):
        lru = self.lru(cache_bytes=128, line_bytes=64)  # 2 lines
        sim = simulate_cache(np.array([0, 1, 2, 0], dtype=np.uint64), lru)
        assert sim["misses"] == 4  # line 2 evicted line 0: a miss again


class TestMemoryTracker:
    def test_alloc_free_peak(self):
        mt = MemoryTracker(2)
        mt.allocate(0, "a", 100)
        mt.allocate(0, "b", 50)
        assert mt.usage(0) == 150
        mt.free(0, "a", 100)
        assert mt.usage(0) == 50
        assert mt.peak(0) == 150
        assert mt.peak_any_pe() == 150

    def test_free_whole_category(self):
        mt = MemoryTracker(1)
        mt.allocate(0, "x", 70)
        mt.free(0, "x")
        assert mt.usage(0) == 0

    def test_over_free_rejected(self):
        mt = MemoryTracker(1)
        mt.allocate(0, "x", 10)
        with pytest.raises(ValueError):
            mt.free(0, "x", 20)

    def test_set_category_resize(self):
        mt = MemoryTracker(1)
        mt.set_category(0, "buf", 100)
        mt.set_category(0, "buf", 30)
        assert mt.usage(0) == 30
        assert mt.peak(0) == 100

    def test_negative_alloc_rejected(self):
        mt = MemoryTracker(1)
        with pytest.raises(ValueError):
            mt.allocate(0, "x", -1)

    @pytest.mark.parametrize("budget", [None, 900])
    def test_set_category_path_is_the_calls_in_turn(self, budget):
        """The conveyor stages a batch's trajectory in one step: same
        usage and peak, and the same overrun at the same size."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            sizes = rng.integers(0, 1_000, int(rng.integers(1, 12))).tolist()
            one, path = MemoryTracker(2, budget_bytes=budget), MemoryTracker(2, budget_bytes=budget)
            for mt in (one, path):
                mt.allocate(0, "other", 50)
                mt.set_category(0, "conveyor", 20)
            err_one = err_path = None
            try:
                for n in sizes:
                    one.set_category(0, "conveyor", n)
            except OutOfMemoryError as exc:
                err_one = (str(exc), exc.required)
            try:
                path.set_category_path(0, "conveyor", sizes)
            except OutOfMemoryError as exc:
                err_path = (str(exc), exc.required)
            assert err_one == err_path
            assert (one.usage(0), one.peak(0), one.current) == (
                path.usage(0), path.peak(0), path.current)


class TestTable3:
    def test_memory_per_pe_defaults(self):
        """Table III: L0 = 40K*P^x, L1 = 264K, L2 = 264*P, L3 = 80K."""
        p = 256
        out = aggregation_memory_per_pe("1D", p)
        assert out["L0"] == 40 * 1024 * p
        assert out["L1"] == 264 * 1024
        assert out["L2"] == 264 * p
        assert out["L3"] == 80_000

    def test_protocol_exponents(self):
        p = 4096
        l0_1d = aggregation_memory_per_pe("1D", p)["L0"]
        l0_2d = aggregation_memory_per_pe("2D", p)["L0"]
        l0_3d = aggregation_memory_per_pe("3D", p)["L0"]
        assert l0_1d == 40 * 1024 * p
        assert l0_2d == pytest.approx(40 * 1024 * p**0.5, rel=0.01)
        assert l0_3d == pytest.approx(40 * 1024 * p ** (1 / 3), rel=0.01)

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            aggregation_memory_per_pe("5D", 4)

    def test_rows(self):
        rows = table3_rows(64)
        assert len(rows) == 4
        assert rows[0]["Layer"] == "L0"

    def test_oom_error_payload(self):
        err = OutOfMemoryError("boom", required=10, available=5)
        assert err.required == 10 and err.available == 5


class TestMemoryBudget:
    def test_allocation_within_budget_ok(self):
        mt = MemoryTracker(2, budget_bytes=100)
        mt.allocate(0, "a", 100)
        assert mt.usage(0) == 100

    def test_exceeding_budget_raises(self):
        mt = MemoryTracker(2, budget_bytes=100)
        mt.allocate(0, "a", 80)
        with pytest.raises(OutOfMemoryError) as exc:
            mt.allocate(0, "b", 21)
        assert exc.value.required == 101
        assert exc.value.available == 100
        # Failed allocation must not be recorded.
        assert mt.usage(0) == 80

    def test_budget_is_per_pe(self):
        mt = MemoryTracker(2, budget_bytes=100)
        mt.allocate(0, "a", 100)
        mt.allocate(1, "a", 100)  # other PE unaffected

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            MemoryTracker(1, budget_bytes=0)

    def test_dakc_oom_fault_injection(self, small_reads, monkeypatch):
        """A starved MemoryTracker makes the simulated run die with
        OutOfMemoryError mid-Phase-2, like a real allocation failure."""
        from repro.core import phases
        from repro.core.dakc import dakc_count
        from repro.runtime.cost import CostModel
        from repro.runtime.machine import laptop

        starved = lambda n_pes: MemoryTracker(n_pes, budget_bytes=64)
        monkeypatch.setattr(phases, "MemoryTracker", starved)
        with pytest.raises(OutOfMemoryError):
            dakc_count(small_reads, 21, CostModel(laptop(nodes=2, cores=2)))
