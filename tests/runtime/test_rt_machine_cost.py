"""Tests for the machine model and cost charging."""

from __future__ import annotations

import math

import pytest

from repro.runtime.cost import CostModel
from repro.runtime.machine import MachineConfig, laptop, phoenix_amd, phoenix_intel
from repro.runtime.stats import PEStats, RunStats


class TestMachineConfig:
    def test_phoenix_intel_table4(self):
        """Table IV values."""
        m = phoenix_intel(1)
        assert m.c_node == pytest.approx(121.9e9)
        assert m.beta_mem == pytest.approx(46.9e9)
        assert m.beta_link == pytest.approx(12.5e9)
        assert m.cache_bytes == 38 * 1024 * 1024
        assert m.line_bytes == 64

    def test_phoenix_geometry(self):
        """Dual-socket Xeon 6226: 24 cores/node; 256 nodes = 6144 cores."""
        m = phoenix_intel(256)
        assert m.cores_per_node == 24
        assert m.n_pes == 6144

    def test_phoenix_amd_geometry(self):
        m = phoenix_amd(1)
        assert m.cores_per_node == 128
        assert m.mem_bytes == 512 * 1024**3

    def test_node_of(self):
        m = laptop(nodes=3, cores=4)
        assert m.node_of(0) == 0
        assert m.node_of(4) == 1
        assert m.node_of(11) == 2
        with pytest.raises(ValueError):
            m.node_of(12)

    def test_colocated(self):
        m = laptop(nodes=2, cores=4)
        assert m.colocated(0, 3)
        assert not m.colocated(3, 4)

    def test_with_nodes(self):
        assert phoenix_intel(1).with_nodes(8).nodes == 8

    def test_with_time_scale(self):
        m = phoenix_intel(1).with_time_scale(0.5)
        assert m.tau == pytest.approx(1.0e-6)
        assert m.tau_inject == pytest.approx(0.5e-7)
        assert m.beta_link == pytest.approx(12.5e9)  # bandwidth untouched
        with pytest.raises(ValueError):
            m.with_time_scale(0)

    def test_barrier_time(self):
        m = phoenix_intel(4)
        assert m.barrier_time == pytest.approx(m.tau * math.log2(96))

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            MachineConfig("x", 0, 1, 1, 1e9, 1e9, 1e9, 1024, 64, 1024)
        with pytest.raises(ValueError):
            MachineConfig("x", 1, 1, 1, -1, 1e9, 1e9, 1024, 64, 1024)


class TestCostModel:
    def test_pe_granularity(self):
        m = phoenix_intel(2)
        core = CostModel(m, cores_per_pe=1)
        socket = CostModel(m, cores_per_pe=12)
        node = CostModel(m, cores_per_pe=24)
        assert core.n_pes == 48
        assert socket.n_pes == 4
        assert node.n_pes == 2
        assert core.pe_ops * 24 == pytest.approx(node.pe_ops)

    def test_pe_cannot_exceed_node(self):
        with pytest.raises(ValueError):
            CostModel(phoenix_intel(1), cores_per_pe=25)

    def test_charge_compute(self):
        cost = CostModel(laptop())
        pe = PEStats(0)
        dt = cost.charge_compute(pe, 1000)
        assert dt == pytest.approx(1000 / cost.pe_ops)
        assert pe.clock == pytest.approx(dt)
        assert pe.compute_ops == 1000

    def test_charge_mem(self):
        cost = CostModel(laptop())
        pe = PEStats(0)
        cost.charge_mem(pe, 1 << 20)
        assert pe.mem_bytes == 1 << 20
        assert pe.clock == pytest.approx((1 << 20) / cost.pe_mem_bw)

    def test_charge_put_remote(self):
        m = laptop(nodes=2, cores=2)
        cost = CostModel(m)
        pe = PEStats(0)
        arrival = cost.charge_put(pe, 3, 4096)  # PE 3 is on node 1
        # Sender pays injection + bandwidth; arrival adds tau.
        assert pe.clock == pytest.approx(m.tau_inject + 4096 / cost.pe_link_bw)
        assert arrival == pytest.approx(pe.clock + m.tau)
        assert pe.puts_issued == 1
        assert pe.bytes_sent == 4096

    def test_charge_put_local_is_memcpy(self):
        m = laptop(nodes=2, cores=2)
        cost = CostModel(m)
        pe = PEStats(0)
        arrival = cost.charge_put(pe, 1, 4096)  # same node
        assert pe.puts_issued == 0
        assert pe.local_memcpy_bytes == 4096
        assert arrival == pytest.approx(pe.clock)

    def test_busy_period_lazy_queue(self):
        # Server busy until t=10; jobs at t=0 (5s) and t=20 (5s).
        finish = CostModel.busy_period(10.0, [(20.0, 5.0), (0.0, 5.0)])
        assert finish == pytest.approx(25.0)  # idle gap 15..20 honoured

    def test_busy_period_empty(self):
        assert CostModel.busy_period(3.0, []) == 3.0

    def test_negative_clock_advance_rejected(self):
        pe = PEStats(0)
        with pytest.raises(ValueError):
            pe.advance(-1.0)


class TestRunStats:
    def test_totals(self):
        stats = RunStats(n_pes=3)
        stats.pe[0].kmers_generated = 5
        stats.pe[2].kmers_generated = 7
        assert stats.total_kmers == 12
        with pytest.raises(KeyError):
            stats.total("nonexistent")

    def test_receive_imbalance(self):
        stats = RunStats(n_pes=4)
        for pe, n in zip(stats.pe, [10, 10, 10, 70]):
            pe.elements_received = n
        assert stats.receive_imbalance() == pytest.approx(70 / 25)

    def test_receive_imbalance_empty(self):
        assert RunStats(n_pes=2).receive_imbalance() == 1.0

    def test_summary_keys(self):
        s = RunStats(n_pes=1).summary()
        for key in ("sim_time", "global_syncs", "kmers", "bytes_sent"):
            assert key in s

    def test_pe_list_validation(self):
        with pytest.raises(ValueError):
            RunStats(n_pes=2, pe=[PEStats(0)])


class TestThreadedRanks:
    def test_threaded_rank_loses_efficiency(self):
        from repro.runtime.cost import THREAD_EFFICIENCY_PER_DOUBLING

        m = phoenix_intel(1)
        plain = CostModel(m, cores_per_pe=12)
        threaded = CostModel(m, cores_per_pe=12, threaded=True)
        assert threaded.pe_ops < plain.pe_ops
        expected = THREAD_EFFICIENCY_PER_DOUBLING ** math.log2(12)
        assert threaded.thread_efficiency == pytest.approx(expected)

    def test_single_core_rank_unaffected(self):
        m = phoenix_intel(1)
        assert CostModel(m, cores_per_pe=1, threaded=True).thread_efficiency == 1.0

    def test_wider_teams_lose_more(self):
        from repro.runtime.machine import phoenix_amd

        intel = CostModel(phoenix_intel(1), cores_per_pe=12, threaded=True)
        amd = CostModel(phoenix_amd(1), cores_per_pe=64, threaded=True)
        assert amd.thread_efficiency < intel.thread_efficiency

    def test_hysortk_pays_it_dakc_does_not(self, small_reads):
        """The Fig. 9 mechanism: HySortK's threaded socket ranks are
        slower per core than DAKC's fine-grained PEs."""
        from repro.baselines.hysortk import hysortk_cost_model

        cost = hysortk_cost_model(phoenix_intel(1))
        assert cost.threaded and cost.thread_efficiency < 1.0
        dakc_cost = CostModel(phoenix_intel(1), cores_per_pe=1)
        assert dakc_cost.thread_efficiency == 1.0


class TestClockLedger:
    """One running sum over the ledger equals the ``charge_*`` calls made
    one at a time in key order: clocks bit for bit, counters, spans."""

    @staticmethod
    def _charge(cost, pe, kind, amount, local_hop, remote_hop):
        if kind == 0:
            cost.charge_compute(pe, amount)
        elif kind == 1:
            cost.charge_mem(pe, amount)
        else:
            cost.charge_put(pe, remote_hop if kind == 2 else local_hop, amount)

    @pytest.mark.parametrize("dilated", [False, True])
    def test_matches_sequential_charges(self, dilated):
        """Entries come in from ``add`` and ``add_one`` calls in any mix;
        under one key they keep the order they were added in.  A ledger
        of ``add_one`` entries only is charged entry by entry, one with
        ``add`` entries in one NumPy pass: both equal the calls made one
        at a time."""
        import numpy as np

        from repro.runtime.trace import Tracer

        rng = np.random.default_rng(7)
        for trial in range(200):
            traced = trial % 4 == 0
            a = CostModel(laptop(nodes=2, cores=2), tracer=Tracer() if traced else None,
                          dilation=[1.0, 1.75, 1.0, 1.0] if dilated else None)
            b = CostModel(laptop(nodes=2, cores=2), tracer=Tracer() if traced else None,
                          dilation=[1.0, 1.75, 1.0, 1.0] if dilated else None)
            pa = PEStats(pe=1, clock=float(rng.random()))
            pb = PEStats(pe=1, clock=pa.clock)
            n = int(rng.integers(0, 40))
            keys = rng.integers(0, 12, n)
            kinds = rng.integers(0, 4, n)
            amounts = rng.integers(0, 100_000, n)
            ledger = a.ledger(pa)
            # Cut the entries into runs; each run goes in by one add()
            # or by add_one() calls.
            cuts = np.sort(rng.integers(0, n + 1, 4))
            for lo, hi in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))):
                if rng.random() < 0.5:
                    ledger.add(kinds[lo:hi], keys[lo:hi], amounts[lo:hi])
                else:
                    for key, kind, amount in zip(keys[lo:hi], kinds[lo:hi], amounts[lo:hi]):
                        ledger.add_one(int(kind), int(key), int(amount))
            ledger.apply()
            for i in np.argsort(keys, kind="stable"):
                self._charge(b, pb, int(kinds[i]), int(amounts[i]), 0, 3)
            assert pa == pb
            if traced:
                assert a.tracer.spans == b.tracer.spans

    def test_clock_after(self):
        cost = CostModel(laptop(nodes=1, cores=2))
        pe = PEStats(pe=0, clock=1.0)
        ledger = cost.ledger(pe)
        ledger.add_one(ledger.COMPUTE, 4, 1000)
        ledger.add_one(ledger.MEMORY, 8, 2000)
        ledger.apply()
        after_compute = 1.0 + 1000 / cost.pe_ops
        assert ledger.clock_after([0, 3, 4, 7, 8, 9]) == [
            1.0, 1.0, after_compute, after_compute, pe.clock, pe.clock]

    def test_empty_ledger_keeps_the_clock(self):
        cost = CostModel(laptop(nodes=1, cores=2))
        pe = PEStats(pe=0, clock=2.5)
        ledger = cost.ledger(pe)
        ledger.apply()
        assert pe.clock == 2.5
        assert ledger.clock_after([0, 7]) == [2.5, 2.5]
