"""Tests for repro.fault.checkpoint and the chaos harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.bsp import BspConfig, bsp_count
from repro.core.dakc import DakcConfig
from repro.core.serial import serial_count
from repro.fault import (
    CheckpointStore,
    FaultPlan,
    run_chaos,
)
from repro.runtime.conveyors import Conveyor, PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.stats import RunStats
from repro.runtime.topology import make_topology


def group(src, dst, n=4):
    return PacketGroup(src=src, dst=dst, kind="NORMAL",
                       kmers=np.arange(n, dtype=np.uint64), counts=None,
                       n_packets=1, payload_bytes=8 * n)


class TestCheckpointStore:
    def _loaded_conveyor(self):
        cost = CostModel(laptop(nodes=2, cores=2))
        stats = RunStats(n_pes=4)
        conv = Conveyor(cost, stats, make_topology("1D", 4))
        for i in range(12):
            conv.inject(group(i % 4, (i * 3) % 4))
        conv.finalize()
        return conv, cost, stats

    def test_snapshot_restore_roundtrip(self):
        conv, cost, stats = self._loaded_conveyor()
        store = CheckpointStore(cost)
        before = [list(q) for q in conv.delivered]
        store.snapshot_delivered(conv, stats)
        conv.delivered[1].clear()
        conv.delivered[3].clear()
        store.restore_delivered(conv, (1, 3), stats)
        assert [list(q) for q in conv.delivered] == before
        assert store.snapshots_taken == 1 and store.restores == 2

    def test_snapshot_charges_pe_clocks(self):
        conv, cost, stats = self._loaded_conveyor()
        clocks = [p.clock for p in stats.pe]
        CheckpointStore(cost).snapshot_delivered(conv, stats)
        assert any(p.clock > c for p, c in zip(stats.pe, clocks))

    def test_restore_adds_recovery_time(self):
        conv, cost, stats = self._loaded_conveyor()
        store = CheckpointStore(cost)
        store.snapshot_delivered(conv, stats)
        conv.delivered[0].clear()
        store.restore_delivered(conv, (0,), stats)
        assert stats.recovery_time > 0.0

    def test_restore_without_snapshot_raises(self):
        conv, cost, stats = self._loaded_conveyor()
        with pytest.raises(RuntimeError, match="no delivered-state checkpoint"):
            CheckpointStore(cost).restore_delivered(conv, (0,), stats)

    def test_bad_bw_fraction(self):
        cost = CostModel(laptop(nodes=1, cores=2))
        with pytest.raises(ValueError, match="bw_fraction"):
            CheckpointStore(cost, bw_fraction=0.0)


class TestCrashRecovery:
    """The acceptance matrix: a lossy wire plus a transient PE crash,
    across three dataset/topology combinations — protected runs equal
    the serial oracle exactly, unprotected runs are rejected."""

    PLAN = dict(drop_prob=0.02, duplicate_prob=0.01, crash_pes=(1,))

    @pytest.mark.parametrize("dataset,protocol", [
        ("small_reads", "1D"),
        ("heavy_reads", "2D"),
        ("small_reads", "3D"),
    ])
    def test_protected_counts_exact(self, request, dataset, protocol):
        reads = request.getfixturevalue(dataset)
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=11, **self.PLAN)
        out = run_chaos(reads, 15, cost, plan,
                        config=DakcConfig(protocol=protocol))
        assert out.ok and out.counts_match
        assert out.recovery_time > 0.0
        assert out.fault_summary["crashed_pes"] == [1]

    @pytest.mark.parametrize("dataset,protocol", [
        ("small_reads", "1D"),
        ("heavy_reads", "2D"),
        ("small_reads", "3D"),
    ])
    def test_unprotected_run_rejected(self, request, dataset, protocol):
        reads = request.getfixturevalue(dataset)
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=11, **self.PLAN)
        out = run_chaos(reads, 15, cost, plan,
                        config=DakcConfig(protocol=protocol), protect=False)
        assert not out.ok
        assert "DeliveryIntegrityError" in out.error
        assert out.passed  # detection is the unprotected contract

    def test_crash_without_checkpoint_is_fatal(self, small_reads):
        """Reliable delivery alone cannot survive a crash — the PE's
        already-acknowledged state is gone; only a checkpoint saves it."""
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=1, crash_pes=(1,))
        out = run_chaos(small_reads, 15, cost, plan, checkpoint=False)
        assert not out.ok
        assert "DeliveryIntegrityError" in out.error

    def test_crashed_pe_counted(self, small_reads):
        cost = CostModel(laptop(nodes=2, cores=3))
        out = run_chaos(small_reads, 15, cost, FaultPlan(crash_pes=(2,)))
        assert out.ok and out.counts_match


class TestBspCheckpoint:
    def test_superstep_snapshot_restores_crashed_pe(self, small_reads):
        """BSP's natural boundary: snapshot each superstep, wipe one
        PE's receive state mid-run, restore, and the final counts are
        still exact."""
        ref = serial_count(small_reads, 15)
        cost = CostModel(laptop(nodes=2, cores=3))
        store = CheckpointStore(cost)
        wiped = {"done": False}

        def hook(step, recv_plain, recv_pairs, stats):
            store.snapshot_bsp(recv_plain, recv_pairs, stats)
            if not wiped["done"]:
                recv_plain[1].clear()
                recv_pairs[1].clear()
                store.restore_bsp(recv_plain, recv_pairs, (1,), stats)
                wiped["done"] = True

        counts, stats = bsp_count(small_reads, 15, cost,
                                  BspConfig(batch_size=2_000),
                                  superstep_hook=hook)
        assert counts == ref
        assert wiped["done"]
        assert store.snapshots_taken > 1
        assert stats.recovery_time > 0.0

    def test_restore_bsp_without_snapshot_raises(self):
        cost = CostModel(laptop(nodes=1, cores=2))
        stats = RunStats(n_pes=2)
        with pytest.raises(RuntimeError, match="no BSP checkpoint"):
            CheckpointStore(cost).restore_bsp([[], []], [[], []], (0,), stats)


class TestChaosContract:
    def test_each_protection_level_upholds_its_contract(self, small_reads):
        """Fault-free and lossy plans protected, the lossy plan bare:
        exact, exact, and rejected loudly — never silently wrong."""
        cost = CostModel(laptop(nodes=2, cores=3))
        lossy = FaultPlan(seed=1, drop_prob=0.02, duplicate_prob=0.01)
        clean, protected, bare = (
            run_chaos(small_reads, 15, cost, plan, protect=protect)
            for plan, protect in ((FaultPlan(seed=0), True), (lossy, True),
                                  (lossy, False)))
        assert clean.passed and protected.passed and bare.passed
        assert clean.counts_match and protected.counts_match
        assert protected.retransmits > 0 and clean.retransmits == 0
        assert not bare.ok and bare.error.startswith("DeliveryIntegrityError")
