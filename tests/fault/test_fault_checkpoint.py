"""Tests for repro.fault.checkpoint and the fault wiring DST runs.

The crash and protection matrix runs through
:func:`repro.dst.sim.run_runtime`, the one function that wires a
:class:`FaultPlan` into ``dakc_count``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.dst.schedule import Schedule
from repro.dst import sim as dst_sim
from repro.dst.sim import run_runtime
from repro.fault import CheckpointStore, FaultPlan
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
            conv.inject_many(i % 4, [group(i % 4, (i * 3) % 4)])
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
        assert store.snapshots_taken == 1 and store.restored == [1, 3]

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


def run(reads, plan, *, protocol="1D", protect=True):
    cost = CostModel(laptop(nodes=2, cores=3))
    schedule = Schedule(protocol=protocol, protect=protect, plan=plan)
    return run_runtime(schedule, reads, 15, cost)


def exact(out, reads) -> bool:
    return out.error is None and out.counts == serial_count(reads, 15)


DATASETS = pytest.mark.parametrize("dataset,protocol", [
    ("small_reads", "1D"),
    ("heavy_reads", "2D"),
    ("small_reads", "3D"),
])


class TestCrashRecovery:
    """The acceptance matrix: a lossy wire plus a transient PE crash,
    across three dataset/topology combinations — protected runs equal
    the serial oracle exactly, unprotected runs are rejected."""

    PLAN = FaultPlan(seed=11, drop_prob=0.02, duplicate_prob=0.01,
                     crash_pes=(1,))

    @DATASETS
    def test_protected_counts_exact(self, request, dataset, protocol):
        reads = request.getfixturevalue(dataset)
        out = run(reads, self.PLAN, protocol=protocol)
        assert exact(out, reads)
        assert out.stats.recovery_time > 0.0
        assert out.barrier["crashed"] == out.barrier["restored"] == [1]

    @DATASETS
    def test_unprotected_run_rejected(self, request, dataset, protocol):
        reads = request.getfixturevalue(dataset)
        out = run(reads, self.PLAN, protocol=protocol, protect=False)
        assert out.counts is None
        assert out.error.startswith("DeliveryIntegrityError")
        assert out.barrier["crashed"] == [1] and out.barrier["restored"] == []

    def test_crash_without_checkpoint_is_fatal(self, small_reads, monkeypatch):
        """Reliable delivery alone cannot survive a crash — the PE's
        already-acknowledged state is gone; only a checkpoint saves it."""
        monkeypatch.setattr(dst_sim, "CheckpointStore", lambda cost: None)
        out = run(small_reads, FaultPlan(seed=1, crash_pes=(1,)))
        assert out.counts is None
        assert out.error.startswith("DeliveryIntegrityError")

    def test_crashed_pe_counted(self, small_reads):
        out = run(small_reads, FaultPlan(crash_pes=(2,)))
        assert exact(out, small_reads)
        assert out.stats.pe[2].crashes == 1


class TestChaosContract:
    def test_each_protection_level_upholds_its_contract(self, small_reads):
        """Fault-free and lossy plans protected, the lossy plan bare:
        exact, exact, and rejected loudly."""
        lossy = FaultPlan(seed=1, drop_prob=0.02, duplicate_prob=0.01)
        clean, protected, bare = (
            run(small_reads, plan, protect=protect)
            for plan, protect in ((FaultPlan(seed=0), True), (lossy, True),
                                  (lossy, False)))
        assert exact(clean, small_reads) and exact(protected, small_reads)
        assert protected.stats.total("retransmits") > 0
        assert clean.stats.total("retransmits") == 0
        assert bare.error.startswith("DeliveryIntegrityError")

    def test_bare_wire_misses_corruption_reliable_wire_catches_it(
            self, small_reads):
        """The boundary of the unprotected contract: a flipped bit keeps
        the occurrence weight the conservation check counts, so the bare
        run returns wrong counts without an error; the reliability
        layer's checksum discards and resends the group."""
        plan = FaultPlan(seed=0, corrupt_prob=0.05)
        bare = run(small_reads, plan, protect=False)
        assert bare.error is None and bare.conveyor.fault_stats.corrupted
        assert bare.counts != serial_count(small_reads, 15)
        protected = run(small_reads, plan)
        assert exact(protected, small_reads)
        assert protected.conveyor.checksum_failures > 0
