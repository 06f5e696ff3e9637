"""Tests for repro.fault.reliability: sequencing, dedup, retransmit."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dakc import DakcConfig, dakc_count
from repro.core.serial import serial_count
from repro.fault.models import FaultPlan
from repro.fault.reliability import (
    ReliabilityError,
    ReliableConveyor,
    _DedupWindow,
    group_checksum,
)
from repro.runtime.conveyors import PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop

from dakc_reference import dakc_count_reference


def reliable_factory(plan, **rel_kwargs):
    def factory(*args, **kwargs):
        return ReliableConveyor(*args, plan=plan, **rel_kwargs, **kwargs)

    return factory


def group(src, dst, n=4):
    return PacketGroup(src=src, dst=dst, kind="NORMAL",
                       kmers=np.arange(n, dtype=np.uint64), counts=None,
                       n_packets=1, payload_bytes=8 * n)


class TestDedupWindow:
    def test_in_order_acceptance(self):
        w = _DedupWindow()
        assert all(w.accept(i) for i in range(5))
        assert w.base == 5 and not w.pending

    def test_duplicates_rejected(self):
        w = _DedupWindow()
        assert w.accept(0)
        assert not w.accept(0)
        assert w.accept(1)
        assert not w.accept(0)
        assert not w.accept(1)

    def test_out_of_order_then_fill(self):
        w = _DedupWindow()
        assert w.accept(2)
        assert w.base == 0 and w.pending == {2}
        assert w.accept(0)
        assert w.accept(1)
        assert w.base == 3 and not w.pending
        assert not w.accept(2)

    def test_has(self):
        w = _DedupWindow()
        w.accept(0)
        w.accept(3)
        assert w.has(0) and w.has(3)
        assert not w.has(1) and not w.has(4)


class TestChecksum:
    def test_bit_flip_detected(self):
        g = group(0, 1, n=6)
        before = group_checksum(g)
        g.kmers[3] ^= np.uint64(1) << np.uint64(17)
        assert group_checksum(g) != before

    def test_heavy_counts_covered(self):
        g = PacketGroup(0, 1, "HEAVY", np.arange(3, dtype=np.uint64),
                        np.array([5, 6, 7], dtype=np.int64), 1, 48)
        before = group_checksum(g)
        g.counts[1] += 1
        assert group_checksum(g) != before


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", ["1D", "2D", "3D"])
    def test_exact_counts_under_faults(self, small_reads, protocol):
        """The acceptance bar: >= 1% drop + duplication + corruption,
        and the reliable counts still exactly equal the serial oracle."""
        ref = serial_count(small_reads, 15)
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=7, drop_prob=0.03, duplicate_prob=0.02,
                         corrupt_prob=0.01)
        counts, stats = dakc_count(
            small_reads, 15, cost, DakcConfig(protocol=protocol),
            conveyor_factory=reliable_factory(plan),
        )
        assert counts == ref
        assert stats.total("retransmits") > 0
        assert stats.total("acks_sent") > 0
        assert stats.recovery_time > 0.0

    def test_duplication_only_needs_no_retransmit(self, small_reads):
        ref = serial_count(small_reads, 15)
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=3, duplicate_prob=0.10)
        counts, stats = dakc_count(
            small_reads, 15, cost, DakcConfig(),
            conveyor_factory=reliable_factory(plan),
        )
        assert counts == ref
        assert stats.total("dup_drops") > 0
        assert stats.total("retransmits") == 0

    def test_reorder_and_delay_tolerated(self, small_reads):
        ref = serial_count(small_reads, 15)
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=5, delay_prob=0.2, reorder_prob=0.3)
        counts, stats = dakc_count(
            small_reads, 15, cost, DakcConfig(protocol="2D"),
            conveyor_factory=reliable_factory(plan),
        )
        assert counts == ref

    def test_exact_mode_protected(self, tiny_reads):
        ref = serial_count(tiny_reads, 11)
        cost = CostModel(laptop(nodes=2, cores=2))
        plan = FaultPlan(seed=2, drop_prob=0.05, duplicate_prob=0.05)
        counts, _ = dakc_count_reference(
            tiny_reads, 11, cost, DakcConfig(),
            conveyor_factory=reliable_factory(plan),
        )
        assert counts == ref

    def test_fault_free_overhead_small(self, small_reads):
        """The reliability machinery costs < 10% simulated time when
        the wire is clean."""
        cost = CostModel(laptop(nodes=2, cores=3))
        _, plain = dakc_count(small_reads, 15, cost, DakcConfig())
        counts, prot = dakc_count(
            small_reads, 15, cost, DakcConfig(),
            conveyor_factory=reliable_factory(FaultPlan()),
        )
        assert counts == serial_count(small_reads, 15)
        assert prot.total("retransmits") == 0
        assert prot.recovery_time == 0.0
        assert prot.sim_time < 1.10 * plain.sim_time


class TestGivingUp:
    def test_total_loss_raises_reliability_error(self, tiny_reads):
        cost = CostModel(laptop(nodes=2, cores=2))
        plan = FaultPlan(drop_prob=1.0)
        with pytest.raises(ReliabilityError, match="unacknowledged"):
            dakc_count(
                tiny_reads, 11, cost, DakcConfig(),
                conveyor_factory=reliable_factory(plan, max_rounds=3),
            )

    def test_max_rounds_validated(self):
        from repro.runtime.stats import RunStats
        from repro.runtime.topology import make_topology

        cost = CostModel(laptop(nodes=1, cores=4))
        with pytest.raises(ValueError, match="max_rounds"):
            ReliableConveyor(cost, RunStats(n_pes=4), make_topology("1D", 4),
                             max_rounds=0)
