"""Tests for repro.fault.injector: the faulty conveyor wire."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dakc import DakcConfig, DeliveryIntegrityError, dakc_count
from repro.fault.injector import FaultyConveyor
from repro.fault.models import FaultPlan
from repro.runtime.conveyors import Conveyor, PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.stats import RunStats
from repro.runtime.topology import make_topology


def make_faulty(plan, p=4, protocol="1D", c0=256, nodes=2):
    m = laptop(nodes=nodes, cores=p // nodes)
    cost = CostModel(m)
    stats = RunStats(n_pes=p)
    conv = FaultyConveyor(cost, stats, make_topology(protocol, p),
                          c0_bytes=c0, plan=plan)
    return conv, cost, stats


def group(src, dst, n=4):
    return PacketGroup(src=src, dst=dst, kind="NORMAL",
                       kmers=np.arange(n, dtype=np.uint64), counts=None,
                       n_packets=1, payload_bytes=8 * n)


class TestDrop:
    def test_drop_all_loses_remote_traffic(self):
        conv, cost, stats = make_faulty(FaultPlan(drop_prob=1.0))
        for _ in range(10):
            conv.inject_many(0, [group(0, 2)])
        conv.finalize()
        assert conv.delivered_elements(2) == 0
        assert conv.fault_stats.dropped == conv.fault_stats.traversals > 0
        # The sender still paid for the PUTs: drops happen on the wire.
        assert stats.pe[0].puts_issued + stats.pe[0].local_memcpy_bytes > 0

    def test_self_sends_never_dropped(self):
        conv, *_ = make_faulty(FaultPlan(drop_prob=1.0))
        conv.inject_many(1, [group(1, 1)])
        assert conv.delivered_elements(1) == 4


class TestDuplicate:
    def test_duplicate_all_doubles_delivery(self):
        conv, *_ = make_faulty(FaultPlan(duplicate_prob=1.0))
        for _ in range(5):
            conv.inject_many(0, [group(0, 2)])
        conv.finalize()
        assert conv.delivered_elements(2) == 2 * 5 * 4
        assert conv.fault_stats.duplicated == conv.fault_stats.traversals

    def test_duplicate_copy_arrives_later(self):
        plan = FaultPlan(duplicate_prob=1.0, duplicate_lag=1e-3)
        conv, *_ = make_faulty(plan)
        conv.inject_many(0, [group(0, 2)])
        conv.finalize()
        arrivals = sorted(a for a, _ in conv.delivered[2])
        assert len(arrivals) == 2
        assert arrivals[1] - arrivals[0] == pytest.approx(plan.duplicate_lag)


class TestCorrupt:
    def test_corruption_flips_payload_not_source(self):
        conv, *_ = make_faulty(FaultPlan(corrupt_prob=1.0))
        g = group(0, 2, n=8)
        original = g.kmers.copy()
        conv.inject_many(g.src, [g])
        conv.finalize()
        (_, got), = conv.delivered[2]
        assert got.n_elements == 8  # element count preserved
        assert not np.array_equal(got.kmers, original)  # payload damaged
        assert np.array_equal(g.kmers, original)  # sender copy pristine
        # Exactly one bit differs.
        diff = np.bitwise_xor(got.kmers, original)
        assert sum(bin(int(d)).count("1") for d in diff) == 1


class TestBenign:
    def test_benign_plan_matches_stock_conveyor(self):
        def drive(conv):
            rng = np.random.default_rng(5)
            for _ in range(40):
                s, d = rng.integers(0, 4, size=2)
                conv.inject_many(int(s), [group(int(s), int(d))])
            conv.finalize()
            return ([conv.delivered_elements(pe) for pe in range(4)],
                    [p.clock for p in conv.stats.pe])

        m = laptop(nodes=2, cores=2)
        plain = Conveyor(CostModel(m), RunStats(n_pes=4),
                         make_topology("1D", 4), c0_bytes=256)
        faulty, *_ = make_faulty(FaultPlan())
        assert drive(plain) == drive(faulty)
        assert faulty.fault_stats.traversals == 0


class TestStraggler:
    def test_straggler_plan_installs_dilation(self):
        plan = FaultPlan(straggler_pes=(1,), straggler_factor=3.0)
        conv, cost, _ = make_faulty(plan)
        assert cost.dilation == [1.0, 3.0, 1.0, 1.0]


class TestDakcIntegration:
    @pytest.mark.parametrize("protocol", ["1D", "2D", "3D"])
    def test_unprotected_faults_fail_conservation(self, small_reads, protocol):
        cost = CostModel(laptop(nodes=2, cores=3))
        plan = FaultPlan(seed=1, drop_prob=0.05, duplicate_prob=0.02)

        def factory(*args, **kwargs):
            return FaultyConveyor(*args, plan=plan, **kwargs)

        with pytest.raises(DeliveryIntegrityError):
            dakc_count(small_reads, 15, cost, DakcConfig(protocol=protocol),
                       conveyor_factory=factory)
        cost.set_dilation(None)
