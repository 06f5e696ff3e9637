"""Tests for the reference's FA-BSP actor scheduler (``tests/dakc_reference.py``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.conveyors import Conveyor, PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.stats import RunStats
from repro.runtime.topology import make_topology

from dakc_reference import Actor, ActorRuntime


class Producer(Actor):
    """Sends `total` single-element groups round-robin, then stops."""

    def __init__(self, pe, n_pes, total, conveyor):
        super().__init__(pe)
        self.n_pes = n_pes
        self.remaining = total
        self.conveyor = conveyor
        self.received = 0

    def step(self) -> bool:
        if self.remaining == 0:
            return False
        dst = (self.pe + self.remaining) % self.n_pes
        self.conveyor.inject_many(self.pe, [
            PacketGroup(self.pe, dst, "NORMAL",
                        np.array([self.remaining], dtype=np.uint64), None, 1, 8)
        ])
        self.remaining -= 1
        return self.remaining > 0

    def on_message(self, group, arrival):
        self.received += group.n_elements
        return 1e-9 * group.n_elements


class PingPong(Actor):
    """Echoes every received element once, up to a bounce budget."""

    def __init__(self, pe, conveyor, bounces):
        super().__init__(pe)
        self.conveyor = conveyor
        self.bounces = bounces
        self.kick = pe == 0
        self.seen = 0

    def step(self) -> bool:
        if self.kick:
            self.kick = False
            self.conveyor.inject_many(0, [
                PacketGroup(0, 1, "NORMAL", np.array([1], dtype=np.uint64), None, 1, 8)
            ])
        return False

    def on_message(self, group, arrival):
        self.seen += 1
        if self.bounces > 0:
            self.bounces -= 1
            other = 1 - self.pe
            self.conveyor.inject_many(self.pe, [
                PacketGroup(self.pe, other, "NORMAL",
                            group.kmers, None, 1, 8)
            ])
        return 1e-9


def build_runtime(p=4, nodes=2, c0=32):
    m = laptop(nodes=nodes, cores=p // nodes)
    cost = CostModel(m)
    stats = RunStats(n_pes=p)
    conv = Conveyor(cost, stats, make_topology("1D", p), c0_bytes=c0)
    return ActorRuntime(cost, stats, conv), conv, cost, stats


class TestActorRuntime:
    def test_all_messages_delivered(self):
        rt, conv, cost, stats = build_runtime()
        actors = [Producer(pe, 4, 25, conv) for pe in range(4)]
        rt.run_until_quiescent(actors)
        assert sum(a.received for a in actors) == 100

    def test_ends_with_barrier(self):
        rt, conv, cost, stats = build_runtime()
        actors = [Producer(pe, 4, 5, conv) for pe in range(4)]
        t = rt.run_until_quiescent(actors)
        assert stats.global_syncs == 1
        assert all(pe.clock == pytest.approx(t) for pe in stats.pe)

    def test_receive_stats_updated(self):
        rt, conv, cost, stats = build_runtime()
        actors = [Producer(pe, 4, 10, conv) for pe in range(4)]
        rt.run_until_quiescent(actors)
        assert stats.total("elements_received") == 40

    def test_reactive_messages_processed(self):
        """Messages generated *in response to* messages still drain."""
        rt, conv, cost, stats = build_runtime(p=2, nodes=1)
        a = PingPong(0, conv, bounces=3)
        b = PingPong(1, conv, bounces=3)
        rt.run_until_quiescent([a, b])
        # kick + 6 bounces = 7 deliveries total.
        assert a.seen + b.seen == 7

    def test_actor_count_validated(self):
        rt, conv, cost, stats = build_runtime()
        with pytest.raises(ValueError):
            rt.run_until_quiescent([Producer(0, 4, 1, conv)])

    def test_lazy_receive_charging(self):
        """Receiver clock advances via busy-period, not before arrival."""
        rt, conv, cost, stats = build_runtime(p=2, nodes=2, c0=8)
        actors = [Producer(0, 2, 50, conv), Producer(1, 2, 0, conv)]
        rt.run_until_quiescent(actors)
        # PE 1 did no source work but received traffic; its clock moved.
        assert stats.pe[1].elements_received > 0
