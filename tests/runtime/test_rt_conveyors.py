"""Tests for the L0/L1 conveyor engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.runtime.conveyors import Conveyor, PacketGroup
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.memory import MemoryTracker
from repro.runtime.stats import RunStats
from repro.runtime.topology import HEADER_BYTES, Topology1D, make_topology


def make_conveyor(p=4, protocol="1D", c0=256, c1=8, nodes=2):
    m = laptop(nodes=nodes, cores=p // nodes)
    cost = CostModel(m)
    assert cost.n_pes == p
    stats = RunStats(n_pes=p)
    mem = MemoryTracker(p)
    conv = Conveyor(cost, stats, make_topology(protocol, p), mem,
                    c0_bytes=c0, c1_packets=c1)
    return conv, cost, stats, mem


def group(src, dst, n=4, kind="NORMAL"):
    kmers = np.arange(n, dtype=np.uint64)
    counts = np.full(n, 3, dtype=np.int64) if kind == "HEAVY" else None
    bytes_per = 16 if kind == "HEAVY" else 8
    return PacketGroup(src=src, dst=dst, kind=kind, kmers=kmers, counts=counts,
                       n_packets=1, payload_bytes=n * bytes_per)


class TestDelivery:
    def test_all_payloads_arrive(self):
        conv, cost, stats, _ = make_conveyor()
        sent = {d: 0 for d in range(4)}
        for i in range(40):
            g = group(i % 4, (i * 7) % 4)
            sent[g.dst] += g.n_elements
            conv.inject_many(g.src, [g])
        conv.finalize()
        for d in range(4):
            assert conv.delivered_elements(d) == sent[d]

    def test_self_send_immediate(self):
        conv, *_ = make_conveyor()
        conv.inject_many(2, [group(2, 2)])
        assert conv.delivered_elements(2) == 4
        assert conv.staged_bytes(2) == 0

    def test_flush_triggered_at_c0(self):
        conv, cost, stats, _ = make_conveyor(c0=64)
        # Two 32-byte groups to a remote destination fill the 64 B buffer.
        conv.inject_many(0, [group(0, 2)])
        assert stats.pe[0].l0_flushes == 0
        conv.inject_many(0, [group(0, 2)])
        assert stats.pe[0].l0_flushes == 1

    def test_payload_preserved_exactly(self):
        conv, *_ = make_conveyor()
        g = group(0, 3, n=7)
        conv.inject_many(g.src, [g])
        conv.finalize()
        (arrival, got), = conv.delivered[3]
        assert np.array_equal(got.kmers, g.kmers)
        assert got.kind == "NORMAL"

    def test_arrival_times_nondecreasing_per_flush(self):
        conv, cost, stats, _ = make_conveyor(c0=32)
        for _ in range(10):
            conv.inject_many(0, [group(0, 2)])
        conv.finalize()
        arrivals = [a for a, _ in conv.delivered[2]]
        assert arrivals == sorted(arrivals)


class TestCostCharging:
    def test_remote_put_charges_sender(self):
        conv, cost, stats, _ = make_conveyor(nodes=4, p=4)
        conv.inject_many(0, [group(0, 1)])
        conv.finalize()
        assert stats.pe[0].puts_issued >= 1
        assert stats.pe[0].bytes_sent >= 32

    def test_local_put_is_memcpy(self):
        conv, cost, stats, _ = make_conveyor(nodes=1, p=4)
        conv.inject_many(0, [group(0, 1)])  # same node
        conv.finalize()
        assert stats.pe[0].puts_issued == 0
        assert stats.pe[0].local_memcpy_bytes >= 32

    def test_l1_staging_counted(self):
        conv, cost, stats, _ = make_conveyor(c0=10_000, c1=2)
        for _ in range(6):
            conv.inject_many(0, [group(0, 2)])
        assert stats.pe[0].l1_flushes == 3


class TestHeaders:
    def test_1d_no_header_bytes(self):
        conv, cost, stats, _ = make_conveyor(protocol="1D")
        conv.inject_many(0, [group(0, 2)])
        assert stats.total("header_bytes") == 0

    def test_2d_header_bytes_per_packet(self):
        conv, cost, stats, _ = make_conveyor(protocol="2D")
        g = group(0, 3)
        conv.inject_many(g.src, [g])
        assert stats.pe[0].header_bytes == HEADER_BYTES

    def test_header_overhead_fraction(self):
        """Sec. IV-C: naive single-k-mer packets pay 4B header per 8B
        payload through 2D — 1/3 of the wire volume."""
        conv, cost, stats, _ = make_conveyor(protocol="2D", p=4)
        g = PacketGroup(src=0, dst=3, kind="NORMAL",
                        kmers=np.arange(30, dtype=np.uint64), counts=None,
                        n_packets=30, payload_bytes=240)
        wire = conv.group_wire_bytes(g)
        assert wire == 240 + 30 * HEADER_BYTES
        assert (wire - 240) / wire == pytest.approx(1 / 3)


class TestMultiHop:
    @pytest.mark.parametrize("protocol", ["2D", "3D"])
    def test_relayed_delivery_complete(self, protocol):
        p = 16
        conv, cost, stats, _ = make_conveyor(p=p, protocol=protocol, nodes=4, c0=64)
        rng = np.random.default_rng(0)
        sent = np.zeros(p, dtype=int)
        for _ in range(100):
            s, d = rng.integers(0, p, size=2)
            conv.inject_many(int(s), [group(int(s), int(d))])
            sent[d] += 4
        conv.finalize()
        for d in range(p):
            assert conv.delivered_elements(d) == sent[d]

    def test_relays_counted(self):
        p = 16
        conv, cost, stats, _ = make_conveyor(p=p, protocol="2D", nodes=4, c0=64)
        t = conv.topology
        # Find an off-axis pair (2 hops).
        pair = next(
            (s, d) for s in range(p) for d in range(p) if t.hop_count(s, d) == 2
        )
        conv.inject_many(pair[0], [group(*pair)])
        conv.finalize()
        assert stats.total("hops_forwarded") >= 1


class TestMemoryAccounting:
    def test_staged_bytes_tracked_and_released(self):
        conv, cost, stats, mem = make_conveyor(c0=10_000)
        conv.inject_many(0, [group(0, 2)])
        assert conv.staged_bytes(0) == 32
        assert mem.usage(0) == 32
        conv.finalize()
        assert conv.staged_bytes(0) == 0
        assert mem.usage(0) == 0
        assert mem.peak(0) == 32


class TestValidation:
    def test_topology_size_mismatch(self):
        m = laptop(nodes=1, cores=4)
        with pytest.raises(ValueError, match="topology size"):
            Conveyor(CostModel(m), RunStats(n_pes=4), make_topology("1D", 8))

    def test_bad_capacities(self):
        m = laptop(nodes=1, cores=4)
        cost = CostModel(m)
        with pytest.raises(ValueError):
            Conveyor(cost, RunStats(n_pes=4), make_topology("1D", 4), c0_bytes=4)
        with pytest.raises(ValueError):
            Conveyor(cost, RunStats(n_pes=4), make_topology("1D", 4), c1_packets=0)


class TestL1Accounting:
    def test_l1_flush_charges_wire_bytes(self):
        """The C1 staging copy moves the actual wire bytes — payload
        plus routing headers on 2D — not a nominal 8 B per packet."""
        conv, cost, stats, _ = make_conveyor(protocol="2D", c0=10_000, c1=2)
        conv.inject_many(0, [group(0, 3)])  # 32 B payload + 4 B header each
        assert stats.pe[0].mem_bytes == 0  # one packet: below C1
        conv.inject_many(0, [group(0, 3)])
        assert stats.pe[0].l1_flushes == 1
        assert stats.pe[0].mem_bytes == 2 * (32 + HEADER_BYTES)

    def test_l1_flush_charges_payload_on_1d(self):
        conv, cost, stats, _ = make_conveyor(protocol="1D", c0=10_000, c1=2)
        conv.inject_many(0, [group(0, 2)])
        conv.inject_many(0, [group(0, 2)])
        assert stats.pe[0].mem_bytes == 64

    def test_partial_l1_batch_charged_at_flush(self):
        """Packets short of a full C1 batch still pay their staging
        copy when the L0 buffer is flushed (end-of-stream)."""
        conv, cost, stats, _ = make_conveyor(protocol="1D", c0=10_000, c1=8)
        for _ in range(3):
            conv.inject_many(0, [group(0, 2)])
        assert stats.pe[0].mem_bytes == 0  # still pending below C1
        conv.flush_pe(0)
        assert stats.pe[0].mem_bytes == 96
        assert stats.pe[0].l0_flushes == 1


class _CyclicTopology(Topology1D):
    """Deliberately broken routing: every route detours through a
    relay, so a relayed group never gets closer to its destination."""

    max_hops = 2

    def route(self, src, dst):
        self._check(src, dst)
        if src == dst:
            return []
        relay = next(q for q in range(self.p) if q not in (src, dst))
        return [relay, dst]


class TestDrainTermination:
    def test_cyclic_route_hits_hop_bound(self):
        """drain() must terminate within the topology hop bound — a
        routing cycle raises instead of spinning for millions of
        iterations."""
        m = laptop(nodes=2, cores=2)
        cost = CostModel(m)
        stats = RunStats(n_pes=4)
        conv = Conveyor(cost, stats, _CyclicTopology(4), c0_bytes=32)
        conv.inject_many(0, [group(0, 1)])
        with pytest.raises(RuntimeError, match="hop bound"):
            conv.finalize()

    @pytest.mark.parametrize("protocol", ["2D", "3D"])
    def test_relay_work_within_hop_bound(self, protocol):
        """Each packet is relayed at most max_hops - 1 times."""
        p = 16
        conv, cost, stats, _ = make_conveyor(p=p, protocol=protocol, nodes=4, c0=64)
        rng = np.random.default_rng(1)
        n_groups = 80
        for _ in range(n_groups):
            s, d = rng.integers(0, p, size=2)
            conv.inject_many(int(s), [group(int(s), int(d))])
        conv.finalize()
        max_relays = conv.topology.max_hops - 1
        assert stats.total("hops_forwarded") <= n_groups * max_relays


class TestFlushFinalizeEdgeCases:
    def test_flush_empty_buffers_is_noop(self):
        conv, cost, stats, _ = make_conveyor()
        conv.flush_pe(0)
        conv.flush_all()
        assert stats.pe[0].l0_flushes == 0
        assert stats.pe[0].mem_bytes == 0
        assert stats.pe[0].clock == 0.0

    def test_finalize_self_sends_only(self):
        conv, cost, stats, _ = make_conveyor()
        for pe in range(4):
            conv.inject_many(pe, [group(pe, pe)])
        conv.finalize()
        for pe in range(4):
            assert conv.delivered_elements(pe) == 4
            assert conv.staged_bytes(pe) == 0
        assert stats.total("puts_issued") == 0

    def test_finalize_idempotent(self):
        conv, cost, stats, _ = make_conveyor(c0=10_000)
        conv.inject_many(0, [group(0, 2)])
        conv.finalize()
        delivered = conv.delivered_elements(2)
        clock = stats.pe[0].clock
        conv.finalize()
        assert conv.delivered_elements(2) == delivered
        assert stats.pe[0].clock == clock

    @pytest.mark.parametrize("protocol", ["2D", "3D"])
    def test_relay_restocked_buffers_fully_drained(self, protocol):
        """Relays restock send buffers mid-drain; finalize must loop
        until no PE holds staged bytes anywhere."""
        p = 16
        conv, cost, stats, _ = make_conveyor(p=p, protocol=protocol, nodes=4,
                                             c0=100_000)
        rng = np.random.default_rng(2)
        sent = np.zeros(p, dtype=int)
        for _ in range(60):
            s, d = rng.integers(0, p, size=2)
            conv.inject_many(int(s), [group(int(s), int(d))])
            sent[d] += 4
        conv.finalize()
        for pe in range(p):
            assert conv.staged_bytes(pe) == 0
            assert conv.delivered_elements(pe) == sent[pe]
        assert not conv._in_flight


@given(st.integers(2, 24), st.sampled_from(["1D", "2D", "3D"]), st.integers(0, 10_000))
def test_conservation_property(p, protocol, seed):
    """No k-mer is lost or duplicated through any topology."""
    nodes = 2 if p % 2 == 0 else 1
    cores = p // nodes
    if nodes * cores != p:
        nodes, cores = 1, p
    m = laptop(nodes=nodes, cores=cores)
    cost = CostModel(m)
    stats = RunStats(n_pes=p)
    conv = Conveyor(cost, stats, make_topology(protocol, p), c0_bytes=48)
    rng = np.random.default_rng(seed)
    sent = np.zeros(p, dtype=int)
    for _ in range(60):
        s, d, n = int(rng.integers(p)), int(rng.integers(p)), int(rng.integers(1, 6))
        conv.inject_many(s, [PacketGroup(s, d, "NORMAL", rng.integers(0, 100, n).astype(np.uint64),
                                         None, 1, 8 * n)])
        sent[d] += n
    conv.finalize()
    for d in range(p):
        assert conv.delivered_elements(d) == sent[d]


@pytest.mark.parametrize("protocol", ["1D", "2D", "3D"])
@pytest.mark.parametrize("c0,c1", [(64, 2), (300, 5), (4096, 1024)])
def test_batch_equals_one_at_a_time(protocol, c0, c1):
    """``inject_many`` with the caller's per-group charges in its ledger
    is one-group batches after each charge, bit for bit: clocks,
    counters, the staged-bytes peak, what was delivered when, and the
    order messages went on the wire."""
    p = 16
    rng = np.random.default_rng(c0 + c1)
    batched = make_conveyor(p=p, protocol=protocol, nodes=4, c0=c0, c1=c1)
    single = make_conveyor(p=p, protocol=protocol, nodes=4, c0=c0, c1=c1)
    for src in (0, 5, 9):
        for _ in range(4):
            n = int(rng.integers(0, 30))
            groups = [PacketGroup(src, int(d), "NORMAL", np.arange(m, dtype=np.uint64),
                                  None, int(k), 8 * int(m))
                      for d, m, k in zip(rng.integers(0, p, n), rng.integers(1, 40, n),
                                         rng.integers(1, 9, n))]
            ops = rng.integers(0, 5_000, n)
            conv, cost, stats, _ = batched
            ledger = cost.ledger(stats.pe[src])
            ledger.add(ledger.COMPUTE, ledger.key(np.arange(n), ledger.CALLER), ops)
            conv.inject_many(src, groups, ledger)
            conv, cost, stats, _ = single
            for g, o in zip(groups, ops):
                cost.charge_compute(stats.pe[src], int(o))
                conv.inject_many(src, [g])
    for conv, *_ in (batched, single):
        conv.finalize()
    (a, _, sa, ma), (b, _, sb, mb) = batched, single
    assert sa.pe == sb.pe
    assert [ma.peak(pe) for pe in range(p)] == [mb.peak(pe) for pe in range(p)]
    assert a.delivered == b.delivered
    assert a.injected_elements == b.injected_elements


@pytest.mark.parametrize("protocol", ["1D", "2D", "3D"])
def test_next_hops_are_the_routes(protocol):
    """The next hop and hop count the conveyor memoises per pair are
    ``route()``'s (-1 for a self-send), ragged grids included."""
    for p in range(1, 65):
        topo = make_topology(protocol, p)
        conv = Conveyor(CostModel(laptop(nodes=1, cores=p)), RunStats(n_pes=p), topo)
        for s in range(p):
            for d in range(p):
                route = topo.route(s, d)
                assert conv._routes[s][d] == (route[0] if route else -1, len(route))


def test_next_hops_follow_an_overridden_route():
    class Detour(Topology1D):
        def route(self, src, dst):
            return [] if src == dst else [(src + 1) % self.p, dst]

    cost = CostModel(laptop(nodes=1, cores=5))
    stats = RunStats(n_pes=5)
    conv = Conveyor(cost, stats, Detour(5))
    conv.inject_many(0, [group(0, 3)])
    conv.finalize()
    assert conv.delivered_elements(3) == 4
    assert stats.pe[1].hops_forwarded == 1
