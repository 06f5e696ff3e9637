"""Tests for the L2/L3 aggregation layers (Algorithm 4)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.l2l3 import AggregationConfig, BulkAggregator, receive_service_time
from repro.runtime.conveyors import Conveyor
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.stats import RunStats
from repro.runtime.topology import make_topology

from dakc_reference import ExactAggregator


def build(p=4, nodes=2, cfg=None, c0=512):
    m = laptop(nodes=nodes, cores=p // nodes)
    cost = CostModel(m)
    stats = RunStats(n_pes=p)
    conv = Conveyor(cost, stats, make_topology("1D", p), c0_bytes=c0)
    return conv, cost, stats, cfg or AggregationConfig()


def delivered_multiset(conv, p):
    """Reconstruct the delivered (kmer -> count) map across all PEs."""
    out: Counter = Counter()
    for dst in range(p):
        for _, g in conv.delivered[dst]:
            if g.kind == "HEAVY":
                for kmer, count in zip(g.kmers.tolist(), g.counts.tolist()):
                    out[kmer] += count
            else:
                for kmer in g.kmers.tolist():
                    out[kmer] += 1
    return out


kmer_streams = st.lists(st.integers(0, 60), min_size=0, max_size=500)


class TestConfig:
    def test_l3_requires_l2(self):
        with pytest.raises(ValueError, match="L3 requires L2"):
            AggregationConfig(enable_l2=False, enable_l3=True)

    def test_bounds(self):
        with pytest.raises(ValueError):
            AggregationConfig(c2=1)
        with pytest.raises(ValueError):
            AggregationConfig(c3=0)
        with pytest.raises(ValueError):
            AggregationConfig(heavy_threshold=0)

    def test_l2h_capacity(self):
        assert AggregationConfig(c2=32).l2h_capacity_pairs == 16
        assert AggregationConfig(c2=3).l2h_capacity_pairs == 1


class TestBulkAggregator:
    @given(kmer_streams)
    def test_conservation(self, values):
        """Every occurrence reaches a destination exactly once."""
        conv, cost, stats, cfg = build(cfg=AggregationConfig(c2=8, c3=32))
        agg = BulkAggregator(0, cfg, conv, cost)
        stream = np.array(values, dtype=np.uint64)
        for lo in range(0, stream.size, 37):
            agg.add_kmers(stream[lo : lo + 37])
        agg.flush()
        conv.finalize()
        assert delivered_multiset(conv, 4) == Counter(values)

    def test_heavy_hitters_compressed(self):
        """A k-mer repeated within one L3 window travels as one pair."""
        conv, cost, stats, cfg = build(cfg=AggregationConfig(c2=8, c3=100))
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.full(100, 7, dtype=np.uint64))
        agg.flush()
        conv.finalize()
        assert stats.pe[0].heavy_pairs_sent == 1
        assert stats.pe[0].normal_elements_sent == 0
        assert delivered_multiset(conv, 4) == {7: 100}

    def test_count_two_sent_twice(self):
        """Algorithm 4: count == 2 re-appends the k-mer to L2N twice."""
        conv, cost, stats, cfg = build(cfg=AggregationConfig(c2=8, c3=100))
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.array([3, 3, 5], dtype=np.uint64))
        agg.flush()
        conv.finalize()
        assert stats.pe[0].heavy_pairs_sent == 0
        assert stats.pe[0].normal_elements_sent == 3
        assert delivered_multiset(conv, 4) == {3: 2, 5: 1}

    def test_heavy_threshold_respected(self):
        conv, cost, stats, cfg = build(
            cfg=AggregationConfig(c2=8, c3=100, heavy_threshold=5)
        )
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.full(5, 9, dtype=np.uint64))  # count == threshold
        agg.flush()
        conv.finalize()
        assert stats.pe[0].heavy_pairs_sent == 0  # 5 <= threshold
        assert stats.pe[0].normal_elements_sent == 5

    def test_l3_flush_at_exact_capacity(self):
        conv, cost, stats, cfg = build(cfg=AggregationConfig(c3=50))
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.arange(49, dtype=np.uint64))
        assert stats.pe[0].l3_flushes == 0
        agg.add_kmers(np.arange(1, dtype=np.uint64))
        assert stats.pe[0].l3_flushes == 1

    def test_l3_disabled_streams_raw(self):
        conv, cost, stats, cfg = build(cfg=AggregationConfig(enable_l3=False))
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.full(64, 7, dtype=np.uint64))
        agg.flush()
        conv.finalize()
        assert stats.pe[0].l3_flushes == 0
        assert stats.pe[0].heavy_pairs_sent == 0
        assert delivered_multiset(conv, 4) == {7: 64}

    def test_l2_disabled_per_element_packets(self):
        cfg = AggregationConfig(enable_l2=False, enable_l3=False)
        conv, cost, stats, _ = build(cfg=cfg)
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.arange(50, dtype=np.uint64))
        agg.flush()
        conv.finalize()
        total_packets = sum(
            g.n_packets for dst in range(4) for _, g in conv.delivered[dst]
        )
        assert total_packets == 50  # one packet per k-mer

    def test_l2_packs_wire_packets(self):
        cfg = AggregationConfig(c2=8, enable_l3=False)
        conv, cost, stats, _ = build(cfg=cfg)
        agg = BulkAggregator(0, cfg, conv, cost)
        agg.add_kmers(np.full(64, 11, dtype=np.uint64))  # one destination
        agg.flush()
        conv.finalize()
        total_packets = sum(
            g.n_packets for dst in range(4) for _, g in conv.delivered[dst]
        )
        assert total_packets == 8  # 64 elements / C2=8


class TestExactAggregator:
    @given(kmer_streams)
    def test_conservation(self, values):
        conv, cost, stats, cfg = build(cfg=AggregationConfig(c2=4, c3=16))
        agg = ExactAggregator(0, cfg, conv, cost)
        for v in values:
            agg.add_kmer(v)
        agg.flush()
        conv.finalize()
        assert delivered_multiset(conv, 4) == Counter(values)

    def test_l2n_packet_exactly_c2(self):
        cfg = AggregationConfig(c2=4, enable_l3=False)
        conv, cost, stats, _ = build(cfg=cfg)
        agg = ExactAggregator(0, cfg, conv, cost)
        for _ in range(12):
            agg.add_kmer(7)  # same owner every time
        # Three full packets of exactly 4 elements each, no partials yet.
        assert stats.pe[0].l2_flushes == 3


class TestParity:
    """The per-element reference and the vectorised aggregator must agree
    on results AND statistics."""

    @given(kmer_streams, st.integers(2, 12), st.integers(4, 40))
    def test_full_parity(self, values, c2, c3):
        cfg = AggregationConfig(c2=c2, c3=c3)
        conv_e, cost_e, stats_e, _ = build(cfg=cfg)
        agg_e = ExactAggregator(0, cfg, conv_e, cost_e)
        for v in values:
            agg_e.add_kmer(v)
        agg_e.flush()
        conv_e.finalize()

        conv_b, cost_b, stats_b, _ = build(cfg=cfg)
        agg_b = BulkAggregator(0, cfg, conv_b, cost_b)
        stream = np.array(values, dtype=np.uint64)
        for lo in range(0, stream.size, 13):
            agg_b.add_kmers(stream[lo : lo + 13])
        agg_b.flush()
        conv_b.finalize()

        assert delivered_multiset(conv_e, 4) == delivered_multiset(conv_b, 4)
        for field in ("l3_flushes", "l2_flushes", "heavy_pairs_sent",
                      "normal_elements_sent"):
            assert stats_e.total(field) == stats_b.total(field), field


class TestReceiveService:
    def test_remote_pays_ingress(self):
        m = laptop(nodes=2, cores=2)
        cost = CostModel(m)
        from repro.runtime.conveyors import PacketGroup

        remote = PacketGroup(0, 3, "NORMAL", np.arange(8, dtype=np.uint64), None, 1, 64)
        local = PacketGroup(2, 3, "NORMAL", np.arange(8, dtype=np.uint64), None, 1, 64)
        assert receive_service_time(cost, remote) > receive_service_time(cost, local)

    def test_many_groups_equal_the_per_group_formula(self):
        """``receive_service_times`` over arrays gives, bit for bit, the
        per-group formula: copy + dispatch, plus ingress when remote."""
        from repro.core.l2l3 import receive_service_times
        from repro.runtime.cost import OPS_PER_ELEMENT_RECV, OPS_PER_PACKET

        cost = CostModel(laptop(nodes=3, cores=2))
        rng = np.random.default_rng(3)
        n = 500
        src, n_elements, n_packets = (rng.integers(0, 6, n), rng.integers(1, 300, n),
                                      rng.integers(1, 20, n))
        payload = n_elements * 8 * rng.integers(1, 3, n)
        got = receive_service_times(cost, src, 4, n_elements, n_packets, payload)
        for i in range(n):
            ops = int(n_elements[i]) * OPS_PER_ELEMENT_RECV + int(n_packets[i]) * OPS_PER_PACKET
            want = int(payload[i]) / cost.pe_mem_bw + ops / cost.pe_ops
            if not cost.colocated(int(src[i]), 4):
                want += int(payload[i]) / cost.pe_link_bw
            assert got[i] == want
