"""Tests for the DAKC counter (Algorithms 3+4)."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dakc import DakcConfig, dakc_count
from repro.core.l2l3 import AggregationConfig
from repro.core.serial import serial_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop

from dakc_reference import dakc_count_reference, shared_counters


def cost_model(p=8, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


class TestCorrectness:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, stats = dakc_count(small_reads, 21, cost_model())
        assert got == ref, got.diff(ref)

    def test_heavy_dataset_matches_serial(self, heavy_reads):
        ref = serial_count(heavy_reads, 15)
        got, stats = dakc_count(heavy_reads, 15, cost_model())
        assert got == ref
        assert stats.total("heavy_pairs_sent") > 0  # L3 engaged

    @pytest.mark.parametrize("protocol", ["1D", "2D", "3D"])
    def test_protocol_invariance(self, small_reads, protocol):
        ref = serial_count(small_reads, 21)
        got, _ = dakc_count(small_reads, 21, cost_model(p=12, nodes=3),
                            DakcConfig(protocol=protocol))
        assert got == ref

    @pytest.mark.parametrize("p,nodes", [(1, 1), (2, 1), (6, 2), (16, 4)])
    def test_pe_count_invariance(self, small_reads, p, nodes):
        ref = serial_count(small_reads, 21)
        got, _ = dakc_count(small_reads, 21, cost_model(p=p, nodes=nodes))
        assert got == ref

    @pytest.mark.parametrize("k", [1, 5, 16, 31, 32])
    def test_k_sweep(self, tiny_reads, k):
        ref = serial_count(tiny_reads, k)
        got, _ = dakc_count(tiny_reads, k, cost_model(p=4, nodes=2))
        assert got == ref

    def test_layer_flags_invariance(self, small_reads):
        ref = serial_count(small_reads, 21)
        for agg in (
            AggregationConfig(enable_l2=False, enable_l3=False),
            AggregationConfig(enable_l2=True, enable_l3=False),
            AggregationConfig(enable_l2=True, enable_l3=True),
        ):
            got, _ = dakc_count(small_reads, 21, cost_model(), DakcConfig(agg=agg))
            assert got == ref

    @given(st.integers(2, 64), st.integers(2, 5000))
    @settings(max_examples=10)
    def test_tuning_invariance(self, c2, c3):
        genome_reads = np.random.default_rng(0).integers(0, 4, (40, 50)).astype(np.uint8)
        ref = serial_count(genome_reads, 11)
        got, _ = dakc_count(
            genome_reads, 11, cost_model(p=4, nodes=2),
            DakcConfig(agg=AggregationConfig(c2=c2, c3=c3)),
        )
        assert got == ref

    def test_canonical(self, tiny_reads):
        ref = serial_count(tiny_reads, 9, canonical=True)
        got, _ = dakc_count(tiny_reads, 9, cost_model(p=4, nodes=2),
                            DakcConfig(canonical=True))
        assert got == ref

    def test_machineconfig_accepted_directly(self, tiny_reads):
        got, stats = dakc_count(tiny_reads, 9, laptop(nodes=1, cores=4))
        assert got == serial_count(tiny_reads, 9)

    def test_empty_input(self):
        got, stats = dakc_count(np.empty((0, 50), dtype=np.uint8), 9, cost_model())
        assert got.n_distinct == 0


class TestExactMode:
    """``tests/dakc_reference.py``, the per-element Algorithm 4 on an
    actor scheduler, against the product's one path."""

    def test_matches_fast(self, tiny_reads):
        """Same counts and, per PE, every :class:`PEStats` counter over
        1D/2D/3D x L0-L1/L0-L2/L0-L3 x canonical, except the five the
        reference does not charge: it leaves out the aggregation stack's
        own work (per-element buffering ops, L3 sorts, per-packet
        handling), so its ``clock``, ``compute_ops``, ``mem_bytes`` and
        ``sync_wait_time`` differ, and it streams no read scan or receive
        payload through the cache model (``cache_misses_p1``).  At k=4
        the L3 window catches heavy hitters, so both wire kinds travel."""
        layers = (AggregationConfig(c2=4, c3=64, enable_l2=False, enable_l3=False),
                  AggregationConfig(c2=4, c3=64, enable_l3=False),
                  AggregationConfig(c2=4, c3=64))
        for protocol, agg, canonical in product(("1D", "2D", "3D"), layers, (False, True)):
            config = DakcConfig(protocol=protocol, agg=agg, canonical=canonical)
            exact, se = dakc_count_reference(tiny_reads, 4, cost_model(p=4, nodes=2), config)
            fast, sf = dakc_count(tiny_reads, 4, cost_model(p=4, nodes=2), config)
            assert exact == fast, config
            assert shared_counters(se) == shared_counters(sf), config
            assert sf.total("heavy_pairs_sent") > 0 or not agg.enable_l3

    def test_exact_three_syncs(self, tiny_reads):
        _, stats = dakc_count_reference(tiny_reads, 9, cost_model(p=4, nodes=2), DakcConfig())
        assert stats.global_syncs == 3

    def test_bad_mode(self):
        """DAKC has one path: a ``mode`` is not a setting."""
        with pytest.raises(TypeError):
            DakcConfig(mode="exact")


class TestStatistics:
    def test_exactly_three_global_syncs(self, small_reads):
        """The paper's headline: DAKC needs 3 global synchronisations
        regardless of input size."""
        for rows in (small_reads[:10], small_reads):
            _, stats = dakc_count(rows, 21, cost_model())
            assert stats.global_syncs == 3

    def test_kmer_counters(self, small_reads):
        _, stats = dakc_count(small_reads, 21, cost_model())
        n_kmers = small_reads.shape[0] * (small_reads.shape[1] - 20)
        assert stats.total_kmers == n_kmers
        # Everything generated is eventually received somewhere.
        assert stats.total("elements_received") <= n_kmers  # L3 compresses
        assert stats.total("elements_received") > 0

    def test_phase_times_partition_sim_time(self, small_reads):
        _, stats = dakc_count(small_reads, 21, cost_model())
        assert stats.phase1_time > 0
        assert stats.phase2_time > 0
        assert stats.sim_time == pytest.approx(stats.phase1_time + stats.phase2_time)

    def test_remote_traffic_exists_multinode(self, small_reads):
        _, stats = dakc_count(small_reads, 21, cost_model(p=8, nodes=4))
        assert stats.total_puts > 0
        assert stats.total_bytes_sent > 0

    def test_single_node_all_memcpy(self, small_reads):
        """Co-located PEs communicate via memcpy, not the NIC."""
        _, stats = dakc_count(small_reads, 21, cost_model(p=8, nodes=1))
        assert stats.total_puts == 0
        assert stats.total("local_memcpy_bytes") > 0

    def test_peak_buffer_memory_tracked(self, small_reads):
        _, stats = dakc_count(small_reads, 21, cost_model())
        assert stats.peak_buffer_bytes_per_pe > 0

    def test_heavy_reduces_receive_imbalance(self, heavy_reads):
        """L3 must cut the hot owner's received volume."""
        cm = lambda: CostModel(laptop(nodes=4, cores=4))
        _, with_l3 = dakc_count(heavy_reads, 15, cm(),
                                DakcConfig(agg=AggregationConfig(enable_l3=True)))
        _, no_l3 = dakc_count(heavy_reads, 15, cm(),
                              DakcConfig(agg=AggregationConfig(enable_l3=False)))
        assert with_l3.receive_imbalance() < no_l3.receive_imbalance()

    def test_host_seconds_recorded(self, tiny_reads):
        _, stats = dakc_count(tiny_reads, 9, cost_model(p=2, nodes=1))
        assert stats.host_seconds > 0


@given(st.lists(st.integers(0, 60), max_size=40), st.lists(st.integers(0, 60), max_size=12),
       st.integers(0, 2**16))
def test_phase2_adds_heavy_pairs_like_accumulate(normal, heavy, seed):
    """Phase 2 adds the HEAVY pairs into the owner's sorted table with
    ``_add_pairs``; it must equal accumulating everything at once."""
    from repro.core.dakc import _add_pairs
    from repro.sort.accumulate import accumulate_weighted

    rng = np.random.default_rng(seed)
    uniq, counts = accumulate_weighted(np.array(normal, dtype=np.uint64),
                                       np.ones(len(normal), dtype=np.int64))
    hk = np.array(heavy, dtype=np.uint64)
    hc = rng.integers(3, 9, hk.size).astype(np.int64)
    got = _add_pairs(uniq, counts, *accumulate_weighted(hk, hc))
    want = accumulate_weighted(np.concatenate((uniq, hk)), np.concatenate((counts, hc)))
    assert [a.dtype for a in got] == [a.dtype for a in want]
    assert all((a == b).all() for a, b in zip(got, want))
