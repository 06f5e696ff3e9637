"""Tests for the minimizer-partitioned counter (kmerind-style)."""

from __future__ import annotations

import pytest

from repro.core.dakc import dakc_count
from repro.core import minipart
from repro.core.minipart import minimizer_partitioned_count
from repro.core.serial import serial_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop


def cost_model(p=8, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


class TestCorrectness:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, stats = minimizer_partitioned_count(small_reads, 21, cost_model())
        assert got == ref
        assert stats.global_syncs == 3

    def test_heavy_dataset(self, heavy_reads):
        ref = serial_count(heavy_reads, 15)
        got, _ = minimizer_partitioned_count(heavy_reads, 15, cost_model())
        assert got == ref

    @pytest.mark.parametrize("w", [5, 9, 15])
    def test_minimizer_length_invariance(self, tiny_reads, monkeypatch, w):
        """Counting is invariant under the minimizer length (it only
        changes routing, never counts)."""
        monkeypatch.setattr(minipart, "MINIMIZER_LEN", w)
        ref = serial_count(tiny_reads, 15)
        got, _ = minimizer_partitioned_count(
            tiny_reads, 15, cost_model(p=4, nodes=2))
        assert got == ref

    @pytest.mark.parametrize("p,nodes", [(1, 1), (4, 2), (12, 3)])
    def test_pe_count_invariance(self, tiny_reads, p, nodes):
        ref = serial_count(tiny_reads, 15)
        got, _ = minimizer_partitioned_count(tiny_reads, 15,
                                             cost_model(p=p, nodes=nodes))
        assert got == ref

    def test_list_input(self, tiny_reads):
        ref = serial_count(tiny_reads, 15)
        got, _ = minimizer_partitioned_count([r for r in tiny_reads], 15,
                                             cost_model(p=4, nodes=2))
        assert got == ref


class TestPinnedRun:
    """`small_reads`, k=21, 8 PEs: the routed run is a fixed function
    of the seed.  The literals are the values of the commit before the
    non-canonical path stopped recomputing per-k-mer minimizers (it
    now repeats the batch's); the canonical path still recomputes."""

    @pytest.mark.parametrize("canonical,sim_time,bytes_sent,memcpy_bytes", [
        (False, 3.293602666666666e-05, 16749, 17283),
        (True, 3.518248000000001e-05, 48825, 50629),
    ])
    def test_counts_clock_puts_and_wire_bytes(
            self, small_reads, canonical, sim_time, bytes_sent, memcpy_bytes):
        got, stats = minimizer_partitioned_count(
            small_reads, 21, cost_model(), canonical=canonical)
        assert got == serial_count(small_reads, 21, canonical=canonical)
        assert (got.n_distinct, got.total) == (4740, 16000)
        assert stats.sim_time == sim_time
        assert stats.total_puts == 32
        assert stats.total_bytes_sent == bytes_sent
        assert stats.total("local_memcpy_bytes") == memcpy_bytes


class TestTradeoff:
    def test_wire_volume_beats_hash_partitioning(self, small_reads):
        """The point of super-k-mers: much less data on the wire."""
        _, s_min = minimizer_partitioned_count(small_reads, 31, cost_model())
        _, s_hash = dakc_count(small_reads, 31, cost_model())
        wire_min = s_min.total_bytes_sent + s_min.total("local_memcpy_bytes")
        wire_hash = s_hash.total_bytes_sent + s_hash.total("local_memcpy_bytes")
        assert wire_min < 0.6 * wire_hash

    def test_load_balance_worse_than_hash(self, small_reads):
        """The price: minimizer owners are hot."""
        _, s_min = minimizer_partitioned_count(small_reads, 31,
                                               cost_model(p=16, nodes=4))
        _, s_hash = dakc_count(small_reads, 31, cost_model(p=16, nodes=4))
        assert s_min.receive_imbalance() > s_hash.receive_imbalance()


class TestCanonical:
    def test_canonical_matches_serial(self, tiny_reads):
        ref = serial_count(tiny_reads, 15, canonical=True)
        got, _ = minimizer_partitioned_count(
            tiny_reads, 15, cost_model(p=4, nodes=2), canonical=True
        )
        assert got == ref

    def test_canonical_strand_colocation(self, tiny_reads):
        """Both strands of a k-mer must land on one owner (exactness)."""
        from repro.seq.alphabet import reverse_complement_str
        from repro.seq.encoding import decode_codes, encode_seq

        fwd = [r for r in tiny_reads]
        rev = [encode_seq(reverse_complement_str(decode_codes(r))) for r in tiny_reads]
        a, _ = minimizer_partitioned_count(fwd, 15, cost_model(p=4, nodes=2),
                                           canonical=True)
        b, _ = minimizer_partitioned_count(rev, 15, cost_model(p=4, nodes=2),
                                           canonical=True)
        assert a == b
