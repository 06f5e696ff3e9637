"""Tests for the pass-1 spill writer: ceiling, policies, round trips."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.owner import owner_pe
from repro.core.serial import serial_count
from repro.ooc.count import count_bin
from repro.ooc.format import read_bin_records, unpack_superkmers
from repro.ooc.spill import BinWriter, OocStats, largest_first, seeded_order
from repro.sort.accumulate import merge_count_arrays

K, W = 9, 4


def make_reads(n=60, length=80, seed=3):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 4, size=length).astype(np.uint8) for _ in range(n)]


class TestBinWriter:
    def test_ceiling_forces_flush_waves(self, tmp_path):
        stats = OocStats()
        with BinWriter(tmp_path, K, W, 8, ceiling_bytes=512, stats=stats) as bw:
            bw.add_reads(make_reads())
        assert stats.n_ceiling_hits >= 2
        assert stats.n_flushes > stats.n_bins_used  # bins got multiple chunks
        assert stats.bytes_spilled > 0

    def test_hysteresis_drains_to_half(self, tmp_path):
        bw = BinWriter(tmp_path, K, W, 8, ceiling_bytes=600)
        for r in make_reads():
            bw.add_reads([r])
            assert bw._buffered <= 600 or bw._buffered <= 600 // 2 + r.size + 8
        bw.close()

    def test_reports_kmer_totals(self, tmp_path):
        reads = make_reads(n=20)
        stats = OocStats()
        with BinWriter(tmp_path, K, W, 4, ceiling_bytes=1 << 20,
                       stats=stats) as bw:
            n = bw.add_reads(reads)
        expected = sum(r.size - K + 1 for r in reads)
        assert n == expected == stats.n_kmers
        assert stats.n_reads == len(reads)

    def test_close_returns_nonempty_bins_only(self, tmp_path):
        with BinWriter(tmp_path, K, W, 64, ceiling_bytes=1 << 20) as bw:
            bw.add_reads(make_reads(n=5))
        paths = bw.close()  # idempotent
        assert paths
        assert all(p.exists() and p.stat().st_size > 0 for p in paths)
        assert len(paths) < 64  # 5 reads can't populate 64 bins

    def test_add_after_close_raises(self, tmp_path):
        bw = BinWriter(tmp_path, K, W, 4, ceiling_bytes=1 << 20)
        bw.close()
        with pytest.raises(ValueError, match="closed"):
            bw.add_reads([np.zeros(20, dtype=np.uint8)])

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            BinWriter(tmp_path, K, W, 0, ceiling_bytes=1)
        with pytest.raises(ValueError):
            BinWriter(tmp_path, K, W, 4, ceiling_bytes=0)

    def test_bins_route_by_minimizer_hash(self, tmp_path):
        n_bins = 8
        with BinWriter(tmp_path, K, W, n_bins, ceiling_bytes=256) as bw:
            bw.add_reads(make_reads())
        from repro.seq.minimizers import split_superkmers

        for path in bw.close():
            header, chunks = read_bin_records(path)
            for lengths, blob in chunks:
                for sk in unpack_superkmers(lengths, blob):
                    # A stored super-k-mer is itself a valid read whose
                    # (single) minimizer must hash to this bin.
                    subs = split_superkmers(sk, K, W)
                    mins = np.array([s.minimizer for s in subs],
                                    dtype=np.uint64)
                    owners = owner_pe(mins, n_bins)
                    assert (owners == header.bin_id).all()


class TestFlushPolicies:
    def test_largest_first_ordering(self):
        assert largest_first([(0, 10), (1, 99), (2, 10)]) == [1, 0, 2]

    def test_seeded_order_is_deterministic_permutation(self):
        pending = [(b, 10 * b) for b in range(8)]
        a = seeded_order(42)(pending)
        b = seeded_order(42)(pending)
        assert a == b
        assert sorted(a) == list(range(8))
        orders = {tuple(seeded_order(seed)(pending)) for seed in range(16)}
        assert all(sorted(o) == list(range(8)) for o in orders)
        assert len(orders) >= 2  # the seed reaches the order

    def test_custom_flush_order_hook_is_used(self, tmp_path):
        calls = []

        def spy(pending):
            calls.append(list(pending))
            return largest_first(pending)

        with BinWriter(tmp_path, K, W, 8, ceiling_bytes=512,
                       flush_order=spy) as bw:
            bw.add_reads(make_reads())
        assert len(calls) >= 2  # ceiling waves + final close


class TestBinRoundTrip:
    """Satellite: write -> reload -> recount equals the direct count."""

    @pytest.mark.parametrize("ceiling", [256, 4096, 1 << 20])
    def test_recount_equals_direct_count(self, tmp_path, ceiling):
        reads = make_reads(n=40)
        oracle = serial_count(reads, K)
        with BinWriter(tmp_path, K, W, 8, ceiling_bytes=ceiling) as bw:
            bw.add_reads(reads)
        parts = [count_bin(p, k=K) for p in bw.close()]
        keys, vals = merge_count_arrays(parts)
        assert np.array_equal(keys, oracle.kmers)
        assert np.array_equal(vals, oracle.counts)

    def test_recount_stable_under_shuffled_flushes(self, tmp_path):
        reads = make_reads(n=40)
        oracle = serial_count(reads, K)
        for seed in (0, 1, 2):
            d = tmp_path / f"s{seed}"
            with BinWriter(d, K, W, 8, ceiling_bytes=300,
                           flush_order=seeded_order(seed)) as bw:
                bw.add_reads(reads)
            keys, vals = merge_count_arrays(
                [count_bin(p, k=K) for p in bw.close()])
            assert np.array_equal(keys, oracle.kmers)
            assert np.array_equal(vals, oracle.counts)
