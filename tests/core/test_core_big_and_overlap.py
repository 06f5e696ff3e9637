"""Tests for the future-work extensions: 128-bit counting and the
barrier-free sorted-set variant."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bigcount import (
    BigKmerCounts,
    dakc_count_big,
    owner_pe_big,
    serial_count_big,
)
from repro.core.dakc import DakcConfig, dakc_count
from repro.core.serial import serial_count
from repro.core.sortedset import SortedRunSet, dakc_overlap_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.seq.bigkmers import BigKmerArray, extract_big_kmers_from_reads


def cost_model(p=6, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


class TestBigSerial:
    @pytest.mark.parametrize("k", [31, 32, 33, 45, 55, 64])
    def test_total_conservation(self, small_reads, k):
        kc = serial_count_big(small_reads, k)
        m = small_reads.shape[1]
        assert kc.total == small_reads.shape[0] * max(0, m - k + 1)

    def test_agrees_with_64bit_path(self, small_reads):
        for k in (15, 31, 32):
            big = serial_count_big(small_reads, k)
            small = serial_count(small_reads, k)
            assert big.n_distinct == small.n_distinct
            assert np.array_equal(big.counts, small.counts)
            assert np.array_equal(big.kmers.lo, small.kmers)

    def test_canonical(self, tiny_reads):
        from repro.seq.alphabet import reverse_complement_str
        from repro.seq.encoding import decode_codes, encode_seq

        k = 41
        fwd = serial_count_big(tiny_reads, k, canonical=True)
        rc_reads = [
            encode_seq(reverse_complement_str(decode_codes(r))) for r in tiny_reads
        ]
        rev = serial_count_big(rc_reads, k, canonical=True)
        assert fwd == rev

    def test_get_str(self, tiny_reads):
        from repro.seq.bigkmers import big_kmer_to_str

        k = 40
        kc = serial_count_big(tiny_reads, k)
        s = big_kmer_to_str(int(kc.kmers.hi[0]), int(kc.kmers.lo[0]), k)
        assert kc.get_str(s) == int(kc.counts[0])
        with pytest.raises(ValueError):
            kc.get_str("ACGT")

    def test_to_dict(self, tiny_reads):
        kc = serial_count_big(tiny_reads[:3], 50)
        d = kc.to_dict()
        assert len(d) == kc.n_distinct
        assert all(len(s) == 50 for s in d)

    @pytest.mark.parametrize("k", [25, 41])
    def test_get_binary_searches_both_words(self, small_reads, k):
        """k = 25 is one long `hi == 0` run, k = 41 many short ones:
        first / last / every present key answer `to_dict()`; a key
        inside a `hi` run but between its `lo` values, one below a
        run's first `lo`, and an absent `hi` answer 0."""
        kc = serial_count_big(small_reads, k)
        hi, lo = kc.kmers.hi.tolist(), kc.kmers.lo.tolist()
        want = list(kc.to_dict().values())
        assert [kc.get(h, l) for h, l in zip(hi, lo)] == want
        assert kc.get(hi[0], lo[0]) == want[0] and kc.get(hi[-1], lo[-1]) == want[-1]
        present = set(zip(hi, lo))
        inside = next((h, l + 1) for h, l in zip(hi, lo) if (h, l + 1) not in present)
        assert kc.get(*inside) == 0
        if lo[0]:
            assert kc.get(hi[0], lo[0] - 1) == 0
        assert kc.get(hi[-1], 2**64 - 1) == 0
        assert kc.get(hi[-1] + 1, lo[-1]) == 0
        empty = serial_count_big([], k)
        assert empty.get(0, 0) == 0


class TestBigDistributed:
    @pytest.mark.parametrize("k", [33, 48, 64])
    def test_matches_serial(self, small_reads, k):
        ref = serial_count_big(small_reads, k)
        got, stats = dakc_count_big(small_reads, k, cost_model())
        assert got == ref
        assert stats.global_syncs == 3

    @pytest.mark.parametrize("canonical", [False, True])
    def test_ragged_list_matches_serial(self, small_reads, canonical):
        """Variable-length reads — the long-read case big-k exists for
        — used to die in `np.asarray(reads)` before the split."""
        rng = np.random.default_rng(3)
        ragged = [r[: int(rng.integers(30, 101))] for r in small_reads]
        ref = serial_count_big(ragged, 41, canonical=canonical)
        got, stats = dakc_count_big(ragged, 41, cost_model(), canonical=canonical)
        assert got == ref and ref.total > 0
        assert stats.global_syncs == 3

    def test_owner_hash_deterministic_and_balanced(self, small_reads):
        kmers = extract_big_kmers_from_reads(small_reads, 48)
        owners = owner_pe_big(kmers, 16)
        assert owners.min() >= 0 and owners.max() < 16
        again = owner_pe_big(kmers, 16)
        assert np.array_equal(owners, again)
        counts = np.bincount(owners, minlength=16)
        assert counts.max() / max(1, counts.min()) < 1.5

    def test_owner_uses_both_words(self):
        """Two k-mers differing only in hi must (usually) differ in owner."""
        lo = np.full(64, 12345, dtype=np.uint64)
        hi = np.arange(64, dtype=np.uint64)
        owners = owner_pe_big(BigKmerArray(64, hi, lo), 16)
        assert len(set(owners.tolist())) > 4

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            BigKmerCounts(
                BigKmerArray(33, np.array([1], dtype=np.uint64),
                             np.array([1], dtype=np.uint64)),
                np.array([0]),
            )


class TestSortedRunSet:
    @given(st.lists(st.lists(st.integers(0, 40), max_size=80), max_size=12),
           st.integers(1, 6))
    @settings(max_examples=25)
    def test_matches_counter(self, batches, threshold):
        srs = SortedRunSet(compact_threshold=threshold)
        ref: Counter = Counter()
        for batch in batches:
            arr = np.array(batch, dtype=np.uint64)
            srs.insert_batch(arr)
            ref.update(batch)
        uniq, counts = srs.finalize()
        assert dict(zip(uniq.tolist(), counts.tolist())) == dict(ref)

    def test_async_query_mid_stream(self):
        srs = SortedRunSet(compact_threshold=2)
        srs.insert_batch(np.array([7, 7, 9], dtype=np.uint64))
        assert srs.count_of(7) == 2
        srs.insert_batch(np.array([7], dtype=np.uint64))
        assert srs.count_of(7) == 3  # no barrier needed
        assert srs.count_of(999) == 0

    def test_run_count_bounded(self):
        srs = SortedRunSet(compact_threshold=4)
        rng = np.random.default_rng(0)
        for _ in range(50):
            srs.insert_batch(rng.integers(0, 1000, 20).astype(np.uint64))
            assert srs.n_runs <= 5

    def test_weighted_inserts(self):
        srs = SortedRunSet()
        srs.insert_batch(np.array([5], dtype=np.uint64), np.array([10]))
        srs.insert_batch(np.array([5], dtype=np.uint64), np.array([3]))
        assert srs.count_of(5) == 13

    def test_weight_shape_mismatch(self):
        srs = SortedRunSet()
        with pytest.raises(ValueError):
            srs.insert_batch(np.array([1], dtype=np.uint64), np.array([1, 2]))


class TestOverlapVariant:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, stats = dakc_overlap_count(small_reads, 21, cost_model())
        assert got == ref

    def test_two_global_syncs(self, small_reads):
        """The future-work variant reaches the paper's stated lower
        bound of two global synchronisations."""
        _, stats = dakc_overlap_count(small_reads, 21, cost_model())
        assert stats.global_syncs == 2
        _, baseline = dakc_count(small_reads, 21, cost_model())
        assert baseline.global_syncs == 3

    def test_heavy_data(self, heavy_reads):
        ref = serial_count(heavy_reads, 15)
        got, _ = dakc_overlap_count(heavy_reads, 15, cost_model())
        assert got == ref

    def test_exact_mode_rejected(self, tiny_reads):
        with pytest.raises(ValueError):
            dakc_overlap_count(tiny_reads, 9, cost_model(),
                               DakcConfig(mode="exact"))

    def test_stats_mode_tag(self, tiny_reads):
        _, stats = dakc_overlap_count(tiny_reads, 9, cost_model(p=4, nodes=2))
        assert stats.extra["mode"] == "overlap"
