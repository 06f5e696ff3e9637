"""Tests for the future-work extensions: k-mers wider than one word
(32 < k <= 64, two-word rows of the one kernel) and the barrier-free
sorted-set variant."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import count_kmers
from repro.core.dakc import dakc_count, dakc_count_big
from repro.core.owner import owner_pe
from repro.core.result import KmerCounts
from repro.core.serial import serial_count, serial_count_oracle
from repro.core.sortedset import SortedRunSet, dakc_overlap_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.seq.kmers import extract_kmers_from_reads, kmer_ints, kmer_to_str, str_to_kmer


def cost_model(p=6, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


def kernel_count(reads, k, canonical=False) -> KmerCounts:
    """The in-memory ``fast`` count: the kernel, two words per k-mer above 32."""
    return count_kmers(reads, k, algorithm="fast", canonical=canonical).counts


class TestBigSerial:
    @pytest.mark.parametrize("k", [31, 32, 33, 45, 55, 64])
    def test_total_conservation(self, small_reads, k):
        kc = kernel_count(small_reads, k)
        m = small_reads.shape[1]
        assert kc.total == small_reads.shape[0] * max(0, m - k + 1)
        assert kc == serial_count_oracle(small_reads, k)

    def test_agrees_with_64bit_path(self, small_reads):
        """At k <= 32 the big counter is one-word DAKC: same counts."""
        for k in (15, 31, 32):
            big, _ = dakc_count_big(small_reads, k, cost_model())
            assert big == serial_count(small_reads, k)

    def test_canonical(self, tiny_reads):
        from repro.seq.alphabet import reverse_complement_str
        from repro.seq.encoding import decode_codes, encode_seq

        k = 41
        fwd = kernel_count(tiny_reads, k, canonical=True)
        rc_reads = [
            encode_seq(reverse_complement_str(decode_codes(r))) for r in tiny_reads
        ]
        rev = kernel_count(rc_reads, k, canonical=True)
        assert fwd == rev == serial_count_oracle(tiny_reads, k, canonical=True)

    def test_get_str(self, tiny_reads):
        k = 40
        kc = kernel_count(tiny_reads, k)
        s = kmer_to_str(kmer_ints(kc.kmers[:1])[0], k)
        assert kc.get(str_to_kmer(s)) == int(kc.counts[0])
        assert kc.get(str_to_kmer("ACGT" * 10)) == 0

    def test_to_dict(self, tiny_reads):
        kc = kernel_count(tiny_reads[:3], 50)
        d = kc.to_counter()
        assert len(d) == kc.n_distinct
        assert all(len(kmer_to_str(v, 50)) == 50 for v in d)
        assert d == serial_count_oracle(tiny_reads[:3], 50).to_counter()

    @pytest.mark.parametrize("k", [25, 41])
    def test_get_binary_searches_both_words(self, small_reads, k):
        """k = 25 is one word, k = 41 many short runs of equal `hi`:
        first / last / every present key answer `to_counter()`; a key
        inside a `hi` run but between its `lo` values, one below the
        first key, and (k > 32) an absent `hi` answer 0."""
        kc = kernel_count(small_reads, k)
        keys = kmer_ints(kc.kmers)
        want = kc.counts.tolist()
        assert [kc.get(v) for v in keys] == want
        assert kc.get(keys[0]) == want[0] and kc.get(keys[-1]) == want[-1]
        present = set(keys)
        assert kc.get(next(v + 1 for v in keys if v + 1 not in present)) == 0
        if keys[0]:
            assert kc.get(keys[0] - 1) == 0
        if k > 32:
            hi, lo = kc.kmers[-1].tolist()
            assert kc.get((hi << 64) | (2**64 - 1)) == 0
            assert kc.get(((hi + 1) << 64) | lo) == 0
        assert kernel_count([], k).get(0) == 0


class TestBigDistributed:
    @pytest.mark.parametrize("k", [33, 48, 64])
    def test_matches_serial(self, small_reads, k):
        got, stats = dakc_count_big(small_reads, k, cost_model())
        assert got == serial_count_oracle(small_reads, k)
        assert stats.global_syncs == 3

    @pytest.mark.parametrize("canonical", [False, True])
    def test_ragged_list_matches_serial(self, small_reads, canonical):
        """Variable-length reads — the long-read case big-k exists for
        — used to die in `np.asarray(reads)` before the split."""
        rng = np.random.default_rng(3)
        ragged = [r[: int(rng.integers(30, 101))] for r in small_reads]
        ref = serial_count_oracle(ragged, 41, canonical=canonical)
        got, stats = dakc_count_big(ragged, 41, cost_model(), canonical=canonical)
        assert got == ref and ref.total > 0
        assert stats.global_syncs == 3

    def test_owner_hash_deterministic_and_balanced(self, small_reads):
        kmers = extract_kmers_from_reads(small_reads, 48)
        owners = owner_pe(kmers, 16)
        assert owners.min() >= 0 and owners.max() < 16
        again = owner_pe(kmers, 16)
        assert np.array_equal(owners, again)
        counts = np.bincount(owners, minlength=16)
        assert counts.max() / max(1, counts.min()) < 1.5

    def test_owner_uses_both_words(self):
        """Two k-mers differing only in hi must (usually) differ in owner."""
        rows = np.stack([np.arange(64, dtype=np.uint64),
                         np.full(64, 12345, dtype=np.uint64)], axis=1)
        owners = owner_pe(rows, 16)
        assert len(set(owners.tolist())) > 4

    def test_invalid_counts(self):
        one = np.array([[1, 1]], dtype=np.uint64)
        with pytest.raises(ValueError):
            KmerCounts(33, one, np.array([0]))
        with pytest.raises(ValueError):  # one word per k-mer at k = 33
            KmerCounts(33, np.array([1, 2], dtype=np.uint64), np.array([1, 1]))
        with pytest.raises(ValueError):  # rows ordered by hi, then lo
            KmerCounts(33, np.array([[0, 5], [0, 3]], dtype=np.uint64), np.array([1, 1]))


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
        uniq, counts = srs.finalize()
        assert (uniq.tolist(), counts.tolist()) == ([5], [13])

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

    def test_stats_mode_tag(self, tiny_reads):
        _, stats = dakc_overlap_count(tiny_reads, 9, cost_model(p=4, nodes=2))
        assert stats.extra["mode"] == "overlap"
