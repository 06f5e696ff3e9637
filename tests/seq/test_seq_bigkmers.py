"""Fixed cases of k-mers wider than 32 bases (32 < k <= 64).

Such a k-mer is a ``[hi, lo]`` row of two ``uint64`` words from the one
kernel of ``repro.seq.kmers``; ``kmer_ints`` turns rows back into the
Python ints the scalar references speak.  The properties over every
k = 1..64 are in ``test_kernel_properties.py``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.result import KmerCounts
from repro.seq.alphabet import reverse_complement_str
from repro.seq.encoding import encode_seq
from repro.seq.kmers import (
    MAX_K,
    MAX_WIDE_K,
    count_packed_kmers,
    extract_kmers,
    extract_kmers_from_reads,
    iter_kmers,
    kmer_array,
    kmer_ints,
    kmer_to_str,
    reverse_complement_kmers,
    str_to_kmer,
)
from repro.sort.accumulate import accumulate_sorted

dna = st.text(alphabet="ACGT", min_size=0, max_size=160)
wide_ks = st.integers(min_value=MAX_K + 1, max_value=MAX_WIDE_K)


def oracle_kmers(seq: str, k: int) -> list[int]:
    """Arbitrary-precision rolling k-mer reference."""
    return list(iter_kmers(seq, k))


class TestExtraction:
    @given(dna, wide_ks)
    def test_small_k_matches_64bit_path(self, seq, k):
        """A row's words are one-word k-mers: ``hi`` is the (k - 32)-mer
        starting the window, ``lo`` the 32-mer ending it."""
        codes = encode_seq(seq)
        rows = extract_kmers(codes, k)
        n = rows.shape[0]
        assert rows.shape == (n, 2)
        assert np.array_equal(rows[:, 0], extract_kmers(codes, k - MAX_K)[:n])
        assert np.array_equal(rows[:, 1], extract_kmers(codes, MAX_K)[k - MAX_K:])


class TestStringConversion:
    @given(dna.filter(lambda s: 1 <= len(s) <= 64))
    def test_roundtrip(self, s):
        kmer = str_to_kmer(s)
        assert kmer_to_str(kmer, len(s)) == s
        assert kmer_ints(kmer_array([kmer], len(s))) == [kmer]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kmer_to_str(1 << 64, 3)  # a set hi word at k = 3


class TestReverseComplement:
    @given(st.text(alphabet="ACGT", min_size=MAX_K + 1, max_size=MAX_WIDE_K))
    def test_matches_string_rc(self, s):
        k = len(s)
        rc = reverse_complement_kmers(kmer_array([str_to_kmer(s)], k), k)
        assert kmer_to_str(kmer_ints(rc)[0], k) == reverse_complement_str(s)


class TestSortAccumulate:
    @given(st.lists(st.integers(0, (1 << 90) - 1), min_size=0, max_size=150))
    def test_lexsort_matches_python_sort(self, values):
        keys, _ = count_packed_kmers(kmer_array(values, 45), 45)
        assert kmer_ints(keys) == sorted(set(values))

    @given(st.lists(st.integers(0, (1 << 70) - 1), min_size=0, max_size=150))
    def test_accumulate_matches_counter(self, values):
        uniq, counts = accumulate_sorted(kmer_array(sorted(values), 40))
        assert dict(zip(kmer_ints(uniq), counts.tolist())) == Counter(values)

    def test_accumulate_rejects_unsorted(self):
        for values in ([5, 3], [1 << 64, 5]):
            with pytest.raises(ValueError):
                accumulate_sorted(kmer_array(values, 40))

    def test_array_validation(self):
        with pytest.raises(ValueError):  # three rows, two counts
            KmerCounts(40, np.zeros((3, 2), dtype=np.uint64), np.ones(2))
        with pytest.raises(ValueError):  # half a row
            KmerCounts(40, np.arange(3, dtype=np.uint64), np.ones(1))


class TestAmbiguousBasesBig:
    def test_n_windows_dropped(self):
        s = "ACGT" * 12 + "N" + "ACGT" * 12  # 97 bases, N at 48
        codes = encode_seq(s, validate=False)
        k = 40
        got = extract_kmers(codes, k)
        # Valid windows avoid position 48: starts 0..8 and 49..57.
        assert got.shape == (9 + 9, 2)
        # And match the per-fragment reference.
        assert kmer_ints(got) == 2 * oracle_kmers("ACGT" * 12, k)

    def test_all_n(self):
        got = extract_kmers(encode_seq("N" * 50, validate=False), 40)
        assert got.shape == (0, 2)

    def test_batch_with_n_and_short_read(self):
        """One flat pass over the batch: windows never cross a read
        boundary, the read shorter than k and the windows over the `N`
        contribute nothing, order is read then window."""
        k = 40
        seqs = ["ACGT" * 12 + "N" + "TTGCA" * 10, "ACGTACGT", "GATTACA" * 9]
        batch = [encode_seq(s, validate=False) for s in seqs]
        got = extract_kmers_from_reads(batch, k)
        want = (oracle_kmers("ACGT" * 12, k) + oracle_kmers("TTGCA" * 10, k)
                + oracle_kmers("GATTACA" * 9, k))
        assert kmer_ints(got) == want
