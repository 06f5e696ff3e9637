"""Tests for 128-bit k-mer support (k <= 64)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.alphabet import reverse_complement_str
from repro.seq.bigkmers import (
    MAX_BIG_K,
    BigKmerArray,
    accumulate_sorted_big,
    big_kmer_to_str,
    big_kmer_width_bits,
    canonical_big,
    extract_big_kmers,
    extract_big_kmers_from_reads,
    lexsort_big,
    reverse_complement_big,
    str_to_big_kmer,
)
from repro.seq.encoding import encode_seq
from repro.seq.kmers import extract_kmers

dna = st.text(alphabet="ACGT", min_size=0, max_size=160)
big_ks = st.integers(min_value=1, max_value=MAX_BIG_K)


def oracle_kmers(seq: str, k: int) -> list[int]:
    """Arbitrary-precision rolling k-mer oracle."""
    if len(seq) < k:
        return []
    out = []
    mask = (1 << (2 * k)) - 1
    val = 0
    codes = encode_seq(seq).tolist()
    for j, code in enumerate(codes):
        val = ((val << 2) | code) & mask
        if j >= k - 1:
            out.append(val)
    return out


class TestExtraction:
    @given(dna, big_ks)
    def test_matches_python_int_oracle(self, seq, k):
        got = extract_big_kmers(encode_seq(seq), k).as_python_ints()
        assert got == oracle_kmers(seq, k)

    @given(dna, st.integers(1, 32))
    def test_small_k_matches_64bit_path(self, seq, k):
        big = extract_big_kmers(encode_seq(seq), k)
        small = extract_kmers(encode_seq(seq), k)
        assert big.as_python_ints() == [int(x) for x in small]
        assert not big.hi.any()  # hi word unused for k <= 32

    def test_k33_crosses_word_boundary(self):
        seq = "A" * 32 + "C" + "G" * 10
        k = 33
        got = extract_big_kmers(encode_seq(seq), k)
        # First window: 32 A's then C -> value = 1 (the C's code).
        assert got.as_python_ints()[0] == 1
        # Second window: hi gets the A->shift... verify against oracle.
        assert got.as_python_ints() == oracle_kmers(seq, k)

    def test_width_rule_extended(self):
        assert big_kmer_width_bits(33) == 128
        assert big_kmer_width_bits(64) == 128
        assert big_kmer_width_bits(31) == 64
        with pytest.raises(ValueError):
            big_kmer_width_bits(65)

    def test_from_reads(self, small_reads):
        k = 45
        per = []
        for row in small_reads[:10]:
            per.extend(extract_big_kmers(row, k).as_python_ints())
        batch = extract_big_kmers_from_reads(small_reads[:10], k)
        assert batch.as_python_ints() == per


class TestStringConversion:
    @given(dna.filter(lambda s: 1 <= len(s) <= 64))
    def test_roundtrip(self, s):
        hi, lo = str_to_big_kmer(s)
        assert big_kmer_to_str(hi, lo, len(s)) == s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            big_kmer_to_str(1, 0, 3)


class TestReverseComplement:
    @given(dna.filter(lambda s: 1 <= len(s) <= 64))
    def test_matches_string_rc(self, s):
        k = len(s)
        hi, lo = str_to_big_kmer(s)
        arr = BigKmerArray(k, np.array([hi], dtype=np.uint64),
                           np.array([lo], dtype=np.uint64))
        rc = reverse_complement_big(arr)
        assert big_kmer_to_str(int(rc.hi[0]), int(rc.lo[0]), k) == reverse_complement_str(s)

    @given(big_ks, st.integers(0, 2**31))
    def test_involution(self, k, seed):
        rng = np.random.default_rng(seed)
        n = 30
        values = [int(rng.integers(0, 2**62)) << 40 | int(rng.integers(0, 2**40)) for _ in range(n)]
        values = [v & ((1 << (2 * k)) - 1) for v in values]
        arr = BigKmerArray.from_python_ints(k, values)
        rc2 = reverse_complement_big(reverse_complement_big(arr))
        assert rc2.as_python_ints() == values

    def test_canonical_strand_invariant(self):
        s = "GATTACAGATTACAGATTACAGATTACAGATTACAGATTAC"  # 41-mer
        k = len(s)
        fwd = BigKmerArray.from_python_ints(k, [(str_to_big_kmer(s)[0] << 64) | str_to_big_kmer(s)[1]])
        rc_s = reverse_complement_str(s)
        rev = BigKmerArray.from_python_ints(
            k, [(str_to_big_kmer(rc_s)[0] << 64) | str_to_big_kmer(rc_s)[1]]
        )
        assert canonical_big(fwd).as_python_ints() == canonical_big(rev).as_python_ints()


class TestSortAccumulate:
    @given(st.lists(st.integers(0, (1 << 90) - 1), min_size=0, max_size=150))
    def test_lexsort_matches_python_sort(self, values):
        arr = BigKmerArray.from_python_ints(45, values)
        got = lexsort_big(arr).as_python_ints()
        assert got == sorted(values)

    @given(st.lists(st.integers(0, (1 << 70) - 1), min_size=0, max_size=150))
    def test_accumulate_matches_counter(self, values):
        from collections import Counter

        arr = lexsort_big(BigKmerArray.from_python_ints(40, values))
        uniq, counts = accumulate_sorted_big(arr)
        assert dict(zip(uniq.as_python_ints(), counts.tolist())) == Counter(values)

    def test_accumulate_rejects_unsorted(self):
        arr = BigKmerArray.from_python_ints(40, [5, 3])
        with pytest.raises(ValueError):
            accumulate_sorted_big(arr)

    def test_array_validation(self):
        with pytest.raises(ValueError):
            BigKmerArray(40, np.zeros(2, dtype=np.uint64), np.zeros(3, dtype=np.uint64))


class TestAmbiguousBasesBig:
    def test_n_windows_dropped(self):
        s = "ACGT" * 12 + "N" + "ACGT" * 12  # 97 bases, N at 48
        codes = encode_seq(s, validate=False)
        k = 40
        got = extract_big_kmers(codes, k)
        # Valid windows avoid positions 48: starts 0..8 and 49..57.
        assert len(got) == 9 + 9
        # And match the per-fragment oracle.
        left = extract_big_kmers(encode_seq("ACGT" * 12), k)
        right = extract_big_kmers(encode_seq("ACGT" * 12), k)
        assert got.as_python_ints() == left.as_python_ints() + right.as_python_ints()

    def test_all_n(self):
        got = extract_big_kmers(encode_seq("N" * 50, validate=False), 40)
        assert len(got) == 0

    def test_batch_with_n_and_short_read(self):
        """One flat pass over the batch: windows never cross a read
        boundary, the read shorter than k and the windows over the `N`
        contribute nothing, order is read then window."""
        k = 40
        seqs = ["ACGT" * 12 + "N" + "TTGCA" * 10, "ACGTACGT", "GATTACA" * 9]
        batch = [encode_seq(s, validate=False) for s in seqs]
        got = extract_big_kmers_from_reads(batch, k)
        want = (oracle_kmers("ACGT" * 12, k) + oracle_kmers("TTGCA" * 10, k)
                + oracle_kmers("GATTACA" * 9, k))
        assert got.as_python_ints() == want
