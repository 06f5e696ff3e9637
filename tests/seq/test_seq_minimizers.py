"""Tests for minimizers and super-k-mer splitting."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.owner import splitmix64
from repro.seq.encoding import encode_seq
from repro.seq.kmers import extract_kmers
from repro.seq.minimizers import (
    minimizers_of_kmers,
    read_minimizers,
    split_superkmers,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


def oracle_minimizer(kmer: int, k: int, w: int) -> int:
    """Scalar reference: hash-minimal w-mer of one k-mer."""
    wmask = (1 << (2 * w)) - 1
    wmers = [(kmer >> (2 * j)) & wmask for j in range(k - w + 1)]
    return min(wmers, key=lambda x: splitmix64(x))


class TestMinimizers:
    @given(dna.filter(lambda s: len(s) >= 21))
    def test_matches_scalar_oracle(self, seq):
        k, w = 21, 7
        kmers = extract_kmers(encode_seq(seq), k)
        mins = minimizers_of_kmers(kmers, k, w)
        for i in range(0, kmers.size, max(1, kmers.size // 5)):
            assert int(mins[i]) == oracle_minimizer(int(kmers[i]), k, w)

    def test_w_equals_k_identity(self):
        kmers = np.array([5, 77], dtype=np.uint64)
        assert np.array_equal(minimizers_of_kmers(kmers, 5, 5), kmers)

    def test_bounds(self):
        kmers = np.array([1], dtype=np.uint64)
        with pytest.raises(ValueError):
            minimizers_of_kmers(kmers, 5, 6)
        with pytest.raises(ValueError):
            minimizers_of_kmers(kmers, 5, 0)

    def test_read_minimizers_short_read(self):
        assert read_minimizers(encode_seq("ACG"), 5, 3).size == 0


class TestSuperKmers:
    @given(dna, st.integers(10, 31))
    def test_partition_covers_all_kmers(self, seq, k):
        """Super-k-mers partition the read's k-mers exactly."""
        w = 7
        if k < w or len(seq) < k:
            return
        codes = encode_seq(seq)
        sks = split_superkmers(codes, k, w)
        n_kmers = len(seq) - k + 1
        assert sum(sk.n_kmers(k) for sk in sks) == n_kmers
        # Contiguity: runs tile the window index space.
        pos = 0
        for sk in sks:
            assert sk.start == pos
            pos += sk.n_kmers(k)

    @given(dna, st.integers(10, 31))
    def test_minimizer_constant_within_superkmer(self, seq, k):
        w = 7
        if k < w or len(seq) < k:
            return
        codes = encode_seq(seq)
        mins = read_minimizers(codes, k, w)
        for sk in split_superkmers(codes, k, w):
            run = mins[sk.start : sk.start + sk.n_kmers(k)]
            assert (run == np.uint64(sk.minimizer)).all()

    def test_substring_reconstruction(self):
        """A super-k-mer's bases re-extract to exactly its k-mer run."""
        seq = "ACGTTGCAATCGGATTACAGGCAT"
        k, w = 11, 5
        codes = encode_seq(seq)
        all_kmers = extract_kmers(codes, k)
        pos = 0
        for sk in split_superkmers(codes, k, w):
            sub = codes[sk.start : sk.start + sk.n_bases]
            got = extract_kmers(sub, k)
            assert np.array_equal(got, all_kmers[pos : pos + sk.n_kmers(k)])
            pos += sk.n_kmers(k)

    def test_few_superkmers_per_read(self, small_reads):
        """The whole point: far fewer super-k-mers than k-mers."""
        k, w = 21, 9
        total_kmers = 0
        total_sks = 0
        for row in small_reads[:40]:
            sks = split_superkmers(row, k, w)
            total_sks += len(sks)
            total_kmers += sum(sk.n_kmers(k) for sk in sks)
        assert total_sks < total_kmers / 3

    def test_compression_ratio_above_one(self, small_reads):
        from repro.seq.superkmers import split_superkmers_batch

        batch = split_superkmers_batch(small_reads[:40], 31, 9)
        ratio = 8 * batch.n_kmers / batch.wire_bytes()
        assert ratio > 2.0  # packed super-k-mers beat raw 8B k-mers

    def test_empty_read(self):
        assert split_superkmers(encode_seq(""), 11, 5) == []


class TestSuperKmerEdgeCases:
    """Short, homopolymer and ambiguous reads (out-of-core satellite)."""

    @pytest.mark.parametrize("seq", ["", "A", "ACGTACGTAC"])
    def test_read_shorter_than_k_returns_empty(self, seq):
        assert split_superkmers(encode_seq(seq), 11, 5) == []

    def test_read_of_exactly_k(self):
        codes = encode_seq("ACGTTGCAATC")  # 11 bases, one 11-mer
        sks = split_superkmers(codes, 11, 5)
        assert len(sks) == 1
        assert sks[0].start == 0 and sks[0].n_bases == 11
        assert sks[0].n_kmers(11) == 1

    @pytest.mark.parametrize("base", "ACGT")
    def test_homopolymer_read_is_one_superkmer(self, base):
        codes = encode_seq(base * 50)
        sks = split_superkmers(codes, 11, 5)
        assert len(sks) == 1
        assert sks[0].start == 0 and sks[0].n_bases == 50
        assert sks[0].n_kmers(11) == 40

    def test_all_ambiguous_read_returns_empty(self):
        assert split_superkmers(encode_seq("N" * 30, validate=False),
                                11, 5) == []

    def test_ambiguous_bases_segment_the_read(self):
        seq = "ACGTTGCAATCGG" + "N" + "ATTACAGGCATCA"
        codes = encode_seq(seq, validate=False)
        k, w = 7, 3
        sks = split_superkmers(codes, k, w)
        assert sks  # both halves hold k-mers
        for sk in sks:
            sub = codes[sk.start : sk.start + sk.n_bases]
            assert (sub != 255).all()  # every substring is ambiguity-free

    def test_short_segment_between_ns_is_dropped(self):
        # Middle segment of 4 bases can't hold a 7-mer; ends can.
        seq = "ACGTTGCA" + "N" + "ACGT" + "N" + "TTACAGGC"
        codes = encode_seq(seq, validate=False)
        sks = split_superkmers(codes, 7, 3)
        covered = {sk.start for sk in sks}
        assert covered and all(s < 8 or s > 13 for s in covered)

    @given(seq=st.text(alphabet="ACGTN", min_size=0, max_size=150),
           k=st.integers(3, 12))
    def test_segmented_superkmers_cover_valid_kmers_exactly(self, seq, k):
        """Super-k-mers over an N-bearing read reproduce its valid
        k-mer multiset exactly (occurrence for occurrence)."""
        codes = encode_seq(seq, validate=False)
        w = min(k, 4)
        got = []
        for sk in split_superkmers(codes, k, w):
            sub = codes[sk.start : sk.start + sk.n_bases]
            got.append(extract_kmers(sub, k))
        got_all = (np.sort(np.concatenate(got)) if got
                   else np.empty(0, dtype=np.uint64))
        want = np.sort(extract_kmers(codes, k))
        assert np.array_equal(got_all, want)
