"""Tests for repro.seq.kmers: extraction, packing, reverse complement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.encoding import encode_seq
from repro.seq.kmers import (
    MAX_K,
    canonical_kmers,
    extract_kmers,
    extract_kmers_from_reads,
    iter_kmers,
    kmer_storage_bytes,
    kmer_to_str,
    kmer_width_bits,
    reverse_complement_kmer,
    reverse_complement_kmers,
    str_to_kmer,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=150)
ks = st.integers(min_value=1, max_value=MAX_K)


class TestWidth:
    @pytest.mark.parametrize(
        "k,bits", [(1, 2), (2, 4), (4, 8), (8, 16), (15, 32), (16, 32), (17, 64), (31, 64),
                   (32, 64), (33, 128), (64, 128)]
    )
    def test_width_rule(self, k, bits):
        """The paper's 2^ceil(log2(2k)) storage rule, up to two words."""
        assert kmer_width_bits(k) == bits

    def test_storage_bytes(self):
        assert kmer_storage_bytes(31) == 8
        assert kmer_storage_bytes(15) == 4
        assert kmer_storage_bytes(1) == 1

    @pytest.mark.parametrize("k", [0, -1, 65, 100])
    def test_invalid_k(self, k):
        with pytest.raises(ValueError):
            kmer_width_bits(k)


class TestExtraction:
    def test_known_values(self):
        # ACGTA, k=3 -> ACG=0b000110=6, CGT=0b011011=27, GTA=0b101100=44
        got = extract_kmers(encode_seq("ACGTA"), 3)
        assert got.tolist() == [0b000110, 0b011011, 0b101100]

    def test_read_shorter_than_k(self):
        assert extract_kmers(encode_seq("ACG"), 5).size == 0

    def test_exact_length_read(self):
        got = extract_kmers(encode_seq("ACGT"), 4)
        assert got.tolist() == [str_to_kmer("ACGT")]

    @given(dna, ks)
    def test_matches_rolling_reference(self, seq, k):
        """Vectorised extractor == Algorithm 1's rolling loop."""
        vec = extract_kmers(encode_seq(seq), k)
        ref = np.fromiter(iter_kmers(seq, k), dtype=np.uint64)
        assert np.array_equal(vec, ref)

    @given(dna, ks)
    def test_count(self, seq, k):
        assert extract_kmers(encode_seq(seq), k).size == max(0, len(seq) - k + 1)

    def test_invalid_base_windows_dropped(self):
        codes = encode_seq("ACGTNACGT", validate=False)
        got = extract_kmers(codes, 3)
        # Windows overlapping the N (positions 2..4) are dropped.
        want = [str_to_kmer(s) for s in ("ACG", "CGT", "ACG", "CGT")]
        assert got.tolist() == want

    def test_matrix_form_matches_per_read(self, small_reads):
        k = 21
        per_read = np.concatenate([extract_kmers(r, k) for r in small_reads])
        matrix = extract_kmers_from_reads(small_reads, k)
        assert np.array_equal(per_read, matrix)

    def test_matrix_too_short(self):
        reads = np.zeros((3, 4), dtype=np.uint8)
        assert extract_kmers_from_reads(reads, 10).size == 0

    def test_list_of_arrays(self):
        reads = [encode_seq("ACGTACGT"), encode_seq("TTTTT")]
        got = extract_kmers_from_reads(reads, 5)
        assert got.size == 4 + 1

    def test_empty_list(self):
        assert extract_kmers_from_reads([], 5).size == 0


class TestStringConversion:
    @given(dna.filter(lambda s: 1 <= len(s) <= 64))
    def test_roundtrip(self, s):
        assert kmer_to_str(str_to_kmer(s), len(s)) == s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kmer_to_str(1 << 10, 3)  # value needs >6 bits
        with pytest.raises(ValueError):
            kmer_to_str(1 << 64, 3)  # a set hi word


class TestReverseComplement:
    @given(st.integers(min_value=0), ks)
    def test_vector_matches_scalar(self, seed, k):
        rng = np.random.default_rng(seed % 2**32)
        mask = (1 << (2 * k)) - 1
        kmers = rng.integers(0, 1 << 62, size=50, dtype=np.uint64) & np.uint64(mask)
        rc = reverse_complement_kmers(kmers, k)
        for i in (0, 13, 49):
            assert int(rc[i]) == reverse_complement_kmer(int(kmers[i]), k)

    @given(dna.filter(lambda s: 1 <= len(s) <= 64))
    def test_matches_string_rc(self, s):
        from repro.seq.alphabet import reverse_complement_str

        k = len(s)
        got = reverse_complement_kmer(str_to_kmer(s), k)
        assert kmer_to_str(got, k) == reverse_complement_str(s)

    @given(ks)
    def test_involution(self, k):
        rng = np.random.default_rng(k)
        mask = (1 << (2 * k)) - 1
        kmers = rng.integers(0, 1 << 62, size=100, dtype=np.uint64) & np.uint64(mask)
        rc2 = reverse_complement_kmers(reverse_complement_kmers(kmers, k), k)
        assert np.array_equal(rc2, kmers)

    @given(ks)
    def test_canonical_idempotent(self, k):
        rng = np.random.default_rng(k + 1)
        mask = (1 << (2 * k)) - 1
        kmers = rng.integers(0, 1 << 62, size=100, dtype=np.uint64) & np.uint64(mask)
        c1 = canonical_kmers(kmers, k)
        assert np.array_equal(canonical_kmers(c1, k), c1)
        # Canonical form is <= both strands.
        assert (c1 <= kmers).all()

    def test_canonical_strand_invariant(self):
        k = 7
        fwd = str_to_kmer("GATTACA")
        rev = reverse_complement_kmer(fwd, k)
        arr = np.array([fwd, rev], dtype=np.uint64)
        c = canonical_kmers(arr, k)
        assert c[0] == c[1]


class TestAmbiguousBases:
    def test_matrix_path_drops_n_windows(self):
        """Equal-length reads with Ns must not produce garbage k-mers
        through the dense matrix extractor."""
        from repro.seq.encoding import encode_seq

        rows = [encode_seq("ACGTNACGT", validate=False),
                encode_seq("ACGTACGTA", validate=False)]
        matrix = np.vstack(rows)
        got = extract_kmers_from_reads(matrix, 3)
        want = np.concatenate([extract_kmers(r, 3) for r in rows])
        assert np.array_equal(np.sort(got), np.sort(want))
        # Read 1 loses the 5 windows spanning the N: 7-5=2... window
        # count check: read1 contributes 4 valid windows of 7.
        assert got.size == 4 + 7

    def test_matrix_with_one_n_stays_vectorised(self, small_reads, monkeypatch):
        """One ambiguous base in a matrix must not drop the whole batch
        to a per-row Python loop: it takes the flat window kernel and
        still equals the list path and the Counter oracle."""
        import repro.seq.kmers as kmers_mod
        from repro.core.serial import serial_count_oracle
        from repro.seq.alphabet import INVALID_CODE
        from repro.seq.encoding import decode_codes

        matrix = small_reads.copy()
        matrix[17, 40] = INVALID_CODE
        rows = [row for row in matrix]

        def per_row(*args, **kwargs):
            raise AssertionError("per-row extract_kmers called")

        monkeypatch.setattr(kmers_mod, "extract_kmers", per_row)
        got = extract_kmers_from_reads(matrix, 21)
        assert np.array_equal(got, extract_kmers_from_reads(rows, 21))
        assert got.size == small_reads.shape[0] * 80 - 21
        frags = [decode_codes(piece) for i, row in enumerate(rows)
                 for piece in ((row[:40], row[41:]) if i == 17 else (row,))]
        want = serial_count_oracle(frags, 21).to_counter()
        uniq, counts = np.unique(got, return_counts=True)
        assert dict(zip(uniq.tolist(), counts.tolist())) == want

    def test_all_n_read(self):
        from repro.seq.encoding import encode_seq

        rows = np.vstack([encode_seq("NNNNN", validate=False)])
        assert extract_kmers_from_reads(rows, 3).size == 0

    def test_counting_n_fastq_end_to_end(self, tmp_path):
        """FASTQ with Ns -> count_kmers matches a hand-built expectation."""
        from collections import Counter

        from repro import count_kmers
        from repro.seq.fastx import SeqRecord, write_fastq
        from repro.seq.kmers import iter_kmers

        seqs = ["ACGTNACGTA", "TTTTTTTTTT", "ACGNNGTACG"]
        path = tmp_path / "n.fastq"
        write_fastq(path, [SeqRecord(f"r{i}", s, "I" * len(s))
                           for i, s in enumerate(seqs)])
        run = count_kmers(str(path), 4, algorithm="serial")
        want: Counter = Counter()
        for s in seqs:
            for frag in s.replace("N", " ").split():
                want.update(iter_kmers(frag, 4))
        assert run.counts.to_counter() == want
