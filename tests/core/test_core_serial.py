"""Tests for Algorithm 1 (serial counter)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.serial import serial_count, serial_count_oracle
from repro.seq.encoding import encode_seq

read_lists = st.lists(st.text(alphabet="ACGT", min_size=0, max_size=60), min_size=0, max_size=15)


class TestSerial:
    def test_simple_known(self):
        # "AAAA": three "AA" 2-mers... k=2 over AAAA -> AA x3
        kc = serial_count([encode_seq("AAAA")], 2)
        assert kc.n_distinct == 1
        assert kc.get(0) == 3

    def test_matrix_and_list_inputs_agree(self, small_reads):
        as_matrix = serial_count(small_reads, 21)
        as_list = serial_count([r for r in small_reads], 21)
        assert as_matrix == as_list

    @given(read_lists, st.integers(1, 12))
    def test_matches_oracle(self, reads, k):
        got = serial_count([encode_seq(r) for r in reads], k)
        want = serial_count_oracle(reads, k)
        assert got == want, got.diff(want)

    @given(read_lists)
    def test_total_kmers_conserved(self, reads):
        k = 5
        kc = serial_count([encode_seq(r) for r in reads], k)
        assert kc.total == sum(max(0, len(r) - k + 1) for r in reads)

    def test_canonical_mode(self):
        fwd = serial_count([encode_seq("GATTACA")], 7, canonical=True)
        rev = serial_count([encode_seq("TGTAATC")], 7, canonical=True)
        assert fwd == rev

    def test_canonical_oracle_agreement(self, tiny_reads):
        got = serial_count(tiny_reads, 9, canonical=True)
        want = serial_count_oracle(tiny_reads, 9, canonical=True)
        assert got == want

    def test_empty_input(self):
        kc = serial_count([], 5)
        assert kc.n_distinct == 0

    def test_spectrum_of_coverage(self, small_reads):
        """At ~4x coverage, counts concentrate around coverage and
        every count is >= 1."""
        kc = serial_count(small_reads, 21)
        assert kc.counts.min() >= 1
        assert kc.max_count >= 2  # overlapping reads repeat k-mers
