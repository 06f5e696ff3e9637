"""Tests for repro.seq.alphabet and repro.seq.encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq.alphabet import (
    ASCII_TO_CODE,
    BASE_TO_CODE,
    BASES,
    INVALID_CODE,
    complement_base,
    reverse_complement_str,
)
from repro.seq.encoding import (
    decode_codes,
    encode_base,
    encode_seq,
)

dna = st.text(alphabet="ACGT", min_size=0, max_size=200)


class TestAlphabet:
    def test_bases_order(self):
        assert BASES == "ACGT"
        assert [BASE_TO_CODE[b] for b in BASES] == [0, 1, 2, 3]

    def test_complement_is_3_minus_code(self):
        for b in BASES:
            assert BASE_TO_CODE[complement_base(b)] == 3 - BASE_TO_CODE[b]

    def test_ascii_table_lowercase(self):
        for b in BASES:
            assert ASCII_TO_CODE[ord(b.lower())] == BASE_TO_CODE[b]

    def test_ascii_table_invalid(self):
        for ch in "NXYZ@ \n5":
            assert ASCII_TO_CODE[ord(ch)] == INVALID_CODE

    def test_reverse_complement_str(self):
        assert reverse_complement_str("ACGT") == "ACGT"  # palindrome
        assert reverse_complement_str("AAAA") == "TTTT"
        assert reverse_complement_str("GATTACA") == "TGTAATC"


class TestEncode:
    def test_encode_base(self):
        assert [encode_base(b) for b in "ACGT"] == [0, 1, 2, 3]

    def test_encode_base_invalid(self):
        with pytest.raises(ValueError, match="invalid DNA base"):
            encode_base("N")

    def test_encode_seq_simple(self):
        assert encode_seq("ACGT").tolist() == [0, 1, 2, 3]

    def test_encode_seq_bytes_input(self):
        assert encode_seq(b"TGCA").tolist() == [3, 2, 1, 0]

    def test_encode_seq_empty(self):
        assert encode_seq("").size == 0

    def test_encode_seq_invalid_raises(self):
        with pytest.raises(ValueError):
            encode_seq("ACNGT")

    def test_encode_seq_invalid_passthrough(self):
        codes = encode_seq("ACNGT", validate=False)
        assert codes[2] == INVALID_CODE
        assert codes[[0, 1, 3, 4]].tolist() == [0, 1, 2, 3]

    @given(dna)
    def test_roundtrip(self, seq):
        assert decode_codes(encode_seq(seq)) == seq

    def test_decode_rejects_invalid(self):
        with pytest.raises(ValueError):
            decode_codes(np.array([0, 1, 200], dtype=np.uint8))
