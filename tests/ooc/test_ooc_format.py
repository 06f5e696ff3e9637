"""Tests for the spill-bin format: packing, round trips, defensive loads."""

from __future__ import annotations

import dataclasses
import io

import numpy as np
import pytest

from repro.fileio import FormatError
from repro.ooc.format import (
    BIN,
    BinHeader,
    append_chunk,
    iter_chunks,
    pack_superkmers,
    read_bin_header,
    read_bin_records,
    superkmer_kmers,
    unpack_superkmers,
    write_bin_header,
)
from repro.seq.kmers import extract_kmers

rng = np.random.default_rng(7)


def random_superkmers(n, k, extra=30):
    return [rng.integers(0, 4, size=int(rng.integers(k, k + extra))).astype(np.uint8)
            for _ in range(n)]


class TestPacking:
    def test_round_trip(self):
        sks = random_superkmers(40, 9)
        lengths, blob = pack_superkmers(sks)
        back = unpack_superkmers(lengths, blob)
        assert len(back) == len(sks)
        for a, b in zip(sks, back):
            assert np.array_equal(a, b)

    def test_empty_list(self):
        lengths, blob = pack_superkmers([])
        assert lengths.size == 0 and blob.size == 0
        assert unpack_superkmers(lengths, blob) == []

    def test_four_bases_per_byte(self):
        sks = [np.array([0, 1, 2, 3, 0, 1, 2, 3], dtype=np.uint8)]
        _lengths, blob = pack_superkmers(sks)
        assert blob.size == 2  # 8 bases at 4/byte, no padding needed

    def test_rejects_ambiguous_codes(self):
        with pytest.raises(ValueError, match="2-bit"):
            pack_superkmers([np.array([0, 1, 255], dtype=np.uint8)])

    def test_rejects_empty_record(self):
        with pytest.raises(ValueError, match="empty"):
            pack_superkmers([np.empty(0, dtype=np.uint8)])

    def test_kmer_expansion_matches_extract(self):
        k = 11
        sks = random_superkmers(25, k)
        lengths, blob = pack_superkmers(sks)
        want = np.concatenate([extract_kmers(sk, k) for sk in sks])
        got = superkmer_kmers(lengths, blob, k)
        assert np.array_equal(np.sort(want), np.sort(got))

    def test_kmer_expansion_rejects_short_record(self):
        lengths, blob = pack_superkmers([np.array([0, 1, 2], dtype=np.uint8)])
        with pytest.raises(ValueError, match="cannot hold"):
            superkmer_kmers(lengths, blob, 5)


def make_bin(n_chunks=2, k=9, w=4, bin_id=3):
    buf = io.BytesIO()
    write_bin_header(buf, BinHeader(k=k, w=w, bin_id=bin_id))
    chunks = []
    for _ in range(n_chunks):
        lengths, blob = pack_superkmers(random_superkmers(6, k))
        append_chunk(buf, lengths, blob)
        chunks.append((lengths, blob))
    return buf.getvalue(), chunks


class TestFileRoundTrip:
    def test_header_and_chunks(self):
        raw, chunks = make_bin()
        fh = io.BytesIO(raw)
        assert read_bin_header(fh) == BinHeader(k=9, w=4, bin_id=3)
        got = list(iter_chunks(fh))
        assert len(got) == len(chunks)
        for (gl, gb), (wl, wb) in zip(got, chunks):
            assert np.array_equal(gl, wl) and np.array_equal(gb, wb)

    def test_read_bin_records(self, tmp_path):
        raw, chunks = make_bin(n_chunks=3)
        path = tmp_path / "bin-00003.skb"
        path.write_bytes(raw)
        header, it = read_bin_records(path)
        assert header.bin_id == 3
        assert len(list(it)) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_bin_records(tmp_path / "absent.skb")


HEADER_SIZE = len(BIN.header(9, 4, 3))


class TestDefensiveLoads:
    """Where exactly a bin stream is cut or flipped decides the reason.

    The cross-format cases (empty, random bytes, another format's file,
    missing) are rows of ``tests/test_fileio_corruption.py``.
    """

    def test_truncated_header(self):
        raw, _ = make_bin()
        with pytest.raises(FormatError, match="header ends after 10") as exc:
            read_bin_header(io.BytesIO(raw[:10]))
        assert exc.value.reason == "truncated"

    def test_foreign_magic(self):
        raw, _ = make_bin()
        with pytest.raises(FormatError, match="bad magic") as exc:
            read_bin_header(io.BytesIO(b"PK\x03\x04....." + raw[9:]))
        assert exc.value.reason == "foreign"

    def test_header_crc_mismatch(self):
        raw, _ = make_bin()
        bad = bytearray(raw)
        bad[17] ^= 0xFF  # flip a byte of k; crc now disagrees
        with pytest.raises(FormatError, match="checksum") as exc:
            read_bin_header(io.BytesIO(bytes(bad)))
        assert exc.value.reason == "corrupt"

    def test_future_version(self):
        raw = dataclasses.replace(BIN, version=BIN.version + 1).header(9, 4, 0)
        with pytest.raises(FormatError, match="version") as exc:
            read_bin_header(io.BytesIO(raw))
        assert exc.value.reason == "version"

    def test_parent_commit_version_is_refused_not_misread(self):
        """A version-1 bin: same magic, ``k`` where the field length now sits."""
        raw = BIN.magic + (1).to_bytes(4, "little") + bytes(16)
        with pytest.raises(FormatError) as exc:
            read_bin_header(io.BytesIO(raw))
        assert exc.value.reason == "version"

    def test_torn_chunk_header(self):
        raw, _ = make_bin(n_chunks=1)
        fh = io.BytesIO(raw[:HEADER_SIZE + 7])
        read_bin_header(fh)
        with pytest.raises(FormatError, match="record header at byte 32 ends early"):
            list(iter_chunks(fh))

    def test_torn_chunk_payload(self):
        raw, _ = make_bin(n_chunks=1)
        fh = io.BytesIO(raw[:-3])
        read_bin_header(fh)
        with pytest.raises(FormatError, match="holds .* of .* bytes") as exc:
            list(iter_chunks(fh))
        assert exc.value.reason == "truncated"

    def test_payload_corruption(self):
        raw, _ = make_bin(n_chunks=1)
        bad = bytearray(raw)
        bad[-1] ^= 0x55
        fh = io.BytesIO(bytes(bad))
        read_bin_header(fh)
        with pytest.raises(FormatError, match="checksum") as exc:
            list(iter_chunks(fh))
        assert exc.value.reason == "corrupt"

    def test_lengths_disagreeing_with_blob(self):
        """A checksummed chunk can still be wrong about itself."""
        buf = io.BytesIO()
        append_chunk(buf, np.array([8], dtype=np.uint32),
                     np.zeros(5, dtype=np.uint8))   # 8 bases need 2 bytes
        buf.seek(0)
        with pytest.raises(FormatError, match="disagrees with its lengths"):
            list(iter_chunks(buf))
