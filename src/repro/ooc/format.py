"""The on-disk spill-bin format of out-of-core counting.

A *bin* holds the super-k-mers whose minimizer hashes to one
partition — the unit of independent pass-2 counting (KMC 2's design:
bins are written sequentially in pass 1 and each is small enough to
count in memory).  The format is append-friendly, versioned and
checksummed, because a bin file is written incrementally by a
bounded-memory writer and a crash (or a foreign file) must be detected
on load, never misread:

* a fixed 28-byte **header** — magic, format version, ``k``, ``w``,
  the bin id, and a CRC32 of the preceding fields;
* a sequence of **chunks**, one per spill flush.  Each chunk is a
  16-byte header (super-k-mer count, lengths payload bytes, bases
  payload bytes, CRC32 of both payloads) followed by a ``uint32``
  per-super-k-mer base-length array and the 2-bit-packed bases.

Super-k-mers are packed 4 bases/byte, each record padded to a byte
boundary, so a chunk's wire size is ``16 + 4·n + Σ ceil(len_i / 4)``
bytes — the ``k/4``-ish compression over shipping raw 8-byte k-mers
that makes disk spill cheaper than it looks (the same arithmetic as
:func:`repro.seq.superkmers.superkmer_wire_bytes`).

Loads are defensive, mirroring :class:`repro.trace.format.TraceFormatError`:
any truncation, bad magic, future version, or checksum mismatch raises
:class:`BinFormatError` instead of a bare ``struct``/``zlib`` error or
— worse — silently wrong counts.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..seq.superkmers import pack_spans, span_kmers

__all__ = [
    "BIN_MAGIC",
    "BIN_VERSION",
    "BinFormatError",
    "BinHeader",
    "pack_superkmers",
    "unpack_superkmers",
    "superkmer_kmers",
    "write_bin_header",
    "read_bin_header",
    "append_chunk",
    "iter_chunks",
    "read_bin_records",
]

BIN_MAGIC = b"dakcbin\x00"
BIN_VERSION = 1

_HEADER_STRUCT = struct.Struct("<8sIIII")          # magic, version, k, w, bin_id
_HEADER_SIZE = _HEADER_STRUCT.size + 4             # + crc32 of the packed fields
_CHUNK_STRUCT = struct.Struct("<IIII")             # n_sk, lengths_nbytes, bases_nbytes, crc


class BinFormatError(ValueError):
    """The file is not a readable dakc spill bin."""


@dataclass(frozen=True, slots=True)
class BinHeader:
    """Identity of one spill bin file."""

    k: int
    w: int
    bin_id: int


# -- 2-bit packing -----------------------------------------------------


def pack_superkmers(superkmers: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Pack base-code arrays into ``(lengths, blob)`` wire form.

    Each super-k-mer is packed 4 bases/byte (first base in the high
    bits), padded to a whole byte, so records stay byte-aligned and
    the unpack side can address them independently.  Thin wrapper over
    :func:`repro.seq.superkmers.pack_spans` — the one packing kernel
    shared with the vectorised counting fast path.
    """
    lengths = np.array([sk.size for sk in superkmers], dtype=np.int64)
    if lengths.size == 0:
        return lengths.astype(np.uint32), np.empty(0, dtype=np.uint8)
    if (lengths == 0).any():
        raise ValueError("cannot pack an empty super-k-mer")
    flat = (np.concatenate(superkmers).astype(np.uint8, copy=False)
            if superkmers else np.empty(0, dtype=np.uint8))
    starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return pack_spans(flat, starts, lengths)


def unpack_superkmers(lengths: np.ndarray, blob: np.ndarray) -> list[np.ndarray]:
    """Inverse of :func:`pack_superkmers` (list of base-code arrays)."""
    lengths = np.asarray(lengths, dtype=np.uint32)
    blob = np.asarray(blob, dtype=np.uint8)
    codes = _blob_codes(lengths, blob)
    byte_offsets = _byte_offsets(lengths)
    return [
        codes[int(byte_offsets[i]) * 4:int(byte_offsets[i]) * 4 + int(n)]
        for i, n in enumerate(lengths)
    ]


def _byte_offsets(lengths: np.ndarray) -> np.ndarray:
    padded_bytes = -(-lengths.astype(np.int64) // 4)
    return np.concatenate(([0], np.cumsum(padded_bytes)))


def _blob_codes(lengths: np.ndarray, blob: np.ndarray) -> np.ndarray:
    """All 2-bit codes of a packed blob (including pad positions)."""
    expected = int(_byte_offsets(lengths)[-1])
    if blob.size != expected:
        raise BinFormatError(
            f"packed payload holds {blob.size} bytes, lengths require {expected}")
    codes = np.empty(blob.size * 4, dtype=np.uint8)
    codes[0::4] = (blob >> 6) & 0x3
    codes[1::4] = (blob >> 4) & 0x3
    codes[2::4] = (blob >> 2) & 0x3
    codes[3::4] = blob & 0x3
    return codes


def superkmer_kmers(lengths: np.ndarray, blob: np.ndarray, k: int) -> np.ndarray:
    """All packed k-mers of a chunk, without materialising records.

    Every super-k-mer of ``n`` bases contributes ``n - k + 1`` k-mers:
    unpack the blob to codes, then the same span expansion in-memory
    batches use (:func:`repro.seq.superkmers.span_kmers`).
    """
    lengths = np.asarray(lengths, dtype=np.uint32)
    blob = np.asarray(blob, dtype=np.uint8)
    if lengths.size == 0:
        return np.empty(0, dtype=np.uint64)
    if int(lengths.min()) < k:
        raise BinFormatError(
            f"super-k-mer of {int(lengths.min())} bases cannot hold a {k}-mer")
    return span_kmers(_blob_codes(lengths, blob),
                      _byte_offsets(lengths)[:-1] * 4,
                      lengths.astype(np.int64) - k + 1, k)


# -- header ------------------------------------------------------------


def write_bin_header(fh: BinaryIO, header: BinHeader) -> int:
    """Write the fixed bin header; returns bytes written."""
    fields = _HEADER_STRUCT.pack(BIN_MAGIC, BIN_VERSION, header.k,
                                 header.w, header.bin_id)
    fh.write(fields)
    fh.write(struct.pack("<I", zlib.crc32(fields)))
    return _HEADER_SIZE


def read_bin_header(fh: BinaryIO, path: str | os.PathLike = "<bin>") -> BinHeader:
    """Read and validate the fixed header (defensive)."""
    blob = fh.read(_HEADER_SIZE)
    if len(blob) < _HEADER_SIZE:
        raise BinFormatError(f"{path}: truncated bin header "
                             f"({len(blob)} of {_HEADER_SIZE} bytes)")
    fields, (crc,) = blob[:_HEADER_STRUCT.size], struct.unpack("<I", blob[_HEADER_STRUCT.size:])
    magic, version, k, w, bin_id = _HEADER_STRUCT.unpack(fields)
    if magic != BIN_MAGIC:
        raise BinFormatError(f"{path}: bad magic {magic!r} (not a dakc spill bin)")
    if zlib.crc32(fields) != crc:
        raise BinFormatError(f"{path}: bin header checksum mismatch")
    if version != BIN_VERSION:
        raise BinFormatError(
            f"{path}: bin format version {version} "
            f"(this build reads version {BIN_VERSION})")
    return BinHeader(k=int(k), w=int(w), bin_id=int(bin_id))


# -- chunks ------------------------------------------------------------


def append_chunk(fh: BinaryIO, lengths: np.ndarray, blob: np.ndarray) -> int:
    """Append one checksummed chunk; returns bytes written."""
    lengths = np.ascontiguousarray(lengths, dtype=np.uint32)
    blob = np.ascontiguousarray(blob, dtype=np.uint8)
    lb, bb = lengths.tobytes(), blob.tobytes()
    crc = zlib.crc32(bb, zlib.crc32(lb))
    fh.write(_CHUNK_STRUCT.pack(lengths.size, len(lb), len(bb), crc))
    fh.write(lb)
    fh.write(bb)
    return _CHUNK_STRUCT.size + len(lb) + len(bb)


def iter_chunks(fh: BinaryIO, path: str | os.PathLike = "<bin>"
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(lengths, blob)`` per chunk, validating as it goes.

    Raises :class:`BinFormatError` on a torn tail (partial chunk
    header or payload — the signature of a crash mid-flush) or a
    checksum mismatch (bit rot, concurrent writers).
    """
    while True:
        head = fh.read(_CHUNK_STRUCT.size)
        if not head:
            return
        if len(head) < _CHUNK_STRUCT.size:
            raise BinFormatError(f"{path}: truncated chunk header "
                                 f"({len(head)} of {_CHUNK_STRUCT.size} bytes)")
        n_sk, lengths_nbytes, bases_nbytes, crc = _CHUNK_STRUCT.unpack(head)
        if lengths_nbytes != 4 * n_sk:
            raise BinFormatError(
                f"{path}: chunk declares {n_sk} super-k-mers but "
                f"{lengths_nbytes} length bytes")
        payload = fh.read(lengths_nbytes + bases_nbytes)
        if len(payload) < lengths_nbytes + bases_nbytes:
            raise BinFormatError(
                f"{path}: truncated chunk payload "
                f"({len(payload)} of {lengths_nbytes + bases_nbytes} bytes)")
        if zlib.crc32(payload) != crc:
            raise BinFormatError(f"{path}: chunk checksum mismatch")
        lengths = np.frombuffer(payload[:lengths_nbytes], dtype=np.uint32)
        blob = np.frombuffer(payload[lengths_nbytes:], dtype=np.uint8)
        if blob.size != int(_byte_offsets(lengths)[-1]):
            raise BinFormatError(
                f"{path}: chunk payload size disagrees with its lengths")
        yield lengths, blob


def read_bin_records(path: str | os.PathLike,
                     ) -> tuple[BinHeader, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Open a bin file: validated header plus a chunk iterator.

    The iterator owns the file handle and closes it on exhaustion (or
    on the error it raises).
    """
    path = Path(path)
    fh = open(path, "rb")
    try:
        header = read_bin_header(fh, path)
    except Exception:
        fh.close()
        raise

    def _chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        try:
            yield from iter_chunks(fh, path)
        finally:
            fh.close()

    return header, _chunks()
