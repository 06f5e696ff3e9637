"""The on-disk spill-bin format of out-of-core counting.

A *bin* holds the super-k-mers whose minimizer hashes to one
partition — the unit of independent pass-2 counting (KMC 2's design:
bins are written sequentially in pass 1 and each is small enough to
count in memory).  A bin file is written incrementally by a
bounded-memory writer, so it is a :mod:`repro.fileio` framed header
(fields ``k``, ``w``, the bin id) followed by one checksummed record
per spill flush; framing, versioning and what a load refuses are in
``docs/FORMATS.md``.  This module owns only what goes *inside* a
record — a **chunk**: ``u32 n`` super-k-mers, their ``u32`` base
lengths, then the 2-bit-packed bases.

Super-k-mers are packed 4 bases/byte, each record padded to a byte
boundary, so a chunk's wire size is ``12 + 4·n + Σ ceil(len_i / 4)``
bytes — the ``k/4``-ish compression over shipping raw 8-byte k-mers
that makes disk spill cheaper than it looks (the same arithmetic as
:func:`repro.seq.superkmers.superkmer_wire_bytes`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..fileio import FormatError, Framing, record
from ..seq.superkmers import pack_spans, span_kmers

__all__ = [
    "BIN",
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

BIN = Framing("spill bin", b"dakcbin\x00", 2, "<III")   # fields: k, w, bin_id


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
        raise ValueError(
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
        raise ValueError(
            f"super-k-mer of {int(lengths.min())} bases cannot hold a {k}-mer")
    return span_kmers(_blob_codes(lengths, blob),
                      _byte_offsets(lengths)[:-1] * 4,
                      lengths.astype(np.int64) - k + 1, k)


# -- header ------------------------------------------------------------


def write_bin_header(fh: BinaryIO, header: BinHeader) -> int:
    """Write the framed bin header; returns bytes written."""
    return fh.write(BIN.header(header.k, header.w, header.bin_id))


def read_bin_header(fh: BinaryIO, path: str | os.PathLike = "<bin>") -> BinHeader:
    """Read and validate the framed header."""
    return BinHeader(*BIN.read_header(fh, path))


# -- chunks ------------------------------------------------------------


def append_chunk(fh: BinaryIO, lengths: np.ndarray, blob: np.ndarray) -> int:
    """Append one chunk as a checksummed record; returns bytes written."""
    lengths = np.ascontiguousarray(lengths, dtype="<u4")
    blob = np.ascontiguousarray(blob, dtype=np.uint8)
    return fh.write(record(lengths.size.to_bytes(4, "little"),
                           lengths.tobytes(), blob.tobytes()))


def iter_chunks(fh: BinaryIO, path: str | os.PathLike = "<bin>"
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(lengths, blob)`` per chunk, validating as it goes.

    Raises :class:`~repro.fileio.FormatError` on a torn tail (the
    signature of a crash mid-flush), a checksum mismatch, or a payload
    whose blob size disagrees with its lengths.
    """
    for payload, _end in BIN.records(fh, path):
        n_sk = int.from_bytes(payload[:4], "little")
        if len(payload) < 4 + 4 * n_sk:
            raise FormatError(path, BIN.kind, "corrupt",
                              f"chunk declares {n_sk} super-k-mers "
                              f"in {len(payload)} payload bytes")
        lengths = np.frombuffer(payload, dtype="<u4", count=n_sk, offset=4)
        blob = np.frombuffer(payload, dtype=np.uint8, offset=4 + 4 * n_sk)
        if blob.size != int(_byte_offsets(lengths)[-1]):
            raise FormatError(path, BIN.kind, "corrupt",
                              "chunk payload size disagrees with its lengths")
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
