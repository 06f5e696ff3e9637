"""Persistence of counted k-mer databases.

Two formats:

* **binary** (``.kdb`` by convention; any path is written as given) —
  the native format: a framed header (k, size, canonical flag) and the
  ordered key/count arrays as the CRC'd sorted blocks of
  :mod:`repro.fileio` (``docs/FORMATS.md``).  Loads back bit-exact.
* **text** (``.tsv`` / ``.tsv.gz``) — interoperable dump, one
  ``KMER<TAB>count`` row per distinct k-mer (what ``jellyfish dump``
  / ``kmc_tools dump`` produce), for feeding external tools.  Paths
  ending in ``.gz`` are gzip-compressed transparently in both
  directions.
"""

from __future__ import annotations

import gzip
import os
import zlib
from pathlib import Path

import numpy as np

from ..core.result import KmerCounts
from ..fileio import (
    BLOCK_KEYS,
    FormatError,
    Framing,
    load_npz,
    publish,
    read_sorted_blocks,
    sorted_blocks,
)
from ..seq.kmers import MAX_K, check_k, str_to_kmer

__all__ = [
    "save_counts",
    "load_counts",
    "load_database",
    "dump_text",
    "load_text",
    "merge_sorted_counts",
    "DATABASE",
]

# fields: k, n_distinct, n_blocks, canonical.  Version 1 was a deflated .npz.
DATABASE = Framing("count database", b"dakckdb\x00", 2, "<IQQ?")
_TEXT_KIND = "k-mer text dump"
_TEXT_K_HEADER = "# k="
_GZIP_MAGIC = b"\x1f\x8b"


def _open_text(path: Path, mode: str):
    """Open a text dump (ASCII), gzip-compressed iff the path ends in .gz."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="ascii")
    return open(path, mode, encoding="ascii")


def save_counts(path: str | os.PathLike, counts: KmerCounts,
                *, canonical: bool = False) -> None:
    """Write a :class:`KmerCounts` (k <= 32) to *path* as a count database."""
    check_k(counts.k)

    def write(fh) -> None:
        fh.write(DATABASE.header(counts.k, counts.n_distinct,
                                 -(-counts.n_distinct // BLOCK_KEYS), canonical))
        fh.writelines(sorted_blocks(counts.kmers, counts.counts))

    publish(path, write)


def load_counts(path: str | os.PathLike) -> tuple[KmerCounts, bool]:
    """Load a database written by :func:`save_counts`.

    Returns ``(counts, canonical_flag)``.  Raises
    :class:`~repro.fileio.FormatError` if the file is not a readable
    count database of this format version (a version-1 ``.npz`` is
    refused as ``version``: re-count, or carry it over with
    :func:`dump_text`).
    """
    with open(path, "rb") as fh:
        if fh.read(2) == b"PK":
            # the zip container of version 1: say so, or that it is some other .npz
            load_npz(path, DATABASE.kind, ("version",), version=DATABASE.version)
            raise FormatError(path, DATABASE.kind, "foreign", "an .npz of another kind")
        fh.seek(0)
        k, n, n_blocks, canonical = DATABASE.read_header(fh, path)
        if not 1 <= k <= MAX_K:
            raise FormatError(path, DATABASE.kind, "corrupt", f"header says k={k}")
        kmers, values = read_sorted_blocks(DATABASE, fh, path, n=n, n_blocks=n_blocks,
                                           key_bits=2 * k)
    return KmerCounts(k, kmers, values), canonical


def load_database(path: str | os.PathLike) -> KmerCounts:
    """A binary database, or — when its magic says it is none — a text dump."""
    try:
        return load_counts(path)[0]
    except FormatError as exc:
        if exc.reason != "foreign":
            raise
    return load_text(path)


def merge_sorted_counts(
    keys_a: np.ndarray,
    vals_a: np.ndarray,
    keys_b: np.ndarray,
    vals_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two *sorted* ``(keys, counts)`` arrays, summing duplicates.

    Both key arrays must be strictly increasing (the invariant of
    :class:`~repro.core.result.KmerCounts` and of every on-disk run).
    Unlike :func:`repro.sort.accumulate.accumulate_weighted` this does
    not re-sort from scratch: the interleaving positions come from two
    ``np.searchsorted`` passes (O((m+n)·log) with tiny constants), so
    repeated merging — streaming counting, memtable updates, LSM
    compaction — stays cheap as the accumulated side grows.
    """
    a = np.ascontiguousarray(keys_a, dtype=np.uint64)
    va = np.ascontiguousarray(vals_a, dtype=np.int64)
    b = np.ascontiguousarray(keys_b, dtype=np.uint64)
    vb = np.ascontiguousarray(vals_b, dtype=np.int64)
    if a.shape != va.shape or b.shape != vb.shape or a.ndim != 1 or b.ndim != 1:
        raise ValueError("keys and counts must be aligned 1-D arrays")
    if a.size == 0:
        return b.copy(), vb.copy()
    if b.size == 0:
        return a.copy(), va.copy()
    if (a.size > 1 and (a[:-1] >= a[1:]).any()) or (
        b.size > 1 and (b[:-1] >= b[1:]).any()
    ):
        raise ValueError("merge_sorted_counts requires strictly increasing keys")
    # Final position of each element: its own rank plus how many of the
    # other array's keys precede it ('left' vs 'right' breaks the tie so
    # a duplicated key lands in two adjacent slots).
    pos_a = np.arange(a.size, dtype=np.intp) + np.searchsorted(b, a, side="left")
    pos_b = np.arange(b.size, dtype=np.intp) + np.searchsorted(a, b, side="right")
    n = a.size + b.size
    keys = np.empty(n, dtype=np.uint64)
    vals = np.empty(n, dtype=np.int64)
    keys[pos_a] = a
    keys[pos_b] = b
    vals[pos_a] = va
    vals[pos_b] = vb
    # Collapse adjacent duplicates (each key occurs at most twice).
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    return keys[starts].copy(), np.add.reduceat(vals, starts).astype(np.int64)


def _decode_kmer_strings(kmers: np.ndarray, k: int) -> list[str]:
    """Vectorised k-mer -> DNA-string decode for a whole array.

    Extracts every 2-bit code with one shift/mask per position (k
    passes over the array, not one Python loop per k-mer), gathers the
    base letters into an ``(n, k)`` byte matrix and slices row strings
    out of its buffer.
    """
    arr = np.asarray(kmers, dtype=np.uint64)
    shifts = np.arange(2 * (k - 1), -1, -2, dtype=np.uint64)
    codes = (arr[:, None] >> shifts) & np.uint64(3)
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)[codes.astype(np.intp)]
    blob = letters.tobytes()
    return [blob[i : i + k].decode("ascii") for i in range(0, len(blob), k)]


def dump_text(path: str | os.PathLike, counts: KmerCounts) -> int:
    """Dump as ``KMER<TAB>count`` text; returns rows written.

    A ``.gz`` path writes a gzip-compressed dump (k <= 32, as read back).
    A dump with no row is one ``# k=N`` line: :func:`load_text` takes k
    from the rows, and an empty dump has none to take it from.
    """
    check_k(counts.k)
    strs = _decode_kmer_strings(counts.kmers, counts.k)
    with _open_text(Path(path), "w") as fh:
        if not strs:
            fh.write(f"{_TEXT_K_HEADER}{counts.k}\n")
        fh.writelines(
            f"{s}\t{count}\n" for s, count in zip(strs, counts.counts.tolist())
        )
    return len(strs)


def load_text(path: str | os.PathLike) -> KmerCounts:
    """Load a ``KMER<TAB>count`` text dump (plain or ``.gz``) back.

    k is the length of the rows' k-mers, or the ``# k=N`` line of a dump
    without rows.  An unreadable dump is a
    :class:`~repro.fileio.FormatError`: ``corrupt`` naming ``line N``
    for a malformed row or header or a k-mer of another length than the
    first row's (or the header's), ``truncated`` for a ``.gz`` cut short
    or a dump with neither a row nor a header to take k from.
    """
    path = Path(path)

    def refused(reason: str, detail: str) -> FormatError:
        return FormatError(path, _TEXT_KIND, reason, detail)

    if path.suffix == ".gz":
        with open(path, "rb") as fh:
            head = fh.read(2)
        if head != _GZIP_MAGIC:
            raise refused("truncated" if _GZIP_MAGIC.startswith(head) else "foreign",
                          f"starts {head!r}, not as a gzip file")
    keys: list[int] = []
    vals: list[int] = []
    inferred_k = None
    line_no = 0
    try:
        with _open_text(path, "r") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if line.startswith(_TEXT_K_HEADER) and inferred_k is None:
                    try:
                        inferred_k = int(line[len(_TEXT_K_HEADER):])
                        check_k(inferred_k)
                    except ValueError as exc:
                        raise refused("corrupt", f"line {line_no}: malformed "
                                                 f"k header") from exc
                    continue
                if not line or line.startswith("#"):
                    continue
                try:
                    kmer_s, count_s = line.split("\t")
                    check_k(len(kmer_s))
                    keys.append(str_to_kmer(kmer_s))
                    vals.append(int(count_s))
                except ValueError as exc:
                    raise refused("corrupt", f"line {line_no}: malformed row") from exc
                if inferred_k is None:
                    inferred_k = len(kmer_s)
                elif len(kmer_s) != inferred_k:
                    raise refused("corrupt", f"line {line_no}: k-mer length "
                                             f"{len(kmer_s)} != {inferred_k}")
    except EOFError as exc:
        raise refused("truncated", f"gzip stream ends after line {line_no}") from exc
    except (gzip.BadGzipFile, zlib.error, UnicodeDecodeError) as exc:
        raise refused("corrupt", f"after line {line_no}: {exc}") from exc
    if inferred_k is None:
        raise refused("truncated", "empty dump, no row to infer k from")
    return KmerCounts.from_pairs(
        inferred_k,
        np.array(keys, dtype=np.uint64),
        np.array(vals, dtype=np.int64),
    )
