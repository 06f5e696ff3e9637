"""Streaming (batched) counting of FASTX files.

KMC3's defining feature — and the reason the paper uses it as the
shared-memory baseline — is out-of-core operation: the input never has
to fit in memory at once.  This module provides the analogous batched
path for this library: records stream off disk in bounded batches,
each batch is counted in one shot into a sorted (k-mer, count) table,
and the tables merge by size.  Peak memory is one batch of reads plus
the distinct-k-mer tables (the irreducible output), instead of the
whole read set.

Each batch runs the one counting kernel over a flat ``(codes, offsets)``
encoding of its reads: the flat window kernel
(:func:`repro.seq.kmers.extract_kmers_flat`) and
(canonical) -> sort -> accumulate
(:func:`repro.seq.kmers.count_owned_kmers`) — zero per-read or
per-k-mer Python in the hot loop, and no super-k-mer split: nothing
here crosses a disk or a wire.  Files reach that loop through the block
parser (:func:`repro.seq.fastx.read_fastx_batches`: binary blocks, one
newline index, one ``bytes.translate``), record streams through a
joined encode of each batch (:func:`repro.seq.encoding.encode_batch`).
The reference it is tested against is per-read ``encode_seq`` +
:func:`repro.core.serial.serial_count`.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import islice

import numpy as np

from ..core.result import KmerCounts
from ..seq.encoding import encode_batch
from ..seq.fastx import SeqRecord, read_fastx_batches
from ..seq.kmers import check_k, count_owned_kmers, extract_kmers_flat
from .store import merge_sorted_counts

__all__ = ["count_records_streaming", "count_file_streaming", "count_files_streaming"]

#: Records per batch: the bound on what one batch holds in memory.
BATCH_RECORDS = 100_000


def _count_batches(
    batches: Iterator[tuple[np.ndarray, np.ndarray]],
    k: int,
    batch_records: int,
    canonical: bool,
) -> KmerCounts:
    """The one batch loop: count each ``(codes, offsets)`` batch, merge.

    Each batch becomes one sorted table on a stack; the top two merge
    while the newer is at least half the older, so every k-mer is
    merged O(log batches) times rather than once per later batch.  The
    stack is folded once at the end; a single batch is never merged.
    *batches* is a generator not yet started, so a bad *batch_records*
    is refused before anything is read.
    """
    if batch_records < 1:
        raise ValueError("batch_records must be >= 1")
    check_k(k)  # the merge keys one word per k-mer
    stack: list[tuple[np.ndarray, np.ndarray]] = []
    for flat, offsets in batches:
        table = count_owned_kmers(
            extract_kmers_flat(flat, offsets, k), k, canonical=canonical)
        while stack and 2 * table[0].size >= stack[-1][0].size:
            table = merge_sorted_counts(*stack.pop(), *table)
        stack.append(table)
    keys, vals = (stack.pop() if stack else
                  (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)))
    while stack:
        keys, vals = merge_sorted_counts(*stack.pop(), keys, vals)
    return KmerCounts(k, keys, vals)


def count_records_streaming(
    records: Iterable[SeqRecord],
    k: int,
    *,
    batch_records: int = BATCH_RECORDS,
    canonical: bool = False,
) -> KmerCounts:
    """Count k-mers of a record stream in bounded batches."""

    def batches() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        it = iter(records)
        while batch := list(islice(it, batch_records)):
            yield encode_batch([r.seq for r in batch], validate=False)

    return _count_batches(batches(), k, batch_records, canonical)


def count_file_streaming(
    path: str | os.PathLike, k: int, *, canonical: bool = False
) -> KmerCounts:
    """Count a FASTA/FASTQ file without loading it whole."""
    return count_files_streaming([path], k, canonical=canonical)


def count_files_streaming(
    paths: list[str | os.PathLike],
    k: int,
    *,
    canonical: bool = False,
) -> KmerCounts:
    """Count several files into one database (multi-lane sequencing runs),
    :data:`BATCH_RECORDS` records at a time.

    Batches run on across file boundaries: a batch can hold the tail
    of one file and the head of the next.
    """
    return _count_batches(
        read_fastx_batches(*paths, batch_records=BATCH_RECORDS),
        k, BATCH_RECORDS, canonical)
