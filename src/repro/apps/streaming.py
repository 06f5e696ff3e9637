"""Streaming (batched) counting of FASTX files.

KMC3's defining feature — and the reason the paper uses it as the
shared-memory baseline — is out-of-core operation: the input never has
to fit in memory at once.  This module provides the analogous batched
path for this library: records stream off disk in bounded batches,
each batch is counted in one shot, and partial results merge into a
running (k-mer, count) database.  Peak memory is one batch of reads
plus the distinct-k-mer database (the irreducible output), instead of
the whole read set.

Each batch runs the one counting kernel: a joined encode of the whole
batch (:func:`repro.seq.encoding.encode_batch`), the flat window
kernel (:func:`repro.seq.kmers.extract_kmers_flat`) and
(canonical) -> sort -> accumulate
(:func:`repro.seq.kmers.count_packed_kmers`) — zero per-read or
per-k-mer Python in the hot loop, and no super-k-mer split: nothing
here crosses a disk or a wire.  The reference it is tested against is
per-read ``encode_seq`` + :func:`repro.core.serial.serial_count`.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from ..core.result import KmerCounts
from ..seq.encoding import encode_batch
from ..seq.fastx import SeqRecord, read_fastx
from ..seq.kmers import count_packed_kmers, extract_kmers_flat
from .store import merge_sorted_counts

__all__ = ["count_records_streaming", "count_file_streaming", "count_files_streaming"]


def _batches(records: Iterable[SeqRecord], size: int) -> Iterator[list[SeqRecord]]:
    batch: list[SeqRecord] = []
    for rec in records:
        batch.append(rec)
        if len(batch) >= size:
            yield batch
            batch = []
    if batch:
        yield batch


def count_records_streaming(
    records: Iterable[SeqRecord],
    k: int,
    *,
    batch_records: int = 100_000,
    canonical: bool = False,
    progress: Callable[[int, KmerCounts], None] | None = None,
) -> KmerCounts:
    """Count k-mers of a record stream in bounded batches.

    *progress*, if given, is called after every merged batch with
    ``(records_so_far, running_counts)`` — usable for live status or
    early inspection (the running counts are always valid for the
    prefix consumed so far).
    """
    if batch_records < 1:
        raise ValueError("batch_records must be >= 1")
    merged_keys = np.empty(0, dtype=np.uint64)
    merged_vals = np.empty(0, dtype=np.int64)
    seen = 0
    for batch in _batches(records, batch_records):
        flat, offsets = encode_batch([r.seq for r in batch], validate=False)
        keys, vals = count_packed_kmers(
            extract_kmers_flat(flat, offsets, k), k, canonical=canonical)
        merged_keys, merged_vals = merge_sorted_counts(
            merged_keys, merged_vals, keys, vals
        )
        seen += len(batch)
        if progress is not None:
            progress(seen, KmerCounts(k, merged_keys, merged_vals))
    return KmerCounts(k, merged_keys, merged_vals)


def count_file_streaming(
    path: str | os.PathLike,
    k: int,
    *,
    batch_records: int = 100_000,
    canonical: bool = False,
    progress: Callable[[int, KmerCounts], None] | None = None,
) -> KmerCounts:
    """Count a FASTA/FASTQ file without loading it whole."""
    return count_records_streaming(
        read_fastx(path), k,
        batch_records=batch_records, canonical=canonical, progress=progress,
    )


def count_files_streaming(
    paths: list[str | os.PathLike],
    k: int,
    *,
    batch_records: int = 100_000,
    canonical: bool = False,
    progress: Callable[[int, KmerCounts], None] | None = None,
) -> KmerCounts:
    """Count several files into one database (multi-lane sequencing runs).

    *progress* reports **global** records-so-far across the whole file
    list — the counter never resets at a file boundary, so a caller
    driving a progress bar sees one monotone stream, not N restarts.
    """

    def chain() -> Iterator[SeqRecord]:
        for path in paths:
            yield from read_fastx(path)

    return count_records_streaming(
        chain(), k,
        batch_records=batch_records, canonical=canonical, progress=progress,
    )
