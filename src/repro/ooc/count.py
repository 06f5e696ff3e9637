"""Pass 2 of out-of-core counting, and the two-pass orchestrator.

Each spill bin is a closed k-mer multiset, so pass 2 is a loop of
independent in-memory counts: read a bin in groups of consecutive
chunks of at most the memory ceiling in bases, expand each group's
super-k-mers into packed k-mers (:func:`~.format.superkmer_kmers`),
count them with the one kernel every in-memory counter uses
(:func:`repro.seq.kmers.count_owned_kmers`: canonical -> sort in
place -> accumulate), and merge group results — one bin's worth of
data at a time instead of the whole dataset.

:func:`ooc_count` glues both passes together under one memory ceiling
and optionally *fuses* the results into a :class:`repro.lsm.LsmStore`:
every counted bin bulk-loads through ``ingest_counts``, so the store
flushes and compacts under its own (shared) budget while later bins
are still being counted — count-and-serve, never holding the full
dataset in memory.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..core.result import KmerCounts
from ..fileio import FormatError
from ..seq.kmers import count_owned_kmers
from ..seq.superkmers import DEFAULT_MINIMIZER_LEN
from ..sort.accumulate import merge_count_arrays
from .format import BIN, read_bin_records, superkmer_kmers
from .spill import BinWriter, FlushOrder, OocStats

__all__ = ["count_bin", "ooc_count"]

BinOrder = Callable[[Sequence[int]], list[int]]
"""Pass-2 policy: bin ids -> processing order (identity by default)."""


def _chunk_groups(chunks: Iterator[tuple[np.ndarray, np.ndarray]],
                  memory_bytes: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Consecutive chunks joined while their bases stay <= *memory_bytes*.

    Records are byte-aligned, so joined chunks are one valid chunk; a
    chunk that alone exceeds the ceiling is a group of its own.
    """
    def join(group):
        lengths, blobs = zip(*group)
        return np.concatenate(lengths), np.concatenate(blobs)

    group: list[tuple[np.ndarray, np.ndarray]] = []
    bases = 0
    for lengths, blob in chunks:
        n = int(lengths.sum(dtype=np.int64))
        if group and bases + n > memory_bytes:
            yield join(group)
            group, bases = [], 0
        group.append((lengths, blob))
        bases += n
    if group:
        yield join(group)


def count_bin(path: str | os.PathLike, *, k: int | None = None,
              canonical: bool = False, memory_bytes: int = 1 << 20,
              stats: OocStats | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Count one spill bin in memory; returns ``(unique_kmers, counts)``.

    Validates the bin header against *k* when given (a bin written at
    a different k would silently produce garbage k-mers otherwise).
    Memory is bounded by the ceiling, not the bin: consecutive chunks
    are joined while their bases stay within *memory_bytes* (the
    ceiling of :func:`ooc_count`), each group is expanded, sorted and
    accumulated in one pass, and group results merge into the
    accumulator.
    """
    header, chunks = read_bin_records(path)
    if k is not None and header.k != k:
        raise FormatError(path, BIN.kind, "mismatch",
                          f"bin was written at k={header.k}, requested k={k}")
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for lengths, blob in _chunk_groups(chunks, memory_bytes):
        parts.append(count_owned_kmers(
            superkmer_kmers(lengths, blob, header.k), header.k,
            canonical=canonical))
        if len(parts) > 8:  # keep the accumulator list flat
            parts = [merge_count_arrays(parts)]
    if stats is not None:
        stats.bytes_reread += os.path.getsize(path)
    return merge_count_arrays(parts)


def ooc_count(
    reads: np.ndarray | list,
    k: int,
    *,
    w: int | None = None,
    n_bins: int = 16,
    memory_bytes: int = 1 << 20,
    workdir: str | os.PathLike | None = None,
    canonical: bool = False,
    store=None,
    cost=None,
    pe_stats=None,
    stats: OocStats | None = None,
    flush_order: FlushOrder | None = None,
    bin_order: BinOrder | None = None,
    collect: bool = True,
    keep_bins: bool = False,
) -> KmerCounts:
    """Two-pass out-of-core count, bit-identical to :func:`serial_count`.

    Pass 1 spills minimizer-partitioned super-k-mers to *workdir* (a
    private temporary directory when ``None``), buffering at most
    *memory_bytes*; pass 2 counts bins independently.  With *store*
    (an :class:`~repro.lsm.LsmStore`), each counted bin bulk-loads via
    ``ingest_counts`` so flush/compaction interleave with counting —
    size the store's ``memtable_bytes`` from the same ceiling.  With
    *cost* (a :class:`~repro.runtime.cost.CostModel`), bytes spilled
    and reread are charged at the disk rate (β_disk) against
    *pe_stats* (a :class:`~repro.runtime.stats.PEStats`, created at
    PE 0 when omitted — pass your own to read the charged clock).

    *flush_order* and *bin_order* pin the spill/count interleaving for
    deterministic replay (the :mod:`repro.dst` hooks).  ``collect=False``
    skips the merged in-memory result (returns an empty
    :class:`KmerCounts`) — the store is then the only output, which is
    the honest configuration for data that genuinely exceeds RAM.
    """
    if w is None:
        w = min(k, DEFAULT_MINIMIZER_LEN)
    own_tmp = workdir is None
    tmp = tempfile.TemporaryDirectory(prefix="dakc-ooc-") if own_tmp else None
    bin_dir = Path(tmp.name) if own_tmp else Path(workdir)
    stats = stats if stats is not None else OocStats()
    if cost is not None and pe_stats is None:
        from ..runtime.stats import PEStats

        pe_stats = PEStats(0)
    try:
        writer = BinWriter(bin_dir, k, w, n_bins,
                           ceiling_bytes=memory_bytes,
                           flush_order=flush_order, stats=stats)
        writer.add_reads(reads)
        paths = writer.close()
        if cost is not None and stats.bytes_spilled:
            cost.charge_disk_write(pe_stats, stats.bytes_spilled,
                                   ops=max(1, stats.n_flushes))

        bin_ids = [int(p.stem.split("-")[1]) for p in paths]
        if bin_order is not None:
            order = list(bin_order(bin_ids))
            if sorted(order) != sorted(bin_ids):
                raise ValueError("bin_order must permute the bin ids")
        else:
            order = bin_ids
        by_id = dict(zip(bin_ids, paths))

        parts: list[tuple[np.ndarray, np.ndarray]] = []
        for b in order:
            before = stats.bytes_reread
            uniq, counts = count_bin(by_id[b], k=k, canonical=canonical,
                                     memory_bytes=memory_bytes, stats=stats)
            if cost is not None:
                cost.charge_disk_read(pe_stats, stats.bytes_reread - before)
            if store is not None:
                store.ingest_counts(uniq, counts)
            if collect:
                parts.append((uniq, counts))
            if not keep_bins:
                by_id[b].unlink()
        if not collect:
            return KmerCounts.empty(k)
        keys, vals = merge_count_arrays(parts)
        return KmerCounts(k, keys, vals)
    finally:
        if tmp is not None:
            tmp.cleanup()
