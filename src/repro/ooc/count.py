"""Out-of-core counting: ceiling-sized slices into sorted runs, merged once.

:func:`ooc_count` is external merge sort with the counter's own
pre-accumulation.  The reads are cut into slices of at most half the
memory ceiling in bases (:func:`read_slices`); each slice is counted
in memory by the one kernel every counter uses
(:func:`repro.seq.kmers.count_owned_kmers`: canonical -> sort in place
-> accumulate) and written as a *scratch run* in the LSM store's
``RUN`` format, so a heavy k-mer costs one ``(key, count)`` pair per
run.  At most ``n_bins`` scratch runs exist at once: the slice that
would add one more is merged with the smaller half of them instead
(:func:`repro.lsm.compaction.merge_runs`, each run offering a chunk
sized from the ceiling).  What is left at the end — the scratch runs
and the last slice, still in memory — is merged once: into the
caller's :class:`~repro.lsm.LsmStore` as one new run
(:meth:`~repro.lsm.LsmStore.load_runs`, one MANIFEST swap), or into the
returned :class:`~repro.core.result.KmerCounts`.

:func:`count_bin` counts one minimizer-partitioned spill bin of
:class:`~.spill.BinWriter` (the two-pass design this replaced).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from ..core.result import KmerCounts
from ..fileio import FormatError
from ..lsm.compaction import merge_runs, merged_chunks, pick_compaction
from ..lsm.run import Run, StreamedRun, write_run
from ..seq.kmers import check_k, count_owned_kmers, extract_kmers_from_reads
from ..sort.accumulate import merge_count_arrays
from .format import BIN, read_bin_records, superkmer_kmers
from .spill import OocStats

__all__ = ["OocCountStats", "count_bin", "ooc_count", "read_slices"]


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


@dataclass(slots=True)
class OocCountStats:
    """Measured quantities of one :func:`ooc_count`."""

    n_reads: int = 0
    n_kmers: int = 0          # k-mer occurrences counted
    n_slices: int = 0         # pieces the ceiling cut the reads into
    n_scratch_runs: int = 0   # scratch runs written, merge outputs included
    n_merges: int = 0         # k-way merges, the final one included
    bytes_spilled: int = 0    # written to scratch runs
    bytes_reread: int = 0     # read back by the merges

    def to_doc(self) -> dict:
        return {f: int(getattr(self, f)) for f in self.__slots__}


def read_slices(reads: np.ndarray | list, k: int, memory_bytes: int
                ) -> Iterator[np.ndarray | list[np.ndarray]]:
    """The reads cut into slices of at most half the ceiling in bases.

    Reads join a slice in order while they fit; a read longer than a
    whole slice is cut into pieces overlapping by ``k - 1`` bases, so
    each of its k-mers is in exactly one piece.  A slice is a block of
    rows of a read matrix, or a list of reads and pieces.
    """
    budget = max(k, memory_bytes // 2)
    if isinstance(reads, np.ndarray) and reads.ndim == 2 and reads.shape[1] <= budget:
        rows = budget // max(1, reads.shape[1])
        for start in range(0, reads.shape[0], rows):
            yield reads[start:start + rows]
        return
    piece: list[np.ndarray] = []
    bases = 0
    for read in reads:
        read = np.asarray(read, dtype=np.uint8).reshape(-1)
        start = 0
        while read.size - start > budget:   # a full slice of this read alone
            if piece:
                yield piece
                piece, bases = [], 0
            yield [read[start:start + budget]]
            start += budget - (k - 1)
        rest = read[start:]
        if piece and bases + rest.size > budget:
            yield piece
            piece, bases = [], 0
        piece.append(rest)
        bases += rest.size
    if piece:
        yield piece


class _Counted(NamedTuple):
    """A slice counted in memory, offered to a merge like a run."""

    k: int
    keys: np.ndarray
    vals: np.ndarray

    @property
    def n_keys(self) -> int:
        return int(self.keys.size)

    def read_slice(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        return self.keys[lo:hi], self.vals[lo:hi]


def ooc_count(
    reads: np.ndarray | list,
    k: int,
    *,
    n_bins: int = 16,
    memory_bytes: int = 1 << 20,
    workdir: str | os.PathLike | None = None,
    canonical: bool = False,
    store=None,
    cost=None,
    pe_stats=None,
    stats: OocCountStats | None = None,
    collect: bool = True,
) -> KmerCounts:
    """Out-of-core count under *memory_bytes*, bit-identical to :func:`serial_count`.

    Scratch runs live in *workdir* (a private temporary directory when
    ``None``) and are removed once merged; at most *n_bins* of them
    exist at once.  With *store* (an :class:`~repro.lsm.LsmStore`) the
    final merge is loaded into it as one run.  With *cost* (a
    :class:`~repro.runtime.cost.CostModel`), scratch bytes written and
    read are charged at the disk rate (β_disk) against *pe_stats* (a
    :class:`~repro.runtime.stats.PEStats`, created at PE 0 when omitted
    — pass your own to read the charged clock).  ``collect=False``
    returns an empty :class:`KmerCounts`: the store is then the only
    output, which is the honest configuration for data that genuinely
    exceeds RAM.
    """
    check_k(k)
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if memory_bytes < 1:
        raise ValueError("memory_bytes must be >= 1")
    stats = stats if stats is not None else OocCountStats()
    if cost is not None and pe_stats is None:
        from ..runtime.stats import PEStats

        pe_stats = PEStats(0)
    tmp = tempfile.TemporaryDirectory(prefix="dakc-ooc-") if workdir is None else None
    scratch = Path(tmp.name if tmp is not None else workdir)
    scratch.mkdir(parents=True, exist_ok=True)
    runs: list[StreamedRun] = []

    def chunk_keys(sources: list) -> int:
        """Each source's offer per merge step: together, pairs for half a
        slice's bases, so a merge step allocates no more than counting a
        slice does (the offers are read into memory: see StreamedRun)."""
        return max(1, memory_bytes // (4 * len(sources)))

    def write(sources: list) -> StreamedRun:
        """Write one counted slice, or the merge of *sources*, as a scratch run."""
        path = scratch / f"scratch-{stats.n_scratch_runs:06d}.run"
        if len(sources) == 1:
            write_run(path, k, sources[0].keys, sources[0].vals, fsync=False)
        else:
            merge_runs(sources, path, k, chunk_keys=chunk_keys(sources), fsync=False)
        stats.n_scratch_runs += 1
        nbytes = path.stat().st_size
        stats.bytes_spilled += nbytes
        if cost is not None:
            cost.charge_disk_write(pe_stats, nbytes)
        return StreamedRun(path)

    def consumed(sources: list) -> None:
        """Account for, and delete, the scratch runs a merge has read."""
        stats.n_merges += 1
        for run in sources:
            if isinstance(run, Run):
                stats.bytes_reread += run.nbytes
                if cost is not None:
                    cost.charge_disk_read(pe_stats, run.nbytes)
                run.close()
                run.path.unlink()

    try:
        stats.n_reads += len(reads)
        counted = None   # the slice in hand: it reaches disk only if another follows
        for piece in read_slices(reads, k, memory_bytes):
            if counted is not None:
                # With n_bins runs on disk, the smaller half of them are
                # merged with the slice in hand: a key is rewritten about
                # log(slices) times, not once per n_bins slices.
                sel = pick_compaction(runs, n_bins - 1, -(-n_bins // 2)) or []
                victims = [runs[i] for i in sel]
                merged = write(victims + [counted])
                if victims:
                    consumed(victims)
                runs = [r for i, r in enumerate(runs) if i not in sel] + [merged]
            kmers = extract_kmers_from_reads(piece, k)
            stats.n_slices += 1
            stats.n_kmers += int(kmers.size)
            counted = _Counted(k, *count_owned_kmers(kmers, k, canonical=canonical))
            del kmers
            if not counted.n_keys:
                counted = None
        sources = runs + ([counted] if counted is not None else [])
        result = KmerCounts.empty(k)
        if not sources:
            return result
        if store is not None:
            loaded = store.load_runs(sources, chunk_keys=chunk_keys(sources))
            if collect:
                result = KmerCounts(k, *(np.array(a) for a in loaded))
        else:
            chunks = merged_chunks(sources, chunk_keys(sources))
            if collect:
                keys, vals = zip(*chunks)
                result = KmerCounts(k, np.concatenate(keys), np.concatenate(vals))
            else:
                for _chunk in chunks:
                    pass   # no output: the merge only drains the scratch runs
        consumed(sources)
        return result
    finally:   # after an error: no scratch run outlives the call
        for run in runs:
            run.close()
            run.path.unlink(missing_ok=True)
        if tmp is not None:
            tmp.cleanup()
