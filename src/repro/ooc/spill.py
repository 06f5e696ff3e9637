"""KMC 2's first pass: spill super-k-mers to minimizer-partitioned bins.

Reads stream through the :mod:`repro.seq` minimizer splitter, each
super-k-mer is routed to the bin its minimizer hashes to (the same
splitmix64 owner hash that shards everything else in this codebase),
and bins buffer in memory until the ceiling is hit — then whole bins
flush to disk as one checksummed chunk each.  Which bins flush, and in
what order, is a pluggable policy: the default is largest-first
(fewest, biggest chunks); :func:`seeded_order` is a seeded shuffle.

Binning by *minimizer* rather than by k-mer keeps the ``k - w``
overlapping k-mers of a super-k-mer together in one bin: each bin holds
a closed multiset of k-mer occurrences (one occurrence lands in exactly
one bin), so bins count independently (:func:`~.count.count_bin`) and
their results concatenate.  :func:`~.count.ooc_count` no longer takes
this path (``docs/OOC.md`` has the measurement); the e2e benchmark's
traced replay still does.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..seq.kmers import _cumsum0
from ..seq.superkmers import (
    pack_spans,
    partition_superkmers,
    split_superkmers_batch,
)
from .format import BinHeader, append_chunk, write_bin_header

__all__ = ["OocStats", "BinWriter", "largest_first", "seeded_order"]

# Buffered-memory charge per pending super-k-mer: its unpacked size
# (1 byte/base) plus list/length bookkeeping.  A bin buffers the packed
# bytes (4 bases/byte) but is charged as if unpacked, so flush waves
# fire where they did when bins buffered unpacked codes.
_RECORD_OVERHEAD = 8

FlushOrder = Callable[[Sequence[tuple[int, int]]], list[int]]
"""Flush policy: ``[(bin_id, pending_bytes), ...]`` -> bin ids, flush order."""


def largest_first(pending: Sequence[tuple[int, int]]) -> list[int]:
    """Default policy: flush the fattest bins first (fewest, biggest chunks)."""
    return [b for b, _n in sorted(pending, key=lambda t: (-t[1], t[0]))]


def seeded_order(seed: int) -> FlushOrder:
    """A deterministic shuffled policy."""

    def order(pending: Sequence[tuple[int, int]]) -> list[int]:
        bins = sorted(b for b, _n in pending)
        rng = np.random.default_rng(seed)
        rng.shuffle(bins)
        return bins

    return order


@dataclass(slots=True)
class OocStats:
    """Measured quantities of :class:`BinWriter` and :func:`~.count.count_bin`."""

    n_reads: int = 0
    n_superkmers: int = 0
    n_kmers: int = 0
    n_bins_used: int = 0
    n_flushes: int = 0            # bin-flush events == chunks written
    n_ceiling_hits: int = 0       # times the ceiling forced a flush wave
    bytes_spilled: int = 0        # pass 1: written to bin files
    bytes_reread: int = 0         # pass 2: read back from bin files
    peak_buffered_bytes: int = 0  # high-water mark of pass-1 buffering

    def to_doc(self) -> dict:
        return {f: int(getattr(self, f)) for f in (
            "n_reads", "n_superkmers", "n_kmers", "n_bins_used",
            "n_flushes", "n_ceiling_hits", "bytes_spilled",
            "bytes_reread", "peak_buffered_bytes")}


class BinWriter:
    """Bounded-memory writer of minimizer-partitioned spill bins.

    Buffers super-k-mers per bin; when total buffered bytes exceed
    *ceiling_bytes*, flushes whole bins (in *flush_order*) until
    buffering drops to half the ceiling — hysteresis, so a flush wave
    produces few large chunks instead of thrashing one record at a
    time.  Bin files live in *directory* as ``bin-NNNNN.skb`` and
    accumulate one chunk per flush.
    """

    def __init__(self, directory: str | os.PathLike, k: int, w: int,
                 n_bins: int, *, ceiling_bytes: int,
                 flush_order: FlushOrder | None = None,
                 stats: OocStats | None = None):
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        if ceiling_bytes < 1:
            raise ValueError("ceiling_bytes must be >= 1")
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.k = k
        self.w = w
        self.n_bins = n_bins
        self.ceiling_bytes = ceiling_bytes
        self.flush_order = flush_order or largest_first
        self.stats = stats if stats is not None else OocStats()
        # Per bin: list of (packed bytes, uint32 lengths) slices.
        self._pending: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._pending_bytes: dict[int, int] = {}
        self._buffered = 0
        self._headers_written: set[int] = set()
        self._closed = False

    # -- pass-1 ingestion ----------------------------------------------

    def add_reads(self, reads: np.ndarray | list) -> int:
        """Buffer a batch of reads (rows of a matrix or a list of arrays).

        Reads are split by the vectorised batch kernel
        (:func:`repro.seq.superkmers.split_superkmers_batch`) in
        sub-batches small enough that the memory ceiling keeps its
        per-read granularity: each sub-batch is bounded by half the
        ceiling in bases, so flush waves fire at the same points a
        one-read-at-a-time writer would hit.
        """
        if self._closed:
            raise ValueError("BinWriter is closed")
        rows = (list(reads) if isinstance(reads, np.ndarray)
                else [np.asarray(r, dtype=np.uint8) for r in reads])
        budget = max(1, self.ceiling_bytes // 2)
        n_kmers = 0
        start = 0
        while start < len(rows):
            end, bases = start, 0
            while end < len(rows) and (
                    end == start or bases + rows[end].size <= budget):
                bases += rows[end].size
                end += 1
            n_kmers += self._add_batch(rows[start:end])
            start = end
        return n_kmers

    def _add_batch(self, rows: list[np.ndarray]) -> int:
        """Split, route, pack and buffer one bounded sub-batch of reads.

        The sub-batch is packed once, in bin order; each bin keeps a
        copy of its slice of the blob and of the lengths, so a buffered
        bin does not pin the whole sub-batch.
        """
        batch = split_superkmers_batch(rows, self.k, self.w)
        self.stats.n_reads += len(rows)
        if batch.n_superkmers == 0:
            return 0
        _owners, order, boundaries = partition_superkmers(batch, self.n_bins)
        lengths = batch.lengths[order]
        lengths32, blob = pack_spans(batch.codes, batch.starts[order], lengths)
        byte_offs = _cumsum0(-(-lengths // 4)).tolist()
        base_offs = _cumsum0(lengths).tolist()
        bounds = boundaries.tolist()
        for b in np.flatnonzero(np.diff(boundaries)).tolist():
            lo, hi = bounds[b], bounds[b + 1]
            self._pending.setdefault(b, []).append(
                (blob[byte_offs[lo]:byte_offs[hi]].copy(),
                 lengths32[lo:hi].copy()))
            nbytes = base_offs[hi] - base_offs[lo] + _RECORD_OVERHEAD * (hi - lo)
            self._pending_bytes[b] = self._pending_bytes.get(b, 0) + nbytes
            self._buffered += nbytes
        self.stats.n_superkmers += batch.n_superkmers
        n_kmers = batch.n_kmers
        self.stats.n_kmers += n_kmers
        if self._buffered > self.stats.peak_buffered_bytes:
            self.stats.peak_buffered_bytes = self._buffered
        if self._buffered > self.ceiling_bytes:
            self._flush_wave()
        return n_kmers

    # -- flushing ------------------------------------------------------

    def bin_path(self, bin_id: int) -> Path:
        return self.dir / f"bin-{bin_id:05d}.skb"

    def _flush_bin(self, bin_id: int) -> int:
        """Write one bin's pending super-k-mers as a chunk; returns bytes."""
        entries = self._pending.pop(bin_id, [])
        if not entries:
            return 0
        blob = (entries[0][0] if len(entries) == 1
                else np.concatenate([e[0] for e in entries]))
        lengths = (entries[0][1] if len(entries) == 1
                   else np.concatenate([e[1] for e in entries]))
        path = self.bin_path(bin_id)
        written = 0
        if bin_id not in self._headers_written:
            with open(path, "wb") as fh:
                written += write_bin_header(
                    fh, BinHeader(k=self.k, w=self.w, bin_id=bin_id))
                written += append_chunk(fh, lengths, blob)
            self._headers_written.add(bin_id)
        else:
            with open(path, "ab") as fh:
                written += append_chunk(fh, lengths, blob)
        self._buffered -= self._pending_bytes.pop(bin_id, 0)
        self.stats.n_flushes += 1
        self.stats.bytes_spilled += written
        return written

    def _flush_wave(self) -> None:
        """Flush whole bins until buffering drops below half the ceiling."""
        self.stats.n_ceiling_hits += 1
        order = self.flush_order(
            [(b, n) for b, n in sorted(self._pending_bytes.items())])
        target = self.ceiling_bytes // 2
        for b in order:
            if self._buffered <= target:
                break
            self._flush_bin(b)

    def close(self) -> list[Path]:
        """Flush everything; returns the paths of all non-empty bins."""
        if not self._closed:
            for b in self.flush_order(
                    [(b, n) for b, n in sorted(self._pending_bytes.items())]):
                self._flush_bin(b)
            self._closed = True
        self.stats.n_bins_used = len(self._headers_written)
        return [self.bin_path(b) for b in sorted(self._headers_written)]

    def __enter__(self) -> "BinWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
