"""The skeleton every simulated counter runs inside.

Algorithm 2 (BSP) and Algorithms 3+4 (DAKC) are the same two-phase
program — block-partition the reads, parse to k-mers, route by owner,
sort + accumulate what you own, merge — and differ only in how
elements travel.  What they share lives here, once: :class:`SimRun`
opens a run (cost model, :class:`RunStats`, :class:`MemoryTracker`,
host clock) and closes it (exit barrier, phase times, peak buffer,
merge); :func:`split_reads`, :func:`n_bases` and :func:`parse_kmers`
are the front of Phase 1.  The bucket split by owner is
:func:`repro.core.owner.by_owner`.  A counter module keeps only what
its algorithm does differently.
"""

from __future__ import annotations

import time

import numpy as np

from ..runtime.collectives import barrier
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.memory import MemoryTracker
from ..runtime.stats import RunStats
from ..seq.kmers import canonical_kmers, extract_kmers_from_reads
from ..sort.accumulate import merge_count_arrays
from .result import KmerCounts

__all__ = ["SimRun", "split_reads", "n_bases", "parse_kmers"]


class SimRun:
    """One run on the simulated machine: its cost model, measurements,
    memory accounting and host clock.  A :class:`MachineConfig` is
    wrapped with one PE per core."""

    def __init__(self, cost: CostModel | MachineConfig) -> None:
        self.cost = CostModel(cost) if isinstance(cost, MachineConfig) else cost
        self.n_pes = self.cost.n_pes
        self.stats = RunStats(n_pes=self.n_pes)
        self.memory = MemoryTracker(self.n_pes)
        self._host_t0 = time.perf_counter()

    def barrier(self) -> float:
        """Global synchronisation of all PEs."""
        return barrier(self.cost, self.stats)

    def close(self, *, sync: bool = True, **extra) -> RunStats:
        """End the kernel: exit barrier (``sync=False`` for a shared-
        memory tool that has nobody to wait for), ``sim_time``,
        ``phase2_time`` as the rest after ``phase1_time``, peak buffer,
        algorithm-specific *extra* and the host seconds spent."""
        stats = self.stats
        if sync:
            self.barrier()
        stats.sim_time = stats.max_clock
        stats.phase2_time = stats.sim_time - stats.phase1_time
        stats.peak_buffer_bytes_per_pe = self.memory.peak_any_pe()
        stats.extra.update(extra)
        stats.host_seconds = time.perf_counter() - self._host_t0
        return stats

    def finish(self, k: int, results: list, **extra) -> tuple[KmerCounts, RunStats]:
        """Merge the per-owner ``(kmers, counts)`` and :meth:`close`."""
        uniq, counts = merge_count_arrays(results)
        return KmerCounts(k, uniq, counts), self.close(**extra)


def split_reads(reads: np.ndarray | list, n_pes: int) -> list:
    """Block-partition reads across PEs (paper assumption 1: balanced
    input): ``np.array_split`` for a matrix, read *i* -> PE
    ``floor(i * P / n)`` for a list (reads may differ in length)."""
    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        return np.array_split(reads, n_pes)
    out: list[list] = [[] for _ in range(n_pes)]
    for i, r in enumerate(reads):
        out[i * n_pes // len(reads)].append(r)
    return out


def n_bases(rows: np.ndarray | list) -> int:
    """Bases (= bytes of the read scan) in a matrix or list of reads."""
    if isinstance(rows, np.ndarray):
        return int(rows.size)
    return sum(int(np.asarray(r).size) for r in rows)


def parse_kmers(rows: np.ndarray | list, k: int, canonical: bool) -> np.ndarray:
    """The k-mers of a PE's reads, in read then window order."""
    kmers = extract_kmers_from_reads(rows, k)
    return canonical_kmers(kmers, k) if canonical and kmers.size else kmers
