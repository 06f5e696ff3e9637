"""Counting with 128-bit k-mers (k up to 64) — the paper's future work.

Builds the serial and owner-partitioned distributed counting paths on
top of :mod:`repro.seq.bigkmers`.  The distributed path mirrors DAKC's
structure (partition by a deterministic owner hash, count locally, no
cross-PE duplicates) and runs on the same simulated machine so long-
read-sized k-mers can be costed like everything else.  It shares the
run skeleton (:mod:`repro.core.phases`) and the owner split
(:func:`repro.core.owner.by_owner`, over the ``hi`` and ``lo`` columns).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.bigkmers import (
    BigKmerArray,
    accumulate_sorted_big,
    big_kmer_to_str,
    canonical_big,
    extract_big_kmers_from_reads,
    lexsort_big,
)
from .owner import by_owner, splitmix64
from .phases import SimRun, n_bases, split_reads

__all__ = ["BigKmerCounts", "serial_count_big", "owner_pe_big", "dakc_count_big"]


@dataclass(frozen=True)
class BigKmerCounts:
    """Ordered (128-bit k-mer, count) pairs; the big-k result type."""

    kmers: BigKmerArray
    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if counts.shape != self.kmers.hi.shape:
            raise ValueError("counts must match kmers length")
        if counts.size and counts.min() < 1:
            raise ValueError("all counts must be >= 1")
        hi, lo = self.kmers.hi, self.kmers.lo
        if counts.size > 1:
            ok = (hi[:-1] < hi[1:]) | ((hi[:-1] == hi[1:]) & (lo[:-1] < lo[1:]))
            if not ok.all():
                raise ValueError("kmers must be strictly increasing")

    @property
    def k(self) -> int:
        return self.kmers.k

    @property
    def n_distinct(self) -> int:
        return int(self.counts.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum()) if self.counts.size else 0

    def get(self, hi: int, lo: int) -> int:
        """Count of one (hi, lo) k-mer: binary-search the run of equal
        ``hi`` words, then ``lo`` inside it."""
        hi, lo = np.uint64(hi), np.uint64(lo)
        start = int(np.searchsorted(self.kmers.hi, hi, side="left"))
        end = int(np.searchsorted(self.kmers.hi, hi, side="right"))
        i = start + int(np.searchsorted(self.kmers.lo[start:end], lo))
        return int(self.counts[i]) if i < end and self.kmers.lo[i] == lo else 0

    def get_str(self, kmer: str) -> int:
        from ..seq.bigkmers import str_to_big_kmer

        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got {len(kmer)} bases")
        return self.get(*str_to_big_kmer(kmer))

    def to_dict(self) -> dict[str, int]:
        """Materialise as {kmer-string: count} (small results only)."""
        return {
            big_kmer_to_str(int(h), int(l), self.k): int(c)
            for h, l, c in zip(
                self.kmers.hi.tolist(), self.kmers.lo.tolist(), self.counts.tolist()
            )
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BigKmerCounts):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self.kmers.hi, other.kmers.hi)
            and np.array_equal(self.kmers.lo, other.kmers.lo)
            and np.array_equal(self.counts, other.counts)
        )

    __hash__ = None  # type: ignore[assignment]


def serial_count_big(reads, k: int, *, canonical: bool = False) -> BigKmerCounts:
    """Serial 128-bit counting (Algorithm 1 generalised to k <= 64)."""
    kmers = extract_big_kmers_from_reads(reads, k)
    if canonical and len(kmers):
        kmers = canonical_big(kmers)
    sorted_kmers = lexsort_big(kmers)
    uniq, counts = accumulate_sorted_big(sorted_kmers)
    return BigKmerCounts(uniq, counts)


def owner_pe_big(kmers: BigKmerArray, p: int) -> np.ndarray:
    """Owner PE of 128-bit k-mers: mix both words, then mod P."""
    if p < 1:
        raise ValueError("P must be >= 1")
    with np.errstate(over="ignore"):
        mixed = splitmix64(kmers.hi ^ splitmix64(kmers.lo))
    return (mixed % np.uint64(p)).astype(np.int64)


def dakc_count_big(
    reads,
    k: int,
    cost: CostModel | MachineConfig,
    *,
    canonical: bool = False,
) -> tuple[BigKmerCounts, RunStats]:
    """Owner-partitioned distributed counting of 128-bit k-mers.

    Follows DAKC's two-phase structure (partition -> per-owner sort +
    accumulate, three global synchronisations) with 16-byte wire
    elements; the full L2/L3 aggregation stack is exercised by the
    64-bit path and is not duplicated here.
    """
    run = SimRun(cost)
    cost, stats, n_pes = run.cost, run.stats, run.n_pes
    run.barrier()  # sync 1

    inbox_hi: list[list[np.ndarray]] = [[] for _ in range(n_pes)]
    inbox_lo: list[list[np.ndarray]] = [[] for _ in range(n_pes)]
    for src, rows in enumerate(split_reads(reads, n_pes)):
        pe = stats.pe[src]
        kmers = extract_big_kmers_from_reads(rows, k)
        if canonical and len(kmers):
            kmers = canonical_big(kmers)
        pe.kmers_generated += len(kmers)
        cost.charge_compute(pe, 2 * len(kmers))  # two-word rolling update
        cost.charge_mem(pe, n_bases(rows))
        for dst, hi, lo in by_owner(owner_pe_big(kmers, n_pes), n_pes,
                                    kmers.hi, kmers.lo):
            cost.charge_put(pe, dst, int(hi.size) * 16)
            inbox_hi[dst].append(hi)
            inbox_lo[dst].append(lo)

    run.barrier()  # sync 2: inter-phase
    stats.phase1_time = stats.max_clock

    parts: list[tuple[BigKmerArray, np.ndarray]] = []
    for dst in range(n_pes):
        pe = stats.pe[dst]
        if not inbox_hi[dst]:
            continue
        merged = BigKmerArray(
            k, np.concatenate(inbox_hi[dst]), np.concatenate(inbox_lo[dst])
        )
        pe.elements_received += len(merged)
        pe.kmers_received += len(merged)
        # 128-bit keys: twice the radix passes of the 64-bit path.
        cost.charge_compute(pe, 4 * len(merged))
        cost.charge_mem(pe, 4 * 16 * len(merged))
        uniq, counts = accumulate_sorted_big(lexsort_big(merged))
        parts.append((uniq, counts))

    run.close()  # sync 3 is the run's exit barrier

    if not parts:
        return BigKmerCounts(BigKmerArray.empty(k), np.empty(0, dtype=np.int64)), stats
    all_hi = np.concatenate([p[0].hi for p in parts])
    all_lo = np.concatenate([p[0].lo for p in parts])
    all_counts = np.concatenate([p[1] for p in parts])
    order = np.lexsort((all_lo, all_hi))
    merged = BigKmerArray(k, all_hi[order], all_lo[order])
    return BigKmerCounts(merged, all_counts[order]), stats
