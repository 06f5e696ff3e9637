"""Result type of every counter: the ordered (k-mer, count) array.

All four algorithms in the paper return ``C``, an "Ordered array of
{k-mer, count}".  :class:`KmerCounts` is that array plus the quality-
of-life surface a downstream pipeline needs (lookups, spectra, count
filtering, multiset equality for validation), for every k the kernel
counts (``[hi, lo]`` rows above k = 32, :mod:`repro.seq.kmers`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..seq.kmers import MAX_K, kmer_array, kmer_ints
from ..sort.accumulate import accumulate_weighted, counts_to_histogram, keys_less

__all__ = ["KmerCounts", "probe_sorted"]


def probe_sorted(keys: np.ndarray, vals: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Look *queries* up in a sorted ``(keys, vals)`` table; absent -> 0.

    The vectorised point-lookup of the read side: shards, the LSM
    memtable, cluster slices and every oracle hold the paper's ordered
    ``{k-mer, count}`` array and read it through here.
    *keys* must be strictly increasing ``uint64``; the answer is a
    fresh ``int64`` array in query order (duplicates allowed).
    """
    queries = np.asarray(queries, dtype=np.uint64)
    if keys.size == 0 or queries.size == 0:
        return np.zeros(queries.size, dtype=np.int64)
    idx = np.searchsorted(keys, queries)
    np.minimum(idx, keys.size - 1, out=idx)
    out = vals[idx].astype(np.int64, copy=False)
    out[keys[idx] != queries] = 0
    return out


@dataclass(frozen=True)
class KmerCounts:
    """Ordered array of ``{k-mer, count}`` pairs.

    Invariants (checked at construction): ``kmers`` strictly
    increasing; ``counts`` positive; equal lengths; ``kmers`` 1-D for
    ``k <= 32``, ``(n, 2)`` rows above.
    """

    k: int
    kmers: np.ndarray  # uint64 (or [hi, lo] rows), strictly increasing
    counts: np.ndarray  # int64, all >= 1

    def __post_init__(self) -> None:
        kmers = np.ascontiguousarray(self.kmers, dtype=np.uint64)
        if self.k > MAX_K:
            kmers = kmers.reshape(-1, 2)
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "kmers", kmers)
        object.__setattr__(self, "counts", counts)
        if kmers.shape[:1] != counts.shape or kmers.ndim != 1 + (self.k > MAX_K):
            raise ValueError(f"k={self.k}: kmers and counts must be aligned, "
                             "one row of two words per k-mer above k=32")
        if not keys_less(kmers[:-1], kmers[1:]).all():
            raise ValueError("kmers must be strictly increasing (ordered, unique)")
        if counts.size and counts.min() < 1:
            raise ValueError("all counts must be >= 1")

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, k: int) -> "KmerCounts":
        return cls(k, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_pairs(cls, k: int, kmers: np.ndarray, counts: np.ndarray) -> "KmerCounts":
        """Build from unordered, possibly duplicated pairs (summing)."""
        return cls(k, *accumulate_weighted(np.asarray(kmers), np.asarray(counts)))

    @classmethod
    def from_counter(cls, k: int, counter: Counter) -> "KmerCounts":
        """Build from a ``collections.Counter`` oracle (Python-int keys)."""
        vals = np.fromiter(counter.values(), dtype=np.int64, count=len(counter))
        return cls.from_pairs(k, kmer_array(list(counter), k), vals)

    # -- basic queries -------------------------------------------------

    @property
    def n_distinct(self) -> int:
        """Number of distinct k-mers."""
        return int(self.counts.size)

    @property
    def total(self) -> int:
        """Total k-mer occurrences (sum of counts)."""
        return int(self.counts.sum()) if self.counts.size else 0

    @property
    def max_count(self) -> int:
        return int(self.counts.max()) if self.counts.size else 0

    def get(self, kmer: int, default: int = 0) -> int:
        """Count of one k-mer (binary search; *default* if absent).  A
        ``[hi, lo]`` row searches the run of its ``hi``, then ``lo``."""
        keys, counts, kmer = self.kmers, self.counts, int(kmer)
        if keys.ndim == 2:
            hi, kmer = divmod(kmer, 1 << 64)
            run = slice(*(np.searchsorted(keys[:, 0], np.uint64(hi), side)
                          for side in ("left", "right")))
            keys, counts = keys[run, 1], counts[run]
        return int(probe_sorted(keys, counts, [kmer])[0]) or default

    def __len__(self) -> int:
        return self.n_distinct

    def __contains__(self, kmer: int) -> bool:
        return self.get(int(kmer), 0) > 0

    # -- transforms ------------------------------------------------------

    def filter_min_count(self, min_count: int) -> "KmerCounts":
        """Drop k-mers below *min_count* (e.g. error filtering at 2)."""
        mask = self.counts >= min_count
        return KmerCounts(self.k, self.kmers[mask], self.counts[mask])

    def spectrum(self, max_count: int | None = None) -> np.ndarray:
        """k-mer spectrum: ``spectrum[c]`` distinct k-mers with count c."""
        return counts_to_histogram(self.counts, max_count=max_count)

    def to_counter(self) -> Counter:
        """Materialise as a ``collections.Counter`` (tests/oracles)."""
        return Counter(dict(zip(kmer_ints(self.kmers), self.counts.tolist())))

    # -- comparison ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KmerCounts):
            return NotImplemented
        return (
            self.k == other.k
            and np.array_equal(self.kmers, other.kmers)
            and np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:  # frozen dataclass wants it; cheap digest
        return hash((self.k, self.n_distinct, self.total))

    def diff(self, other: "KmerCounts") -> list[str]:
        """Human-readable differences against another result, the first
        five k-mers at most (tests)."""
        msgs: list[str] = []
        if self.k != other.k:
            msgs.append(f"k differs: {self.k} vs {other.k}")
            return msgs
        mine, theirs = self.to_counter(), other.to_counter()
        for key in list((mine - theirs) + (theirs - mine))[:5]:
            msgs.append(
                f"kmer {key:#x}: counts {mine.get(key, 0)} vs {theirs.get(key, 0)}"
            )
        return msgs
