"""Set operations on counted k-mer databases (kmc_tools-style).

KMC3 ships a companion (`kmc_tools`) whose *simple* operations —
intersect, subtract, counters compared — are the workhorse of
comparative genomics (e.g. shared k-mers between two strains, or
sample-specific k-mers for variant discovery).  These are the same
operations on :class:`~repro.core.result.KmerCounts`, vectorised over
the ordered key arrays.
"""

from __future__ import annotations

import numpy as np

from ..core.result import KmerCounts
from ..seq.kmers import check_k

__all__ = [
    "intersect",
    "subtract",
    "symmetric_difference",
    "jaccard",
    "containment",
]


def _check_compatible(a: KmerCounts, b: KmerCounts) -> None:
    check_k(a.k)  # the set operations search one word per k-mer
    if a.k != b.k:
        raise ValueError(f"k mismatch: {a.k} vs {b.k}")


def _membership(a: KmerCounts, b: KmerCounts) -> np.ndarray:
    """Boolean mask over a.kmers: present in b (both are sorted)."""
    idx = np.searchsorted(b.kmers, a.kmers)
    idx_clamped = np.minimum(idx, max(0, b.n_distinct - 1))
    if b.n_distinct == 0:
        return np.zeros(a.n_distinct, dtype=bool)
    return b.kmers[idx_clamped] == a.kmers


def intersect(a: KmerCounts, b: KmerCounts) -> KmerCounts:
    """k-mers present in both, each with the smaller of its two counts
    (kmc_tools' default)."""
    _check_compatible(a, b)
    in_b = _membership(a, b)
    keys = a.kmers[in_b]
    idx = np.searchsorted(b.kmers, keys)
    return KmerCounts(a.k, keys, np.minimum(a.counts[in_b], b.counts[idx]))


def subtract(a: KmerCounts, b: KmerCounts) -> KmerCounts:
    """k-mers of *a* not in *b*, with their counts in *a*."""
    _check_compatible(a, b)
    keep = ~_membership(a, b)
    return KmerCounts(a.k, a.kmers[keep], a.counts[keep])


def symmetric_difference(a: KmerCounts, b: KmerCounts) -> KmerCounts:
    """k-mers in exactly one of the inputs, with their counts."""
    _check_compatible(a, b)
    only_a = ~_membership(a, b)
    only_b = ~_membership(b, a)
    keys = np.concatenate((a.kmers[only_a], b.kmers[only_b]))
    vals = np.concatenate((a.counts[only_a], b.counts[only_b]))
    order = np.argsort(keys)
    return KmerCounts(a.k, keys[order], vals[order])


def jaccard(a: KmerCounts, b: KmerCounts) -> float:
    """Jaccard similarity of the distinct k-mer sets (Mash-style)."""
    _check_compatible(a, b)
    inter = int(_membership(a, b).sum())
    uni = a.n_distinct + b.n_distinct - inter
    return inter / uni if uni else 1.0


def containment(a: KmerCounts, b: KmerCounts) -> float:
    """Fraction of a's distinct k-mers present in b."""
    _check_compatible(a, b)
    if a.n_distinct == 0:
        return 1.0
    return float(_membership(a, b).mean())
