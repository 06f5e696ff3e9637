"""Accumulation of sorted k-mer arrays into (k-mer, count) pairs.

``Accumulate`` in Algorithms 1-4 "sweeps a sorted array of k-mers and
counts the frequency of each k-mer".  Two variants are needed:

* :func:`accumulate_sorted` — plain run-length accumulate of a sorted
  k-mer array (Phase 2 of every counter);
* :func:`accumulate_weighted` — accumulate of ``(kmer, count)`` pairs,
  required on the receive side of DAKC's L3 protocol where HEAVY
  packets already carry partial counts (Algorithm 4,
  ``ProcessReceiveBuffer``).

Both are single vectorised sweeps (``np.diff`` on the sorted keys +
``np.add.reduceat`` / prefix-sum differences), not Python loops.  A key
is a ``uint64`` or a ``[hi, lo]`` row (k > 32, :mod:`repro.seq.kmers`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "keys_less",
    "accumulate_sorted",
    "accumulate_weighted",
    "counts_to_histogram",
    "merge_count_arrays",
]


def keys_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ``a < b``; rows by ``hi``, then ``lo``."""
    if a.ndim == 1:
        return a < b
    return (a[:, 0] < b[:, 0]) | ((a[:, 0] == b[:, 0]) & (a[:, 1] < b[:, 1]))


def _boundaries(a: np.ndarray) -> np.ndarray:
    """Where a sorted key array starts a new key (never at 0)."""
    change = a[1:] != a[:-1]
    return np.flatnonzero(change.any(axis=1) if a.ndim == 2 else change) + 1


def accumulate_sorted(kmers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length accumulate a **sorted** k-mer array.

    Returns ``(unique_kmers, counts)`` with ``counts.sum() == len(kmers)``.
    Raises :class:`ValueError` if the input is not sorted — callers are
    expected to have sorted already; silently accepting unsorted input
    would return wrong counts.
    """
    a = np.asarray(kmers, dtype=np.uint64)
    if len(a) == 0:
        return a.copy(), np.empty(0, dtype=np.int64)
    starts = np.concatenate(([0], _boundaries(a)))
    uniq = a[starts]
    # The keys ascend iff every key change is a strict rise (a descent
    # is always a key change), and the keys on both sides of each
    # change are neighbours in *uniq*: one compare per distinct key.
    if not keys_less(uniq[:-1], uniq[1:]).all():
        raise ValueError("accumulate_sorted requires a sorted array")
    return uniq, np.diff(starts, append=len(a)).astype(np.int64)


def accumulate_weighted(
    kmers: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate ``(kmer, count)`` pairs; input need not be sorted.

    Sorts by k-mer and sums weights per key.  This is the receive-side
    accumulate DAKC runs when HEAVY packets carry pre-aggregated
    ``{kmer, count}`` pairs.
    """
    a = np.asarray(kmers, dtype=np.uint64)
    w = np.asarray(weights, dtype=np.int64)
    if a.shape[:1] != w.shape:
        raise ValueError("kmers and weights must have the same length")
    if w.size == 0:
        return a.copy(), np.empty(0, dtype=np.int64)
    # An integer sum does not depend on the order equal keys meet in,
    # so the sort need not be stable.
    order = np.argsort(a) if a.ndim == 1 else np.lexsort((a[:, 1], a[:, 0]))
    a = a[order]
    w = w[order]
    starts = np.concatenate(([0], _boundaries(a)))
    uniq = a[starts].copy()
    sums = np.add.reduceat(w, starts)
    return uniq, sums.astype(np.int64)


def counts_to_histogram(counts: np.ndarray, *, max_count: int | None = None) -> np.ndarray:
    """Histogram of count values (the k-mer *spectrum*).

    ``hist[c]`` = number of distinct k-mers occurring exactly ``c``
    times.  This is the classic k-mer spectrum used for genome-size
    estimation and error filtering (motivating applications in the
    paper's introduction).
    """
    c = np.asarray(counts, dtype=np.int64)
    if c.size == 0:
        return np.zeros(1, dtype=np.int64)
    if (c < 0).any():
        raise ValueError("counts must be non-negative")
    hist = np.bincount(c)
    if max_count is not None:
        if hist.size > max_count + 1:
            tail = hist[max_count + 1 :].sum()
            hist = hist[: max_count + 1].copy()
            hist[max_count] += tail
        else:
            hist = np.pad(hist, (0, max_count + 1 - hist.size))
    return hist


def merge_count_arrays(
    parts: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """Merge several ``(unique_kmers, counts)`` arrays into one.

    Used to combine per-PE local results into a global ordered array
    (the paper's final ``C``).  Distinct PEs own disjoint key sets when
    partitioned by OwnerPE, but this merge is general and sums
    duplicate keys.
    """
    parts = [p for p in parts if p[0].size]
    if not parts:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    keys = np.concatenate([p[0] for p in parts])
    vals = np.concatenate([p[1] for p in parts])
    return accumulate_weighted(keys, vals)
