"""The in-memory delta of the LSM store.

A memtable is the mutable tip of the store: the ordered ``(k-mer,
count)`` delta of every batch ingested since the last flush.  It keeps
the same representation as every other layer — two aligned arrays,
keys strictly increasing — so batch absorption is one
:func:`~repro.apps.store.merge_sorted_counts` merge of the batch's
accumulated counts (``sort.accumulate`` products) into the resident
arrays, and a point lookup is one
:func:`~repro.core.result.probe_sorted`.

The byte budget is the knob that turns this into an out-of-core
structure: when ``nbytes`` crosses the store's configured budget the
owner flushes the arrays verbatim into an immutable sorted run and the
memtable resets to empty (KMC-style bins, made incremental).
"""

from __future__ import annotations

import numpy as np

from ..apps.store import merge_sorted_counts
from ..core.result import probe_sorted
from ..sort.accumulate import accumulate_weighted

__all__ = ["Memtable"]


class Memtable:
    """Sorted in-memory (k-mer, count) delta."""

    def __init__(self, k: int):
        self.k = k
        self.clear()

    # -- updates -------------------------------------------------------

    def add_counts(self, keys: np.ndarray, vals: np.ndarray) -> None:
        """Merge a *sorted unique* count delta (a batch's accumulate)."""
        self.keys, self.vals = merge_sorted_counts(self.keys, self.vals, keys, vals)

    def add_pairs(self, kmers: np.ndarray, weights: np.ndarray) -> None:
        """Merge unsorted ``(kmer, weight)`` pairs (accumulates first)."""
        u, s = accumulate_weighted(kmers, weights)
        self.add_counts(u, s)

    def clear(self) -> None:
        self.keys = np.empty(0, dtype=np.uint64)
        self.vals = np.empty(0, dtype=np.int64)

    # -- reads ---------------------------------------------------------

    def get(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup; absent keys answer 0."""
        return probe_sorted(self.keys, self.vals, keys)

    # -- accounting ----------------------------------------------------

    @property
    def n_distinct(self) -> int:
        return int(self.keys.size)

    @property
    def total(self) -> int:
        return int(self.vals.sum()) if self.vals.size else 0

    @property
    def nbytes(self) -> int:
        """Resident bytes (the flush-trigger measure)."""
        return int(self.keys.nbytes + self.vals.nbytes)
