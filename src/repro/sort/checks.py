"""Sortedness detection and sorting heuristics.

The paper's counters use Skarupke's hybrid sorter, which "can detect
partially sorted arrays and skip sorting them" (Section V-A) — the
reason measured Phase-2 cache misses undershoot the worst-case radix
model in Fig. 3.  These helpers provide the detection primitives the
hybrid sorter uses.
"""

from __future__ import annotations

import numpy as np

__all__ = ["count_descents", "presortedness"]


def count_descents(arr: np.ndarray) -> int:
    """Number of positions where ``arr[i] > arr[i+1]``."""
    a = np.asarray(arr)
    if a.size <= 1:
        return 0
    return int(np.count_nonzero(a[:-1] > a[1:]))


def presortedness(arr: np.ndarray) -> float:
    """Fraction of adjacent pairs already in order (1.0 == sorted)."""
    a = np.asarray(arr)
    if a.size <= 1:
        return 1.0
    return 1.0 - count_descents(a) / (a.size - 1)
