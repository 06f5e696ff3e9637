"""LSD radix sort for packed ``uint64`` k-mers.

The paper's serial, BSP (PakMan*) and DAKC counters all use radix
sorting (Section III-A: "We adopt the sorting-based approach"), and the
analytical model's Phase 2 assumes an in-place byte-at-a-time radix
sort with ``2**ceil(log2(2k)) / 8`` passes (Eq. 12).

This module implements a least-significant-digit counting radix sort,
a byte per pass.  Each pass is fully vectorised: extract the digit as a
``uint8``, histogram it (``np.bincount``), and scatter by
``argsort(kind="stable")`` of the digit, which NumPy runs as a counting
radix pass at that width.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "radix_sort",
    "radix_passes_for_bits",
    "effective_msd_passes",
]


def effective_msd_passes(n: int, worst_case: int) -> int:
    """Digit levels an MSD radix sorter actually needs for *n* keys.

    ska_sort recurses byte-by-byte from the most significant digit and
    stops once buckets are comparison-sortable in cache; roughly
    ``log2(n) / 8`` levels suffice to separate n distinct keys.  The
    analytical model assumes the worst case (``2^ceil(log2 2k)/8``
    passes, Eq. 12), which is why measured Phase-2 cache misses
    undershoot the prediction in Fig. 3.
    """
    import math

    if worst_case < 1:
        raise ValueError("worst_case must be >= 1")
    if n <= 1:
        return 1
    return max(1, min(worst_case, math.ceil(math.log2(n) / 8)))


def radix_passes_for_bits(key_bits: int, digit_bits: int) -> int:
    """Number of LSD passes to cover *key_bits* with *digit_bits* digits."""
    if key_bits <= 0:
        return 0
    return -(-key_bits // digit_bits)


def radix_sort(
    arr: np.ndarray,
    *,
    key_bits: int = 64,
) -> np.ndarray:
    """Stable LSD radix sort of a ``uint64`` array, a byte per pass
    (the model's assumption).

    Parameters
    ----------
    arr:
        Input array (not modified).
    key_bits:
        Number of low-order bits that carry key information.  For
        k-mers this is ``2 * k``; passing fewer bits skips dead passes
        exactly like a production radix sorter keyed on 2k bits.

    Returns
    -------
    numpy.ndarray
        Sorted copy of *arr*.
    """
    if not 0 <= key_bits <= 64:
        raise ValueError("key_bits must be in [0, 64]")
    a = np.ascontiguousarray(arr, dtype=np.uint64)
    n = a.size
    n_passes = radix_passes_for_bits(key_bits, 8)
    if n <= 1 or n_passes == 0:
        return a.copy()
    src = a.copy()
    dst = np.empty_like(src)
    for p in range(n_passes):
        # A byte digit is a key NumPy's stable sort takes one counting
        # pass over.
        digits = ((src >> np.uint64(8 * p)) & np.uint64(0xFF)).astype(np.uint8)
        counts = np.bincount(digits, minlength=256)
        if counts.max(initial=0) == n:
            # All keys share this digit: pass is a no-op, skip the move
            # (this is the "detect partially sorted" behaviour the
            # paper notes for real sorters, at digit granularity).
            continue
        # Stable scatter.  A stable argsort of the digits *is* the
        # counting-sort permutation (equal digits keep input order), so
        # one gather realises the pass.
        order = np.argsort(digits, kind="stable")
        np.take(src, order, out=dst)
        src, dst = dst, src
    return src
