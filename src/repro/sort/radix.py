"""LSD radix sort for packed ``uint64`` k-mers.

The paper's serial, BSP (PakMan*) and DAKC counters all use radix
sorting (Section III-A: "We adopt the sorting-based approach"), and the
analytical model's Phase 2 assumes an in-place byte-at-a-time radix
sort with ``2**ceil(log2(2k)) / 8`` passes (Eq. 12).

This module implements a least-significant-digit counting radix sort
with a configurable digit width.  Each pass is fully vectorised:
extract the digit as a ``uint8``/``uint16``, histogram it
(``np.bincount``), and scatter by ``argsort(kind="stable")`` of the
digit, which NumPy runs as a counting radix pass at those widths.  The
pass count,
bytes touched and histogram sizes are reported so the runtime layer can
charge the machine model for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadixSortStats",
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


@dataclass(slots=True)
class RadixSortStats:
    """Operation counts of one radix sort, for cost-model charging."""

    n: int = 0
    passes: int = 0
    digit_bits: int = 0
    bytes_moved: int = 0  # data bytes read+written across all passes
    histogram_ops: int = 0

    def merge(self, other: "RadixSortStats") -> None:
        self.n += other.n
        self.passes = max(self.passes, other.passes)
        self.digit_bits = max(self.digit_bits, other.digit_bits)
        self.bytes_moved += other.bytes_moved
        self.histogram_ops += other.histogram_ops


def radix_passes_for_bits(key_bits: int, digit_bits: int) -> int:
    """Number of LSD passes to cover *key_bits* with *digit_bits* digits."""
    if key_bits <= 0:
        return 0
    return -(-key_bits // digit_bits)


def radix_sort(
    arr: np.ndarray,
    *,
    key_bits: int = 64,
    digit_bits: int = 8,
    stats: RadixSortStats | None = None,
) -> np.ndarray:
    """Stable LSD radix sort of a ``uint64`` array.

    Parameters
    ----------
    arr:
        Input array (not modified).
    key_bits:
        Number of low-order bits that carry key information.  For
        k-mers this is ``2 * k``; passing fewer bits skips dead passes
        exactly like a production radix sorter keyed on 2k bits.
    digit_bits:
        Width of each counting pass (8 = byte-at-a-time, the model's
        assumption).
    stats:
        Optional accumulator for operation counts.

    Returns
    -------
    numpy.ndarray
        Sorted copy of *arr*.
    """
    if not 1 <= digit_bits <= 16:
        raise ValueError("digit_bits must be in [1, 16]")
    if not 0 <= key_bits <= 64:
        raise ValueError("key_bits must be in [0, 64]")
    a = np.ascontiguousarray(arr, dtype=np.uint64)
    n = a.size
    n_passes = radix_passes_for_bits(key_bits, digit_bits)
    if stats is not None:
        stats.n += n
        stats.passes = max(stats.passes, n_passes)
        stats.digit_bits = max(stats.digit_bits, digit_bits)
    if n <= 1 or n_passes == 0:
        return a.copy()
    mask = np.uint64((1 << digit_bits) - 1)
    radix = 1 << digit_bits
    # A digit held at its narrowest width is a key NumPy's stable sort
    # takes one counting pass over.
    digit_dtype = np.uint8 if digit_bits <= 8 else np.uint16
    src = a.copy()
    dst = np.empty_like(src)
    for p in range(n_passes):
        shift = np.uint64(p * digit_bits)
        digits = ((src >> shift) & mask).astype(digit_dtype)
        counts = np.bincount(digits, minlength=radix)
        if stats is not None:
            stats.bytes_moved += 2 * n * 8  # read src + write dst
            stats.histogram_ops += n
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
