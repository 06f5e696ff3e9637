"""Sorting substrate: radix / hybrid sorting and accumulation.

Implements the Phase-2 kernels of every counter in the paper:
LSD radix sort (:mod:`repro.sort.radix`), the ska_sort-style hybrid
policy (:mod:`repro.sort.hybrid`), sortedness heuristics
(:mod:`repro.sort.checks`) and the accumulate sweeps
(:mod:`repro.sort.accumulate`).
"""

from .accumulate import (
    accumulate_sorted,
    accumulate_weighted,
    counts_to_histogram,
    merge_count_arrays,
)
from .checks import count_descents, presortedness
from .hybrid import COMPARISON_THRESHOLD, PRESORTED_CUTOFF, hybrid_sort
from .radix import radix_passes_for_bits, radix_sort

__all__ = [
    "radix_sort",
    "radix_passes_for_bits",
    "hybrid_sort",
    "COMPARISON_THRESHOLD",
    "PRESORTED_CUTOFF",
    "presortedness",
    "count_descents",
    "accumulate_sorted",
    "accumulate_weighted",
    "counts_to_histogram",
    "merge_count_arrays",
]
