"""128-bit k-mer support: k up to 64 (the paper's future work).

Section VII: *"the k-mer sizes in DAKC, while sufficient for short-read
genome assembly, are limited for the case of long reads due to our use
of at most 64-bit integers ... larger integer support (e.g., 128-bit)
to extend the range of supported k-mer sizes is another natural next
step."*

This module implements that step.  A big k-mer is a pair of unsigned
64-bit words ``(hi, lo)`` holding the 2-bit-packed sequence in its low
``2k`` bits; all kernels (extraction, comparison, sorting, accumulate,
reverse complement, owner hashing) operate on parallel ``hi``/``lo``
arrays, staying fully vectorised.

For ``k <= 32`` the representation degenerates to ``hi == 0`` and all
results agree with the 64-bit path (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import BASES
from .encoding import encode_seq
from .kmers import flatten_reads, reverse_complement_kmers, valid_windows

__all__ = [
    "MAX_BIG_K",
    "BigKmerArray",
    "extract_big_kmers",
    "extract_big_kmers_from_reads",
    "big_kmer_to_str",
    "str_to_big_kmer",
    "reverse_complement_big",
    "canonical_big",
    "lexsort_big",
    "accumulate_sorted_big",
    "big_kmer_width_bits",
]

#: Largest supported k with the 128-bit representation.
MAX_BIG_K: int = 64


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_BIG_K:
        raise ValueError(f"k must be in [1, {MAX_BIG_K}], got {k}")


def big_kmer_width_bits(k: int) -> int:
    """Storage width rule ``2^ceil(log2 2k)`` extended to 128 bits."""
    _check_k(k)
    import math

    return 2 ** math.ceil(math.log2(2 * k))


@dataclass(frozen=True)
class BigKmerArray:
    """A column of 128-bit k-mers: parallel ``hi``/``lo`` word arrays."""

    k: int
    hi: np.ndarray  # uint64
    lo: np.ndarray  # uint64

    def __post_init__(self) -> None:
        _check_k(self.k)
        hi = np.ascontiguousarray(self.hi, dtype=np.uint64)
        lo = np.ascontiguousarray(self.lo, dtype=np.uint64)
        if hi.shape != lo.shape or hi.ndim != 1:
            raise ValueError("hi and lo must be 1-D arrays of equal length")
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo", lo)

    def __len__(self) -> int:
        return int(self.hi.size)

    def __getitem__(self, idx) -> "BigKmerArray":
        return BigKmerArray(self.k, np.atleast_1d(self.hi[idx]), np.atleast_1d(self.lo[idx]))

    def as_python_ints(self) -> list[int]:
        """Materialise as arbitrary-precision ints (tests/oracles)."""
        return [(int(h) << 64) | int(l) for h, l in zip(self.hi.tolist(), self.lo.tolist())]

    @classmethod
    def from_python_ints(cls, k: int, values: list[int]) -> "BigKmerArray":
        hi = np.array([v >> 64 for v in values], dtype=np.uint64)
        lo = np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64)
        return cls(k, hi, lo)

    @classmethod
    def empty(cls, k: int) -> "BigKmerArray":
        return cls(k, np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64))


def extract_big_kmers_from_reads(reads, k: int) -> BigKmerArray:
    """All k-mers (k <= 64) of a read matrix or list, in read then
    window order, vectorised over the whole batch.

    The rolling update of Algorithm 1 generalises to 128 bits:
    ``(hi, lo) = (hi << 2 | lo >> 62, lo << 2 | code)``, applied per
    window offset over the flattened reads at once (each window starts
    from zero, so no bits above ``2k`` are ever set).  Windows crossing
    a read boundary or an ambiguous base are dropped by the 64-bit
    kernel's :func:`~repro.seq.kmers.valid_windows` — one policy.
    """
    _check_k(k)
    codes, offsets = flatten_reads(reads)
    n_win = max(0, codes.size - k + 1)
    hi = np.zeros(n_win, dtype=np.uint64)
    lo = np.zeros(n_win, dtype=np.uint64)
    two = np.uint64(2)
    carry_shift = np.uint64(62)
    for j in range(k):
        np.left_shift(hi, two, out=hi)
        np.bitwise_or(hi, lo >> carry_shift, out=hi)
        np.left_shift(lo, two, out=lo)
        np.bitwise_or(lo, codes[j : j + n_win], out=lo)
    keep = valid_windows(codes, offsets, k)
    return BigKmerArray(k, hi[keep], lo[keep])


def extract_big_kmers(codes: np.ndarray, k: int) -> BigKmerArray:
    """All k-mers (k <= 64) of one encoded read."""
    return extract_big_kmers_from_reads([codes], k)


def str_to_big_kmer(s: str) -> tuple[int, int]:
    """Encode a DNA string (<= 64 bases) as an ``(hi, lo)`` pair."""
    _check_k(len(s))
    value = 0
    for code in encode_seq(s).tolist():
        value = (value << 2) | code
    return value >> 64, value & ((1 << 64) - 1)


def big_kmer_to_str(hi: int, lo: int, k: int) -> str:
    """Decode an ``(hi, lo)`` pair back to its DNA string."""
    _check_k(k)
    value = (int(hi) << 64) | int(lo)
    if value >> (2 * k):
        raise ValueError(f"value out of range for k={k}")
    return "".join(BASES[(value >> (2 * (k - 1 - i))) & 0x3] for i in range(k))


def reverse_complement_big(kmers: BigKmerArray) -> BigKmerArray:
    """Vectorised 128-bit reverse complement.

    Reverse-complement each 64-bit word as a 32-mer, swap the words,
    then shift the 128-bit value down so the k-mer re-occupies the low
    ``2k`` bits.
    """
    k = kmers.k
    rc_lo_word = reverse_complement_kmers(kmers.lo, 32)  # full-word rc
    rc_hi_word = reverse_complement_kmers(kmers.hi, 32)
    # After per-word reversal + swap, the 128-bit value holds the
    # reversed complement in its HIGH 2k bits; shift right by 128-2k.
    new_hi = rc_lo_word
    new_lo = rc_hi_word
    shift = 128 - 2 * k
    if shift == 0:
        return BigKmerArray(k, new_hi, new_lo)
    if shift < 64:
        s = np.uint64(shift)
        inv = np.uint64(64 - shift)
        lo = (new_lo >> s) | (new_hi << inv)
        hi = new_hi >> s
    else:
        s = np.uint64(shift - 64)
        lo = new_hi >> s
        hi = np.zeros_like(new_hi)
    return BigKmerArray(k, hi, lo)


def canonical_big(kmers: BigKmerArray) -> BigKmerArray:
    """Elementwise min(kmer, revcomp) on the 128-bit representation."""
    rc = reverse_complement_big(kmers)
    take_rc = (rc.hi < kmers.hi) | ((rc.hi == kmers.hi) & (rc.lo < kmers.lo))
    hi = np.where(take_rc, rc.hi, kmers.hi)
    lo = np.where(take_rc, rc.lo, kmers.lo)
    return BigKmerArray(kmers.k, hi, lo)


def lexsort_big(kmers: BigKmerArray) -> BigKmerArray:
    """Sort big k-mers lexicographically by (hi, lo)."""
    order = np.lexsort((kmers.lo, kmers.hi))
    return BigKmerArray(kmers.k, kmers.hi[order], kmers.lo[order])


def accumulate_sorted_big(kmers: BigKmerArray) -> tuple[BigKmerArray, np.ndarray]:
    """Run-length accumulate a sorted :class:`BigKmerArray`."""
    n = len(kmers)
    if n == 0:
        return BigKmerArray.empty(kmers.k), np.empty(0, dtype=np.int64)
    hi, lo = kmers.hi, kmers.lo
    if n > 1:
        bad = (hi[:-1] > hi[1:]) | ((hi[:-1] == hi[1:]) & (lo[:-1] > lo[1:]))
        if bad.any():
            raise ValueError("accumulate_sorted_big requires a sorted array")
    change = np.empty(n, dtype=bool)
    change[0] = True
    change[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], n)
    uniq = BigKmerArray(kmers.k, hi[starts].copy(), lo[starts].copy())
    return uniq, (ends - starts).astype(np.int64)
