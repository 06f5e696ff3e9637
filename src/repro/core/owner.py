"""OwnerPE: deterministic k-mer -> processor partitioning.

Every distributed counter in the paper assigns each distinct k-mer to
an *owner* PE responsible for its final count (Section III-B, rule 1).
The assignment must be a pure function of the k-mer value so every
source routes a given k-mer to the same place; production counters use
a scrambling hash so that correlated k-mers (e.g. the lexicographic
neighbourhood of a repeat) spread across PEs.

We use splitmix64 — a well-known, statistically strong 64-bit mixer —
vectorised over NumPy ``uint64`` arrays, followed by a modulo over P.
Note that hashing spreads *distinct* k-mers but cannot spread the
*occurrences* of a single heavy-hitter k-mer: all of them land on one
owner.  That residual imbalance is precisely what the L3 protocol
attacks.

:func:`by_owner` is the bucket split every counter routes through once
owners (PEs, bins) are known; :func:`owner_split` is its permutation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["splitmix64", "splitmix64_inverse", "owner_pe", "owner_split", "by_owner"]

_C1 = np.uint64(0x9E3779B97F4A7C15)
_C2 = np.uint64(0xBF58476D1CE4E5B9)
_C3 = np.uint64(0x94D049BB133111EB)
# Modular inverses of the odd multipliers (mod 2**64).
_INV_C2 = np.uint64(pow(0xBF58476D1CE4E5B9, -1, 1 << 64))
_INV_C3 = np.uint64(pow(0x94D049BB133111EB, -1, 1 << 64))


def splitmix64(x: np.ndarray | int) -> np.ndarray | int:
    """Vectorised splitmix64 finaliser (bijective 64-bit mixer)."""
    scalar = np.isscalar(x) or isinstance(x, (int, np.integer))
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = z + _C1
        z = (z ^ (z >> np.uint64(30))) * _C2
        z = (z ^ (z >> np.uint64(27))) * _C3
        z = z ^ (z >> np.uint64(31))
    return int(z) if scalar else z


def _unshift_xor_right(y: np.ndarray, s: int) -> np.ndarray:
    """Invert ``x ^= x >> s`` (vectorised fixed-point iteration)."""
    x = y
    for _ in range(63 // s + 1):
        x = y ^ (x >> np.uint64(s))
    return x


def splitmix64_inverse(z: np.ndarray | int) -> np.ndarray | int:
    """Exact inverse of :func:`splitmix64`.

    Every step of the mixer is a 64-bit bijection (xorshift, odd
    multiply, constant add), so the whole finaliser inverts exactly.
    This is what lets a *minimum over hashes* be mapped back to the
    value that produced it without carrying values alongside — the
    trick the super-k-mer split kernel uses to recover minimizer
    w-mers from window-min hashes in one vector pass.
    """
    scalar = np.isscalar(z) or isinstance(z, (int, np.integer))
    y = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        y = _unshift_xor_right(y, 31)
        y = _unshift_xor_right(y * _INV_C3, 27)
        y = _unshift_xor_right(y * _INV_C2, 30)
        y = y - _C1
    return int(y) if scalar else y


def owner_pe(kmers: np.ndarray, p: int) -> np.ndarray:
    """Owner PE of each k-mer: ``splitmix64(kmer) mod P`` (int64); a
    ``[hi, lo]`` row (k > 32) mixes both words,
    ``splitmix64(hi ^ splitmix64(lo)) mod P``."""
    if p < 1:
        raise ValueError("P must be >= 1")
    kmers = np.asarray(kmers, dtype=np.uint64)
    if kmers.ndim == 2:
        kmers = kmers[:, 0] ^ splitmix64(kmers[:, 1])
    return (splitmix64(kmers) % np.uint64(p)).astype(np.int64)


def owner_split(owners: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(order, counts)`` of the stable split of *owners* over
    ``[0, n)``: ``order`` makes each owner's elements contiguous, in
    owner order and input order inside an owner; ``counts[q]`` is how
    many owner *q* holds.

    The key is sorted at its narrowest unsigned width (``uint8`` for
    n <= 256, ``uint16`` for n <= 65,536), where NumPy's stable sort is
    one counting radix pass — a bin distribution, not a comparison
    sort — and yields the same permutation as a stable ``int64`` sort.
    An owner outside ``[0, n)`` is a ``ValueError``: narrowed, it would
    wrap into a wrong bucket.
    """
    owners = np.asarray(owners)
    if owners.dtype.kind not in "iu":
        raise ValueError(f"owners must be integers, got {owners.dtype}")
    # bincount takes intp; a negative owner (or a uint64 one past
    # 2**63, which wraps negative) raises there.
    counts = np.bincount(owners.astype(np.intp, copy=False), minlength=n)
    if counts.size != n:
        raise ValueError(f"owner {counts.size - 1} is outside [0, {n})")
    if n <= 1 << 8:
        owners = owners.astype(np.uint8)
    elif n <= 1 << 16:
        owners = owners.astype(np.uint16)
    return np.argsort(owners, kind="stable"), counts


def by_owner(owners: np.ndarray, n: int, *columns: np.ndarray):
    """The one bucket split: iterate ``(owner, *column_slices)`` over
    the owners (of *n*) that hold anything, in owner order.

    *owners* is an integer array (PE, bin, shard ...) parallel to every
    array in *columns*; the split is :func:`owner_split`, so each slice
    keeps its elements in input order.
    """
    order, counts = owner_split(owners, n)
    owned = np.flatnonzero(counts)
    ends = np.cumsum(counts)[owned]
    # Every L3 flush and serve group is cut here, so the cutting stays
    # in C: slice objects from Python ints, mapped over each column.
    slices = list(map(slice, (ends - counts[owned]).tolist(), ends.tolist()))
    return zip(owned.tolist(), *(map(c[order].__getitem__, slices) for c in columns))
