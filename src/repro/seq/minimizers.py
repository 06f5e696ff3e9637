"""Minimizers and super-k-mers.

The minimizer of a k-mer is its smallest length-``w`` substring under
a scrambling hash order.  Consecutive k-mers of a read usually share
their minimizer, so a read splits into few *super-k-mers* — maximal
runs of k-mers with one minimizer, stored as a single substring of
``run + k - 1`` bases.  Two classic uses, both exercised here:

* **binning** (KMC3, Section II-A): the minimizer selects the bin a
  k-mer is counted in, keeping adjacent k-mers together
  (:mod:`repro.baselines.kmc3` builds on this module);
* **communication compression**: shipping super-k-mers instead of
  k-mers cuts the bytes of Phase 1 by up to ``k/4``x on top of DAKC's
  L2/L3 layers — the kmerind-style optimisation
  (:meth:`repro.seq.superkmers.SuperKmerBatch.wire_bytes` quantifies
  it per workload).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.owner import splitmix64
from .alphabet import INVALID_CODE
from .kmers import extract_kmers
from .superkmers import _check_kw

__all__ = [
    "minimizers_of_kmers",
    "read_minimizers",
    "SuperKmer",
    "split_superkmers",
]


def minimizers_of_kmers(kmers: np.ndarray, k: int, w: int) -> np.ndarray:
    """Minimizer (the hash-minimal w-mer) of each packed k-mer.

    Vectorised: one :func:`numpy.minimum` reduction per window offset.
    Hash order (splitmix64) rather than lexicographic order spreads
    the minimizer distribution, exactly as KMC3's signature ordering
    does.
    """
    _check_kw(k, w)
    kmers = np.asarray(kmers, dtype=np.uint64)
    n_windows = k - w + 1
    wmask = np.uint64((1 << (2 * w)) - 1)
    best = None
    best_val = None
    for j in range(n_windows):
        shift = np.uint64(2 * (n_windows - 1 - j))
        wmer = (kmers >> shift) & wmask
        hval = splitmix64(wmer)
        if best is None:
            best, best_val = wmer.copy(), hval.copy()
        else:
            take = hval < best_val
            best[take] = wmer[take]
            best_val[take] = hval[take]
    return best


def read_minimizers(codes: np.ndarray, k: int, w: int) -> np.ndarray:
    """Per-window minimizers of one encoded read (m-k+1 entries)."""
    kmers = extract_kmers(codes, k)
    if kmers.size == 0:
        return np.empty(0, dtype=np.uint64)
    return minimizers_of_kmers(kmers, k, w)


@dataclass(frozen=True, slots=True)
class SuperKmer:
    """A maximal run of k-mers sharing one minimizer.

    ``start``/``n_bases`` locate the substring in the source read;
    the super-k-mer covers ``n_bases - k + 1`` k-mers.
    """

    start: int
    n_bases: int
    minimizer: int

    def n_kmers(self, k: int) -> int:
        return self.n_bases - k + 1


def _split_valid_segment(codes: np.ndarray, k: int, w: int, offset: int) -> list[SuperKmer]:
    """Split one ambiguity-free read segment (``start`` shifted by *offset*)."""
    mins = read_minimizers(codes, k, w)
    if mins.size == 0:
        return []
    change = np.empty(mins.size, dtype=bool)
    change[0] = True
    change[1:] = mins[1:] != mins[:-1]
    starts = np.flatnonzero(change)
    ends = np.append(starts[1:], mins.size)
    return [
        SuperKmer(start=offset + int(s), n_bases=int(e - s) + k - 1,
                  minimizer=int(mins[s]))
        for s, e in zip(starts, ends)
    ]


def split_superkmers(codes: np.ndarray, k: int, w: int) -> list[SuperKmer]:
    """Split one encoded read into its super-k-mers.

    Edge cases are handled cleanly rather than degenerately:

    * a read shorter than ``k`` (hence shorter than ``k + w - 1`` too)
      holds no k-mer and returns ``[]``;
    * an all-homopolymer read has one minimizer throughout and returns
      exactly one super-k-mer spanning the read;
    * ambiguous bases (``INVALID_CODE``) split the read into valid
      segments first, so every returned ``start``/``n_bases`` substring
      is ambiguity-free and reproduces its k-mers exactly — the naive
      path would silently misalign offsets against the dropped windows.

    Every returned super-k-mer satisfies ``n_bases >= k`` (covers at
    least one k-mer); together they cover each of the read's valid
    k-mers exactly once.
    """
    _check_kw(k, w)
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.size < k:
        return []
    invalid = codes == INVALID_CODE
    if not invalid.any():
        return _split_valid_segment(codes, k, w, 0)
    # Valid segments between ambiguous bases; only those long enough to
    # hold a k-mer contribute.
    boundaries = np.flatnonzero(invalid)
    out: list[SuperKmer] = []
    seg_start = 0
    for b in list(boundaries) + [codes.size]:
        if b - seg_start >= k:
            out.extend(_split_valid_segment(codes[seg_start:b], k, w, seg_start))
        seg_start = int(b) + 1
    return out
