"""Algorithm 1: the serial sorting-based k-mer counter.

The reference everything else validates against.  Two paths:

* :func:`serial_count` — the production path: vectorised k-mer
  extraction, hybrid radix sort, run-length accumulate.  Identical
  structure to Algorithm 1 (generate all k-mers into ``T``, ``Sort(T)``,
  ``Accumulate(T)``).
* :func:`serial_count_oracle` — a deliberately naive
  ``collections.Counter`` over the scalar rolling-k-mer iterator;
  quadratic overheads, used only in tests as an independent oracle —
  for every k <= 64, since its k-mers are Python ints.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..seq.encoding import decode_codes
from ..seq.kmers import (canonical_kmers, check_k, extract_kmers_from_reads, iter_kmers,
                         reverse_complement_kmer)
from ..sort.accumulate import accumulate_sorted
from ..sort.hybrid import hybrid_sort
from .result import KmerCounts

__all__ = ["serial_count", "serial_count_oracle"]


def serial_count(
    reads: np.ndarray | list,
    k: int,
    *,
    canonical: bool = False,
) -> KmerCounts:
    """Count k-mers serially (Algorithm 1).

    *reads* may be a 2-D ``uint8`` code matrix (rows = equal-length
    reads) or a list of 1-D code arrays; k <= 32 (the radix sort
    keys one word).
    """
    check_k(k)
    kmers = extract_kmers_from_reads(reads, k)
    if canonical:
        kmers = canonical_kmers(kmers, k)
    uniq, counts = accumulate_sorted(hybrid_sort(kmers, key_bits=2 * k))
    return KmerCounts(k, uniq, counts)


def serial_count_oracle(reads, k: int, *, canonical: bool = False) -> KmerCounts:
    """Independent Counter-based oracle over string reads.

    Accepts the same inputs as :func:`serial_count` plus plain strings,
    at any k up to 64; encoded inputs are decoded first so this path
    shares *no* code with the vectorised extractor.
    """
    counter: Counter = Counter()
    seqs: list[str] = []
    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        seqs = [decode_codes(row) for row in reads]
    else:
        for r in reads:
            seqs.append(r if isinstance(r, str) else decode_codes(r))
    for seq in seqs:
        for kmer in iter_kmers(seq, k):
            if canonical:
                kmer = min(kmer, reverse_complement_kmer(kmer, k))
            counter[kmer] += 1
    return KmerCounts.from_counter(k, counter)
