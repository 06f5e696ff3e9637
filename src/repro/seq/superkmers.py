"""Vectorised super-k-mer batch kernels: the partitioners' splitter.

A super-k-mer exists for one reason: fewer bytes to a disk bin or over
a wire.  :mod:`repro.seq.minimizers` defines them and provides the
readable per-read splitter (:func:`~repro.seq.minimizers.split_superkmers`,
kept as the test oracle).  This module is the production splitter: a
whole *batch* of encoded reads is flattened into one code array and
split into super-k-mer runs with a fixed number of NumPy passes — zero
per-k-mer (and zero per-read) Python in the hot loop.  It is called
only where its output is consumed:

* **spill binning** (:mod:`repro.ooc.spill`): batch split + the
  splitmix64 owner hash via :func:`partition_superkmers`;
* **distributed routing** (:mod:`repro.core.minipart`): packed wire
  accounting via :func:`superkmer_wire_bytes` / :func:`pack_spans`.

In-memory counters never split — they count the window array of
:mod:`repro.seq.kmers` directly.  :func:`span_kmers` and
:func:`count_superkmer_batch` turn spans back into k-mers and counts
on the receiving side of a bin or a wire.

The split kernel works on *window* arrays: a batch of ``m`` total
bases has ``m - k + 1`` candidate k-mer windows, of which a window is
**valid** iff it does not cross a read boundary and contains no
ambiguous base (:func:`repro.seq.kmers.valid_windows`).  Maximal runs
of valid windows sharing one minimizer are the super-k-mers; the whole
decomposition is boolean algebra over window-aligned arrays, identical
in result to running the per-read splitter on every read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.owner import owner_pe, owner_split, splitmix64, splitmix64_inverse
from .kmers import (
    _cumsum0,
    check_k,
    count_owned_kmers,
    flatten_reads,
    pack_windows,
    valid_windows,
)

__all__ = [
    "DEFAULT_MINIMIZER_LEN",
    "SuperKmerBatch",
    "split_superkmers_flat",
    "split_superkmers_batch",
    "pack_spans",
    "span_kmers",
    "partition_superkmers",
    "count_superkmer_batch",
    "superkmer_wire_bytes",
]

#: Default minimizer length of the fast path and the out-of-core
#: spiller (KMC2/KMC3 use 7-9); both take ``min(k, 7)``.
DEFAULT_MINIMIZER_LEN: int = 7


def _check_kw(k: int, w: int) -> None:
    check_k(k)  # spans and bins hold one word per k-mer
    if w > k:
        raise ValueError("minimizer length must be <= k")
    if w < 1:
        raise ValueError("minimizer length must be >= 1")


def _span_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat source index of every element of every span, span-major."""
    total = int(lengths.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(
        _cumsum0(lengths)[:-1], lengths)
    return np.repeat(starts, lengths) + within


def _sliding_min(a: np.ndarray, length: int) -> np.ndarray:
    """Minimum of every length-``length`` window of *a* (doubling ladder).

    ``out[i] = min(a[i : i + length])`` for all ``a.size - length + 1``
    windows (``a.size >= length``).  With ``m_p[i] = min(a[i : i + p])``,
    ``m_2p[i] = min(m_p[i], m_p[i + p])`` climbs to the largest power
    of two ``p <= length``, and two overlapping length-``p`` windows
    cover each answer: ``min(m_p[i], m_p[i + length - p])`` —
    ``log2(length)`` contiguous :func:`numpy.minimum` passes.
    """
    m, p = a, 1
    while 2 * p <= length:
        m = np.minimum(m[:-p], m[p:])
        p *= 2
    return np.minimum(m[:a.size - length + 1], m[length - p:])


@dataclass(slots=True)
class SuperKmerBatch:
    """Super-k-mer runs of one read batch, as flat index arrays.

    ``codes`` is the concatenated 2-bit encoding of every read in the
    batch (ambiguous bases included as :data:`INVALID_CODE` — spans
    never cover them); super-k-mer ``i`` is the span
    ``codes[starts[i] : starts[i] + lengths[i]]``, covers
    ``lengths[i] - k + 1`` k-mers, and carries ``minimizers[i]`` (the
    routing key) plus ``read_ids[i]`` (its source read).
    """

    codes: np.ndarray       # uint8, flat batch encoding
    starts: np.ndarray      # int64, span start per super-k-mer
    lengths: np.ndarray     # int64, span bases per super-k-mer
    minimizers: np.ndarray  # uint64, shared minimizer per super-k-mer
    read_ids: np.ndarray    # int64, source read per super-k-mer
    k: int
    w: int

    # -- shape ---------------------------------------------------------

    @property
    def n_superkmers(self) -> int:
        return int(self.starts.size)

    @property
    def n_kmers_per(self) -> np.ndarray:
        """k-mers covered by each super-k-mer (``lengths - k + 1``)."""
        return self.lengths - self.k + 1

    @property
    def n_kmers(self) -> int:
        return int(self.n_kmers_per.sum())

    @property
    def n_bases(self) -> int:
        return int(self.lengths.sum())

    # -- derived forms -------------------------------------------------

    def kmers(self) -> np.ndarray:
        """All covered k-mers as packed ``uint64``, span-major order.

        Within a read this is exactly the valid-window order of
        :func:`repro.seq.kmers.extract_kmers`; across reads it is
        batch order.
        """
        return span_kmers(self.codes, self.starts, self.n_kmers_per, self.k)

    def pack(self) -> tuple[np.ndarray, np.ndarray]:
        """2-bit packed wire form: ``(uint32 lengths, byte blob)``.

        Identical layout to :func:`repro.ooc.format.pack_superkmers`
        (4 bases/byte, first base in the high bits, per-record byte
        padding), so a packed batch drops straight into spill bins.
        """
        return pack_spans(self.codes, self.starts, self.lengths)

    def wire_bytes(self) -> int:
        """Total packed bytes on the wire, 8 header bytes per record."""
        return superkmer_wire_bytes(self.lengths)


def _empty_batch(codes: np.ndarray, k: int, w: int) -> SuperKmerBatch:
    i64 = np.empty(0, dtype=np.int64)
    return SuperKmerBatch(codes=codes, starts=i64, lengths=i64.copy(),
                          minimizers=np.empty(0, dtype=np.uint64),
                          read_ids=i64.copy(), k=k, w=w)


def split_superkmers_flat(
    codes: np.ndarray, offsets: np.ndarray, k: int, w: int
) -> SuperKmerBatch:
    """Split a flattened read batch into super-k-mers (the kernel).

    *codes* is the concatenation of every read's 2-bit encoding
    (ambiguous bases as :data:`INVALID_CODE`); *offsets* delimits the
    reads.  Equivalent to per-read
    :func:`~repro.seq.minimizers.split_superkmers` — same spans, same
    minimizers, same order — in a fixed number of vectorised passes:
    one boundary/ambiguity mask, one window pass for the w-mers, one
    hash + sliding minimum for the minimizers, and boolean run
    detection.  The k-mers themselves are never materialised here.
    """
    _check_kw(k, w)
    codes = np.asarray(codes, dtype=np.uint8)
    offsets = np.asarray(offsets, dtype=np.int64)
    m = codes.size
    if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != m:
        raise ValueError("offsets must run from 0 to codes.size")
    if offsets.size > 1 and np.diff(offsets).min() < 0:
        raise ValueError("offsets must be non-decreasing")
    valid = valid_windows(codes, offsets, k)
    if not valid.any():
        return _empty_batch(codes, k, w)
    n_win = valid.size
    # Minimizer hashes: hash every w-mer ONCE, then slide a length
    # ``k - w + 1`` window minimum over the hashes with a doubling
    # ladder.  This replaces the per-window ``k - w + 1`` hash
    # reductions of :func:`repro.seq.minimizers.minimizers_of_kmers`
    # with ``log2(k - w + 1)`` contiguous passes, and is exactly
    # equivalent: splitmix64 is injective, so the hash-minimal w-mer
    # is unique and run boundaries (hash equality) match value
    # equality.  The w-mer *values* are recovered from the winning
    # hashes via the mixer's inverse, but only where they are needed
    # (at run starts).
    hashes = splitmix64(pack_windows(codes, w))
    mins = _sliding_min(hashes, k - w + 1)[:n_win]
    # Run boundaries: a valid window starts a super-k-mer when its
    # predecessor window is invalid (segment/read boundary) or carries
    # a different minimizer; symmetric for run ends.
    # "same run" needs equal minimizers AND the same source read; the
    # read check only matters for k == 1, where adjacent windows in
    # different reads are both valid.
    same = np.empty(n_win, dtype=bool)
    same[0] = False
    same[1:] = mins[1:] == mins[:-1]
    read_starts = offsets[:-1]
    same[read_starts[read_starts < n_win]] = False
    prev_valid = np.empty(n_win, dtype=bool)
    prev_valid[0] = False
    prev_valid[1:] = valid[:-1]
    next_valid = np.empty(n_win, dtype=bool)
    next_valid[-1] = False
    next_valid[:-1] = valid[1:]
    next_same = np.empty(n_win, dtype=bool)
    next_same[-1] = False
    next_same[:-1] = same[1:]
    starts = np.flatnonzero(valid & (~prev_valid | ~same))
    ends = np.flatnonzero(valid & (~next_valid | ~next_same))
    return SuperKmerBatch(
        codes=codes, starts=starts, lengths=ends - starts + k,
        minimizers=splitmix64_inverse(mins[starts]),
        read_ids=np.searchsorted(offsets, starts, side="right") - 1,
        k=k, w=w)


def split_superkmers_batch(
    reads: np.ndarray | list, k: int, w: int
) -> SuperKmerBatch:
    """Split a batch of encoded reads (matrix or list) in one pass."""
    flat, offsets = flatten_reads(reads)
    return split_superkmers_flat(flat, offsets, k, w)


def pack_spans(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """2-bit pack arbitrary spans of a code array into wire form.

    Returns ``(uint32 lengths, byte blob)`` in the spill-bin chunk
    layout: 4 bases/byte, first base in the high bits, each record
    padded to a whole byte.  Spans may overlap (batch super-k-mers
    share their ``k - 1`` overlap bases) — each is packed standalone.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if starts.shape != lengths.shape:
        raise ValueError("starts and lengths must have the same shape")
    lengths32 = lengths.astype(np.uint32)
    if lengths.size == 0:
        return lengths32, np.empty(0, dtype=np.uint8)
    if lengths.min() <= 0:
        raise ValueError("cannot pack an empty super-k-mer")
    # One pass per output byte, not per base: byte ``j`` of a record
    # packs ``codes[src + t]`` for ``t < 4``, ``src = start + 4 j``, and
    # a ``t`` at or past the record's end is a zero pad.  The 3 zeros
    # appended to the codes keep every pad gather in bounds.
    n_bytes = -(-lengths // 4)
    offs = _cumsum0(n_bytes)
    within = 4 * (np.arange(int(offs[-1]), dtype=np.int64)
                  - np.repeat(offs[:-1], n_bytes))
    src = np.repeat(starts, n_bytes) + within
    left = np.repeat(lengths, n_bytes) - within
    codes = np.concatenate([codes, np.zeros(3, dtype=np.uint8)])
    blob = np.zeros(src.size, dtype=np.uint8)
    seen = np.zeros(src.size, dtype=np.uint8)   # OR of every packed code
    for t in range(4):
        base = codes[t:][src]
        base[left <= t] = 0
        seen |= base
        blob |= base << (6 - 2 * t)
    if (seen > 3).any():
        raise ValueError("super-k-mer codes must be 2-bit (no ambiguity)")
    return lengths32, blob


def span_kmers(
    codes: np.ndarray, starts: np.ndarray, n_kmers_per: np.ndarray, k: int
) -> np.ndarray:
    """Packed k-mers of arbitrary spans of a code array, span-major.

    Span ``i`` contributes the ``n_kmers_per[i]`` windows starting at
    ``codes[starts[i]]``: one :func:`repro.seq.kmers.pack_windows`
    pass over *codes* and one gather — zero per-record Python.  The
    receiving side of :func:`pack_spans`: batches in memory and spill
    chunks read back from disk expand through this one function.
    """
    return pack_windows(codes, k)[_span_positions(starts, n_kmers_per)]


def superkmer_wire_bytes(lengths: np.ndarray) -> int:
    """Packed wire bytes of super-k-mer spans: ``ceil(len/4)`` plus an
    8-byte header each."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return int((-(-lengths // 4) + 8).sum())


def partition_superkmers(
    batch: SuperKmerBatch, n_bins: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route a batch to bins by the splitmix64 hash of its minimizers.

    Returns ``(owners, order, boundaries)``: ``owners[i]`` is the bin
    of super-k-mer ``i`` (the same :func:`repro.core.owner.owner_pe`
    assignment used by every shard/ring/bin in this codebase),
    ``order`` permutes super-k-mers so bins are contiguous, and
    ``boundaries`` has ``n_bins + 1`` entries such that bin ``b`` owns
    ``order[boundaries[b] : boundaries[b+1]]``.  Because a minimizer
    is a pure function of k-mer content, every occurrence of a k-mer
    lands in exactly one bin: bins are closed multisets and can be
    counted independently.
    """
    owners = owner_pe(batch.minimizers, n_bins)
    order, counts = owner_split(owners, n_bins)
    return owners, order, _cumsum0(counts)


def count_superkmer_batch(
    batch: SuperKmerBatch, *, canonical: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Expand -> sort -> accumulate one batch: sorted ``(kmers, counts)``."""
    return count_owned_kmers(batch.kmers(), batch.k, canonical=canonical)
