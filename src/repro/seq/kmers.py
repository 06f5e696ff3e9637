"""k-mer extraction, packing, counting and manipulation.

Implements the k-mer generation kernel of Algorithm 1 (``GetFirstKmer``
plus the rolling ``(kmer << 2) | Encode(base)`` update) in two forms:

* :func:`iter_kmers` — the faithful per-base rolling loop, used as the
  reference implementation in tests;
* the **flat window kernel** used by every actual counter:
  :func:`pack_windows` (double-and-add over the bits of ``k`` on one
  flat code array: ``log2 k`` levels, each in the narrowest dtype, a
  cache-sized block at a time) and :func:`valid_windows` (which
  windows stay inside one read and cover no ambiguous base), composed
  by :func:`extract_kmers_flat`.  :func:`extract_kmers` and
  :func:`extract_kmers_from_reads` are thin wrappers over it.

:func:`count_packed_kmers` is the rest of Algorithm 1 for wall-clock
code — (canonical) -> sort -> accumulate — written once.

k-mers of length ``k <= 32`` are stored in unsigned 64-bit integers, as
in the paper ("k-mers of length <= 32 are stored as 64-bit integers";
Section IV-C); for ``32 < k <= 64`` (Section VII's 128-bit k-mers) a
k-mer is a ``[hi, lo]`` row of two: the ``(v >> 64, v & (2**64 - 1))``
split of its Python-int value, so the scalar references serve every k
(:func:`kmer_ints` converts).  What keeps one word per k-mer refuses
``k > MAX_K`` (:func:`check_k`).  The *storage width* follows the
model's ``2 ** ceil(log2(2k))`` bits rule (Section V), e.g. k=31 -> 64
bits, k=51 -> 128 bits; it feeds the analytical model's byte counts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from ..sort.accumulate import accumulate_sorted, keys_less
from .alphabet import BASES, INVALID_CODE
from .encoding import encode_base, encode_seq

__all__ = [
    "MAX_K",
    "MAX_WIDE_K",
    "check_k",
    "kmer_ints",
    "kmer_array",
    "kmer_width_bits",
    "kmer_storage_bytes",
    "flatten_reads",
    "pack_windows",
    "valid_windows",
    "extract_kmers_flat",
    "extract_kmers",
    "extract_kmers_from_reads",
    "count_packed_kmers",
    "count_owned_kmers",
    "iter_kmers",
    "kmer_to_str",
    "str_to_kmer",
    "reverse_complement_kmer",
    "reverse_complement_kmers",
    "canonical_kmers",
]

#: Largest k held in one ``uint64`` word (the paper's representation).
MAX_K: int = 32
#: Largest k of the kernel: a ``[hi, lo]`` row of two words.
MAX_WIDE_K: int = 64


def check_k(k: int, limit: int = MAX_K) -> None:
    """Refuse a k outside ``[1, limit]`` — by default the one-word range."""
    if not 1 <= k <= limit:
        raise ValueError(f"k must be in [1, {limit}], got {k}")


def kmer_width_bits(k: int) -> int:
    """Storage width in bits for a k-mer: ``2 ** ceil(log2(2k))``.

    This is the paper's storage rule (Section V): a k-mer needs ``2k``
    bits, rounded up to the next power-of-two machine width (up to 128).
    """
    check_k(k, MAX_WIDE_K)
    return 2 ** math.ceil(math.log2(2 * k))


def kmer_storage_bytes(k: int) -> int:
    """Storage width in bytes (``kmer_width_bits / 8``), min 1."""
    return max(1, kmer_width_bits(k) // 8)


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """``[0, a0, a0+a1, ...]`` — offsets of variable-length records."""
    out = np.zeros(a.size + 1, dtype=np.int64)
    np.cumsum(a, out=out[1:])
    return out


def flatten_reads(reads: np.ndarray | list) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate encoded reads into ``(flat codes, offsets)``.

    Accepts a 2-D ``uint8`` matrix (rows = equal-length reads) or a
    list of 1-D code arrays; ``offsets`` has ``n_reads + 1`` entries.
    """
    if isinstance(reads, np.ndarray) and reads.ndim == 2:
        n, m = reads.shape
        flat = np.ascontiguousarray(reads, dtype=np.uint8).reshape(-1)
        return flat, np.arange(n + 1, dtype=np.int64) * m
    rows = [np.asarray(r, dtype=np.uint8).reshape(-1) for r in reads]
    lengths = np.array([r.size for r in rows], dtype=np.int64)
    flat = (np.concatenate(rows) if rows
            else np.empty(0, dtype=np.uint8))
    return flat, _cumsum0(lengths)


#: Windows built per step of the blocked kernels: every intermediate
#: array of a block stays in cache, whatever the batch size.
_BLOCK: int = 1 << 16


def _pack_blocks(codes: np.ndarray, k: int, keep: np.ndarray | None = None,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The block loop of :func:`pack_windows` (k <= 32) into *out*; with
    *keep*, only those windows.

    *keep* is a boolean mask over the windows.  Each block is compacted
    through its slice of the mask while it is in cache, into a result
    of ``count_nonzero(keep)`` elements: the full window array is never
    allocated.
    """
    steps = bin(k)[3:]
    n_win = max(0, codes.size - k + 1)
    if out is None:
        out = np.empty(n_win if keep is None else np.count_nonzero(keep), dtype=np.uint64)
    scratch = [np.empty(min(_BLOCK, n_win) + k, dtype=np.uint32) for _ in range(2)]
    packed = None if keep is None else np.empty(min(_BLOCK, n_win), dtype=np.uint64)
    filled = 0
    for lo in range(0, n_win, _BLOCK):
        hi = min(lo + _BLOCK, n_win)
        last = out[lo:hi] if keep is None else packed[:hi - lo]
        block = level = codes[lo:hi + k - 1]
        width = 1
        if not steps:
            last[:] = block
        for t, bit in enumerate(steps, 1):
            new_width = 2 * width + int(bit)
            size = block.size - new_width + 1
            new = (last if t == len(steps) else
                   scratch[t % 2].view(f"u{kmer_storage_bytes(new_width)}")[:size])
            np.left_shift(level[:size], 2 * width, out=new, dtype=new.dtype)
            np.bitwise_or(new, level[width:width + size], out=new)
            if new_width > 2 * width:
                np.left_shift(new, 2, out=new)
                np.bitwise_or(new, block[new_width - 1:], out=new)
            level, width = new, new_width
        if keep is not None:
            kept = last[keep[lo:hi]]
            out[filled:filled + kept.size] = kept
            filled += kept.size
    return out


def _pack(codes: np.ndarray, k: int, keep: np.ndarray | None = None) -> np.ndarray:
    """:func:`_pack_blocks` for every k: ``hi`` packs a window's first
    ``k - 32`` bases, ``lo`` the same windows of *codes* shifted by ``k - 32``."""
    if k <= MAX_K:
        return _pack_blocks(codes, k, keep)
    n_win = max(0, codes.size - k + 1)
    rows = np.empty((n_win if keep is None else np.count_nonzero(keep), 2), dtype=np.uint64)
    _pack_blocks(codes[:max(0, codes.size - MAX_K)], k - MAX_K, keep, rows[:, 0])
    _pack_blocks(codes[k - MAX_K:], MAX_K, keep, rows[:, 1])
    return rows


def pack_windows(codes: np.ndarray, k: int) -> np.ndarray:
    """Every length-*k* window of a flat code array, packed ``uint64``
    (``[hi, lo]`` rows for ``k > 32``).

    ``out[i]`` packs ``codes[i : i + k]``, first base in the high bits.
    Built by double-and-add over the bits of *k* below the leading one:
    a width-``w`` level becomes width ``2w`` by one shift of itself
    OR-ed with itself ``w`` places on, and ``2w + 1`` by one more base
    (k=21: 1 -> 2 -> 5 -> 10 -> 21, four levels instead of 21 passes).
    Each level is stored :func:`kmer_storage_bytes` wide, the last one
    ``uint64``, and the array is done a block at a time.  Windows
    covering a read boundary or an ambiguous base hold garbage (every
    sub-window of a real k-mer is real) — select with
    :func:`valid_windows`.
    """
    check_k(k, MAX_WIDE_K)
    return _pack(np.asarray(codes, dtype=np.uint8), k)


def valid_windows(codes: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """Which windows of :func:`pack_windows` are real k-mers.

    Window ``i`` is valid iff it stays inside one read (*offsets*
    delimits the reads of the flat *codes*) and covers no ambiguous
    base (prefix sum of the :data:`INVALID_CODE` mask).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n_win = max(0, codes.size - k + 1)
    read_lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    # A read of n bases starts max(n - k + 1, 0) valid windows; the
    # windows starting in its remaining bases run into the next read.
    n_inside = np.maximum(read_lengths - k + 1, 0)
    valid = np.repeat(
        np.tile([True, False], read_lengths.size),
        np.stack([n_inside, read_lengths - n_inside], axis=1).reshape(-1),
    )[:n_win]
    ambiguous = codes == INVALID_CODE
    if ambiguous.any():
        cum = _cumsum0(ambiguous)
        valid &= cum[k:k + n_win] == cum[:n_win]
    return valid


def extract_kmers_flat(codes: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """All k-mers of a flattened read batch, in read then window order.

    The flat window kernel: ``pack_windows(codes, k)[valid_windows(codes,
    offsets, k)]`` with the mask applied block by block, so only the
    k-mers are ever stored — zero per-read Python.  Windows containing
    an ambiguous base are dropped, matching the standard treatment of
    ``N`` bases.
    """
    check_k(k, MAX_WIDE_K)
    codes = np.asarray(codes, dtype=np.uint8)
    return _pack(codes, k, valid_windows(codes, offsets, k))


def extract_kmers(codes: np.ndarray, k: int) -> np.ndarray:
    """Extract all k-mers of one encoded read, packed as in :func:`pack_windows`.

    A read of ``m`` bases yields ``m - k + 1`` k-mers (empty array if
    ``m < k``), minus the windows containing an ambiguous base.
    """
    codes = np.asarray(codes, dtype=np.uint8).reshape(-1)
    return extract_kmers_flat(codes, np.array([0, codes.size]), k)


def extract_kmers_from_reads(reads: list[np.ndarray] | np.ndarray, k: int) -> np.ndarray:
    """Extract and concatenate k-mers from a batch of encoded reads.

    Accepts either a list of per-read code arrays or a 2-D ``uint8``
    array of equal-length reads (rows are reads); both are flattened
    through :func:`extract_kmers_flat`.
    """
    return extract_kmers_flat(*flatten_reads(reads), k)


def count_packed_kmers(kmers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Packed k-mers -> sorted ``(unique_kmers, counts)``.

    The ``Sort`` -> ``Accumulate`` tail of Algorithm 1
    for every wall-clock counter.  ``np.sort`` rather than
    :func:`repro.sort.hybrid.hybrid_sort`: the in-tree radix is
    simulation-grade Python whose pass statistics feed the model
    (:func:`repro.core.serial.serial_count` keeps it), and
    ``accumulate_sorted`` only needs *a* sorted array.  *kmers* is left
    as it was; a counter that built the array itself hands it to
    :func:`count_owned_kmers` and saves the copy.
    """
    return count_owned_kmers(np.array(kmers), k)


def count_owned_kmers(
    kmers: np.ndarray, k: int, *, canonical: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`count_packed_kmers` of an array the caller gives up.

    *kmers* is sorted in place (``np.sort`` would copy it first), so its
    order is gone when this returns; rows take one ``np.lexsort``.
    """
    if canonical:
        kmers = canonical_kmers(kmers, k)
    if kmers.ndim == 2:
        kmers = kmers[np.lexsort((kmers[:, 1], kmers[:, 0]))]
    else:
        kmers.sort()
    return accumulate_sorted(kmers)


def iter_kmers(seq: str, k: int) -> Iterator[int]:
    """Faithful scalar transcription of Algorithm 1's k-mer generation.

    ``GetFirstKmer`` builds the first window; subsequent windows roll
    with ``kmer = ((kmer << 2) | code) & mask``.  Reference path for
    tests; use :func:`extract_kmers` for real workloads.
    """
    check_k(k, MAX_WIDE_K)
    if len(seq) < k:
        return
    codes = encode_seq(seq)
    mask = (1 << (2 * k)) - 1
    # GetFirstKmer(R[1:k])
    kmer = 0
    for i in range(k):
        kmer = (kmer << 2) | int(codes[i])
    yield kmer
    # Rolling update for j = k+1 .. m
    for j in range(k, len(seq)):
        kmer = ((kmer << 2) | int(codes[j])) & mask
        yield kmer


def kmer_to_str(kmer: int, k: int) -> str:
    """Decode a packed k-mer integer back to its DNA string."""
    check_k(k, MAX_WIDE_K)
    kmer = int(kmer)
    if kmer >> (2 * k):
        raise ValueError(f"kmer value out of range for k={k}")
    out = []
    for i in range(k):
        shift = 2 * (k - 1 - i)
        out.append(BASES[(kmer >> shift) & 0x3])
    return "".join(out)


def str_to_kmer(s: str) -> int:
    """Encode a DNA string of length <= 64 into a packed k-mer integer."""
    check_k(len(s), MAX_WIDE_K)
    kmer = 0
    for ch in s:
        kmer = (kmer << 2) | encode_base(ch)
    return kmer


def reverse_complement_kmer(kmer: int, k: int) -> int:
    """Reverse complement of a single packed k-mer (scalar reference)."""
    check_k(k, MAX_WIDE_K)
    out = 0
    kmer = int(kmer)
    for _ in range(k):
        out = (out << 2) | (3 - (kmer & 0x3))
        kmer >>= 2
    return out


def reverse_complement_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Vectorised reverse complement of packed ``uint64`` k-mers.

    Uses the classic bit-swap ladder: complement all bases (invert the
    word), then reverse the order of 2-bit groups by swapping
    progressively larger blocks (pairs in a nibble, nibbles in a byte,
    bytes in the word) and shift the k-mer back down to the low ``2k``
    bits.  The ladder runs in place on a copy of *kmers*, a block at a
    time against one block of scratch.  A ``[hi, lo]`` row is two
    ladders, ``rc(lo)`` then ``rc(hi)``, split back into two words.
    """
    check_k(k, MAX_WIDE_K)
    if k > MAX_K:
        kmers = np.asarray(kmers, dtype=np.uint64)
        head = reverse_complement_kmers(kmers[:, 1], MAX_K)
        tail = reverse_complement_kmers(kmers[:, 0], k - MAX_K)
        rows = np.empty_like(kmers)
        np.right_shift(head, 2 * (MAX_WIDE_K - k), out=rows[:, 0])
        np.bitwise_or(head << np.uint64(2 * (k - MAX_K)), tail, out=rows[:, 1])
        return rows
    out = np.array(kmers, dtype=np.uint64)
    flat = out.reshape(-1)
    scratch = np.empty(min(_BLOCK, flat.size), dtype=np.uint64)
    for lo in range(0, flat.size, _BLOCK):
        x = flat[lo:lo + _BLOCK]
        t = scratch[:x.size]
        np.invert(x, out=x)
        for shift, mask in ((2, np.uint64(0x3333333333333333)),
                            (4, np.uint64(0x0F0F0F0F0F0F0F0F))):
            np.right_shift(x, shift, out=t)
            np.bitwise_and(t, mask, out=t)
            np.bitwise_and(x, mask, out=x)
            np.left_shift(x, shift, out=x)
            np.bitwise_or(x, t, out=x)
        x.byteswap(inplace=True)
        np.right_shift(x, 64 - 2 * k, out=x)
    return out


def canonical_kmers(kmers: np.ndarray, k: int) -> np.ndarray:
    """Elementwise ``min(kmer, revcomp(kmer))`` — the canonical form.

    The paper's algorithms count k-mers as parsed (no canonicalisation
    appears in Algorithms 1-4), but genomics pipelines built on top of
    a counter usually want canonical counts, so the public API exposes
    this as an option.  Rows take the lexicographic row minimum.
    """
    rc = reverse_complement_kmers(kmers, k)
    kmers = np.asarray(kmers, dtype=np.uint64)
    if rc.ndim == 1:
        return np.minimum(kmers, rc, out=rc)
    keep = keys_less(kmers, rc)
    rc[keep] = kmers[keep]
    return rc


def kmer_ints(kmers: np.ndarray) -> list[int]:
    """Packed k-mers (words or ``[hi, lo]`` rows) as Python ints."""
    if kmers.ndim == 1:
        return kmers.tolist()
    return [(hi << 64) | lo for hi, lo in kmers.tolist()]


def kmer_array(values, k: int) -> np.ndarray:
    """Python-int k-mers as the kernel packs them (inverse of :func:`kmer_ints`)."""
    if k <= MAX_K:
        return np.array(values, dtype=np.uint64)
    return np.array([divmod(v, 1 << 64) for v in values], dtype=np.uint64).reshape(-1, 2)
