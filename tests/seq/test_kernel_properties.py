"""Properties of the window kernel against its scalar references.

``pack_windows`` builds windows by double-and-add in narrow dtypes, a
block at a time, ``extract_kmers_flat`` compacts each of those blocks
through the validity mask, and ``reverse_complement_kmers`` runs its
ladder in place on a copy; the scalar ``iter_kmers`` /
``reverse_complement_kmer`` do none of that.  Blocks of 3 and 16
windows put block edges inside every generated batch; the real block
size is one more case.  Above k = 32 a k-mer is a ``[hi, lo]`` row of
two words; the scalar references are Python ints, compared through
``kmer_ints``, so one reference covers every k.  The last two tests
guard what the in-place sort must not cost: a caller's array, and
memory.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.seq import kmers as kernel
from repro.seq.alphabet import INVALID_CODE
from repro.seq.encoding import decode_codes
from repro.seq.kmers import (
    MAX_K,
    MAX_WIDE_K,
    canonical_kmers,
    count_packed_kmers,
    extract_kmers_flat,
    flatten_reads,
    iter_kmers,
    kmer_array,
    kmer_ints,
    pack_windows,
    reverse_complement_kmer,
    reverse_complement_kmers,
    valid_windows,
)

BLOCKS = st.sampled_from([3, 16, kernel._BLOCK])
# Ragged batches: empty reads, reads shorter than k, ambiguous bases.
BATCHES = st.lists(st.lists(st.sampled_from([0, 1, 2, 3, 0, 1, 2, 3, INVALID_CODE]),
                            max_size=70), max_size=6)


def scalar_kmers(reads: list[list[int]], k: int) -> list[int]:
    """``iter_kmers`` over the ambiguity-free fragments of every read."""
    out = []
    for read in reads:
        fragment: list[int] = []
        for code in read + [INVALID_CODE]:
            if code == INVALID_CODE:
                out.extend(iter_kmers(decode_codes(np.array(fragment, dtype=np.uint8)), k))
                fragment = []
            else:
                fragment.append(code)
    return out


@pytest.mark.parametrize("k", range(1, MAX_WIDE_K + 1))
@given(reads=BATCHES, block=BLOCKS)
# k = 33 crosses the word boundary on the C; an N mid-read, a read
# shorter than k and an all-N read drop their windows at every k.
@example(reads=[[0] * 32 + [1] + [2] * 10], block=3)
@example(reads=[[0, 1, 2, 3] * 12 + [INVALID_CODE] + [3, 3, 2, 1, 0] * 10,
                [0, 1, 2, 3] * 2, [INVALID_CODE] * 50, [2, 0, 3, 3, 0, 1, 0] * 9],
         block=16)
def test_valid_packed_windows_equal_the_scalar_reference(k, reads, block):
    codes, offsets = flatten_reads([np.array(r, dtype=np.uint8) for r in reads])
    codes.setflags(write=False)
    before = codes.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BLOCK", block)
        packed = pack_windows(codes, k)
        fused = extract_kmers_flat(codes, offsets, k)
    shape = (max(0, codes.size - k + 1),) + ((2,) if k > MAX_K else ())
    assert packed.dtype == np.uint64 and packed.shape == shape
    assert kmer_ints(packed[valid_windows(codes, offsets, k)]) == scalar_kmers(reads, k)
    assert fused.dtype == np.uint64 and kmer_ints(fused) == scalar_kmers(reads, k)
    assert np.array_equal(codes, before)


@pytest.mark.parametrize("k", [1, 15, 21, 31, 32, 33, 47, 63, 64])
@given(values=st.lists(st.integers(0, 2**128 - 1), max_size=40), block=BLOCKS)
def test_reverse_complement_equals_scalar_and_is_an_involution(k, values, block):
    values = [v >> (128 - 2 * k) for v in values]
    kmers = kmer_array(values, k)
    kmers.setflags(write=False)
    before = kmers.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BLOCK", block)
        rc = reverse_complement_kmers(kmers, k)
        assert kmer_ints(rc) == [reverse_complement_kmer(x, k) for x in values]
        assert np.array_equal(reverse_complement_kmers(rc, k), kmers)
        canonical = canonical_kmers(kmers, k)
        assert kmer_ints(canonical) == list(map(min, values, kmer_ints(rc)))
        assert np.array_equal(canonical_kmers(rc, k), canonical)  # strand-invariant
    assert np.array_equal(kmers, before)


@pytest.mark.parametrize("canonical", [False, True])
@given(values=st.lists(st.integers(0, 2**102 - 1), max_size=40))
def test_count_packed_kmers_leaves_the_callers_array_alone(canonical, values):
    """The counters sort arrays they built in place; the public entry
    point takes arrays it does not own — writable or not.  k = 51 rows
    sort by ``hi`` then ``lo``, which is the order of their values."""
    for k in (21, 51):
        ints = [v >> (102 - 2 * k) for v in values]
        ints += ints[::3]  # repeats to accumulate
        if canonical:  # strand-folded first, as the canonical counters do
            ints = [min(x, reverse_complement_kmer(x, k)) for x in ints]
        owned = kmer_array(ints, k)
        frozen = owned.copy()
        frozen.setflags(write=False)
        want = Counter(ints)
        for kmers in (owned, frozen):
            keys, counts = count_packed_kmers(kmers, k)
            assert kmer_ints(keys) == sorted(want)
            assert counts.tolist() == [want[x] for x in sorted(want)]
            assert kmer_ints(kmers) == ints


def test_fast_count_peaks_near_one_kmer_array():
    """``count_kmers(reads, 21, "fast")`` on 2M windows at 20x coverage.

    One ``uint64`` per window is 8 B x windows.  With the full window
    array and ``np.sort``'s copy the peak was 2.03 of those; with the
    block-wise mask and the in-place sort it is 1.17 (the k-mers, the
    masks, the accumulate of 100k distinct).
    """
    from repro.api import count_kmers
    from repro.seq.genomes import uniform_genome
    from repro.seq.readsim import ReadSimConfig, simulate_reads

    reads = simulate_reads(uniform_genome(100_000, seed=3), ReadSimConfig(
        read_len=150, n_reads=13_400, error_rate=0.0, seed=3))
    windows = reads.size - 21 + 1
    assert windows > 2_000_000
    tracemalloc.start()
    try:
        run = count_kmers(reads, 21, algorithm="fast")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.counts.total == reads.shape[0] * (150 - 21 + 1)
    assert peak < 1.5 * 8 * windows, peak / (8 * windows)
