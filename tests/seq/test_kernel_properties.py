"""Properties of the window kernel against its scalar references.

``pack_windows`` builds windows by double-and-add in narrow dtypes, a
block at a time, and ``reverse_complement_kmers`` runs its ladder in
place on a copy; the scalar ``iter_kmers`` / ``reverse_complement_kmer``
do neither.  Blocks of 3 and 16 windows put block edges inside every
generated batch; the real block size is one more case.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.seq import kmers as kernel
from repro.seq.alphabet import INVALID_CODE
from repro.seq.encoding import decode_codes
from repro.seq.kmers import (
    MAX_K,
    canonical_kmers,
    flatten_reads,
    iter_kmers,
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


@pytest.mark.parametrize("k", range(1, MAX_K + 1))
@given(reads=BATCHES, block=BLOCKS)
def test_valid_packed_windows_equal_the_scalar_reference(k, reads, block):
    codes, offsets = flatten_reads([np.array(r, dtype=np.uint8) for r in reads])
    codes.setflags(write=False)
    before = codes.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BLOCK", block)
        packed = pack_windows(codes, k)
    assert packed.dtype == np.uint64 and packed.size == max(0, codes.size - k + 1)
    assert packed[valid_windows(codes, offsets, k)].tolist() == scalar_kmers(reads, k)
    assert np.array_equal(codes, before)


@pytest.mark.parametrize("k", [1, 15, 21, 31, 32])
@given(values=st.lists(st.integers(0, 2**64 - 1), max_size=40), block=BLOCKS)
def test_reverse_complement_equals_scalar_and_is_an_involution(k, values, block):
    kmers = np.array(values, dtype=np.uint64) >> np.uint64(64 - 2 * k)
    kmers.setflags(write=False)
    before = kmers.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_BLOCK", block)
        rc = reverse_complement_kmers(kmers, k)
        assert rc.tolist() == [reverse_complement_kmer(x, k) for x in kmers.tolist()]
        assert np.array_equal(reverse_complement_kmers(rc, k), kmers)
        assert np.array_equal(canonical_kmers(kmers, k), np.minimum(kmers, rc))
    assert np.array_equal(kmers, before)
