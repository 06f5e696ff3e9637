"""Hypothesis property suite for the batched super-k-mer split kernel.

The batch kernel (`repro.seq.superkmers`) must agree *exactly* with the
per-read reference splitter (`repro.seq.minimizers.split_superkmers`)
and reconstruct the same k-mer multiset as the plain extractor, for any
reads — including homopolymers, reads shorter than k, and ambiguous
bases.  These properties are what let the partitioners (spill bins,
minimizer routing) claim bit-identical results.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.seq.encoding import encode_batch, encode_seq
from repro.seq.kmers import canonical_kmers, extract_kmers
from repro.seq.minimizers import split_superkmers
from repro.seq.superkmers import (
    SuperKmerBatch,
    _sliding_min,
    count_superkmer_batch,
    split_superkmers_batch,
)

# Read sets biased toward the nasty cases: ambiguous bases, empty and
# sub-k reads, and low-entropy (homopolymer/microsatellite) sequences.
general_reads = st.lists(
    st.text(alphabet="ACGTN", min_size=0, max_size=60), min_size=0, max_size=10
)
homopolymer_reads = st.lists(
    st.builds(
        lambda b, n: b * n,
        st.sampled_from("ACGT"),
        st.integers(0, 90),
    ),
    min_size=1,
    max_size=5,
)
kw_pairs = st.integers(1, 32).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, k))
)


def _encode(reads: list[str]) -> list[np.ndarray]:
    return [encode_seq(r, validate=False) for r in reads]


def _assert_matches_reference(
    batch: SuperKmerBatch, reads: list[np.ndarray], k: int, w: int
) -> None:
    """Batch output == per-read reference splitter, field by field."""
    starts, lengths, minimizers, read_ids = [], [], [], []
    offset = 0
    for rid, codes in enumerate(reads):
        for sk in split_superkmers(codes, k, w):
            starts.append(offset + sk.start)
            lengths.append(sk.n_bases)
            minimizers.append(sk.minimizer)
            read_ids.append(rid)
        offset += codes.size
    assert batch.starts.tolist() == starts
    assert batch.lengths.tolist() == lengths
    assert batch.minimizers.tolist() == minimizers
    assert batch.read_ids.tolist() == read_ids


@given(general_reads, kw_pairs)
@settings(max_examples=50)
def test_batch_split_equals_per_read_reference(reads, kw):
    k, w = kw
    batch = split_superkmers_batch(_encode(reads), k, w)
    _assert_matches_reference(batch, _encode(reads), k, w)


@given(homopolymer_reads, kw_pairs)
@settings(max_examples=25)
def test_homopolymers_collapse_to_one_superkmer_per_read(reads, kw):
    k, w = kw
    encoded = _encode(reads)
    batch = split_superkmers_batch(encoded, k, w)
    _assert_matches_reference(batch, encoded, k, w)
    # Every window of a homopolymer shares one minimizer, so each read
    # long enough to hold a k-mer yields exactly one super-k-mer.
    assert batch.n_superkmers == sum(1 for r in reads if len(r) >= k)


@given(general_reads, kw_pairs)
@settings(max_examples=50)
def test_batch_reconstructs_kmer_stream(reads, kw):
    """Concatenated super-k-mer k-mers == the plain extractor's stream."""
    k, w = kw
    encoded = _encode(reads)
    batch = split_superkmers_batch(encoded, k, w)
    reference = (
        np.concatenate([extract_kmers(r, k) for r in encoded])
        if encoded
        else np.empty(0, dtype=np.uint64)
    )
    assert np.array_equal(batch.kmers(), reference)
    assert batch.n_kmers == reference.size


@given(general_reads, st.integers(1, 31).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(1, k))),
    st.booleans())
@settings(max_examples=50)
def test_count_superkmer_batch_equals_counter_oracle(reads, kw, canonical):
    k, w = kw
    encoded = _encode(reads)
    batch = split_superkmers_batch(encoded, k, w)
    keys, vals = count_superkmer_batch(batch, canonical=canonical)
    kmers = (
        np.concatenate([extract_kmers(r, k) for r in encoded])
        if encoded
        else np.empty(0, dtype=np.uint64)
    )
    if canonical:
        kmers = canonical_kmers(kmers, k)
    assert Counter(dict(zip(keys.tolist(), vals.tolist()))) == Counter(
        kmers.tolist()
    )
    assert keys.tolist() == sorted(keys.tolist())


@given(general_reads, kw_pairs)
@settings(max_examples=25)
def test_matrix_and_list_inputs_agree(reads, kw):
    """A 2-D equal-length code matrix takes the dense fast path; it must
    produce the same batch as the row list."""
    k, w = kw
    encoded = _encode(reads)
    width = max((r.size for r in encoded), default=0)
    padded = [r for r in encoded if r.size == width]
    if not padded:
        return
    matrix = np.stack(padded)
    from_matrix = split_superkmers_batch(matrix, k, w)
    from_list = split_superkmers_batch(padded, k, w)
    assert np.array_equal(from_matrix.starts, from_list.starts)
    assert np.array_equal(from_matrix.lengths, from_list.lengths)
    assert np.array_equal(from_matrix.minimizers, from_list.minimizers)
    assert np.array_equal(from_matrix.read_ids, from_list.read_ids)


@given(st.lists(st.text(alphabet="ACGTN", min_size=0, max_size=60),
                min_size=0, max_size=8))
@settings(max_examples=25)
def test_encode_batch_matches_per_read_encoding(reads):
    flat, offsets = encode_batch(reads, validate=False)
    assert offsets[0] == 0 and offsets[-1] == flat.size
    for i, r in enumerate(reads):
        expected = encode_seq(r, validate=False)
        assert np.array_equal(flat[offsets[i]:offsets[i + 1]], expected)


@pytest.mark.parametrize("length", range(1, 41))
def test_sliding_min_equals_brute_force(length):
    """Every window length 1..40, at sizes on and around the ladder's edges;
    ties and the dtype's extremes included."""
    rng = np.random.default_rng(length)
    top = np.iinfo(np.uint64).max
    for size in (length, length + 1, 2 * length - 1, 3 * length + 5):
        for a in (rng.integers(0, 1 << 64, size, dtype=np.uint64),
                  rng.integers(0, 4, size, dtype=np.uint64),
                  np.full(size, top, dtype=np.uint64)):
            want = np.array([a[i:i + length].min()
                             for i in range(size - length + 1)], dtype=np.uint64)
            got = _sliding_min(a, length)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
