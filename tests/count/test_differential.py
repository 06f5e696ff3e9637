"""Differential-oracle tests for the one counting kernel.

Every wall-clock counter is windows -> (canonical) -> sort ->
accumulate, written once (`repro.seq.kmers`).  Three independent
implementations must produce the same multiset of (k-mer, count) pairs
on the same seeded FASTX corpora:

* the streaming counter (batch encode + flat window kernel),
* the scalar per-read reference — ``encode_seq`` per read +
  ``serial_count`` per batch + merge, the path the streaming counter
  replaced, kept here as a test-local oracle,
* the Counter-based ``serial_count_oracle``, which shares no code with
  the vectorised extractor.

Any divergence is a correctness bug in the kernel, not a tolerance
question — the comparisons are exact.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.api import count_kmers
from repro.apps.store import merge_sorted_counts
from repro.apps import streaming
from repro.apps.streaming import (
    count_file_streaming,
    count_files_streaming,
    count_records_streaming,
)
from repro.core.result import KmerCounts
from repro.core.serial import serial_count, serial_count_oracle
from repro.seq.encoding import encode_seq

K_GRID = [1, 5, 15, 21, 31]


def _assert_identical(a, b) -> None:
    """Bit-identical counts: same sorted key array, same count array."""
    assert np.array_equal(a.kmers, b.kmers)
    assert np.array_equal(a.counts, b.counts)


def _encoded(records) -> list[np.ndarray]:
    return [encode_seq(r.seq, validate=False) for r in records]


def _scalar_streaming(records, k, *, canonical=False, batch_records=100_000):
    """Per-read encode + serial_count per batch + merge."""
    keys = np.empty(0, dtype=np.uint64)
    vals = np.empty(0, dtype=np.int64)
    for i in range(0, len(records), batch_records):
        part = serial_count(_encoded(records[i:i + batch_records]), k,
                            canonical=canonical)
        keys, vals = merge_sorted_counts(keys, vals, part.kmers, part.counts)
    return KmerCounts(k, keys, vals)


def _counter_oracle(records, k, canonical) -> Counter:
    """Counter oracle over the N-free fragments of every record."""
    frags = [f for r in records for f in r.seq.replace("N", " ").split()]
    return serial_count_oracle(frags, k, canonical=canonical).to_counter()


@pytest.mark.parametrize("k", K_GRID)
@pytest.mark.parametrize("canonical", [False, True])
def test_fast_equals_scalar_streaming(fastx_corpus, k, canonical):
    fast = count_files_streaming(fastx_corpus["paths"], k, canonical=canonical)
    scalar = _scalar_streaming(fastx_corpus["records"], k, canonical=canonical)
    _assert_identical(fast, scalar)


@pytest.mark.parametrize("k", K_GRID)
def test_fast_equals_serial_count(fastx_corpus, k):
    fast = count_files_streaming(fastx_corpus["paths"], k)
    _assert_identical(fast, serial_count(_encoded(fastx_corpus["records"]), k))


@pytest.mark.parametrize("k", [3, 15, 21])
def test_fast_equals_naive_oracle_on_clean_lane(fastx_corpus, k):
    clean = fastx_corpus["paths"][1]
    fast = count_file_streaming(clean, k)
    oracle = serial_count_oracle(
        [r.seq for r in fastx_corpus["clean_records"]], k)
    assert fast.to_counter() == oracle.to_counter()


@pytest.mark.parametrize("batch_records", [1, 7, 100_000])
@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("k", K_GRID)
def test_streaming_equals_serial_and_counter_oracle(
        fastx_corpus, k, canonical, batch_records):
    """k x canonical x batch size, dirty lane included (reads with N,
    sub-k reads, a homopolymer): streaming == serial_count == Counter."""
    records = fastx_corpus["records"]
    got = count_records_streaming(
        records, k, canonical=canonical, batch_records=batch_records)
    _assert_identical(got, serial_count(_encoded(records), k,
                                        canonical=canonical))
    assert got.to_counter() == _counter_oracle(records, k, canonical)


def test_small_batches_equal_one_batch(fastx_corpus, monkeypatch):
    """Batch boundaries must not create or lose k-mers."""
    one = count_files_streaming(fastx_corpus["paths"], 15)
    monkeypatch.setattr(streaming, "BATCH_RECORDS", 7)
    tiny = count_files_streaming(fastx_corpus["paths"], 15)
    _assert_identical(one, tiny)


def test_empty_input_counts_nothing():
    assert count_records_streaming([], 21).n_distinct == 0
    assert count_kmers([], 21, algorithm="fast").counts.n_distinct == 0


def test_api_fast_algorithm_matches_serial(fastx_corpus):
    fast = count_kmers(str(fastx_corpus["paths"][0]), 15, algorithm="fast")
    serial = count_kmers(str(fastx_corpus["paths"][0]), 15, algorithm="serial")
    _assert_identical(fast.counts, serial.counts)


@pytest.mark.parametrize("canonical", [False, True])
def test_api_fast_on_arrays_matches_serial(fastx_corpus, small_reads, canonical):
    """count_kmers("fast") on a list (flat kernel) and on a matrix
    (dense branch) — both against serial_count."""
    ragged = _encoded(fastx_corpus["records"])
    for reads in (ragged, small_reads):
        fast = count_kmers(reads, 15, algorithm="fast", canonical=canonical)
        _assert_identical(fast.counts,
                          serial_count(reads, 15, canonical=canonical))


def test_in_memory_counters_never_split(fastx_corpus, monkeypatch):
    """Super-k-mers pay only across a disk or a wire: the in-memory
    paths must not run the minimizer splitter."""
    import repro.api as api
    import repro.apps.streaming as streaming
    import repro.seq.superkmers as sk

    def boom(*args, **kwargs):
        raise AssertionError("in-memory counter called the splitter")

    # Patch the definition and any name a caller may have bound at import.
    for module in (sk, streaming, api):
        for name in ("split_superkmers_flat", "split_superkmers_batch"):
            monkeypatch.setattr(module, name, boom, raising=False)
    path = fastx_corpus["paths"][0]
    records = fastx_corpus["records"]
    from_path = count_kmers(path, 15, algorithm="fast")
    _assert_identical(from_path.counts, count_file_streaming(path, 15))
    _assert_identical(
        count_records_streaming(records, 15),
        count_kmers(_encoded(records), 15, algorithm="fast").counts)


def test_saving_a_database_never_deflates(fastx_corpus, tmp_path, monkeypatch):
    """The database is delta-coded sorted blocks; an entropy coder was
    measured and left out (docs/COUNTING.md).  ``zlib.crc32`` stays."""
    import zlib

    from repro.apps.store import load_counts, save_counts

    def boom(*args, **kwargs):
        raise AssertionError("save_counts reached a deflater")

    for owner, name in ((zlib, "compress"), (zlib, "compressobj"),
                        (np, "savez_compressed"), (np, "savez")):
        monkeypatch.setattr(owner, name, boom)
    counts = count_file_streaming(fastx_corpus["paths"][0], 15)
    save_counts(tmp_path / "db.kdb", counts, canonical=True)
    monkeypatch.undo()
    loaded, canonical = load_counts(tmp_path / "db.kdb")
    _assert_identical(loaded, counts)
    assert canonical is True


@pytest.mark.parametrize("canonical", [False, True])
def test_spilled_bins_count_like_memory(fastx_corpus, tmp_path, canonical):
    """One read set, three routes to counts: count_bin over spilled
    bins == count_superkmer_batch over the in-memory batch ==
    serial_count."""
    from repro.ooc import BinWriter, count_bin
    from repro.seq.superkmers import count_superkmer_batch, split_superkmers_batch
    from repro.sort.accumulate import merge_count_arrays

    k, w = 15, 7
    reads = _encoded(fastx_corpus["records"])
    want = serial_count(reads, k, canonical=canonical)

    with BinWriter(tmp_path, k, w, 4, ceiling_bytes=2048) as writer:
        writer.add_reads(reads)
    bins = [count_bin(p, k=k, canonical=canonical) for p in writer.close()]
    _assert_identical(KmerCounts(k, *merge_count_arrays(bins)), want)

    batch = split_superkmers_batch(reads, k, w)
    _assert_identical(
        KmerCounts(k, *count_superkmer_batch(batch, canonical=canonical)), want)
