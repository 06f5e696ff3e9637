"""``ooc_count`` equals ``serial_count`` however the ceiling cuts the reads.

The runs design has three places an occurrence could be lost or counted
twice: the cut into slices (a read longer than a slice is cut into
pieces overlapping by k - 1 bases), the merges of scratch runs once
``n_bins`` of them exist, and the final merge into the store or the
returned table.  The property drives every combination of ceiling
(one slice, many slices, a cut inside a read), fan-in (2 and 32),
canonical folding and sink (with and without a store) over random reads
— ambiguous bases, reads shorter than k and the empty input included —
in a seeded slice order.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.bench.workloads import build_workload
from repro.core.serial import serial_count
from repro.lsm import LsmConfig, LsmStore
from repro.ooc.count import OocCountStats, ooc_count, read_slices
from repro.seq.encoding import encode_seq

K = 7

dna = st.text(alphabet="ACGTN", min_size=0, max_size=40)


def _memory_bytes(mode: str, reads: list[np.ndarray]) -> int:
    """A ceiling whose half-slices cut *reads* the way *mode* names."""
    longest = max((r.size for r in reads), default=0)
    if mode == "one-slice":
        return 2 * max(K, sum(r.size for r in reads))
    if mode == "many-slices":   # every read fits a slice, few reads do together
        return 2 * max(K, longest)
    return max(2 * K, longest)  # a read longer than 2k is cut


@pytest.mark.parametrize("with_store", [False, True], ids=["table", "store"])
@pytest.mark.parametrize("canonical", [False, True], ids=["forward", "canonical"])
@pytest.mark.parametrize("n_bins", [2, 32])
@pytest.mark.parametrize("mode", ["one-slice", "many-slices", "cut-inside-a-read"])
@given(texts=st.lists(dna, max_size=10), order_seed=st.integers(0, 2**32 - 1))
@example(texts=[], order_seed=0)
@example(texts=["ACGT", "", "NAC"], order_seed=1)          # all shorter than k
@example(texts=["ACGTACGTTGCA" * 3, "ACG"], order_seed=2)  # one long read
def test_ooc_count_equals_serial_count(tmp_path_factory, mode, n_bins, canonical,
                                       with_store, texts, order_seed):
    reads = [encode_seq(t, validate=False) for t in texts]
    memory_bytes = _memory_bytes(mode, reads)
    slices = [list(piece) for piece in read_slices(reads, K, memory_bytes)]
    np.random.default_rng(order_seed).shuffle(slices)
    ordered = [read for piece in slices for read in piece]
    oracle = serial_count(reads, K, canonical=canonical)

    tmp = tmp_path_factory.mktemp("ooc")
    stats = OocCountStats()
    store = (LsmStore(tmp / "db", K, config=LsmConfig(memtable_bytes=memory_bytes,
                                                       canonical=canonical))
             if with_store else None)
    try:
        got = ooc_count(ordered, K, n_bins=n_bins, memory_bytes=memory_bytes,
                        workdir=tmp / "scratch", canonical=canonical,
                        store=store, stats=stats)
        assert got == oracle
        if store is not None:
            assert store.snapshot() == oracle
            assert store.n_runs == (1 if oracle.n_distinct else 0)
    finally:
        if store is not None:
            store.close()
    assert stats.bytes_reread == stats.bytes_spilled
    assert stats.n_kmers == oracle.total
    assert not list((tmp / "scratch").iterdir())
    if mode == "one-slice":
        assert stats.n_slices <= 1 and stats.bytes_spilled == 0


def test_read_slices_cut_long_reads_with_k_minus_1_overlap():
    read = np.arange(30, dtype=np.uint8) % 4
    pieces = [p for piece in read_slices([read], 5, 20) for p in piece]
    assert [p.size for p in pieces] == [10, 10, 10, 10, 6]
    for a, b in zip(pieces, pieces[1:]):
        assert np.array_equal(a[-4:], b[:4])    # k - 1 = 4 bases shared
    assert np.array_equal(np.concatenate([pieces[0]] + [p[4:] for p in pieces[1:]]),
                          read)


def test_read_slices_of_a_matrix_are_row_blocks():
    reads = np.zeros((10, 6), dtype=np.uint8)
    blocks = list(read_slices(reads, 3, 25))   # 12 bases: 2 rows a slice
    assert [b.shape for b in blocks] == [(2, 6)] * 5
    assert all(np.shares_memory(b, reads) for b in blocks)


def test_peak_allocation_stays_within_26x_the_ceiling(tmp_path):
    """The ceiling measured, not accounted, as the e2e benchmark's probe
    does: the allocation peak of a count with no store and nothing
    collected, over the ceiling.  The runs path reads 23.9x here (the
    bins it replaced read 30.6x); its largest arrays are one slice's
    k-mers being extracted and folded, and one merge step's offers."""
    reads = build_workload("human", 31, budget_kmers=300_000, seed=0).reads
    ceiling = reads.size // 16
    tracemalloc.start()
    try:
        ooc_count(reads, 31, n_bins=32, memory_bytes=ceiling, workdir=tmp_path,
                  canonical=True, collect=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 26 * ceiling, peak / ceiling
