"""Tests of ``ooc_count`` (oracle equality, fusion, cost) and ``count_bin``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.lsm import LsmConfig, LsmStore
from repro.ooc.count import (OocCountStats, _chunk_groups, count_bin, ooc_count,
                             read_slices)
from repro.ooc.format import read_bin_records
from repro.fileio import FormatError
from repro.ooc.spill import BinWriter
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.runtime.stats import PEStats
from repro.seq.alphabet import INVALID_CODE


def make_reads(n=80, length=90, seed=11, ambiguous=0.0):
    rng = np.random.default_rng(seed)
    reads = []
    for _ in range(n):
        codes = rng.integers(0, 4, size=length).astype(np.uint8)
        if ambiguous:
            mask = rng.random(length) < ambiguous
            codes[mask] = INVALID_CODE
        reads.append(codes)
    return reads


class TestOracleEquality:
    @pytest.mark.parametrize("k,w,n_bins,ceiling", [
        (9, 4, 1, 256),       # single bin, tiny ceiling
        (9, 4, 8, 512),
        (13, 7, 16, 2048),
        (5, 1, 3, 1 << 20),   # ceiling never hit: single close-flush
    ])
    def test_matches_serial_count(self, tmp_path, k, w, n_bins, ceiling):
        reads = make_reads()
        oracle = serial_count(reads, k)
        assert ooc_count(reads, k, n_bins=n_bins, memory_bytes=ceiling) == oracle
        # The minimizer bins (length w) the runs replaced hold the same multiset.
        with BinWriter(tmp_path, k, w, n_bins, ceiling_bytes=ceiling) as bw:
            bw.add_reads(reads)
        parts = [count_bin(path, k=k) for path in bw.close()]
        keys = np.concatenate([p[0] for p in parts])
        counts = np.concatenate([p[1] for p in parts])
        order = np.argsort(keys)
        assert np.array_equal(keys[order], oracle.kmers)
        assert np.array_equal(counts[order], oracle.counts)

    def test_matches_with_ambiguous_bases(self):
        reads = make_reads(ambiguous=0.05)
        assert ooc_count(reads, 9, n_bins=8,
                         memory_bytes=512) == serial_count(reads, 9)

    def test_matches_canonical(self):
        # Canonical folding may place a k-mer's occurrences in different
        # bins (minimizers are forward-strand); merging must still sum
        # duplicates into the exact canonical multiset.
        reads = make_reads()
        assert ooc_count(reads, 9, n_bins=8, memory_bytes=512,
                         canonical=True) == serial_count(reads, 9,
                                                         canonical=True)

    def test_matches_under_permuted_orders(self, tmp_path):
        reads = make_reads(n=50)
        oracle = serial_count(reads, 9)
        slices = [list(piece) for piece in read_slices(reads, 9, 400)]
        assert len(slices) > 8   # more slices than scratch runs: merges run
        for seed in (0, 7):
            np.random.default_rng(seed).shuffle(slices)
            got = ooc_count([r for piece in slices for r in piece], 9,
                            n_bins=8, memory_bytes=400,
                            workdir=tmp_path / f"w{seed}")
            assert got == oracle

    def test_empty_input(self):
        got = ooc_count([], 9)
        assert got.kmers.size == 0


class TestLsmFusion:
    def test_store_serves_oracle_counts(self, tmp_path):
        reads = make_reads()
        oracle = serial_count(reads, 9)
        ceiling = 1024
        store = LsmStore(tmp_path / "db", 9,
                         config=LsmConfig(memtable_bytes=ceiling))
        got = ooc_count(reads, 9, n_bins=16, memory_bytes=ceiling,
                        store=store)
        assert got == oracle
        assert store.snapshot() == oracle
        assert store.stats.bulk_loads == 1
        assert store.n_runs == 1  # the whole count is one run
        store.close()

    def test_collected_even_when_compaction_merges_the_load_away(self, tmp_path):
        """A tiny load into a store at its run bound is compacted at once;
        the returned table is still the load's."""
        reads = make_reads(n=40)
        store = LsmStore(tmp_path / "db", 9, config=LsmConfig(
            memtable_bytes=1, max_runs=2, fan_in=2))
        for i in range(0, 20, 5):
            store.ingest(reads[i:i + 5])
        assert store.n_runs == 2
        got = ooc_count(reads[20:21], 9, store=store)
        assert store.stats.compactions >= 3   # the load's run was merged
        assert got == serial_count(reads[20:21], 9)
        assert store.snapshot() == serial_count(reads[:21], 9)
        store.close()

    def test_collect_false_store_is_only_output(self, tmp_path):
        reads = make_reads(n=30)
        oracle = serial_count(reads, 9)
        store = LsmStore(tmp_path / "db", 9,
                         config=LsmConfig(memtable_bytes=512))
        got = ooc_count(reads, 9, n_bins=8, memory_bytes=512,
                        store=store, collect=False)
        assert got.kmers.size == 0  # no merged in-memory result
        assert store.snapshot() == oracle
        store.close()


class TestCostCharging:
    def test_disk_traffic_is_charged(self, tmp_path):
        reads = make_reads()
        stats = OocCountStats()
        pe = PEStats(0)
        cost = CostModel(laptop())
        ooc_count(reads, 9, n_bins=8, memory_bytes=512,
                  workdir=tmp_path, cost=cost, pe_stats=pe, stats=stats)
        assert stats.bytes_spilled > 0
        assert stats.bytes_reread == stats.bytes_spilled
        assert pe.disk_bytes_written == stats.bytes_spilled
        assert pe.disk_bytes_read == stats.bytes_reread
        assert pe.disk_ops >= 2
        assert pe.clock > 0  # virtual time advanced at beta_disk

    def test_no_cost_no_pe_stats_needed(self):
        # cost omitted: no charging path at all
        reads = make_reads(n=10)
        assert ooc_count(reads, 9, n_bins=4) == serial_count(reads, 9)


class TestHousekeeping:
    def test_bins_removed_by_default(self, tmp_path):
        """The scratch runs (what n_bins bounds) are deleted once merged."""
        stats = OocCountStats()
        ooc_count(make_reads(n=20), 9, n_bins=4, memory_bytes=512,
                  workdir=tmp_path, stats=stats)
        assert stats.n_scratch_runs > 4   # merges ran before the last one
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bad", [{"n_bins": 0}, {"memory_bytes": 0}])
    def test_bad_fan_in_or_ceiling_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match="must be >= 1"):
            ooc_count(make_reads(n=5), 9, workdir=tmp_path, **bad)

    def test_count_bin_k_mismatch_raises(self, tmp_path):
        with BinWriter(tmp_path, 9, 4, 1, ceiling_bytes=1 << 20) as bw:
            bw.add_reads(make_reads(n=5))
        (path,) = bw.close()
        with pytest.raises(FormatError, match="written at k=9"):
            count_bin(path, k=11)


class TestChunkGrouping:
    """count_bin joins consecutive chunks up to the ceiling in bases;
    any grouping must give the same table as counting chunk by chunk."""

    def _bin(self, tmp_path):
        with BinWriter(tmp_path, 9, 4, 1, ceiling_bytes=300) as bw:
            bw.add_reads(make_reads(n=60))
        (path,) = bw.close()
        _header, chunks = read_bin_records(path)
        bases = [int(lengths.sum()) for lengths, _blob in chunks]
        assert len(bases) >= 4  # several chunks to group
        return path, bases

    @pytest.mark.parametrize("canonical", [False, True])
    def test_grouping_does_not_change_the_table(self, tmp_path, canonical):
        path, bases = self._bin(tmp_path)
        oracle = serial_count(make_reads(n=60), 9, canonical=canonical)
        for ceiling in (1, max(bases), sum(bases), 1 << 30):
            keys, counts = count_bin(path, k=9, canonical=canonical,
                                     memory_bytes=ceiling)
            assert np.array_equal(keys, oracle.kmers), ceiling
            assert np.array_equal(counts, oracle.counts), ceiling

    def test_groups_stay_within_the_ceiling(self, tmp_path):
        path, bases = self._bin(tmp_path)
        _header, chunks = read_bin_records(path)
        ceiling = 2 * max(bases)
        groups = [int(lengths.sum())
                  for lengths, _blob in _chunk_groups(chunks, ceiling)]
        assert sum(groups) == sum(bases)
        assert max(groups) <= ceiling
        assert len(groups) < len(bases)  # some chunks were joined
        _header, chunks = read_bin_records(path)
        assert len(list(_chunk_groups(chunks, 1))) == len(bases)

    def test_bin_written_at_another_k_is_refused(self, tmp_path):
        path, bases = self._bin(tmp_path)
        for ceiling in (1, sum(bases)):
            with pytest.raises(FormatError) as err:
                count_bin(path, k=11, memory_bytes=ceiling)
            assert err.value.reason == "mismatch"
