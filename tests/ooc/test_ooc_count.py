"""Tests for the two-pass orchestrator: oracle equality, fusion, cost."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.lsm import LsmConfig, LsmStore
from repro.ooc.count import _chunk_groups, count_bin, ooc_count
from repro.ooc.format import read_bin_records
from repro.fileio import FormatError
from repro.ooc.spill import BinWriter, OocStats, seeded_order
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
    def test_matches_serial_count(self, k, w, n_bins, ceiling):
        reads = make_reads()
        assert ooc_count(reads, k, w=w, n_bins=n_bins,
                         memory_bytes=ceiling) == serial_count(reads, k)

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
        for seed in (0, 7):
            got = ooc_count(
                reads, 9, n_bins=8, memory_bytes=400,
                workdir=tmp_path / f"w{seed}",
                flush_order=seeded_order(seed),
                bin_order=lambda ids, s=seed: list(
                    np.array(sorted(ids))[
                        np.random.default_rng(s).permutation(len(ids))]),
            )
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
        assert store.stats.bulk_loads >= 1
        assert store.stats.flushes >= 1  # shared budget actually flushed
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
        stats = OocStats()
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
        ooc_count(make_reads(n=20), 9, n_bins=4, memory_bytes=512,
                  workdir=tmp_path)
        assert not list(tmp_path.glob("*.skb"))

    def test_keep_bins(self, tmp_path):
        ooc_count(make_reads(n=20), 9, n_bins=4, memory_bytes=512,
                  workdir=tmp_path, keep_bins=True)
        assert list(tmp_path.glob("*.skb"))

    def test_bad_bin_order_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="permute"):
            ooc_count(make_reads(n=20), 9, n_bins=4, workdir=tmp_path,
                      bin_order=lambda ids: ids[:1] if len(ids) > 1 else ids)

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
