"""Tests for the KMC3 / PakMan / HySortK baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.hysortk import hysortk_cost_model, hysortk_count
from repro.baselines import kmc3
from repro.baselines.kmc3 import kmc3_count
from repro.baselines.pakman import pakman_count, pakman_star_count
from repro.core.serial import serial_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop, phoenix_intel
from repro.seq.kmers import extract_kmers_from_reads
from repro.seq.minimizers import minimizers_of_kmers as minimizers


def cost_model(p=8, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


class TestMinimizers:
    def test_window_minimum_property(self):
        """The minimizer hash is the min over all w-mer hashes."""
        from repro.core.owner import splitmix64

        rng = np.random.default_rng(0)
        k, w = 13, 5
        kmers = rng.integers(0, 1 << (2 * k), size=50, dtype=np.uint64)
        mins = minimizers(kmers, k, w)
        wmask = (1 << (2 * w)) - 1
        for i in range(0, 50, 7):
            wmers = [
                (int(kmers[i]) >> (2 * j)) & wmask for j in range(k - w + 1)
            ]
            best = min(wmers, key=lambda x: splitmix64(x))
            assert int(mins[i]) == best

    def test_w_equals_k(self):
        kmers = np.array([5, 9], dtype=np.uint64)
        assert np.array_equal(minimizers(kmers, 5, 5), kmers)

    def test_w_greater_than_k(self):
        with pytest.raises(ValueError):
            minimizers(np.array([1], dtype=np.uint64), 5, 6)

    def test_adjacent_kmers_share_minimizers(self, small_reads):
        """Minimizer binning keeps runs of adjacent k-mers together —
        the locality KMC exploits.  Adjacent k-mers share their
        minimizer far more often than random pairs would."""
        k, w = 21, 9
        kmers = extract_kmers_from_reads(small_reads[:20], k)
        mins = minimizers(kmers, k, w)
        same_adjacent = (mins[1:] == mins[:-1]).mean()
        assert same_adjacent > 0.5


class TestKmc3:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, stats = kmc3_count(small_reads, 21, phoenix_intel(1))
        assert got == ref

    def test_bin_count_invariance(self, small_reads, monkeypatch):
        ref = serial_count(small_reads, 21)
        for n_bins in (1, 7, 64, 2048):
            monkeypatch.setattr(kmc3, "N_BINS", n_bins)
            got, _ = kmc3_count(small_reads, 21, phoenix_intel(1))
            assert got == ref

    def test_canonical(self, tiny_reads):
        ref = serial_count(tiny_reads, 9, canonical=True)
        got, _ = kmc3_count(tiny_reads, 9, phoenix_intel(1), canonical=True)
        assert got == ref

    def test_io_time_included(self, small_reads):
        """The paper reports KMC3 with I/O included (Sec. VI)."""
        _, stats = kmc3_count(small_reads, 21, phoenix_intel(1))
        assert stats.extra["io_time"] > 0
        assert stats.sim_time > stats.extra["io_time"]

    def test_small_k_uses_short_minimizer(self, tiny_reads):
        got, _ = kmc3_count(tiny_reads, 5, phoenix_intel(1))
        assert got == serial_count(tiny_reads, 5)


class TestPakman:
    def test_both_variants_match_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got_q, sq = pakman_count(small_reads, 21, cost_model(), batch_size=1000)
        got_r, sr = pakman_star_count(small_reads, 21, cost_model(), batch_size=1000)
        assert got_q == ref and got_r == ref
        assert sq.extra["sort"] == "quicksort"
        assert sr.extra["sort"] == "radix"
        assert sq.extra["algorithm"] == "pakman"
        assert sr.extra["algorithm"] == "pakman*"

    def test_blocking_collectives(self, small_reads):
        _, stats = pakman_star_count(small_reads, 21, cost_model(), batch_size=1000)
        assert stats.extra["blocking"] is True


class TestHySortK:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, stats = hysortk_count(small_reads, 21, cost_model(), batch_size=1000)
        assert got == ref
        assert stats.extra["blocking"] is False
        assert stats.extra["algorithm"] == "hysortk"

    def test_machineconfig_applies_socket_ranks(self, small_reads):
        """One rank per NUMA domain, per the HySortK authors."""
        m = phoenix_intel(2)
        got, stats = hysortk_count(small_reads, 21, m)
        assert stats.n_pes == 4  # 2 nodes x 2 sockets

    def test_cost_model_helper(self):
        cost = hysortk_cost_model(phoenix_intel(4))
        assert cost.cores_per_pe == 12
        assert cost.n_pes == 8
