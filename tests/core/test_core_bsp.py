"""Tests for the BSP baseline (Algorithm 2)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import bsp
from repro.core.bsp import BspConfig, bsp_count
from repro.core.owner import owner_pe
from repro.core.phases import parse_kmers, split_reads
from repro.core.serial import serial_count
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop
from repro.seq.kmers import count_packed_kmers


def cost_model(p=8, nodes=2):
    return CostModel(laptop(nodes=nodes, cores=p // nodes))


def per_source_reference(reads, k, p, config):
    """Per superstep and owner, what Algorithm 2's per-source loop hands
    the owner: each source's bucket (its own ``Accumulate`` with
    ``preaccumulate``), in source order, as ``(keys, counts)`` lists."""
    streams = [parse_kmers(rows, k, config.canonical) for rows in split_reads(reads, p)]
    local = max(s.size for s in streams)
    b = config.batch_size or local
    steps = []
    for lo in range(0, local, b):
        keys, counts = [[] for _ in range(p)], [[] for _ in range(p)]
        for stream in streams:
            batch = stream[lo:lo + b]
            owners = owner_pe(batch, p)
            for dst in range(p):
                bucket = batch[owners == dst]
                if not bucket.size:
                    continue
                if config.preaccumulate:
                    u, c = count_packed_kmers(bucket, k)
                    keys[dst].append(u)
                    counts[dst].append(c)
                else:
                    keys[dst].append(bucket)
        steps.append((keys, counts))
    return steps


def cat(parts, dtype):
    return np.concatenate(parts) if parts else np.empty(0, dtype)


class TestCorrectness:
    def test_matches_serial(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, _ = bsp_count(small_reads, 21, cost_model())
        assert got == ref

    @pytest.mark.parametrize("b", [1, 7, 100, 10_000, None])
    def test_batch_size_invariance(self, small_reads, b):
        ref = serial_count(small_reads, 21)
        got, _ = bsp_count(small_reads, 21, cost_model(), BspConfig(batch_size=b))
        assert got == ref

    def test_nonblocking_same_result(self, small_reads):
        ref = serial_count(small_reads, 21)
        got, _ = bsp_count(small_reads, 21, cost_model(),
                           BspConfig(batch_size=500, blocking=False))
        assert got == ref

    @pytest.mark.parametrize("sort", ["radix", "quicksort"])
    def test_sort_choice_same_result(self, small_reads, sort):
        ref = serial_count(small_reads, 21)
        got, _ = bsp_count(small_reads, 21, cost_model(), BspConfig(sort=sort))
        assert got == ref

    def test_preaccumulate_same_result(self, heavy_reads):
        ref = serial_count(heavy_reads, 15)
        got, _ = bsp_count(heavy_reads, 15, cost_model(),
                           BspConfig(batch_size=700, preaccumulate=True))
        assert got == ref

    def test_canonical(self, tiny_reads):
        ref = serial_count(tiny_reads, 9, canonical=True)
        got, _ = bsp_count(tiny_reads, 9, cost_model(p=4, nodes=2),
                           BspConfig(canonical=True))
        assert got == ref

    def test_list_input(self, tiny_reads):
        ref = serial_count(tiny_reads, 9)
        got, _ = bsp_count([r for r in tiny_reads], 9, cost_model(p=4, nodes=2))
        assert got == ref

    def test_bad_config(self):
        with pytest.raises(ValueError):
            BspConfig(batch_size=0)
        with pytest.raises(ValueError):
            BspConfig(sort="bogo")


class TestExchange:
    """The destination-major receive array is the per-source
    concatenation, element for element, at every superstep."""

    @pytest.mark.parametrize("config", [
        BspConfig(batch_size=700),
        BspConfig(batch_size=700, blocking=False),
        BspConfig(batch_size=700, preaccumulate=True),
    ], ids=["blocking", "nonblocking", "preaccumulate"])
    def test_hook_sees_the_per_source_arrays(self, heavy_reads, config, monkeypatch):
        """A spy on ``_exchange`` sees each superstep's landed array."""
        p, k = 8, 15
        ref = per_source_reference(heavy_reads, k, p, config)
        landed = []
        exchange = bsp._exchange

        def spy(sent, n_elems):
            landed.append(exchange(sent, n_elems))
            return landed[-1]

        monkeypatch.setattr(bsp, "_exchange", spy)
        got, _ = bsp_count(heavy_reads, k, cost_model(p=p), config)
        assert len(landed) == len(ref) > 1
        for (keys, vals, bounds), (want_keys, want_counts) in zip(landed, ref):
            for dst in range(p):
                lo, hi = bounds[dst], bounds[dst + 1]
                assert np.array_equal(keys[lo:hi], cat(want_keys[dst], np.uint64))
                if config.preaccumulate:
                    assert np.array_equal(vals[lo:hi], cat(want_counts[dst], np.int64))
                else:
                    assert vals is None
        assert got == serial_count(heavy_reads, k)


class TestSuperstepStructure:
    def test_superstep_count(self, small_reads):
        """supersteps = ceil(local_kmers / b) — the quantity that drives
        Eq. 1's synchronisation term."""
        p = 8
        local = small_reads.shape[0] // p * (small_reads.shape[1] - 20)
        b = 500
        _, stats = bsp_count(small_reads, 21, cost_model(p=p),
                             BspConfig(batch_size=b))
        assert stats.extra["supersteps"] == -(-local // b)

    def test_sync_count_grows_with_batches(self, small_reads):
        """BSP pays one collective per superstep (vs DAKC's constant 3)."""
        _, one = bsp_count(small_reads, 21, cost_model(), BspConfig(batch_size=None))
        _, many = bsp_count(small_reads, 21, cost_model(), BspConfig(batch_size=200))
        assert many.global_syncs > one.global_syncs
        assert many.global_syncs == many.extra["supersteps"] + 2  # + 2 barriers

    def test_more_supersteps_cost_more_time(self, small_reads):
        _, one = bsp_count(small_reads, 21, cost_model(), BspConfig(batch_size=None))
        _, many = bsp_count(small_reads, 21, cost_model(), BspConfig(batch_size=100))
        assert many.sim_time > one.sim_time

    def test_nonblocking_not_slower(self, small_reads):
        """Overlap should help (or at least not hurt) with many batches."""
        cfgb = BspConfig(batch_size=300, blocking=True)
        cfgn = BspConfig(batch_size=300, blocking=False)
        _, sb = bsp_count(small_reads, 21, cost_model(p=8, nodes=4), cfgb)
        _, sn = bsp_count(small_reads, 21, cost_model(p=8, nodes=4), cfgn)
        assert sn.sim_time <= sb.sim_time * 1.001

    def test_sync_wait_recorded_blocking(self, heavy_reads):
        _, stats = bsp_count(heavy_reads, 15, cost_model(p=8, nodes=4),
                             BspConfig(batch_size=500))
        assert sum(pe.sync_wait_time for pe in stats.pe) > 0

    def test_phase_times(self, small_reads):
        _, stats = bsp_count(small_reads, 21, cost_model())
        assert stats.phase1_time > 0 and stats.phase2_time > 0
        assert stats.sim_time == pytest.approx(stats.phase1_time + stats.phase2_time)
