"""Tests for seeded Zipf query-workload generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import KmerCounts
from repro.core.serial import serial_count
from repro.serve import workload
from repro.serve.workload import arrival_groups, zipf_workload
from repro.trace.format import QueryTrace


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


def _trace(ts, keys) -> QueryTrace:
    return QueryTrace(ts=np.asarray(ts, dtype=np.float64),
                      streams=np.zeros(len(keys), np.int32),
                      keys=np.asarray(keys, dtype=np.uint64),
                      tiers=np.zeros(len(keys), np.int8))


@pytest.fixture(scope="module")
def group_table(db):
    """``arrival_groups``'s inputs from both its callers, one row each:
    ``(name, keys, times, tick, want)``.  A generated workload is grouped
    on its Poisson ``arrivals``, a trace on its ``ts``; *want*
    is the exact grouping where a row pins one."""
    w = zipf_workload(db, 3000, seed=0, rate_qps=1e6)
    trace = _trace(w.arrivals, w.keys)
    ticks = _trace([0.0, 0.0001, 0.0015, 0.0016, 0.005], np.arange(5))
    empty_w, empty_t = zipf_workload(db, 0, seed=0), _trace([], [])
    return [
        ("workload", w.keys, w.arrivals, 1e-4, None),
        ("recorded trace", trace.keys, trace.ts, 1e-4, None),
        ("trace ticks", ticks.keys, ticks.ts, 1e-3, [[0, 1], [2, 3], [4]]),
        ("empty workload", empty_w.keys, empty_w.arrivals, 1e-3, []),
        ("empty trace", empty_t.keys, empty_t.ts, 1e-3, []),
    ]


class TestDeterminism:
    def test_same_seed_same_stream(self, db):
        a = zipf_workload(db, 2000, s=1.1, seed=42, miss_fraction=0.1)
        b = zipf_workload(db, 2000, s=1.1, seed=42, miss_fraction=0.1)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_different_seed_different_stream(self, db):
        a = zipf_workload(db, 2000, seed=1)
        b = zipf_workload(db, 2000, seed=2)
        assert not np.array_equal(a.keys, b.keys)


class TestSkew:
    def test_zipf_head_dominates(self, db):
        w = zipf_workload(db, 10_000, s=1.1, seed=0)
        _, freq = np.unique(w.keys, return_counts=True)
        top_share = np.sort(freq)[::-1][:100].sum() / w.n_queries
        # Under Zipf(1.1) the top-100 keys carry far more traffic than
        # the uniform share (100 / ~19k distinct ~ 0.5%).
        assert top_share > 0.25
        assert w.unique_fraction() < 0.8

    def test_hot_keys_are_heavy_db_keys(self, db):
        w = zipf_workload(db, 10_000, s=1.3, seed=0)
        keys, freq = np.unique(w.keys, return_counts=True)
        hottest = int(keys[freq.argmax()])
        # The hottest query key must be among the heaviest database keys.
        assert db.get(hottest) >= np.percentile(db.counts, 99)

    def test_flatter_exponent_spreads_traffic(self, db):
        sharp = zipf_workload(db, 5000, s=1.5, seed=0)
        flat = zipf_workload(db, 5000, s=0.3, seed=0)
        assert flat.unique_fraction() > sharp.unique_fraction()


class TestMisses:
    def test_miss_fraction_keys_absent(self, db):
        w = zipf_workload(db, 4000, seed=0, miss_fraction=0.25)
        absent = sum(1 for key in w.keys.tolist() if db.get(key) == 0)
        assert absent == 1000

    def test_all_misses(self, db):
        w = zipf_workload(db, 500, seed=0, miss_fraction=1.0)
        assert all(db.get(key) == 0 for key in w.keys.tolist())

    def test_empty_database_rejected_for_hits(self):
        with pytest.raises(ValueError, match="empty database"):
            zipf_workload(KmerCounts.empty(15), 10, seed=0)


class TestArrivals:
    def test_open_loop_poisson_schedule(self, db):
        rate = 50_000.0
        w = zipf_workload(db, 20_000, seed=3, rate_qps=rate)
        assert (np.diff(w.arrivals) >= 0).all()
        mean_gap = float(np.diff(w.arrivals).mean())
        assert mean_gap == pytest.approx(1.0 / rate, rel=0.05)
        assert w.duration == pytest.approx(w.arrivals[-1])

    def test_arrival_groups_partition_stream(self, group_table):
        for name, keys, times, tick, want in group_table:
            got = [g.tolist() for g in arrival_groups(keys, times, tick)]
            slot = times // tick   # reference: one group per occupied slot
            assert got == [keys[slot == s].tolist()
                           for s in np.unique(slot)], name
            if want is not None:
                assert got == want, name
            if keys.size > 100:
                assert len(got) > 1, name

    def test_arrival_groups_empty_and_validation(self, group_table):
        for name, keys, times, _, want in group_table:
            if want == []:
                assert arrival_groups(keys, times) == [], name
            for tick in (0.0, -1e-3):
                with pytest.raises(ValueError, match="tick"):
                    arrival_groups(keys, times, tick)


class TestValidation:
    def test_bad_parameters(self, db):
        with pytest.raises(ValueError):
            zipf_workload(db, -1, seed=0)
        with pytest.raises(ValueError):
            zipf_workload(db, 10, s=0.0, seed=0)
        with pytest.raises(ValueError):
            zipf_workload(db, 10, miss_fraction=1.5, seed=0)

    def test_max_support_truncates_tail(self, db, monkeypatch):
        monkeypatch.setattr(workload, "MAX_SUPPORT", 10)
        w = zipf_workload(db, 5000, seed=0)
        assert np.unique(w.keys).size <= 10
