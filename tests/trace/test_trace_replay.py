"""Tests for deterministic trace replay (cache simulation + engine)."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.serve.cache import TIER_STORE, HotKeyCache
from repro.serve.engine import QueryEngine, naive_serve
from repro.serve.shards import ShardedStore
from repro.serve.workload import zipf_workload
from repro.trace import replay
from repro.trace.format import QueryTrace
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import (
    measured_miss_ratio_curve,
    replay_trace,
    simulate_cache,
)


@pytest.fixture(scope="module")
def counts(small_reads):
    return serial_count(small_reads, 15)


@pytest.fixture(scope="module")
def recorded(counts):
    """A deterministic synthetic trace over the counted spectrum."""
    w = zipf_workload(counts, 3_000, s=1.2, seed=4, miss_fraction=0.05)
    n = w.keys.size
    return QueryTrace(ts=w.arrivals, streams=np.zeros(n, np.int32), keys=w.keys,
                      tiers=np.full(n, TIER_STORE, np.int8), k=counts.k, seed=4,
                      source="unit")


class TestSimulateCache:
    def test_ledger_accounting(self):
        keys = np.array([1, 2, 1, 1, 3, 2], dtype=np.uint64)
        sim = simulate_cache(keys, HotKeyCache(4, admit_threshold=1))
        # misses: 1, 2, 3 cold; hits: the three re-accesses
        assert sim["n_accesses"] == 6
        assert sim["hits"] == 3 and sim["misses"] == 3
        assert sim["hit_rate"] == pytest.approx(0.5)
        assert sim["stats"]["resident"] == 3

    def test_empty_stream(self):
        sim = simulate_cache(np.empty(0, np.uint64), HotKeyCache(4))
        assert sim["n_accesses"] == 0 and sim["hit_rate"] == 0.0

    def test_measured_curve_is_monotone(self, recorded):
        caps = [1, 8, 64, 512]
        mrc = measured_miss_ratio_curve(recorded.keys, caps, admit_threshold=1)
        assert np.all(np.diff(mrc) <= 1e-12)


class TestTraceGroups:
    """Replay groups a trace by its timestamps (the grouping itself is
    tested with the workload's in tests/serve/test_serve_workload.py)."""

    def test_groups_partition_by_arrival_tick(self, counts):
        ts = np.array([0.0, 0.0001, 0.0015, 0.0016, 0.005])
        trace = QueryTrace(ts=ts, streams=np.zeros(5, np.int32),
                           keys=counts.kmers[:5].copy(),
                           tiers=np.zeros(5, np.int8))
        result = replay_trace(trace, ShardedStore.from_counts(counts, 4),
                              tick=1e-3)
        assert result.n_groups == 3      # [0, 1], [2, 3], [4]
        assert np.array_equal(result.answers, counts.counts[:5])

    def test_empty_trace_has_no_groups(self, counts):
        trace = QueryTrace(ts=np.empty(0), streams=np.empty(0, np.int32),
                           keys=np.empty(0, np.uint64),
                           tiers=np.empty(0, np.int8))
        result = replay_trace(trace, ShardedStore.from_counts(counts, 4))
        assert result.n_groups == 0 and result.answers.size == 0

    def test_bad_tick_rejected(self, counts, recorded):
        with pytest.raises(ValueError, match="tick"):
            replay_trace(recorded, ShardedStore.from_counts(counts, 4), tick=0.0)


class TestReplayTrace:
    def test_replay_is_bit_identical_to_scalar_oracle(self, counts, recorded):
        store = ShardedStore.from_counts(counts, 4)
        result = replay_trace(recorded, store, cache_capacity=256,
                              cache_threshold=2)
        assert result.answers_match
        baseline, _ = naive_serve(store, recorded.keys)
        assert np.array_equal(result.answers, baseline)
        assert result.n_groups >= 1

    def test_uncached_replay(self, counts, recorded):
        store = ShardedStore.from_counts(counts, 4)
        result = replay_trace(recorded, store, cache_capacity=0)
        assert result.answers_match
        snap = result.metrics.snapshot()
        assert snap["cache"]["hits"] == 0
        assert "stats" not in snap["cache"]

    def test_group_size_caps_replayed_batches(self, counts, recorded):
        store = ShardedStore.from_counts(counts, 4)
        coarse = replay_trace(recorded, store, group_size=512)
        fine = replay_trace(recorded, store, group_size=16)
        assert fine.n_groups > coarse.n_groups
        with pytest.raises(ValueError):
            replay_trace(recorded, store, group_size=0)

    def test_rerecording_a_replay_round_trips_the_keys(self, counts, recorded,
                                                       monkeypatch):
        # A replay through an engine with a recorder attached captures
        # the same key sequence it replays — traces survive the loop.
        store = ShardedStore.from_counts(counts, 4)
        rerec = TraceRecorder()
        monkeypatch.setattr(replay, "QueryEngine", partial(QueryEngine, recorder=rerec))
        replay_trace(recorded, store)
        again = rerec.snapshot()
        assert np.array_equal(again.keys, recorded.keys)

    def test_result_doc_shape(self, counts, recorded):
        store = ShardedStore.from_counts(counts, 4)
        doc = replay_trace(recorded, store).to_doc()
        assert doc["n_records"] == recorded.n_records
        assert doc["answers_match"] is True
        assert "metrics" in doc
