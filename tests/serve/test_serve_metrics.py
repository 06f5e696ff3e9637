"""Tests for latency histograms and serving-metric snapshots."""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.serve.cache import HotKeyCache
from repro.serve.metrics import GROWTH, LO, LatencyHistogram, ServeMetrics


class TestHistogram:
    def test_quantiles_track_known_distribution(self, rng):
        h = LatencyHistogram()
        samples = rng.uniform(1e-4, 1e-2, size=20_000)
        for s in samples:
            h.record(float(s))
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            # Geometric buckets: accurate within one growth factor.
            assert exact / GROWTH <= h.quantile(q) <= exact * GROWTH**2

    def test_counts_mean_max(self):
        h = LatencyHistogram()
        for value in (1e-3, 2e-3, 3e-3):
            h.record(value)
        assert h.n == 3
        assert h.mean == pytest.approx(2e-3)
        assert h.max_seen == pytest.approx(3e-3)

    def test_weighted_record(self):
        h = LatencyHistogram()
        h.record(1e-3, weight=100)
        assert h.n == 100
        assert h.quantile(0.5) == pytest.approx(1e-3, rel=0.15)

    def test_underflow_and_overflow(self):
        h = LatencyHistogram()
        h.record(1e-9)   # below 1 µs -> underflow bucket
        h.record(500.0)  # above 100 s -> overflow bucket
        assert h.n == 2
        assert h.quantile(0.0) == LO
        assert h.quantile(1.0) == pytest.approx(500.0)

    def test_empty_quantile(self):
        assert LatencyHistogram().quantile(0.99) == 0.0

    def test_merge(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(1e-3)
        b.record(1e-2, weight=9)
        a.merge(b)
        assert a.n == 10
        assert a.quantile(0.99) == pytest.approx(1e-2, rel=0.2)

    def test_validation(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.record(-1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestServeMetrics:
    def _loaded(self) -> ServeMetrics:
        m = ServeMetrics()
        m.latency.record(1e-3, weight=90)
        m.latency.record(1e-2, weight=10)
        m.n_queries = 100
        m.n_found = 80
        m.cache_hits = 60
        m.cache_misses = 40
        m.n_batches = 5
        m.batched_keys = 40
        m.rejected = 7
        m.elapsed = 2.0
        m.observe_queue_depth(3)
        m.observe_queue_depth(9)
        return m

    def test_derived_rates(self):
        m = self._loaded()
        assert m.throughput_qps == pytest.approx(50.0)
        assert m.rejected_qps == pytest.approx(3.5)
        assert m.cache_hit_rate == pytest.approx(0.6)
        assert m.mean_batch_size == pytest.approx(8.0)
        assert m.queue_depth_max == 9
        assert m.queue_depth_mean == pytest.approx(6.0)

    def test_snapshot_shape(self):
        snap = self._loaded().snapshot()
        assert snap["n_queries"] == 100
        assert snap["latency_ms"]["p50"] < snap["latency_ms"]["p99"]
        assert snap["cache"]["hit_rate"] == pytest.approx(0.6)
        assert snap["queue"]["rejected"] == 7
        assert snap["queue"]["rejected_qps"] == pytest.approx(3.5)
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_rejected_qps_zero_without_elapsed(self):
        m = ServeMetrics()
        m.rejected = 5
        assert m.rejected_qps == 0.0

    def test_snapshot_json_roundtrip(self):
        snap = self._loaded().snapshot()
        doc = json.loads(json.dumps(snap))
        assert doc == snap
        assert doc["batching"]["mean_batch_size"] == pytest.approx(8.0)

    def test_zero_division_guards(self):
        m = ServeMetrics()
        assert m.throughput_qps == 0.0
        assert m.cache_hit_rate == 0.0
        assert m.mean_batch_size == 0.0
        assert m.queue_depth_mean == 0.0


class TestMerge:
    """One fold: every dataclass counter, by its declared rule."""

    #: Fields that are not counters (declared ``"fold": None``).
    NOT_FOLDED = {"cache_source"}
    #: High-water marks (declared ``"fold": max``).
    MAXED = {"queue_depth_max", "elapsed"}

    @staticmethod
    def _distinct(offset: int) -> ServeMetrics:
        """Every counter set to a value no other field or instance has."""
        m = ServeMetrics()
        for i, f in enumerate(fields(m), start=1):
            value = getattr(m, f.name)
            if isinstance(value, LatencyHistogram):
                value.record(offset * 1e-3, weight=offset)
            elif isinstance(value, dict):
                value.update({"overload": offset + i, f"only-{offset}": i})
            elif isinstance(value, (int, float)):
                setattr(m, f.name, type(value)(offset * 100 + i))
        m.cache_source = HotKeyCache(4)
        return m

    def test_every_field_is_folded_field_by_field(self):
        a, b, total = self._distinct(1), self._distinct(2), self._distinct(1)
        own_cache = total.cache_source
        total.merge(b)
        seen = set()
        for f in fields(ServeMetrics):
            x, y, z = (getattr(m, f.name) for m in (a, b, total))
            seen.add(f.name)
            if f.name in self.NOT_FOLDED:
                assert f.metadata["fold"] is None
            elif f.name in self.MAXED:
                assert z == max(x, y) and z != x + y
            elif f.name == "latency":
                assert np.array_equal(z.counts, x.counts + y.counts)
                assert (z.n, z.max_seen) == (3, 2e-3)
                assert z.total == pytest.approx(x.total + y.total)
            elif f.name == "rejected_by_cause":
                assert z == {"overload": x["overload"] + y["overload"],
                             "only-1": x["only-1"], "only-2": y["only-2"]}
            else:
                assert z == x + y and z not in (x, y), f.name
        # A field added to the dataclass lands in the last branch (it
        # is summed) unless it is declared otherwise - never skipped.
        assert seen == {f.name for f in fields(ServeMetrics)}
        assert total.cache_source is own_cache

def _key_tree(doc: dict) -> dict:
    return {k: _key_tree(v) if isinstance(v, dict) else None
            for k, v in doc.items()}


def _keys(*names: str, **subtrees: dict) -> dict:
    return {**dict.fromkeys(names), **subtrees}


class TestGoldenShapes:
    """The key trees ``benchmarks/e2e`` and ``repro.xp`` read, pinned.

    Written out from the documents the commit before the shared
    builder produced; a key that moves, appears or disappears here is
    a schema change, not a refactor.
    """

    CAUSES = _keys("overload", "quota")
    LRU_STATS = _keys("hits", "misses", "hit_rate", "evictions",
                      "resident", "capacity", "candidates", "admit_threshold")

    @staticmethod
    def snapshot_tree(cache: dict, causes: dict) -> dict:
        return _keys(
            "n_queries", "n_found", "elapsed_s", "throughput_qps",
            latency_ms=_keys("p50", "p95", "p99", "max", "mean"),
            cache=cache,
            batching=_keys("batches", "batched_keys", "mean_batch_size"),
            queue=_keys("depth_max", "depth_mean", "rejected", "rejected_qps",
                        rejected_by_cause=causes,
                        rejected_qps_by_cause=causes))

    @staticmethod
    def metrics(cache=None, *, rejecting: bool = True) -> ServeMetrics:
        m = ServeMetrics(cache_source=cache)
        m.latency.record(1e-3, weight=9)
        m.n_queries, m.n_found, m.cache_hits, m.cache_misses = 9, 7, 5, 4
        m.n_batches, m.batched_keys, m.elapsed = 2, 4, 0.5
        m.observe_queue_depth(3)
        if rejecting:
            m.reject(4, "overload")
            m.reject(2, "quota")
        return m

    def check(self, m, snap_cache, causes):
        assert _key_tree(m.snapshot()) == self.snapshot_tree(snap_cache, causes)

    def test_bare(self):
        rates = _keys("hits", "misses", "hit_rate")
        self.check(self.metrics(rejecting=False), rates, {})

    def test_rejecting(self):
        rates = _keys("hits", "misses", "hit_rate")
        self.check(self.metrics(), rates, self.CAUSES)

    def test_single_tier_cache_attached(self):
        cache = _keys("hits", "misses", "hit_rate", stats=self.LRU_STATS)
        self.check(self.metrics(HotKeyCache(8)), cache, self.CAUSES)
