"""Tests for the Mattson reuse-distance profiler.

The load-bearing property is exactness: for any key sequence and any
capacity, the hit count the reuse-distance histogram *predicts* must
equal what a brute-force LRU simulation *measures* — that is the
Mattson (1970) stack-inclusion theorem, and the hypothesis test below
asserts it verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.cache import HotKeyCache
from repro.trace.profiler import (
    COLD,
    RDHistogram,
    default_capacities,
    profile_trace,
    reuse_distances,
)
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import simulate_cache


class TestReuseDistances:
    def test_textbook_sequence(self):
        # 1 2 3 1 2 1 — the classic worked example.
        d = reuse_distances(np.array([1, 2, 3, 1, 2, 1], dtype=np.uint64))
        assert d.tolist() == [COLD, COLD, COLD, 2, 2, 1]

    def test_immediate_reaccess_has_distance_zero(self):
        d = reuse_distances(np.array([5, 5, 5], dtype=np.uint64))
        assert d.tolist() == [COLD, 0, 0]

    def test_all_distinct_is_all_cold(self):
        d = reuse_distances(np.arange(10, dtype=np.uint64))
        assert np.all(d == COLD)

    def test_empty_sequence(self):
        assert reuse_distances(np.empty(0, np.uint64)).size == 0


class TestMattsonInclusion:
    """Predicted LRU hits == brute-force simulated LRU hits, always."""

    @given(
        keys=st.lists(st.integers(min_value=0, max_value=12),
                      min_size=1, max_size=200),
        capacity=st.integers(min_value=1, max_value=24),
    )
    def test_predicted_hits_match_lru_simulation(self, keys, capacity):
        arr = np.asarray(keys, dtype=np.uint64)
        hist = RDHistogram.from_distances(reuse_distances(arr))
        # admit_threshold=1 makes HotKeyCache exact classic LRU.
        cache = HotKeyCache(capacity, admit_threshold=1)
        sim = simulate_cache(arr, cache)
        assert hist.predicted_hits(capacity) == sim["hits"]

    def test_several_capacities_on_a_zipf_stream(self):
        rng = np.random.default_rng(0)
        keys = rng.zipf(1.3, size=5_000).astype(np.uint64)
        hist = RDHistogram.from_distances(reuse_distances(keys))
        for capacity in (1, 2, 8, 32, 128, 1024):
            sim = simulate_cache(keys, HotKeyCache(capacity, admit_threshold=1))
            assert hist.predicted_hits(capacity) == sim["hits"], capacity


class TestRDHistogram:
    def make(self) -> RDHistogram:
        keys = np.array([1, 2, 3, 1, 2, 1, 4, 4], dtype=np.uint64)
        return RDHistogram.from_distances(reuse_distances(keys))

    def test_accounting(self):
        hist = self.make()
        assert hist.n_accesses == 8
        assert hist.n_distinct == 4  # == cold misses

    def test_miss_ratio_curve_is_monotone_nonincreasing(self):
        hist = self.make()
        caps = np.arange(1, 10)
        mrc = hist.miss_ratio_curve(caps)
        assert np.all(np.diff(mrc) <= 1e-12)
        # Floor: cold misses never hit at any capacity.
        assert mrc[-1] == pytest.approx(hist.cold / hist.n_accesses)

    def test_curve_agrees_with_scalar_predictions(self):
        hist = self.make()
        caps = [1, 2, 3, 4, 100]
        mrc = hist.miss_ratio_curve(caps)
        for c, miss in zip(caps, mrc):
            assert miss == pytest.approx(1.0 - hist.predicted_hit_rate(c))

    def test_zero_capacity_never_hits(self):
        assert self.make().predicted_hits(0) == 0

    def test_doc_round_trip(self):
        hist = self.make()
        back = RDHistogram.from_doc(hist.to_doc())
        assert back.cold == hist.cold
        assert np.array_equal(back.counts, hist.counts)

    def test_merge_is_pointwise_sum(self):
        a = self.make()
        b = RDHistogram(counts=np.array([5], dtype=np.int64), cold=2)
        merged = a.merge(b)
        assert merged.cold == a.cold + 2
        assert merged.counts[0] == a.counts[0] + 5
        assert merged.n_accesses == a.n_accesses + 7

    def test_empty_histogram(self):
        hist = RDHistogram.from_distances(np.empty(0, np.int64))
        assert hist.n_accesses == 0
        assert hist.predicted_hit_rate(10) == 0.0
        assert np.all(hist.miss_ratio_curve([1, 2]) == 0.0)


class TestProfileTrace:
    def test_default_capacities_span_the_working_set(self):
        caps = default_capacities(1000)
        assert caps[0] == 1
        assert caps[-1] == 1000
        assert np.all(np.diff(caps) > 0)
        assert default_capacities(1).tolist() == [1]

    def test_profile_trace_doc_shape(self):
        rec = TraceRecorder(clock=lambda: 0.0)
        rng = np.random.default_rng(1)
        rec.record_batch(rng.zipf(1.4, size=2_000).astype(np.uint64))
        profile = profile_trace(rec.snapshot())
        doc = profile.to_doc()
        assert len(doc["capacities"]) == len(doc["miss_ratio"])
        assert doc["histogram"]["cold"] == profile.histogram.cold
        for miss, hit in zip(doc["miss_ratio"], doc["hit_ratio"]):
            assert miss + hit == pytest.approx(1.0)
