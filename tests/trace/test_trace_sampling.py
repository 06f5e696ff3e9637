"""Tests for trace sampling (SHARDS spatial + temporal windows) and the
miniature-simulation cache model built on it.

The claim under test: miniature ``HotKeyCache`` simulations over pooled
spatial samples, at capacities scaled by the rate, reproduce the full
simulation's miss-ratio curve within tolerance; at rate 1 they are the
full simulation, and at threshold 1 they equal the Mattson LRU model
they replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.trace.format import QueryTrace
from repro.trace.replay import measured_miss_ratio_curve
from repro.trace.sampling import (
    pooled_miss_ratio_curve,
    spatial_sample,
    temporal_sample,
)


def zipf_trace(n: int = 20_000, seed: int = 0, a: float = 1.3) -> QueryTrace:
    rng = np.random.default_rng(seed)
    keys = rng.zipf(a, size=n).astype(np.uint64)
    # Scramble so key identity is not correlated with popularity rank
    # (the hash filter must not systematically drop the head).
    keys = keys * np.uint64(0x9E3779B97F4A7C15)
    ts = np.cumsum(rng.exponential(1e-4, size=n))
    return QueryTrace(ts=ts, streams=np.zeros(n, np.int32), keys=keys,
                      tiers=np.zeros(n, np.int8), seed=seed)


class TestSpatialSample:
    def test_rate_one_is_identity(self, same_records):
        trace = zipf_trace(500)
        sampled = spatial_sample(trace, 1.0)
        assert same_records(sampled, trace)

    def test_invalid_rates_rejected(self):
        trace = zipf_trace(10)
        for rate in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                spatial_sample(trace, rate)

    def test_sampling_is_by_key_not_by_record(self):
        # Every access of a kept key survives; dropped keys vanish.
        trace = zipf_trace(5_000)
        sampled = spatial_sample(trace, 0.5)
        kept = set(np.unique(sampled.keys).tolist())
        mask = np.isin(trace.keys, np.fromiter(kept, np.uint64, len(kept)))
        assert np.array_equal(sampled.keys, trace.keys[mask])
        assert np.array_equal(sampled.ts, trace.ts[mask])

    def test_deterministic_in_salt_and_independent_across_salts(
            self, same_records):
        trace = zipf_trace(5_000)
        a1 = spatial_sample(trace, 0.5, salt=1)
        a2 = spatial_sample(trace, 0.5, salt=1)
        b = spatial_sample(trace, 0.5, salt=2)
        assert same_records(a1, a2)
        assert not same_records(a1, b)

    def test_kept_fraction_tracks_rate(self):
        trace = zipf_trace(50_000, seed=3)
        n_full = np.unique(trace.keys).size
        n_kept = np.unique(spatial_sample(trace, 0.25).keys).size
        assert 0.15 < n_kept / n_full < 0.35

    def test_meta_records_the_sample(self):
        sampled = spatial_sample(zipf_trace(100), 0.5, salt=9)
        assert sampled.meta["sample"] == {
            "kind": "spatial", "rate": 0.5, "salt": 9, "parent_records": 100}


class TestTemporalSample:
    def test_window_slicing(self):
        trace = zipf_trace(10_000)
        sampled = temporal_sample(trace, window=0.2, every=1.0)
        rel = sampled.ts % 1.0
        assert np.all(rel < 0.2)
        assert 0 < sampled.n_records < trace.n_records

    def test_invalid_windows_rejected(self):
        trace = zipf_trace(10)
        nan, inf = float("nan"), float("inf")
        # Non-finite values compare False both ways, so each needs its
        # own refusal rather than slipping through as an empty sample.
        for window, every in [(2.0, 1.0), (0.0, 1.0), (nan, 0.5), (0.1, nan),
                              (inf, inf), (0.1, inf), (-inf, 0.5)]:
            with pytest.raises(ValueError):
                temporal_sample(trace, window=window, every=every)


class TestCurvePreservation:
    @given(keys=st.lists(st.integers(0, 40), max_size=300),
           caps=st.lists(st.integers(1, 50), min_size=1, max_size=5),
           admit_threshold=st.integers(1, 3))
    def test_rate_one_equals_the_full_simulation(self, keys, caps,
                                                 admit_threshold):
        """At rate 1 every sample is the whole trace and no capacity is
        scaled, so the pooled curve is the full simulation exactly."""
        keys = np.asarray(keys, dtype=np.uint64)
        n = keys.size
        trace = QueryTrace(ts=np.arange(n, dtype=np.float64),
                           streams=np.zeros(n, np.int32), keys=keys,
                           tiers=np.zeros(n, np.int8))
        est = pooled_miss_ratio_curve(trace, 1.0, caps,
                                      admit_threshold=admit_threshold)
        exact = measured_miss_ratio_curve(keys, caps,
                                          admit_threshold=admit_threshold)
        assert est.tolist() == exact.tolist()

    def test_threshold_one_equals_the_mattson_model(self):
        """At threshold 1 the cache is LRU, and the pooled miniature
        curve is bit-identical to the pooled Mattson reuse-distance
        curve it replaced (values computed by that model)."""
        est = pooled_miss_ratio_curve(zipf_trace(5_000), 0.5,
                                      [1, 4, 16, 64, 256], admit_threshold=1)
        assert est.tolist() == [0.8038786362214576, 0.6699249296215202,
                                0.38974038160775726, 0.2619643415702221,
                                0.1826712543009071]

    def test_pooled_sampled_curve_matches_within_tolerance(self, small_reads):
        # On the serving workload the bench records (Zipf(1.1) over a
        # counted spectrum), 4 pooled salts at rate 0.5 stay within 5pp
        # of the full simulation, with and without admission —
        # head-key inclusion noise dominates at these toy capacities,
        # so the tolerance is wider than production SHARDS (<1pp at
        # million-entry capacities).
        from repro.core.serial import serial_count
        from repro.serve.workload import zipf_workload

        kc = serial_count(small_reads, 15)
        w = zipf_workload(kc, 30_000, s=1.1, seed=0, miss_fraction=0.02)
        n = w.keys.size
        trace = QueryTrace(ts=w.arrivals, streams=np.zeros(n, np.int32),
                           keys=w.keys, tiers=np.zeros(n, np.int8))
        caps = np.array([16, 64, 256, 1024, 4096])
        for threshold in (1, 2):
            exact = measured_miss_ratio_curve(trace.keys, caps,
                                              admit_threshold=threshold)
            est = pooled_miss_ratio_curve(trace, 0.5, caps,
                                          admit_threshold=threshold, salts=4)
            err_pp = float(np.abs(est - exact).max()) * 100.0
            assert err_pp <= 5.0, (
                f"threshold {threshold}: sampled MRC off by {err_pp:.2f}pp")

    def test_pooling_needs_a_salt(self):
        with pytest.raises(ValueError):
            pooled_miss_ratio_curve(zipf_trace(100), 0.5, [4],
                                    admit_threshold=1, salts=0)
