"""Tests for trace sampling (SHARDS spatial + temporal windows).

The satellite claim under test: a spatially sampled replay preserves
the miss-ratio curve of the full trace within tolerance, after the
SHARDS 1/rate capacity rescaling (pooling a few salted samples keeps
the variance down on skewed traces).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.format import QueryTrace
from repro.trace.replay import measured_miss_ratio_curve
from repro.trace.sampling import (
    pooled_miss_ratio_curve,
    sample_rate,
    scaled_miss_ratio_curve,
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
    def test_rate_one_is_identity(self):
        trace = zipf_trace(500)
        sampled = spatial_sample(trace, 1.0)
        assert sampled.same_records(trace)
        assert sample_rate(sampled) == 1.0

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

    def test_deterministic_in_salt_and_independent_across_salts(self):
        trace = zipf_trace(5_000)
        a1 = spatial_sample(trace, 0.5, salt=1)
        a2 = spatial_sample(trace, 0.5, salt=1)
        b = spatial_sample(trace, 0.5, salt=2)
        assert a1.same_records(a2)
        assert not a1.same_records(b)

    def test_kept_fraction_tracks_rate(self):
        trace = zipf_trace(50_000, seed=3)
        n_full = np.unique(trace.keys).size
        n_kept = np.unique(spatial_sample(trace, 0.25).keys).size
        assert 0.15 < n_kept / n_full < 0.35

    def test_meta_records_the_sample(self):
        sampled = spatial_sample(zipf_trace(100), 0.5, salt=9)
        assert sampled.meta["sample"] == {
            "kind": "spatial", "rate": 0.5, "salt": 9, "parent_records": 100}
        assert sample_rate(sampled) == 0.5


class TestTemporalSample:
    def test_window_slicing(self):
        trace = zipf_trace(10_000)
        sampled = temporal_sample(trace, window=0.2, every=1.0)
        rel = sampled.ts % 1.0
        assert np.all(rel < 0.2)
        assert 0 < sampled.n_records < trace.n_records
        assert sample_rate(sampled) == 1.0  # no capacity-rescaling claim

    def test_invalid_windows_rejected(self):
        trace = zipf_trace(10)
        nan, inf = float("nan"), float("inf")
        # Non-finite values compare False both ways, so each needs its
        # own refusal rather than slipping through as an empty sample.
        for window, every, phase in [(2.0, 1.0, 0.0), (0.0, 1.0, 0.0),
                                     (nan, 0.5, 0.0), (0.1, nan, 0.0),
                                     (0.1, 0.5, nan), (inf, inf, 0.0),
                                     (0.1, inf, 0.0), (0.1, 0.5, -inf)]:
            with pytest.raises(ValueError):
                temporal_sample(trace, window=window, every=every,
                                phase=phase)


class TestCurvePreservation:
    def test_scaled_curve_on_unsampled_trace_is_exact(self):
        trace = zipf_trace(5_000)
        caps = np.array([1, 4, 16, 64, 256])
        exact = measured_miss_ratio_curve(trace.keys, caps)
        est = scaled_miss_ratio_curve(trace, caps)
        assert np.allclose(est, exact, atol=1e-12)

    def test_pooled_sampled_curve_matches_within_tolerance(self, small_reads):
        # The satellite acceptance test: a sampled replay preserves
        # the miss-ratio curve.  On the serving workload the bench
        # records (Zipf(1.1) over a counted spectrum), 4 pooled salts
        # at rate 0.5 stay within 5pp of the exact curve — head-key
        # inclusion noise dominates at these toy capacities, so the
        # tolerance is wider than production SHARDS (<1pp at
        # million-entry capacities).
        from repro.core.serial import serial_count
        from repro.serve.workload import zipf_workload

        kc = serial_count(small_reads, 15)
        w = zipf_workload(kc, 30_000, s=1.1, seed=0, miss_fraction=0.02)
        n = w.keys.size
        trace = QueryTrace(ts=w.arrivals, streams=np.zeros(n, np.int32),
                           keys=w.keys, tiers=np.zeros(n, np.int8))
        caps = np.array([16, 64, 256, 1024, 4096])
        exact = measured_miss_ratio_curve(trace.keys, caps)
        est = pooled_miss_ratio_curve(trace, 0.5, caps, salts=4)
        err_pp = float(np.abs(est - exact).max()) * 100.0
        assert err_pp <= 5.0, f"sampled MRC off by {err_pp:.2f}pp"

    def test_pooling_needs_a_salt(self):
        with pytest.raises(ValueError):
            pooled_miss_ratio_curve(zipf_trace(100), 0.5, [4], salts=0)
