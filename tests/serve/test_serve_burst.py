"""Tests for the burst overlay on the open-loop query workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.serve.workload import (
    BurstSpec,
    _burst_warp,
    arrival_groups,
    zipf_workload,
)


@pytest.fixture(scope="module")
def counts(small_reads):
    return serial_count(small_reads, 15)


class TestBurstSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurstSpec(amplitude=0.5)
        with pytest.raises(ValueError):
            BurstSpec(duration=0.6, period=0.5)
        with pytest.raises(ValueError):
            BurstSpec(period=0.0)
        with pytest.raises(ValueError):
            BurstSpec(phase=-1.0)

    def test_active_flag(self):
        assert BurstSpec(amplitude=2.0, duration=0.1).active
        assert not BurstSpec(amplitude=1.0, duration=0.1).active
        assert not BurstSpec(amplitude=2.0, duration=0.0).active

    def test_in_burst_mask(self):
        spec = BurstSpec(amplitude=2.0, duration=0.1, period=1.0, phase=0.5)
        t = np.array([0.0, 0.55, 0.65, 1.55])
        assert spec.in_burst(t).tolist() == [False, True, False, True]

    def test_doc_round_trip(self):
        spec = BurstSpec(amplitude=3.0, duration=0.02, period=0.4, phase=0.1)
        assert BurstSpec.from_doc(spec.to_doc()) == spec


class TestBurstWarp:
    def arrivals(self, n=20_000, seed=0):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.exponential(1e-4, size=n))

    def test_inactive_spec_is_identity(self):
        t = self.arrivals()
        assert _burst_warp(t, BurstSpec(amplitude=1.0, duration=0.1)) is t

    def test_warp_preserves_order_and_count(self):
        t = self.arrivals()
        warped = _burst_warp(t, BurstSpec(amplitude=4.0, duration=0.05,
                                          period=0.5))
        assert warped.size == t.size
        assert np.all(np.diff(warped) >= 0)

    def test_warp_is_deterministic(self):
        spec = BurstSpec(amplitude=4.0, duration=0.05, period=0.5)
        t = self.arrivals()
        assert np.array_equal(_burst_warp(t, spec), _burst_warp(t, spec))

    def test_warp_never_slows_arrivals(self):
        # Rate multiplier >= 1 everywhere, so warped time runs at or
        # ahead of unwarped time: every arrival lands no later.
        t = self.arrivals()
        warped = _burst_warp(t, BurstSpec(amplitude=4.0, duration=0.05,
                                          period=0.5))
        assert np.all(warped <= t + 1e-12)

    def test_bursts_concentrate_arrivals(self):
        # Inside burst windows the instantaneous rate is amplitude x
        # the base rate, so the in-window arrival share must exceed
        # the windows' share of the timeline.  Short periods so the
        # warped span covers many of them (partial-period truncation
        # would otherwise skew the share).
        spec = BurstSpec(amplitude=6.0, duration=0.01, period=0.1)
        warped = _burst_warp(self.arrivals(), spec)
        in_burst = float(spec.in_burst(warped).mean())
        timeline_share = spec.duration / spec.period
        assert in_burst > 2.0 * timeline_share
        # And matches the theoretical share a*d / (a*d + (p-d)).
        expected = (spec.amplitude * spec.duration /
                    (spec.amplitude * spec.duration
                     + (spec.period - spec.duration)))
        assert in_burst == pytest.approx(expected, rel=0.15)


class TestBurstyWorkload:
    def test_burst_only_warps_time_not_keys(self, counts):
        spec = BurstSpec(amplitude=4.0, duration=0.05, period=0.5)
        base = zipf_workload(counts, 2_000, seed=3)
        bursty = zipf_workload(counts, 2_000, seed=3, burst=spec)
        assert np.array_equal(base.keys, bursty.keys)
        assert not np.array_equal(base.arrivals, bursty.arrivals)
        assert bursty.burst == spec

    def test_bursty_stream_is_seed_deterministic(self, counts):
        spec = BurstSpec(amplitude=4.0, duration=0.05, period=0.5)
        a = zipf_workload(counts, 2_000, seed=3, burst=spec)
        b = zipf_workload(counts, 2_000, seed=3, burst=spec)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.arrivals, b.arrivals)

    def test_arrival_groups_cover_the_bursty_stream(self, counts):
        # 5k queries at 10k qps span ~0.5s unwarped (~0.25s warped),
        # several burst periods, so the tick sizes bimodal cleanly.
        spec = BurstSpec(amplitude=8.0, duration=0.01, period=0.05)
        w = zipf_workload(counts, 5_000, seed=3, rate_qps=10_000.0,
                          burst=spec)
        groups = arrival_groups(w.keys, w.arrivals, tick=1e-3)
        assert sum(g.size for g in groups) == w.n_queries
        assert np.array_equal(np.concatenate(groups), w.keys)
        # Burst windows produce visibly fatter ticks than the base rate.
        sizes = np.array([g.size for g in groups])
        assert sizes.max() > 2 * np.median(sizes)
