"""Tests for the perf-claim statistics (repro.xp.stats).

Coverage targets the three properties the gate leans on:

* bootstrap CIs actually cover the true parameter at roughly the
  nominal rate on a known distribution;
* the Mann-Whitney shift detector has real power against a genuine
  2x shift at n=5 and stays quiet on identical samples;
* (property) the combined significance + minimum-effect rule never
  flags a regression when both samples come from the *same* seeded
  distribution — the gate cannot be flipped by noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xp.stats import (
    bootstrap_ci,
    cliffs_delta,
    compare_samples,
    mann_whitney_u,
    relative_shift,
)


class TestBootstrapCI:
    def test_ci_covers_true_mean_at_nominal_rate(self):
        # 200 draws of n=30 from N(10, 1): the 95% CI should cover the
        # true mean ~95% of the time; 85% is a generous floor that a
        # broken bootstrap (e.g. wrong quantiles) cannot reach.
        rng = np.random.default_rng(0)
        covered = 0
        trials = 200
        for trial in range(trials):
            x = rng.normal(10.0, 1.0, size=30)
            lo, hi = bootstrap_ci(x, seed=trial)
            covered += lo <= 10.0 <= hi
        assert covered / trials >= 0.85

    def test_ci_brackets_the_sample_stat(self):
        x = [1.0, 2.0, 3.0, 4.0, 100.0]
        lo, hi = bootstrap_ci(x, seed=1)
        assert lo <= np.mean(x) <= hi

    def test_seeded_and_deterministic(self):
        x = np.arange(20.0)
        assert bootstrap_ci(x, seed=3) == bootstrap_ci(x, seed=3)
        assert bootstrap_ci(x, seed=3) != bootstrap_ci(x, seed=4)

    def test_single_sample_degenerates(self):
        assert bootstrap_ci([2.5]) == (2.5, 2.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            bootstrap_ci([])


class TestMannWhitney:
    def test_detects_2x_shift_at_n5(self):
        # The acceptance-scenario shape: 5 baseline vs 5 current reps,
        # current uniformly 2x slower.  The two-sided exact test's
        # minimum p at 5v5 is 2/C(10,5) ~ 0.0079 < 0.01.  (Tie-free
        # samples, so scipy stays on the exact path — ties push it to
        # the asymptotic approximation whose floor sits above 0.01.)
        base = [1.00, 1.02, 0.99, 1.01, 1.03]
        cur = [2.0 * v for v in base]
        _, p = mann_whitney_u(base, cur)
        assert p < 0.01

    def test_power_against_synthetic_shift(self):
        # 1.5-sigma mean shift at n=20: detected in the vast majority
        # of seeded trials at alpha=0.05.
        rng = np.random.default_rng(42)
        hits = 0
        trials = 100
        for _ in range(trials):
            a = rng.normal(0.0, 1.0, size=20)
            b = rng.normal(1.5, 1.0, size=20)
            _, p = mann_whitney_u(a, b)
            hits += p < 0.05
        assert hits / trials >= 0.9

    def test_identical_degenerate_samples_are_not_significant(self):
        u, p = mann_whitney_u([3.0, 3.0, 3.0], [3.0, 3.0, 3.0])
        assert p == 1.0 and np.isfinite(u)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            mann_whitney_u([], [1.0])


class TestEffectSizes:
    def test_cliffs_delta_extremes_and_zero(self):
        assert cliffs_delta([1, 2], [10, 20]) == 1.0
        assert cliffs_delta([10, 20], [1, 2]) == -1.0
        assert cliffs_delta([1, 2], [1, 2]) == 0.0

    def test_relative_shift_signed(self):
        assert relative_shift([1.0, 1.0, 1.0], [2.0, 2.0, 2.0]) == \
            pytest.approx(1.0)
        assert relative_shift([2.0], [1.0]) == pytest.approx(-0.5)

    def test_relative_shift_zero_baseline_does_not_divide_by_zero(self):
        assert np.isfinite(relative_shift([0.0], [1.0]))


class TestCompareSamples:
    # Tie-free so the 5v5 Mann-Whitney runs its exact path (min
    # p = 0.0079 < alpha); ties would force the asymptotic fallback.
    BASE = [1.00, 1.02, 0.99, 1.01, 1.03]

    def test_2x_slowdown_regresses_lower_is_better(self):
        cmp = compare_samples(self.BASE, [2 * v for v in self.BASE],
                              direction="lower")
        assert cmp.regressed and not cmp.improved
        assert cmp.p_value is not None and cmp.p_value < 0.01
        assert cmp.shift == pytest.approx(1.0, abs=0.1)

    def test_2x_speedup_improves_not_fails(self):
        cmp = compare_samples(self.BASE, [v / 2 for v in self.BASE],
                              direction="lower")
        assert cmp.improved and not cmp.regressed

    def test_direction_flips_the_verdict(self):
        # Throughput halving: 'higher' is better, so it regresses.
        cmp = compare_samples(self.BASE, [v / 2 for v in self.BASE],
                              direction="higher")
        assert cmp.regressed

    def test_significant_but_tiny_shift_does_not_fire(self):
        # A perfectly consistent 2% shift: p is small but the effect is
        # below min_effect=10%, so neither verdict fires.
        cmp = compare_samples(self.BASE, [1.02 * v for v in self.BASE],
                              direction="lower")
        assert not cmp.regressed and not cmp.improved

    def test_identical_samples_pass(self):
        cmp = compare_samples(self.BASE, list(self.BASE))
        assert not cmp.regressed and not cmp.improved
        assert cmp.p_value == 1.0

    def test_small_sample_fallback_uses_wide_threshold(self):
        # Single-sample legacy baseline: no rank test (p=None); a 30%
        # shift stays under the 50% fallback threshold, 2x fires.
        ok = compare_samples([1.0], [1.3], direction="lower")
        assert ok.p_value is None and not ok.regressed
        bad = compare_samples([1.0], [2.0], direction="lower")
        assert bad.p_value is None and bad.regressed

    def test_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            compare_samples([1.0], [1.0], direction="faster")

    def test_to_doc_round_trips_json(self):
        import json

        cmp = compare_samples(self.BASE, list(self.BASE))
        doc = json.loads(json.dumps(cmp.to_doc()))
        assert doc["direction"] == "lower"
        assert doc["regressed"] is False

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=12),
        scale=st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_distribution_never_regresses(self, seed, n, scale):
        # The gate's core promise: when run-to-run noise (2% lognormal
        # sigma here, the synthetic target's default) sits well below
        # the 10% minimum effect, two same-sized samples from the SAME
        # seeded distribution can never produce a verdict — rank
        # significance alone is not enough, the shift must also clear
        # min_effect, and a ~2%-noise median cannot drift 10%.
        rng = np.random.default_rng(seed)
        a = scale * np.exp(0.02 * rng.standard_normal(n))
        b = scale * np.exp(0.02 * rng.standard_normal(n))
        cmp = compare_samples(a, b, direction="lower")
        assert not cmp.regressed and not cmp.improved
