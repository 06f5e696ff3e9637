"""Statistics for perf claims: CIs, shift detection, effect sizes.

The discipline (after the mubench replication's statistical-analysis
notes): a perf claim is a *distribution* comparison, never a
point-estimate ratio.  Three tools compose:

* :func:`bootstrap_ci` — seeded percentile-bootstrap confidence
  interval for the mean or median of a sample;
* :func:`mann_whitney_u` — the nonparametric two-sided rank test for
  a location shift (timings are skewed; no normality assumption);
* :func:`cliffs_delta` / :func:`relative_shift` — effect sizes, so a
  *significant but tiny* shift cannot fail a build: the gate requires
  BOTH p < alpha AND |relative median shift| >= min_effect.

With fewer than ``min_samples`` repetitions per side (e.g. legacy
single-shot imports) there is no power for a rank test, so
:func:`compare_samples` falls back to a pure effect-size rule with a
much wider threshold (``small_sample_effect``) and reports
``p_value=None``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "bootstrap_ci",
    "mann_whitney_u",
    "cliffs_delta",
    "relative_shift",
    "Comparison",
    "compare_samples",
]

def bootstrap_ci(samples, *, seed: int = 0) -> tuple[float, float]:
    """Seeded percentile-bootstrap 95% CI of the mean (2000 resamples)."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("bootstrap_ci needs at least one sample")
    if x.size == 1:
        v = float(x[0])
        return v, v
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, x.size, size=(2000, x.size))
    lo, hi = np.quantile(np.mean(x[idx], axis=1), [0.025, 0.975])
    return float(lo), float(hi)


def mann_whitney_u(a, b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U: (U statistic of *a*, p-value).

    Degenerate inputs (all values identical across both samples) have
    no evidence of a shift and return p = 1.0 instead of scipy's NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("mann_whitney_u needs non-empty samples")
    if np.ptp(np.concatenate([a, b])) == 0:
        return a.size * b.size / 2.0, 1.0
    from scipy.stats import mannwhitneyu

    res = mannwhitneyu(a, b, alternative="two-sided")
    return float(res.statistic), float(res.pvalue)


def cliffs_delta(a, b) -> float:
    """Cliff's delta in [-1, 1]: P(b > a) - P(b < a) over all pairs."""
    a = np.asarray(a, dtype=float)[:, None]
    b = np.asarray(b, dtype=float)[None, :]
    if a.size == 0 or b.size == 0:
        raise ValueError("cliffs_delta needs non-empty samples")
    gt = np.count_nonzero(b > a)
    lt = np.count_nonzero(b < a)
    return float((gt - lt) / (a.size * b.size))


def relative_shift(baseline, current) -> float:
    """(median(current) - median(baseline)) / |median(baseline)|."""
    mb = float(np.median(np.asarray(baseline, dtype=float)))
    mc = float(np.median(np.asarray(current, dtype=float)))
    denom = abs(mb)
    if denom == 0:
        denom = max(abs(mc), np.finfo(float).eps)
    return (mc - mb) / denom


@dataclass(frozen=True)
class Comparison:
    """Verdict of one baseline-vs-current sample comparison."""

    direction: str            # 'lower' or 'higher' is better
    n_baseline: int
    n_current: int
    shift: float              # relative median shift, signed
    p_value: float | None     # None when either side is too small to test
    delta: float              # Cliff's delta
    regressed: bool
    improved: bool
    reason: str

    def to_doc(self) -> dict:
        return {
            "direction": self.direction,
            "n_baseline": self.n_baseline,
            "n_current": self.n_current,
            "shift": self.shift,
            "p_value": self.p_value,
            "delta": self.delta,
            "regressed": self.regressed,
            "improved": self.improved,
            "reason": self.reason,
        }


def compare_samples(
    baseline,
    current,
    *,
    direction: str = "lower",
    alpha: float = 0.01,
    min_effect: float = 0.10,
) -> Comparison:
    """Decide regressed/improved/unchanged for one metric.

    A verdict fires only when the shift is *both* statistically
    significant (Mann-Whitney p < *alpha*) *and* practically large
    (|relative median shift| >= *min_effect* in the relevant
    direction).  Below 3 samples per side the rank test has no power,
    so only a shift beyond 50% fires.
    """
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', "
                         f"got {direction!r}")
    a = np.asarray(baseline, dtype=float)
    b = np.asarray(current, dtype=float)
    shift = relative_shift(a, b)
    delta = cliffs_delta(a, b)
    # A positive shift means current is larger; whether that is bad
    # depends on the metric's direction.
    bad = shift > 0 if direction == "lower" else shift < 0
    magnitude = abs(shift)

    if min(a.size, b.size) < 3:
        threshold = max(min_effect, 0.50)
        fired = magnitude >= threshold
        reason = (
            f"small-sample fallback (n={a.size} vs {b.size}): "
            f"|shift| {magnitude:.1%} vs threshold {threshold:.0%}"
        )
        return Comparison(direction, a.size, b.size, shift, None, delta,
                          regressed=fired and bad,
                          improved=fired and not bad and magnitude > 0,
                          reason=reason)

    _, p = mann_whitney_u(a, b)
    significant = p < alpha and magnitude >= min_effect
    reason = (f"p={p:.4g} (alpha={alpha}), shift={shift:+.1%} "
              f"(min effect {min_effect:.0%}), delta={delta:+.2f}")
    return Comparison(direction, a.size, b.size, shift, p, delta,
                      regressed=significant and bad,
                      improved=significant and not bad,
                      reason=reason)
