"""Seeded query workloads over a counted spectrum, and their driver.

Serving benchmarks live or die by their key-popularity model.  Real
k-mer query traffic is doubly skewed: the *database* counts follow the
spectrum's heavy tail (repeats), and *query* popularity follows the
usual Zipf law of request streams.  :func:`zipf_workload` composes
both: keys are ranked by their database count (heaviest k-mer =
hottest query — the repeat everyone's pipeline keeps probing) and
drawn with probability proportional to ``rank^-s``, so the resulting
stream concentrates on exactly the keys whose *updates* concentrated
on one PE during counting (the L3 heavy hitters).

Everything is derived from a single ``numpy`` seed: the same seed
yields the same key sequence and the same Poisson arrival times, so
benchmark runs are replayable and regression-comparable.

:func:`drive_load` is the one client every bench and replay submits a
stream through — an engine, a cluster router, anything with
``query_many``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts, probe_sorted
from .clock import now

__all__ = ["BurstSpec", "QueryWorkload", "zipf_workload", "arrival_groups",
           "key_groups", "drive_load"]

#: Ranks a Zipf stream samples from: the top of the spectrum.
MAX_SUPPORT = 200_000


@dataclass(frozen=True)
class BurstSpec:
    """Periodic rate bursts layered over the open-loop arrivals.

    The Cydonia ``BurstWorkload`` shape: every *period* seconds the
    request rate multiplies by *amplitude* for *duration* seconds,
    then relaxes back to the base open-loop rate.  The overlay is a
    deterministic time-warp of the Poisson arrival sequence (the
    time-change theorem for inhomogeneous Poisson processes), so the
    same seed still yields the same stream — and :mod:`repro.dst` can
    carry the three numbers as Schedule fields and fuzz them.
    """

    amplitude: float = 4.0  # rate multiplier inside a burst (>= 1)
    duration: float = 0.05  # seconds of burst per period
    period: float = 0.5     # seconds from burst start to burst start
    phase: float = 0.0      # offset of the first burst start

    def __post_init__(self) -> None:
        if self.amplitude < 1.0:
            raise ValueError("burst amplitude must be >= 1")
        if not 0.0 <= self.duration <= self.period:
            raise ValueError("need 0 <= duration <= period")
        if self.period <= 0:
            raise ValueError("burst period must be > 0")
        if self.phase < 0:
            raise ValueError("burst phase must be >= 0")

    @property
    def active(self) -> bool:
        """Does the overlay change the stream at all?"""
        return self.amplitude > 1.0 and self.duration > 0.0

    def in_burst(self, t: np.ndarray) -> np.ndarray:
        """Boolean mask: which times fall inside a burst window."""
        t = np.asarray(t, dtype=np.float64)
        return (t >= self.phase) & (((t - self.phase) % self.period)
                                    < self.duration)

    def to_doc(self) -> dict:
        return {"amplitude": self.amplitude, "duration": self.duration,
                "period": self.period, "phase": self.phase}

    @classmethod
    def from_doc(cls, doc: dict) -> "BurstSpec":
        return cls(amplitude=float(doc["amplitude"]),
                   duration=float(doc["duration"]),
                   period=float(doc["period"]),
                   phase=float(doc.get("phase", 0.0)))


def _burst_warp(arrivals: np.ndarray, spec: BurstSpec) -> np.ndarray:
    """Warp homogeneous Poisson arrivals into the bursty process.

    If ``T`` are Poisson points at the base rate and ``M(s)`` is the
    cumulative rate multiplier (slope *amplitude* inside burst
    windows, 1 outside), then ``M^{-1}(T)`` are Poisson points with
    instantaneous rate ``base_rate * m(s)`` — exact, vectorised, and
    order-preserving.
    """
    if arrivals.size == 0 or not spec.active:
        return arrivals
    t_max = float(arrivals[-1])
    # m >= 1 everywhere implies M(s) >= s, so covering t_max in the
    # warped domain needs at most t_max of unwarped time.
    n_periods = int(t_max / spec.period) + 2
    starts = spec.phase + spec.period * np.arange(n_periods, dtype=np.float64)
    bp = np.unique(np.concatenate([[0.0], starts, starts + spec.duration]))
    mids = (bp[:-1] + bp[1:]) / 2.0
    slope = np.where(spec.in_burst(mids), spec.amplitude, 1.0)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * slope)])
    idx = np.clip(np.searchsorted(cum, arrivals, side="right") - 1,
                  0, slope.size - 1)
    return bp[idx] + (arrivals - cum[idx]) / slope[idx]


@dataclass(frozen=True)
class QueryWorkload:
    """One generated query stream."""

    keys: np.ndarray      # uint64 query keys, in arrival order
    arrivals: np.ndarray  # float64 arrival times (seconds, non-decreasing)
    zipf_s: float
    seed: int
    burst: BurstSpec | None = None

    @property
    def n_queries(self) -> int:
        return int(self.keys.size)

    @property
    def duration(self) -> float:
        """Span of the open-loop arrival schedule."""
        return float(self.arrivals[-1]) if self.arrivals.size else 0.0

    def unique_fraction(self) -> float:
        """Distinct keys / queries — low means a cache-friendly stream."""
        if not self.keys.size:
            return 0.0
        return np.unique(self.keys).size / self.keys.size


def zipf_workload(
    counts: KmerCounts,
    n_queries: int,
    *,
    s: float = 1.1,
    seed: int = 0,
    rate_qps: float = 100_000.0,
    miss_fraction: float = 0.0,
    burst: BurstSpec | None = None,
) -> QueryWorkload:
    """Generate a Zipf(s) query stream over a counted database.

    * Keys are ranked by database count (descending, ties broken by
      key value) and sampled with ``P(rank r) ~ (r+1)^-s`` over the
      top :data:`MAX_SUPPORT` ranks.
    * *miss_fraction* of queries ask for keys absent from the
      database (uniform over the k-mer space), exercising the
      negative-lookup path.
    * Arrivals are an open-loop Poisson process at *rate_qps*; an
      optional :class:`BurstSpec` overlays periodic rate bursts
      (amplitude x the base rate inside each burst window).
    """
    if n_queries < 0:
        raise ValueError("n_queries must be >= 0")
    if s <= 0:
        raise ValueError("zipf exponent s must be > 0")
    if not 0.0 <= miss_fraction <= 1.0:
        raise ValueError("miss_fraction must be in [0, 1]")
    if counts.n_distinct == 0 and miss_fraction < 1.0 and n_queries > 0:
        raise ValueError("cannot draw hit queries from an empty database")
    rng = np.random.default_rng(seed)

    # Rank the spectrum: heaviest count first, key value as tiebreak.
    order = np.lexsort((counts.kmers, -counts.counts))
    support = order[: min(MAX_SUPPORT, order.size)]
    ranked_keys = counts.kmers[support]
    weights = (np.arange(ranked_keys.size, dtype=np.float64) + 1.0) ** -s
    weights /= weights.sum()

    n_miss = int(round(n_queries * miss_fraction))
    n_hit = n_queries - n_miss
    hit_keys = (
        ranked_keys[rng.choice(ranked_keys.size, size=n_hit, p=weights)]
        if n_hit
        else np.empty(0, dtype=np.uint64)
    )
    miss_keys = _absent_keys(counts, n_miss, rng)
    keys = np.concatenate([hit_keys, miss_keys])
    rng.shuffle(keys)

    gaps = rng.exponential(1.0 / rate_qps, size=n_queries)
    arrivals = np.cumsum(gaps)
    if burst is not None:
        arrivals = _burst_warp(arrivals, burst)
    return QueryWorkload(keys=keys, arrivals=arrivals, zipf_s=s, seed=seed,
                         burst=burst)


def _absent_keys(counts: KmerCounts, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw *n* keys uniformly from the k-mer space, none in the DB."""
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    space = 1 << (2 * counts.k)
    out = rng.integers(0, space, size=n, dtype=np.uint64)
    for _ in range(64):  # each round fixes all residual collisions
        colliding = probe_sorted(counts.kmers, counts.counts, out) > 0
        if not colliding.any():
            return out
        out[colliding] = rng.integers(0, space, size=int(colliding.sum()), dtype=np.uint64)
    raise RuntimeError("could not draw absent keys (database saturates key space)")


def arrival_groups(keys: np.ndarray, times: np.ndarray,
                   tick: float = 1e-3) -> list[np.ndarray]:
    """Bucket a key stream into arrival ticks of *tick* seconds.

    *times* are the keys' non-decreasing arrival times: a workload's
    Poisson ``arrivals`` or a recorded trace's ``ts``.  Each group is the
    batch of keys that arrive in one tick — the unit a load generator
    submits together, standing in for that many concurrent single-key
    clients.
    """
    if tick <= 0:
        raise ValueError("tick must be > 0")
    if not keys.size:
        return []
    slot = (times // tick).astype(np.int64)
    bounds = np.flatnonzero(np.diff(slot)) + 1
    return np.split(keys, bounds)


def key_groups(keys: np.ndarray, group_size: int) -> list[np.ndarray]:
    """Cut a key stream into client batches of *group_size* keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    return [keys[i:i + group_size] for i in range(0, keys.size, group_size)]


async def drive_load(
    target,
    groups: list[np.ndarray],
    *,
    concurrency: int = 8,
    interval: float | None = None,
    resubmit: bool = False,
    tenant: str | None = None,
    latencies: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """Submit *groups* to ``target.query_many``; ``(answers, elapsed_s)``.

    Closed loop by default: at most *concurrency* groups are in flight
    and the next is submitted as one completes.  With *interval* the
    client is paced instead — group ``i`` becomes due ``i * interval``
    seconds after the start whether or not earlier ones were answered
    (open loop; pass a *concurrency* as large as the stream to leave it
    unbounded).  Answers come back in stream order.

    A group the target rejects (``Overloaded``, ``QuotaExceeded``)
    answers zeros, or with *resubmit* is sent again after the
    rejection's ``retry_after`` until it is admitted.  *tenant* is
    forwarded to ``query_many`` when given; *latencies*, an array with
    one slot per group, receives each group's submit-to-answer seconds.
    """
    from ..tenant.registry import QuotaExceeded  # lazy: engine -> tenant -> here
    from .engine import Overloaded

    kwargs = {} if tenant is None else {"tenant": tenant}
    results: list[np.ndarray | None] = [None] * len(groups)
    gate = asyncio.Semaphore(concurrency)
    t_start = now()

    async def one(i: int, group: np.ndarray) -> None:
        if interval is not None and (wait := t_start + i * interval - now()) > 0:
            await asyncio.sleep(wait)
        async with gate:
            t0 = now()
            while results[i] is None:
                try:
                    results[i] = await target.query_many(group, **kwargs)
                except (Overloaded, QuotaExceeded) as exc:
                    if resubmit:
                        await asyncio.sleep(exc.retry_after)
                    else:
                        results[i] = np.zeros(group.size, dtype=np.int64)
            if latencies is not None:
                latencies[i] = now() - t0

    await asyncio.gather(*(one(i, g) for i, g in enumerate(groups)))
    elapsed = now() - t_start
    answers = np.concatenate(results) if results else np.empty(0, dtype=np.int64)
    return answers, elapsed
