"""Serving metrics: latency histograms, throughput, queue depth, cache.

The numbers a query service is judged by: tail latency (p50/p95/p99),
sustained throughput, how deep the admission queue ran, and how much
traffic the hot-key cache absorbed.  :class:`LatencyHistogram` uses
geometric buckets so the tail quantiles of millions of samples cost a
few hundred int64 counters, and :class:`ServeMetrics` aggregates one
run into a JSON-serialisable snapshot (the ``serve-bench`` xp target
and ``dakc trace replay --json`` read it).
:meth:`ServeMetrics.merge` is the one fold — per-node rollups and
per-tenant merges go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = ["LatencyHistogram", "ServeMetrics"]


#: Histogram geometry (seconds): buckets grow by ``GROWTH`` from ``LO``
#: to ``HI`` (1 µs to 100 s at ~12% resolution), with an underflow
#: bucket below ``LO`` and an overflow bucket above ``HI``.  Every
#: histogram shares it, so any two merge bucket-exactly.
LO: float = 1e-6
HI: float = 100.0
GROWTH: float = 1.12
_LOG_GROWTH = math.log(GROWTH)
N_BUCKETS = int(math.ceil(math.log(HI / LO) / _LOG_GROWTH)) + 1


class LatencyHistogram:
    """Geometric-bucket latency histogram (seconds).

    Quantiles are accurate to one bucket width anywhere in the range —
    what HDR-style histograms give real services, in 200 lines fewer.
    """

    def __init__(self) -> None:
        # +2: underflow bucket at index 0, overflow at the end.
        self.counts = np.zeros(N_BUCKETS + 2, dtype=np.int64)
        self.n = 0
        self.total = 0.0
        self.max_seen = 0.0

    def _bucket(self, latency: float) -> int:
        if latency < LO:
            return 0
        i = int(math.log(latency / LO) / _LOG_GROWTH) + 1
        return min(i, N_BUCKETS + 1)

    def record(self, latency: float, weight: int = 1) -> None:
        """Record one latency observation (*weight* identical samples)."""
        if latency < 0:
            raise ValueError("latency must be >= 0")
        self.counts[self._bucket(latency)] += weight
        self.n += weight
        self.total += latency * weight
        if latency > self.max_seen:
            self.max_seen = latency

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram into this one."""
        self.counts += other.counts
        self.n += other.n
        self.total += other.total
        self.max_seen = max(self.max_seen, other.max_seen)

    def quantile(self, q: float) -> float:
        """Latency at quantile *q* in [0, 1] (upper bucket edge)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            return 0.0
        target = q * self.n
        cum = np.cumsum(self.counts)
        i = int(np.searchsorted(cum, target, side="left"))
        if i == 0:
            return LO
        if i >= N_BUCKETS + 1:
            return self.max_seen
        return LO * GROWTH ** i

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples at or under *threshold* seconds.

        The SLO-attainment gauge: resolved at bucket granularity (a
        sample is counted when its whole bucket sits at or under the
        threshold), so the answer is conservative by at most one
        bucket width — the same resolution as :meth:`quantile`.
        """
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.n == 0:
            return 1.0
        # Buckets strictly before the one containing the threshold lie
        # entirely at or under it; include the threshold's own bucket
        # when the threshold reaches its upper edge.
        i = self._bucket(threshold)
        upper = LO * GROWTH ** i if i <= N_BUCKETS else math.inf
        if threshold >= upper:
            i += 1
        below = int(self.counts[:i].sum())
        return below / self.n

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0


@dataclass
class ServeMetrics:
    """Aggregated counters for one serving run.

    Every field is a counter that :meth:`merge` folds by its type —
    numbers add, the histogram and the cause table merge — unless its
    metadata says ``"fold": max`` (high-water marks) or ``None`` (not a
    counter), so a field added here is folded without touching
    :meth:`merge`.
    """

    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    n_queries: int = 0          # answered queries (cache hits + store lookups)
    n_found: int = 0            # queries whose key existed in the database
    cache_hits: int = 0
    cache_misses: int = 0       # queries that had to touch a shard
    rejected: int = 0           # admission-control rejections (all causes)
    #: Rejections broken down by cause — "overload" (queue depth),
    #: "quota" (tenant token bucket), "shed" (priority-class headroom).
    rejected_by_cause: dict = field(default_factory=dict)
    n_batches: int = 0          # vector lookups flushed by the engine
    batched_keys: int = 0       # keys answered by those flushes
    queue_depth_max: int = field(default=0, metadata={"fold": max})
    _queue_depth_sum: int = 0
    _queue_depth_samples: int = 0
    #: Seconds of the measured run on the event loop's clock (see
    #: :mod:`repro.serve.clock`); parts that ran side by side (nodes,
    #: tenants) fold to the longest.
    elapsed: float = field(default=0.0, metadata={"fold": max})
    #: The live cache object (anything with ``stats()``), attached by
    #: the engine so snapshots carry the full counter table —
    #: occupancy, evictions, admission candidates — instead of only the
    #: scalar hit rate.
    cache_source: object | None = field(
        default=None, repr=False, compare=False, metadata={"fold": None})

    # -- recording -----------------------------------------------------

    def observe_queue_depth(self, depth: int) -> None:
        self.queue_depth_max = max(self.queue_depth_max, depth)
        self._queue_depth_sum += depth
        self._queue_depth_samples += 1

    def reject(self, n: int, cause: str = "overload") -> None:
        """Count *n* rejected keys under a named rejection cause."""
        self.rejected += n
        self.rejected_by_cause[cause] = self.rejected_by_cause.get(cause, 0) + n

    def merge(self, other: "ServeMetrics") -> None:
        """Fold every counter of *other* into this one."""
        for f in fields(self):
            fold = f.metadata.get("fold", "sum")
            if fold is None:
                continue
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, LatencyHistogram):
                mine.merge(theirs)
            elif isinstance(mine, dict):
                for cause, n in theirs.items():
                    mine[cause] = mine.get(cause, 0) + n
            elif fold is max:
                setattr(self, f.name, max(mine, theirs))
            else:
                setattr(self, f.name, mine + theirs)

    # -- derived -------------------------------------------------------

    @property
    def throughput_qps(self) -> float:
        return self.n_queries / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def rejected_qps(self) -> float:
        """Admission-control rejections per second over the run."""
        return self.rejected / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def cache_hit_rate(self) -> float:
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    @property
    def mean_batch_size(self) -> float:
        return self.batched_keys / self.n_batches if self.n_batches else 0.0

    @property
    def queue_depth_mean(self) -> float:
        if not self._queue_depth_samples:
            return 0.0
        return self._queue_depth_sum / self._queue_depth_samples

    # -- export --------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serialisable summary of the run."""
        cache = {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "hit_rate": self.cache_hit_rate,
        }
        if self.cache_source is not None:
            cache["stats"] = self.cache_source.stats()
        return {
            "n_queries": self.n_queries,
            "n_found": self.n_found,
            "elapsed_s": self.elapsed,
            "throughput_qps": self.throughput_qps,
            "latency_ms": {
                "p50": self.latency.quantile(0.50) * 1e3,
                "p95": self.latency.quantile(0.95) * 1e3,
                "p99": self.latency.quantile(0.99) * 1e3,
                "max": self.latency.max_seen * 1e3,
                "mean": self.latency.mean * 1e3,
            },
            "cache": cache,
            "batching": {
                "batches": self.n_batches,
                "batched_keys": self.batched_keys,
                "mean_batch_size": self.mean_batch_size,
            },
            "queue": {
                "depth_max": self.queue_depth_max,
                "depth_mean": self.queue_depth_mean,
                "rejected": self.rejected,
                "rejected_qps": self.rejected_qps,
                "rejected_by_cause": dict(self.rejected_by_cause),
                "rejected_qps_by_cause": {
                    cause: n / self.elapsed if self.elapsed > 0 else 0.0
                    for cause, n in self.rejected_by_cause.items()
                },
            },
        }
