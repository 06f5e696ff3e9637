"""The trace experiment: record, model, replay — one harness.

Run by the ``trace-bench`` xp target (``benchmarks/xp/trace.json`` →
ledger ``trace-bench``): one seeded end-to-end run with two claims
under test:

1. **Model fidelity**: miniature simulations of the recording's cache
   (``HotKeyCache`` at its admission threshold) over pooled SHARDS
   samples at ``sample_rate`` reproduce the exact miss-ratio curve,
   a full simulation of the same cache at every capacity, within 2
   percentage points.
2. **Replay fidelity**: replaying the recorded trace through a fresh
   engine over the same store returns bit-identical answers.

Beside them it reports the hit rate of the cache the trace was
recorded through, simulated sequentially over the recorded keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts
from ..serve.bench import run_serve_bench
from ..serve.cache import HotKeyCache
from ..serve.shards import ShardedStore
from ..serve.workload import BurstSpec
from .recorder import TraceRecorder
from .replay import measured_miss_ratio_curve, replay_trace, simulate_cache
from .sampling import pooled_miss_ratio_curve

__all__ = ["TraceBenchResult", "run_trace_bench", "curve_capacities",
           "SAMPLE_ERROR_BOUND_PP"]

#: How far (percentage points, at any capacity) the miniature-simulation
#: curve may sit from the exact one: the bound of ``dakc trace sample
#: --check``, whose traces can be far smaller than trace-bench's (which
#: holds the model to 2 pp).
SAMPLE_ERROR_BOUND_PP: float = 10.0


def curve_capacities(n_distinct: int) -> np.ndarray:
    """The capacities a trace's miss-ratio curves are compared at.

    Eight log-spaced sub-working-set sizes from 16 slots up to the
    trace's *n_distinct* keys: where the curve actually bends.
    """
    grid = np.geomspace(16, max(n_distinct, 32), num=8)
    return np.unique(np.round(grid).astype(np.int64))


@dataclass(frozen=True)
class TraceBenchResult:
    """Outcome of one record→model→replay run."""

    capacities: np.ndarray
    modelled_miss: np.ndarray      # miniature simulations, pooled samples
    measured_miss: np.ndarray      # full simulation of the same cache
    replay_answers_match: bool
    cache: dict                    # simulate_cache ledger, HotKeyCache

    @property
    def model_error_pp(self) -> float:
        """Max |modelled - measured| miss ratio, percentage points."""
        if not self.capacities.size:
            return 0.0
        return float(np.abs(self.modelled_miss - self.measured_miss).max()) * 100.0


def run_trace_bench(
    counts: KmerCounts,
    *,
    n_queries: int = 30_000,
    n_shards: int = 8,
    zipf_s: float = 1.1,
    seed: int = 0,
    sample_rate: float = 0.5,
    sample_salts: int = 4,
    cache_capacity: int = 128,
    cache_threshold: int = 2,
    burst: BurstSpec | None = None,
) -> TraceBenchResult:
    """Record a Zipf+burst trace, model its cache, replay it.

    Everything downstream of the key sequence is deterministic in the
    seed.
    """
    if burst is None:
        burst = BurstSpec()
    store = ShardedStore.from_counts(counts, n_shards)

    recorder = TraceRecorder(k=counts.k, seed=seed,
                             source=f"trace-bench seed={seed}")
    run_serve_bench(
        counts, n_queries=n_queries, n_shards=n_shards, zipf_s=zipf_s,
        seed=seed, store=store, burst=burst, recorder=recorder,
        cache_capacity=cache_capacity, cache_threshold=cache_threshold,
    )
    trace = recorder.snapshot()

    # -- model: miniature simulations vs. the full one -----------------
    caps = curve_capacities(int(np.unique(trace.keys).size))
    measured = measured_miss_ratio_curve(trace.keys, caps,
                                         admit_threshold=cache_threshold)
    modelled = pooled_miss_ratio_curve(trace, sample_rate, caps,
                                       admit_threshold=cache_threshold,
                                       salts=sample_salts)

    # -- replay: bit-identical answers through a fresh engine ----------
    replayed = replay_trace(
        trace, store, cache_capacity=cache_capacity,
        cache_threshold=cache_threshold,
    )

    # -- the recording's cache, driven one key at a time ----------------
    cache = simulate_cache(
        trace.keys, HotKeyCache(cache_capacity, admit_threshold=cache_threshold))

    return TraceBenchResult(
        capacities=caps,
        modelled_miss=modelled,
        measured_miss=measured,
        replay_answers_match=replayed.answers_match,
        cache=cache,
    )
