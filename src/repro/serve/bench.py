"""The serve-bench experiment: naive vs. batched+cached serving.

One deterministic, seeded comparison, run by the ``serve-bench`` xp
target (``dakc xp run benchmarks/xp/serve.json`` → ledger
``serve-bench``; ``dakc trace record`` drives the same function to
capture a trace):

1. count a dataset replica into a database,
2. serve it, generate a Zipf query stream from its spectrum,
3. answer the stream twice — once with the naive one-at-a-time scalar
   loop, once through the per-turn batching + hot-key-cache engine (one
   store lookup per loop turn; driven by
   :func:`~repro.serve.workload.drive_load`),
4. check both answer vectors agree, and report throughput, latency
   percentiles, cache hit rate, and the measured speedup.

The key sequence is a pure function of the seed, so runs are
replayable; the wall-clock numbers vary with the host, but the
*speedup* is the claim under test (batching amortises per-query
overhead by ~batch_size and the cache absorbs the Zipf head, so the
margin is wide and robust).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts
from .cache import HotKeyCache
from .engine import EngineConfig, QueryEngine, naive_serve
from .metrics import ServeMetrics
from .shards import ShardedStore
from .workload import BurstSpec, drive_load, key_groups, zipf_workload

__all__ = ["ServeBenchResult", "run_serve_bench"]


@dataclass(frozen=True)
class ServeBenchResult:
    """Outcome of one naive-vs-engine comparison."""

    naive: ServeMetrics
    served: ServeMetrics
    answers_match: bool

    @property
    def speedup(self) -> float:
        if self.naive.throughput_qps == 0:
            return float("inf")
        return self.served.throughput_qps / self.naive.throughput_qps


def run_serve_bench(
    counts: KmerCounts,
    *,
    n_queries: int = 40_000,
    n_shards: int = 8,
    zipf_s: float = 1.1,
    seed: int = 0,
    miss_fraction: float = 0.02,
    config: EngineConfig | None = None,
    cache_capacity: int = 4096,
    cache_threshold: int = 2,
    group_size: int = 256,
    concurrency: int = 8,
    store: ShardedStore | None = None,
    burst: BurstSpec | None = None,
    recorder=None,
) -> ServeBenchResult:
    """Serve one Zipf stream naively and through the engine; compare.

    *store* overrides the read path: anything quacking like a
    :class:`ShardedStore` (``n_shards``/``shard_of``/``lookup``/
    ``get``) works — e.g. a live :class:`repro.lsm.LsmReadView` — while
    *counts* still seeds the workload's popularity ranking.
    The cache pair builds one :class:`~repro.serve.cache.HotKeyCache`
    (a *cache_capacity* of 0 serves uncached); *recorder* (a
    :class:`repro.trace.TraceRecorder`) logs the engine's query trace,
    which is how ``dakc trace record`` produces one.
    """
    config = config or EngineConfig()
    if store is None:
        store = ShardedStore.from_counts(counts, n_shards)
    stream = zipf_workload(
        counts, n_queries, s=zipf_s, seed=seed, miss_fraction=miss_fraction,
        burst=burst,
    )

    naive_out, naive_metrics = naive_serve(store, stream.keys)

    async def drive() -> tuple[np.ndarray, ServeMetrics]:
        cache = (HotKeyCache(cache_capacity, admit_threshold=cache_threshold)
                 if cache_capacity > 0 else None)
        async with QueryEngine(store, config, cache=cache,
                               recorder=recorder) as engine:
            out, engine.metrics.elapsed = await drive_load(
                engine, key_groups(stream.keys, group_size),
                concurrency=concurrency)
            return out, engine.metrics

    served_out, served_metrics = asyncio.run(drive())

    return ServeBenchResult(
        naive=naive_metrics,
        served=served_metrics,
        answers_match=bool(np.array_equal(naive_out, served_out)),
    )
