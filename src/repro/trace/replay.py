"""Deterministic trace replay: recorded streams back through the stack.

Two replay modes, increasing in fidelity:

* :func:`simulate_cache` — the *model-checking* mode: drive just a
  cache object with the trace's key sequence, one record at a time,
  and count what it would have hit.  With the product's
  :class:`~repro.serve.cache.HotKeyCache` this is the exact curve
  (:func:`measured_miss_ratio_curve`) that the miniature simulations
  of :mod:`repro.trace.sampling` estimate.

* :func:`replay_trace` — the *system* mode: rebuild the trace's
  arrival groups from its timestamps
  (:func:`~repro.serve.workload.arrival_groups`) and push them through a real
  :class:`~repro.serve.engine.QueryEngine` over a sharded store,
  exactly like the live benchmarks do.  Answers are checked
  bit-identical against the scalar baseline, so a recorded workload
  becomes a reproducible integration test.

The trace carries only keys and times; the store being replayed
against supplies the answers.  Replaying the same trace against the
same store is therefore deterministic in the *answers* even though
wall-clock latencies vary run to run.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from ..serve.cache import HotKeyCache
from ..serve.engine import MAX_INFLIGHT, EngineConfig, QueryEngine, naive_serve
from ..serve.metrics import ServeMetrics
from ..serve.workload import arrival_groups, drive_load
from .format import QueryTrace

__all__ = [
    "simulate_cache",
    "measured_miss_ratio_curve",
    "ReplayResult",
    "replay_trace",
]


def simulate_cache(keys: np.ndarray, cache) -> dict:
    """Sequentially drive *cache* with *keys*; return its hit ledger.

    One ``get`` per record; a key whose ``get`` missed is offered back
    (value = 1, a stand-in count — the simulation cares about
    residency, not answers).  The misses reach one ``offer_many`` call
    through a generator: ``offer_many`` pulls the next key only after
    it has offered the previous one, so gets and offers interleave in
    record order exactly as one ``get``/``offer`` per key would.  Works
    for any cache with ``get``, ``offer_many``, a ``hits`` counter and
    ``stats``.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    get = cache.get
    hits0 = cache.hits
    cache.offer_many((key for key in keys.tolist() if get(key) is None),
                     repeat(1))
    hits = cache.hits - hits0
    n = int(keys.size)
    return {
        "n_accesses": n,
        "hits": hits,
        "misses": n - hits,
        "hit_rate": hits / n if n else 0.0,
        "stats": cache.stats(),
    }


def measured_miss_ratio_curve(keys: np.ndarray, capacities, *,
                              admit_threshold: int) -> np.ndarray:
    """The exact miss ratio of the product's cache at each capacity.

    One fresh ``HotKeyCache(c, admit_threshold=admit_threshold)`` per
    capacity, driven over the full key sequence: the ground truth the
    miniature simulations of
    :func:`~repro.trace.sampling.pooled_miss_ratio_curve` are checked
    against.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty(len(capacities), dtype=np.float64)
    for j, cap in enumerate(capacities):
        sim = simulate_cache(
            keys, HotKeyCache(int(cap), admit_threshold=admit_threshold))
        out[j] = sim["misses"] / sim["n_accesses"] if sim["n_accesses"] else 0.0
    return out


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one engine replay of a recorded trace."""

    answers: np.ndarray
    metrics: ServeMetrics
    n_groups: int
    answers_match: bool  # vs. the scalar naive baseline

    def to_doc(self) -> dict:
        return {
            "n_records": int(self.answers.size),
            "n_groups": self.n_groups,
            "answers_match": self.answers_match,
            "metrics": self.metrics.snapshot(),
        }


def replay_trace(
    trace: QueryTrace,
    store,
    *,
    cache_capacity: int = 4096,
    cache_threshold: int = 2,
    tick: float = 1e-3,
    group_size: int = 256,
    concurrency: int = 8,
) -> ReplayResult:
    """Replay a recorded trace through a fresh engine over *store*.

    The trace's timestamps set the batching (arrival-tick groups of
    *tick* seconds); up to *concurrency* groups are in flight at once.
    The cache pair builds one :class:`~repro.serve.cache.HotKeyCache`
    (``cache_capacity=0`` replays uncached).  The answers are verified
    bit-identical against the scalar baseline.
    """
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    groups = arrival_groups(trace.keys, trace.ts, tick=tick)
    # A fast recording compresses many records into one tick (and a
    # recorded batch shares one timestamp), so a tick group can dwarf
    # both the original client batches and the admission bound.  Cap
    # groups at *group_size* so replay preserves the original batching
    # scale and Overloaded retries can't livelock on an unadmittable
    # group.
    cap = min(group_size, MAX_INFLIGHT // 4)
    groups = [part for g in groups
              for part in np.array_split(g, max(1, -(-g.size // cap)))]

    cache = (HotKeyCache(cache_capacity, admit_threshold=cache_threshold)
             if cache_capacity > 0 else None)

    async def drive() -> tuple[np.ndarray, ServeMetrics]:
        async with QueryEngine(store, EngineConfig(), cache=cache) as engine:
            # Replay must answer every record (bit-identical check), so
            # a rejected group backs off and is resubmitted.
            out, engine.metrics.elapsed = await drive_load(
                engine, groups, concurrency=concurrency, resubmit=True)
            return out, engine.metrics

    answers, metrics = asyncio.run(drive())

    baseline, _ = naive_serve(store, trace.keys)
    return ReplayResult(answers=answers, metrics=metrics, n_groups=len(groups),
                        answers_match=bool(np.array_equal(answers, baseline)))
