"""Trace sampling, and the miniature-simulation cache model built on it.

* **Spatial sampling** (SHARDS; Waldspurger et al., FAST'15): keep a
  key iff ``hash(key) < rate * 2^64``.  Sampling whole *keys* rather
  than individual records preserves every kept key's access sequence
  exactly, so a cache of ``c * rate`` slots over the sample sees about
  what a cache of ``c`` slots sees over the full trace.  We reuse
  :func:`repro.core.owner.splitmix64` as the filter hash, the same
  mixer that shards keys to PEs.

* **Miniature simulations** (Waldspurger et al., ATC'17):
  :func:`pooled_miss_ratio_curve` runs the product's own
  :class:`~repro.serve.cache.HotKeyCache`, admission threshold
  included, over spatial samples at scaled-down sizes.  It is the one
  cache model here: any policy the cache runs, it models, because it
  runs it.

* **Temporal sampling**: keep a periodic window of the timeline —
  ``window`` seconds out of every ``every`` seconds.  This preserves
  burst structure (it slices arrival time, not record index) and is
  the right tool when the workload drifts; it does *not* carry a
  capacity-rescaling guarantee, so it is for eyeballing phases, not
  exact modelling.

Both samplers return ordinary :class:`QueryTrace` objects, so sampled
traces save, model, and replay like full ones.
"""

from __future__ import annotations

import numpy as np

from ..core.owner import splitmix64
from ..serve.cache import HotKeyCache
from .format import QueryTrace
from .replay import simulate_cache

__all__ = [
    "spatial_sample",
    "temporal_sample",
    "pooled_miss_ratio_curve",
]


def spatial_sample(trace: QueryTrace, rate: float, *, salt: int = 0) -> QueryTrace:
    """SHARDS hash-filter: keep each *key* with probability ~*rate*.

    Deterministic in the key (and *salt*): all accesses of a kept key
    survive, all accesses of a dropped key vanish.  Re-salting gives
    an independent sample without re-recording.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("sampling rate must be in (0, 1]")
    if rate == 1.0:
        sampled = trace.select(np.ones(trace.n_records, dtype=bool))
    else:
        hashes = splitmix64(trace.keys ^ np.uint64(splitmix64(
            np.asarray(salt + 0x9E3779B97F4A7C15, dtype=np.uint64))))
        threshold = np.uint64(int(rate * float(2**64 - 1)))
        sampled = trace.select(hashes < threshold)
    meta = dict(sampled.meta)
    meta["sample"] = {"kind": "spatial", "rate": rate, "salt": salt,
                      "parent_records": trace.n_records}
    return QueryTrace(ts=sampled.ts, streams=sampled.streams,
                      keys=sampled.keys, tiers=sampled.tiers,
                      k=sampled.k, seed=sampled.seed,
                      source=sampled.source, meta=meta)


def temporal_sample(trace: QueryTrace, *, window: float, every: float) -> QueryTrace:
    """Keep the first *window* seconds of each *every*-second period."""
    if not (np.isfinite([window, every]).all() and 0 < window <= every):
        raise ValueError("need finite window and every, with 0 < window <= every")
    sampled = trace.select(trace.ts % every < window)
    meta = dict(sampled.meta)
    meta["sample"] = {"kind": "temporal", "window": window, "every": every,
                      "parent_records": trace.n_records}
    return QueryTrace(ts=sampled.ts, streams=sampled.streams,
                      keys=sampled.keys, tiers=sampled.tiers,
                      k=sampled.k, seed=sampled.seed,
                      source=sampled.source, meta=meta)


def pooled_miss_ratio_curve(
    trace: QueryTrace, rate: float, capacities, *, admit_threshold: int,
    salts: int = 4,
) -> np.ndarray:
    """The full trace's miss-ratio curve, estimated by miniature caches.

    For each of *salts* independent spatial samples at *rate*, and at
    each capacity ``c``, a fresh ``HotKeyCache(max(1, round(c * rate)),
    admit_threshold=admit_threshold)`` runs over the sample; its
    candidate table scales with it (``CANDIDATES_PER_SLOT`` per slot).
    The samples pool by summed misses over summed accesses.  A single
    sample of a skewed trace is noisy — dropping one Zipf-head key
    moves the whole curve — and re-salting the filter draws another
    key subset from the same trace for free.  Total work is
    ``salts * rate`` full-trace simulations per capacity.
    """
    if salts < 1:
        raise ValueError("need at least one salt")
    caps = np.asarray(capacities, dtype=np.int64)
    scaled = np.maximum(np.round(caps * rate).astype(np.int64), 1)
    misses = np.zeros(caps.shape, dtype=np.int64)
    accesses = 0
    for salt in range(salts):
        keys = spatial_sample(trace, rate, salt=salt).keys
        accesses += keys.size
        for j, cap in enumerate(scaled.tolist()):
            misses[j] += simulate_cache(
                keys, HotKeyCache(cap, admit_threshold=admit_threshold)
            )["misses"]
    if not accesses:
        return np.zeros(caps.shape, dtype=np.float64)
    return misses / accesses
