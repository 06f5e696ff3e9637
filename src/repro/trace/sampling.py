"""Trace sampling that preserves the miss-ratio curve.

Profiling a multi-million-record trace is cheap here, but the point
of the Cydonia ``sample/`` direction is that it doesn't have to be
done on the full trace at all:

* **Spatial sampling** (SHARDS; Waldspurger et al., FAST'15): keep a
  key iff ``hash(key) < rate * 2^64``.  Sampling whole *keys* rather
  than individual records preserves every kept key's access sequence
  exactly, so the sampled trace's reuse distances are the full
  trace's distances scaled by ~*rate* — the sampled MRC at capacity
  ``c`` estimates the full-trace MRC at capacity ``c / rate``.  We
  reuse :func:`repro.core.owner.splitmix64` as the filter hash, the
  same mixer that shards keys to PEs.

* **Temporal sampling**: keep a periodic window of the timeline —
  ``window`` seconds out of every ``every`` seconds.  This preserves
  burst structure (it slices arrival time, not record index) and is
  the right tool when the workload drifts; it does *not* carry a
  capacity-rescaling guarantee, so it is for eyeballing phases, not
  exact modelling.

Both return ordinary :class:`QueryTrace` objects, so sampled traces
save, profile, and replay like full ones.
"""

from __future__ import annotations

import numpy as np

from ..core.owner import splitmix64
from .format import QueryTrace
from .profiler import RDHistogram, reuse_distances

__all__ = [
    "spatial_sample",
    "temporal_sample",
    "scaled_miss_ratio_curve",
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


def temporal_sample(trace: QueryTrace, *, window: float, every: float,
                    phase: float = 0.0) -> QueryTrace:
    """Keep *window* seconds out of each *every*-second period."""
    if not (np.isfinite([window, every, phase]).all()
            and 0 < window <= every):
        raise ValueError("need finite window, every and phase, "
                         "with 0 < window <= every")
    rel = (trace.ts - phase) % every
    sampled = trace.select((trace.ts >= phase) & (rel < window))
    meta = dict(sampled.meta)
    meta["sample"] = {"kind": "temporal", "window": window, "every": every,
                      "phase": phase, "parent_records": trace.n_records}
    return QueryTrace(ts=sampled.ts, streams=sampled.streams,
                      keys=sampled.keys, tiers=sampled.tiers,
                      k=sampled.k, seed=sampled.seed,
                      source=sampled.source, meta=meta)


def sample_rate(trace: QueryTrace) -> float:
    """The spatial sampling rate recorded in a trace's metadata (1.0
    for unsampled or temporally-sampled traces)."""
    sample = trace.meta.get("sample") or {}
    if sample.get("kind") == "spatial":
        return float(sample["rate"])
    return 1.0


def scaled_miss_ratio_curve(trace: QueryTrace, capacities) -> np.ndarray:
    """Estimate the FULL-trace MRC at *capacities* from a sampled trace.

    For a spatial sample at rate ``r``, the sampled cache sees ~``r``
    of every reuse window's distinct keys, so full-trace capacity
    ``c`` corresponds to sampled capacity ``round(c * r)`` (SHARDS
    scaling).  With ``r == 1`` this is just the exact MRC.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    rate = sample_rate(trace)
    hist = RDHistogram.from_distances(reuse_distances(trace.keys))
    scaled = np.maximum(np.round(caps * rate).astype(np.int64), 1)
    return hist.miss_ratio_curve(scaled)


def pooled_miss_ratio_curve(
    trace: QueryTrace, rate: float, capacities, *, salts: int = 4
) -> np.ndarray:
    """Variance-reduced MRC estimate: pool *salts* independent samples.

    A single hash-filter sample of a skewed trace is noisy — dropping
    one Zipf-head key moves the whole curve.  Re-salting the filter
    draws independent key subsets from the *same* trace for free;
    merging their reuse-distance histograms before computing the
    curve is an access-weighted average that converges fast (4 salts
    at rate 0.5 is typically within a fraction of a point of exact).
    Total profiling work is ``salts * rate`` of the full trace.
    """
    if salts < 1:
        raise ValueError("need at least one salt")
    caps = np.asarray(capacities, dtype=np.int64)
    merged = None
    for salt in range(salts):
        sampled = spatial_sample(trace, rate, salt=salt)
        hist = RDHistogram.from_distances(reuse_distances(sampled.keys))
        merged = hist if merged is None else merged.merge(hist)
    scaled = np.maximum(np.round(caps * rate).astype(np.int64), 1)
    return merged.miss_ratio_curve(scaled)
