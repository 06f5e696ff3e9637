"""repro.trace — query-trace capture, cache modelling, and replay.

The serving stack (:mod:`repro.serve`, :mod:`repro.cluster`) answers
query streams; this package turns those streams into artefacts you
can model and re-run:

* :mod:`repro.trace.format` — the ``(ts, stream, key, tier)`` record
  and its versioned ``.npz`` on-disk format;
* :mod:`repro.trace.recorder` — low-overhead in-process capture,
  duck-typed into the engine and router hot paths;
* :mod:`repro.trace.sampling` — SHARDS spatial sampling (hash-filter
  keys) and temporal windowing, and the one cache model: miniature
  simulations of the product's ``HotKeyCache`` over pooled spatial
  samples at capacities scaled by the rate;
* :mod:`repro.trace.replay` — deterministic replay: cache simulation
  (the exact miss-ratio curve the model is checked against), full
  engine replay for bit-identical answers;
* :mod:`repro.trace.bench` — the record→model→replay experiment behind
  the ``trace-bench`` xp target and ledger.

See ``docs/TRACING.md`` for the design and the capacity-planning
workflow it enables.
"""

from .bench import TraceBenchResult, run_trace_bench
from .format import (
    TIER_STORE,
    TIER_T1,
    TRACE_MAGIC,
    TRACE_VERSION,
    QueryTrace,
    load_trace,
    save_trace,
)
from .recorder import TraceRecorder
from .replay import (
    ReplayResult,
    measured_miss_ratio_curve,
    replay_trace,
    simulate_cache,
)
from .sampling import pooled_miss_ratio_curve, spatial_sample, temporal_sample

__all__ = [
    "TRACE_MAGIC",
    "TRACE_VERSION",
    "TIER_T1",
    "TIER_STORE",
    "QueryTrace",
    "save_trace",
    "load_trace",
    "TraceRecorder",
    "spatial_sample",
    "temporal_sample",
    "pooled_miss_ratio_curve",
    "simulate_cache",
    "measured_miss_ratio_curve",
    "ReplayResult",
    "replay_trace",
    "TraceBenchResult",
    "run_trace_bench",
]
