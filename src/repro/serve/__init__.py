"""repro.serve — the read path: serving k-mer counts under load.

The counting layers (:mod:`repro.core`) build an ordered count
database; this package answers queries against it at service scale:

* :mod:`repro.serve.shards` — the database as one sorted table behind
  splitmix64 shard routing, one vectorised probe per batch;
* :mod:`repro.serve.engine` — asyncio front end: bounded admission
  (:class:`Overloaded` backpressure), one batched flush per event-loop
  turn (:mod:`repro.serve.turn`), and a naive one-at-a-time baseline;
* :mod:`repro.serve.cache` — ``HotKeyCache``, the one hot-key LRU:
  L3-style heavy-hitter admission;
* :mod:`repro.serve.workload` — seeded Zipf load generation from a
  real counted spectrum, and ``drive_load``, the one client driver
  (closed-loop or paced) every bench and replay submits through;
* :mod:`repro.serve.metrics` — throughput, queue depth, cache hit
  rate, and latency-percentile accounting; ``ServeMetrics.merge`` is
  the one fold cluster rollups and tenant merges are loops over;
* :mod:`repro.serve.clock` — the one clock (``now``, the running
  loop's time) and ``run_virtual``, the virtual-time loop queueing
  checks run on.

See ``docs/SERVING.md`` for the design and its mapping onto the
paper's heavy-hitter (L3) argument.
"""

from .bench import ServeBenchResult, run_serve_bench
from .cache import TIER_STORE, TIER_T1, HotKeyCache
from .engine import EngineConfig, Overloaded, QueryEngine, naive_serve
from .metrics import LatencyHistogram, ServeMetrics
from .shards import Shard, ShardedStore
from .workload import (
    BurstSpec,
    QueryWorkload,
    arrival_groups,
    drive_load,
    key_groups,
    zipf_workload,
)

__all__ = [
    "Shard",
    "ShardedStore",
    "HotKeyCache",
    "TIER_T1",
    "TIER_STORE",
    "BurstSpec",
    "EngineConfig",
    "Overloaded",
    "QueryEngine",
    "naive_serve",
    "LatencyHistogram",
    "ServeMetrics",
    "QueryWorkload",
    "zipf_workload",
    "arrival_groups",
    "key_groups",
    "drive_load",
    "ServeBenchResult",
    "run_serve_bench",
]
