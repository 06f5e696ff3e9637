"""Asyncio query engine: admission control, micro-batching, caching.

The serving pipeline for one query is::

    client --> admission gate --> hot-key cache --> per-shard queue
                  (Overloaded)       (L3-style)         |
                                                   micro-batcher
                                                 (size/window coalesce)
                                                        |
                                               one probe_sorted per flush

Three mechanisms carry the performance argument:

* **Bounded admission** — the engine tracks keys in flight and rejects
  work past :data:`MAX_INFLIGHT` with a typed :class:`Overloaded` error
  instead of queueing unboundedly.  Explicit backpressure: the load
  generator sees rejections, latency stays bounded, memory stays flat.
* **Micro-batching** — per-shard workers coalesce queued requests up
  to :data:`BATCH_SIZE` keys or a ``batch_window`` timer and answer each
  flush with *one* vectorised lookup, amortising the per-call Python
  and NumPy overhead that makes one-at-a-time serving slow.
* **Hot-key caching** — a :class:`~repro.serve.cache.HotKeyCache`
  in front of the queues absorbs the Zipf head before it concentrates
  on one shard (the read-path analogue of the paper's L3 heavy-hitter
  aggregation).  The cache is aggregated like the store: one
  ``get_many`` per client batch and one ``offer_many`` per flush.

Requests enter as key *chunks* (a single key is a chunk of one): the
batch API :meth:`QueryEngine.query_many` routes a client batch's
misses to their shards with one vectorised owner computation and one
stable split, which is how a load generator standing in for thousands
of concurrent single-key clients submits an arrival tick's worth of
traffic.  Each flush writes its answers straight into the request's
output array; the request's one future resolves when its last chunk
has been answered.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

import numpy as np

from ..core.owner import by_owner
from .cache import TIER_STORE, TIER_T1, HotKeyCache
from .clock import now
from .metrics import ServeMetrics
from .shards import ShardedStore

# The tenant layer is imported after .metrics so the partial-package
# import chain (serve -> engine -> tenant -> serve.metrics) resolves.
from ..tenant.metrics import TenantMetricsSet          # noqa: E402
from ..tenant.registry import QuotaExceeded, TenantRegistry  # noqa: E402
from ..tenant.scheduler import DRRQueue                # noqa: E402

__all__ = ["Overloaded", "EngineConfig", "QueryEngine", "naive_serve"]

#: Keys per flush, the coalescing target: one 256-key client group, the
#: group size every serving bench submits, is one flush.
BATCH_SIZE = 256
#: Admission bound in keys (priority p gets ``MAX_INFLIGHT >> p``): 32
#: flushes, 4x what 8 closed-loop clients of 256-key groups hold, so
#: only open-loop floods are shed.
MAX_INFLIGHT = 8192
#: Micro-batchers per shard.  A flush runs synchronously on the event
#: loop, so a second worker would split the queue into smaller batches,
#: not look up in parallel.
WORKERS_PER_SHARD = 1


class Overloaded(RuntimeError):
    """Admission queue full: the request was rejected, not queued.

    Carries ``inflight`` (keys currently admitted), ``limit`` and a
    ``retry_after`` hint — the estimated seconds until the current
    queue depth drains enough to admit a request of this size (derived
    from the engine's measured flush rate) — so clients can implement
    informed retry/shedding policies instead of blind exponential
    backoff.
    """

    def __init__(self, inflight: int, limit: int, retry_after: float = 0.0):
        super().__init__(
            f"engine overloaded: {inflight} keys in flight (limit {limit}, "
            f"retry after {retry_after:.4f}s)")
        self.inflight = inflight
        self.limit = limit
        self.retry_after = retry_after


@dataclass(frozen=True)
class EngineConfig:
    """Tuning knobs for :class:`QueryEngine`."""

    batch_window: float = 5e-4   # seconds a partial batch waits for company
    fair_scheduling: bool = True  # DRR queues when tenants are registered
    #: Simulated store service cost per flush (fixed + per-key seconds),
    #: awaited by the worker before the vectorised lookup.  0 = off.
    #: Benchmarks use it to model a real backend; on virtual time
    #: (:func:`repro.serve.clock.run_virtual`) it is what queueing
    #: effects such as tenant isolation are measured in.
    flush_service_time: float = 0.0
    flush_service_per_key: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.flush_service_time < 0 or self.flush_service_per_key < 0:
            raise ValueError("flush service costs must be >= 0")


class _Request:
    """One client batch awaiting its store-answered keys.

    Each flush writes its chunk's answers straight into :attr:`out` and
    the one :attr:`future` resolves when no key is pending.
    """

    __slots__ = ("out", "pending", "future")

    def __init__(self, out: np.ndarray, pending: int, future: asyncio.Future):
        self.out = out
        self.pending = pending
        self.future = future


class _Chunk:
    """Keys of one request bound for one shard, and where they answer."""

    __slots__ = ("keys", "pos", "request", "tenant")

    def __init__(self, keys: np.ndarray, pos: np.ndarray, request: _Request,
                 tenant: str | None = None):
        self.keys = keys
        self.pos = pos            # indices of the keys in request.out
        self.request = request
        self.tenant = tenant


class QueryEngine:
    """Sharded, batched, cached query front end over a ShardedStore."""

    def __init__(
        self,
        store: ShardedStore,
        config: EngineConfig | None = None,
        *,
        cache: HotKeyCache | None = None,
        metrics: ServeMetrics | None = None,
        recorder=None,
        tenants: TenantRegistry | None = None,
    ):
        self.store = store
        self.config = config or EngineConfig()
        self.cache = cache
        self.metrics = metrics or ServeMetrics()
        #: Optional :class:`repro.trace.TraceRecorder` (duck-typed:
        #: anything with ``record_batch(keys, tiers)``); every admitted
        #: query is logged with the tier that answered it.
        self.recorder = recorder
        #: Optional multi-tenancy: quota admission per request, DRR
        #: weighted-fair batching at the shard workers, per-tenant
        #: metrics with SLO grading, and tenant-tagged cache entries.
        self.tenants = tenants
        self.tenant_metrics = (
            TenantMetricsSet(tenants) if tenants is not None else None)
        if cache is not None:
            self.metrics.cache_source = cache
        self._queues: list = []
        self._workers: list[asyncio.Task] = []
        self._requests: set[_Request] = set()   # store keys still pending
        self._inflight = 0
        self._running = False
        self._unsubscribe = None
        self._drain_rate = 0.0       # EWMA keys/s through the flush path
        self._last_flush_t: float | None = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        if self.tenants is not None and self.config.fair_scheduling:
            weights = self.tenants.weights()
            self._queues = [DRRQueue(weights) for _ in range(self.store.n_shards)]
        else:
            self._queues = [asyncio.Queue() for _ in range(self.store.n_shards)]
        self._workers = [
            asyncio.create_task(self._worker(sid))
            for sid in range(self.store.n_shards)
            for _ in range(WORKERS_PER_SHARD)
        ]
        # A live store (e.g. LsmReadView) keeps changing answers under
        # us; drop cached entries for every ingested key or the cache
        # would serve pre-ingest counts forever.
        if self.cache is not None and hasattr(self.store, "subscribe"):
            self._unsubscribe = self.store.subscribe(self.cache.invalidate_many)
        self._running = True

    async def stop(self) -> None:
        """Cancel the workers; every caller still waiting gets RuntimeError."""
        if not self._running:
            return
        self._running = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        self._queues = []
        # Chunks still queued, or held by a cancelled worker, will never
        # flush: fail their callers instead of leaving them waiting.
        for request in self._requests:
            if not request.future.done():
                request.future.set_exception(RuntimeError(
                    "engine stopped before the request was answered"))
        self._requests.clear()
        self._inflight = 0

    async def __aenter__(self) -> "QueryEngine":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    @property
    def inflight(self) -> int:
        """Keys admitted and not yet answered."""
        return self._inflight

    # -- query paths ---------------------------------------------------

    async def query(self, key: int, *, tenant: str | None = None) -> int:
        """Answer one key (a chunk of one; pays the batching window)."""
        result = await self.query_many(np.array([key], dtype=np.uint64),
                                       tenant=tenant)
        return int(result[0])

    def _retry_hint(self, n: int) -> float:
        """Seconds until *n* keys of admission headroom should exist.

        Derived from the current queue depth and the measured flush
        drain rate; clamped to [batch_window, 5 s] so clients never
        spin on a zero hint or stall on a cold estimate.
        """
        excess = max(self._inflight + n - MAX_INFLIGHT, n)
        if self._drain_rate > 0:
            hint = excess / self._drain_rate
        else:
            hint = self.config.batch_window or 1e-3
        floor = self.config.batch_window or 1e-4
        return float(min(max(hint, floor), 5.0))

    async def query_many(self, keys: np.ndarray, *,
                         tenant: str | None = None) -> np.ndarray:
        """Answer a client batch of keys; returns counts (0 = absent).

        Raises :class:`Overloaded` (rejecting the whole batch) when
        admitting it would exceed the caller's inflight budget.  With
        a tenant registry attached, *tenant* names the caller: the
        request is first charged against the tenant's token bucket
        (:class:`~repro.tenant.registry.QuotaExceeded` with a
        retry-after hint, **before** any queue depth is consumed),
        then admitted against ``MAX_INFLIGHT >> priority`` so lower
        classes shed while class 0 still has headroom.
        """
        if not self._running:
            raise RuntimeError("engine not started (use `async with` or start())")
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)

        # -- admission: quota first, queue depth second ----------------
        tm = None
        limit = MAX_INFLIGHT
        if self.tenants is not None and tenant is not None:
            tm = self.tenant_metrics.get(tenant)
            try:
                spec = self.tenants.admit(tenant, n)
            except QuotaExceeded:
                self.metrics.reject(n, "quota")
                tm.reject(n, "quota")
                raise
            limit = max(1, MAX_INFLIGHT >> spec.priority)
        if self._inflight + n > limit:
            cause = "overload" if limit == MAX_INFLIGHT else "shed"
            self.metrics.reject(n, cause)
            if tm is not None:
                tm.reject(n, cause)
                # The bucket was debited for work that never queued.
                self.tenants.refund(tenant, n)
            raise Overloaded(self._inflight, limit,
                             retry_after=self._retry_hint(n))
        t0 = now()

        # Hot-key cache pass: answer the Zipf head without queueing.
        cache = self.cache
        if cache is None:
            out = np.zeros(n, dtype=np.int64)
            miss_idx = np.arange(n)
        else:
            # Cache identity: tenant-tagged entries keep one tenant's
            # traffic from priming hits (and dodging quota) for another.
            ckeys = keys.tolist()
            if self.tenants is not None and tenant is not None:
                ckeys = [(tenant, key) for key in ckeys]
            out = cache.get_many(ckeys)
            miss_idx = np.flatnonzero(out < 0)
        if self.recorder is not None:
            # The answering tier of each key: the cache, or the store
            # for every key left to the shards.
            tiers = np.full(n, TIER_T1, dtype=np.int8)
            tiers[miss_idx] = TIER_STORE
            self.recorder.record_batch(keys, tiers)
        n_miss = int(miss_idx.size)
        self.metrics.cache_hits += n - n_miss
        self.metrics.cache_misses += n_miss

        if n_miss:
            request = _Request(out, n_miss,
                               asyncio.get_running_loop().create_future())
            miss_keys = keys[miss_idx]
            for sid, chunk_keys, chunk_pos in by_owner(
                    self.store.shard_of(miss_keys), self.store.n_shards,
                    miss_keys, miss_idx):
                self._queues[sid].put_nowait(
                    _Chunk(chunk_keys, chunk_pos, request, tenant))
            self._inflight += n_miss
            self._requests.add(request)
            await request.future

        dt = now() - t0
        found = int((out > 0).sum())
        self.metrics.latency.record(dt, weight=n)
        self.metrics.n_queries += n
        self.metrics.n_found += found
        if tm is not None:
            tm.latency.record(dt, weight=n)
            tm.n_queries += n
            tm.n_found += found
            tm.cache_hits += n - n_miss
            tm.cache_misses += n_miss
        return out

    # -- micro-batching workers ---------------------------------------

    async def _worker(self, sid: int) -> None:
        queue = self._queues[sid]
        cfg = self.config
        while True:
            chunk = await queue.get()
            batch = [chunk]
            n_keys = int(chunk.keys.size)
            if cfg.batch_window > 0 and n_keys < BATCH_SIZE and queue.empty():
                # Lone partial batch: wait one window for company.
                await asyncio.sleep(cfg.batch_window)
            while n_keys < BATCH_SIZE and not queue.empty():
                more = queue.get_nowait()
                batch.append(more)
                n_keys += int(more.keys.size)
            self.metrics.observe_queue_depth(queue.qsize())
            if cfg.flush_service_time > 0 or cfg.flush_service_per_key > 0:
                # Simulated store service cost: makes queueing (and so
                # isolation) measurable on an in-memory store.
                await asyncio.sleep(cfg.flush_service_time
                                    + cfg.flush_service_per_key * n_keys)
            self._flush(sid, batch, n_keys)

    def _flush(self, sid: int, batch: list[_Chunk], n_keys: int) -> None:
        """One vectorised lookup answering every chunk in the batch."""
        if len(batch) == 1:
            all_keys = batch[0].keys
        else:
            all_keys = np.concatenate([c.keys for c in batch])
        values = self.store.lookup_batch(sid, all_keys)
        t = now()
        if self._last_flush_t is not None:
            dt = t - self._last_flush_t
            if dt > 0:
                inst = n_keys / dt
                # EWMA of the drain rate feeds Overloaded retry hints.
                self._drain_rate = (inst if self._drain_rate == 0
                                    else 0.8 * self._drain_rate + 0.2 * inst)
        self._last_flush_t = t
        cache = self.cache
        # Tenant-tagged cache keys differ chunk by chunk: one offer call
        # per chunk then, else one for the whole flush.
        per_chunk = cache is not None and self.tenants is not None
        offset = 0
        for chunk in batch:
            end = offset + int(chunk.keys.size)
            request = chunk.request
            request.out[chunk.pos] = values[offset:end]
            request.pending -= end - offset
            if not request.pending:
                self._requests.discard(request)
                if not request.future.done():   # done = caller cancelled
                    request.future.set_result(None)
            if per_chunk:
                ckeys = chunk.keys.tolist()
                if chunk.tenant is not None:
                    ckeys = [(chunk.tenant, key) for key in ckeys]
                cache.offer_many(ckeys, values[offset:end].tolist())
            offset = end
        if cache is not None and not per_chunk:
            cache.offer_many(all_keys.tolist(), values.tolist())
        self._inflight -= n_keys
        self.metrics.n_batches += 1
        self.metrics.batched_keys += n_keys


def naive_serve(
    store: ShardedStore, keys: np.ndarray, metrics: ServeMetrics | None = None
) -> tuple[np.ndarray, ServeMetrics]:
    """The baseline: answer each query with its own scalar lookup.

    No batching, no caching, no queueing — the loop anyone writes
    first, and the per-query overhead wall the engine exists to beat.
    """
    metrics = metrics or ServeMetrics()
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.empty(keys.size, dtype=np.int64)
    get = store.get
    record = metrics.latency.record
    clock = time.perf_counter
    t_start = clock()
    for i, key in enumerate(keys.tolist()):
        t0 = clock()
        out[i] = get(key)
        record(clock() - t0)
    metrics.elapsed = clock() - t_start
    metrics.n_queries += int(keys.size)
    metrics.n_found += int((out > 0).sum())
    return out, metrics

