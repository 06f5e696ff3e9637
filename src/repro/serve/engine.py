"""Asyncio query engine: admission control, per-turn batching, caching.

The serving pipeline for one query is::

    client --> admission gate --> hot-key cache --> turn queue --> one
                  (Overloaded)       (L3-style)     flush per loop turn:
                                                    one store lookup

* **Bounded admission** — past :data:`MAX_INFLIGHT` keys in flight the
  engine rejects with a typed :class:`Overloaded` error instead of
  queueing unboundedly: latency stays bounded, memory stays flat.
* **Per-turn batching** — every client batch's misses join one
  :class:`~repro.serve.turn.TurnQueue`, whose one flush per loop turn
  answers them all with one vectorised store lookup, amortising the
  per-call overhead that makes one-at-a-time serving slow.
* **Hot-key caching** — a :class:`~repro.serve.cache.HotKeyCache` in
  front of the flush absorbs the Zipf head (the read-path analogue of
  the paper's L3 heavy-hitter aggregation): one ``get_many`` per client
  batch, one ``offer_many`` per flush.

With a simulated store service cost (``flush_service_time`` /
``flush_service_per_key``) the store's routing matters: each shard is
one server, keys wait in its FIFO (with tenants, a
:class:`~repro.tenant.scheduler.DRRQueue`) while a flush of at most
:data:`BATCH_SIZE` keys is in service, and a ``call_later`` completion
answers it and starts the shard's next one.

The store is anything with ``n_shards`` and ``shard_of`` (the routing),
``lookup`` (a batch) and ``get`` (one key, for :func:`naive_serve`), and
optionally ``subscribe`` (a live store's ingest notifications): a
:class:`~repro.serve.shards.ShardedStore` or a
:class:`~repro.lsm.LsmReadView`.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque, namedtuple
from dataclasses import dataclass

import numpy as np

from ..core.owner import by_owner
from .cache import TIER_STORE, TIER_T1, HotKeyCache
from .clock import now
from .metrics import ServeMetrics
from .shards import ShardedStore
from .turn import Request, Turn, TurnQueue

# The tenant layer is imported after .metrics so the partial-package
# import chain (serve -> engine -> tenant -> serve.metrics) resolves.
from ..tenant.metrics import TenantMetricsSet          # noqa: E402
from ..tenant.registry import QuotaExceeded, TenantRegistry  # noqa: E402
from ..tenant.scheduler import DRRQueue                # noqa: E402

__all__ = ["Overloaded", "EngineConfig", "QueryEngine", "naive_serve"]

#: Most keys per flush of a shard in service: one 256-key client group,
#: the group size every serving bench submits.
BATCH_SIZE = 256
#: Admission bound in keys (priority p gets ``MAX_INFLIGHT >> p``): 32
#: flushes, 4x what 8 closed-loop clients of 256-key groups hold, so
#: only open-loop floods are shed.
MAX_INFLIGHT = 8192
#: Least :class:`Overloaded` retry hint in seconds (also the hint before
#: a drain rate is measured); the most is 5 s.
RETRY_FLOOR = 5e-4


class Overloaded(RuntimeError):
    """Admission queue full: the request was rejected, not queued.

    Carries ``inflight`` (keys currently admitted), ``limit`` and a
    ``retry_after`` hint — the seconds until the engine's measured
    drain rate frees room for a request of this size — so clients can
    back off informed instead of blindly.
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

    fair_scheduling: bool = True  # DRR queues when tenants are registered
    #: Simulated store service cost per flush (fixed + per-key seconds;
    #: 0 = off): on virtual time (:func:`repro.serve.clock.run_virtual`)
    #: what queueing effects such as tenant isolation are measured in.
    flush_service_time: float = 0.0
    flush_service_per_key: float = 0.0

    def __post_init__(self) -> None:
        if self.flush_service_time < 0 or self.flush_service_per_key < 0:
            raise ValueError("flush service costs must be >= 0")


_Chunk = namedtuple("_Chunk", "keys slots turn tenant")  # bound for a busy shard


class _Fifo(deque):
    """A shard's queue without fair scheduling, under DRRQueue's names."""

    put_nowait, get_nowait, qsize = deque.append, deque.popleft, deque.__len__


class QueryEngine:
    """Sharded, batched, cached query front end over a ShardedStore."""

    def __init__(
        self,
        store: ShardedStore,
        config: EngineConfig | None = None,
        *,
        cache: HotKeyCache | None = None,
        recorder=None,
        tenants: TenantRegistry | None = None,
    ):
        self.store = store
        self.config = config or EngineConfig()
        self.cache = cache
        self.metrics = ServeMetrics()
        #: Optional :class:`repro.trace.TraceRecorder` (duck-typed:
        #: anything with ``record_batch(keys, tiers)``); every admitted
        #: query is logged with the tier that answered it.
        self.recorder = recorder
        #: Optional multi-tenancy: quota admission per request, DRR
        #: weighted-fair service at shards in service, per-tenant
        #: metrics with SLO grading, and tenant-tagged cache entries.
        self.tenants = tenants
        self.tenant_metrics = (
            TenantMetricsSet(tenants) if tenants is not None else None)
        if cache is not None:
            self.metrics.cache_source = cache
        self._turns = TurnQueue(self._flush)
        self._queues: list = []       # per shard, with a service cost only
        self._serving: dict[int, asyncio.TimerHandle] = {}  # shard -> completion
        self._requests: set[Request] = set()   # store keys still pending
        self._inflight = 0
        self._running = False
        self._unsubscribe = None
        self._drain_rate = 0.0       # EWMA keys/s through the flush path
        self._last_flush_t: float | None = None
        self._drain_keys = 0         # keys answered since _last_flush_t

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        cfg = self.config
        if cfg.flush_service_time > 0 or cfg.flush_service_per_key > 0:
            fair = self.tenants is not None and cfg.fair_scheduling
            self._queues = [DRRQueue(self.tenants.weights()) if fair else _Fifo()
                            for _ in range(self.store.n_shards)]
        # A live store (e.g. LsmReadView) keeps changing answers under
        # us; drop cached entries for every ingested key or the cache
        # would serve pre-ingest counts forever.
        if self.cache is not None and hasattr(self.store, "subscribe"):
            self._unsubscribe = self.store.subscribe(self.cache.invalidate_many)
        self._running = True

    async def stop(self) -> None:
        """Drop queued and in-service keys; every waiting caller gets
        RuntimeError."""
        if not self._running:
            return
        self._running = False
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self._turns.clear()
        for handle in self._serving.values():
            handle.cancel()
        self._serving = {}
        self._queues = []
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

    async def query(self, key: int) -> int:
        """Answer one key (a client batch of one)."""
        result = await self.query_many(np.array([key], dtype=np.uint64))
        return int(result[0])

    def _retry_hint(self, n: int, limit: int) -> float:
        """Seconds until *n* keys of headroom under *limit* should exist:
        the excess over the measured flush drain rate, clamped to
        [RETRY_FLOOR, 5 s] (the floor while the rate is unmeasured)."""
        excess = max(self._inflight + n - limit, n)
        hint = excess / self._drain_rate if self._drain_rate > 0 else RETRY_FLOOR
        return float(min(max(hint, RETRY_FLOOR), 5.0))

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
                             retry_after=self._retry_hint(n, limit))
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
            request = Request(keys[miss_idx], tenant)
            self._turns.submit(request)
            self._inflight += n_miss
            self._requests.add(request)
            try:
                out[miss_idx] = await request.future
            finally:
                self._requests.discard(request)

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

    # -- the per-turn flush --------------------------------------------

    def _flush(self, requests: list[Request]) -> None:
        """Answer one loop turn's requests (tagged by tenant) with one
        store lookup, or with a service cost cut them by shard into
        each shard's queue."""
        turn = Turn(requests)
        keys = turn.keys
        if self._queues:
            for sid, slots in by_owner(self.store.shard_of(keys),
                                       self.store.n_shards, np.arange(keys.size)):
                for request, _, part in turn.parts(slots):
                    self._queues[sid].put_nowait(
                        _Chunk(keys[part], part, turn, request.tag))
                if sid not in self._serving:
                    self._serve(sid)
            return
        turn.answers = self.store.lookup(keys)
        self._answered(keys, turn.answers, 1, [r.tag for r in requests],
                       turn.starts)
        turn.settle()

    def _serve(self, sid: int) -> None:
        """Put shard *sid*'s next flush in service: queued chunks until
        it holds BATCH_SIZE keys, answered once the service time passed."""
        queue = self._queues[sid]
        batch = [queue.get_nowait()]
        n_keys = batch[0].keys.size
        while n_keys < BATCH_SIZE and queue.qsize():
            batch.append(queue.get_nowait())
            n_keys += batch[-1].keys.size
        self.metrics.observe_queue_depth(queue.qsize())
        cfg = self.config
        self._serving[sid] = asyncio.get_running_loop().call_later(
            cfg.flush_service_time + cfg.flush_service_per_key * n_keys,
            self._complete, sid, batch)

    def _complete(self, sid: int, batch: list[_Chunk]) -> None:
        """Answer shard *sid*'s flush in service; start its next one."""
        del self._serving[sid]
        keys = np.concatenate([c.keys for c in batch])
        values = self.store.lookup(keys)
        starts = np.cumsum([0] + [c.keys.size for c in batch]).tolist()
        self._answered(keys, values, 1, [c.tenant for c in batch], starts)
        for chunk, start, end in zip(batch, starts, starts[1:]):
            chunk.turn.answers[chunk.slots] = values[start:end]
            chunk.turn.settle(chunk.slots)
        if self._queues[sid].qsize():
            self._serve(sid)

    def _answered(self, keys: np.ndarray, values: np.ndarray, n_lookups: int,
                  tenants: list, starts: list[int]) -> None:
        """Account a flush's *n_lookups* store lookups: the batch
        counters, admission headroom, the drain-rate EWMA behind retry
        hints, and the cache offers — one ``offer_many``, or one per
        tenant of tenant-tagged keys (run *i* of *keys*,
        ``starts[i]:starts[i + 1]``, is *tenants[i]*'s)."""
        self.metrics.n_batches += n_lookups
        self.metrics.batched_keys += int(keys.size)
        self._inflight -= int(keys.size)
        # The rate is taken over spans of at least RETRY_FLOOR: shards
        # finishing in one instant (or microseconds apart) count together.
        t = now()
        if self._last_flush_t is None:
            self._last_flush_t = t
        elif t - self._last_flush_t >= RETRY_FLOOR:
            inst = (self._drain_keys + keys.size) / (t - self._last_flush_t)
            self._drain_rate = (inst if self._drain_rate == 0
                                else 0.8 * self._drain_rate + 0.2 * inst)
            self._last_flush_t, self._drain_keys = t, 0
        else:
            self._drain_keys += int(keys.size)
        if self.cache is None:
            return
        if self.tenants is None:
            self.cache.offer_many(keys.tolist(), values.tolist())
            return
        offers: dict = {}
        for tenant, start, end in zip(tenants, starts, starts[1:]):
            ckeys, cvalues = offers.setdefault(tenant, ([], []))
            run = keys[start:end].tolist()
            ckeys.extend(run if tenant is None else [(tenant, k) for k in run])
            cvalues.extend(values[start:end].tolist())
        for ckeys, cvalues in offers.values():
            self.cache.offer_many(ckeys, cvalues)


def naive_serve(store: ShardedStore, keys: np.ndarray) -> tuple[np.ndarray, ServeMetrics]:
    """The baseline: answer each query with its own scalar lookup.

    No batching, no caching, no queueing — the loop anyone writes
    first, and the per-query overhead wall the engine exists to beat.
    """
    metrics = ServeMetrics()
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

