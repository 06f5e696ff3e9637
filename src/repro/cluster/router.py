"""Client-facing cluster router: replica selection, retries, hedging.

The router turns "RF copies of every key" into an availability and
tail-latency win.  Each routing round of a client batch joins the
per-turn queue the engine uses too (:mod:`repro.serve.turn`), whose
one flush per event-loop turn **routes** every queued key on
its round's routing-table snapshot to one live replica (a rotating
preference spreads load; nodes DOWN when the round was queued are
skipped) and **batches** the keys into one lookup per node.  A node
slower than the hedge delay (from the p95 of per-node sub-request
latency, "tail at scale" style) is **hedged**: its keys are routed
again without it and the first answer wins.  A lookup that dies
mid-flight (:class:`NodeDown`) is **retried** on the surviving
replicas; keys with no live replica back off and re-probe (crashes are
transient) until the retry budget runs out, then the typed
:class:`RangeUnavailable` is raised.  During a rebalance
(:mod:`repro.cluster.rebalance`) intervals of the routing table flip
to the new replica set one handoff watermark at a time, so answers
stay exact while key ranges stream between nodes.
"""

from __future__ import annotations

import asyncio
from collections import namedtuple

import numpy as np

from ..core.owner import by_owner
from ..serve.clock import now
from ..serve.metrics import LatencyHistogram
from ..serve.turn import Request, Turn, TurnQueue
from .metrics import ClusterMetrics
from .node import ClusterNode, NodeDown, NodeState
from .ring import HashRing, RoutingTable

__all__ = ["RangeUnavailable", "ClusterRouter"]

# Hedge delay: HEDGE_MULTIPLIER x the HEDGE_QUANTILE of per-node
# sub-request latency, clamped to [HEDGE_MIN_DELAY, HEDGE_MAX_DELAY]
# seconds; HEDGE_INITIAL_DELAY until HEDGE_WARMUP samples exist.
HEDGE_QUANTILE = 0.95
HEDGE_MULTIPLIER = 2.0
HEDGE_MIN_DELAY = 5e-4
HEDGE_MAX_DELAY = 5e-2
HEDGE_INITIAL_DELAY = 2e-3
HEDGE_WARMUP = 64
# Retries: MAX_RETRY_ROUNDS routing rounds before RangeUnavailable, with
# an exponential backoff from BACKOFF_BASE to BACKOFF_MAX seconds.
MAX_RETRY_ROUNDS = 4
BACKOFF_BASE = 1e-3
BACKOFF_MAX = 5e-2


class RangeUnavailable(RuntimeError):
    """Every replica of some requested keys is down: typed failover.

    Carries the ``node_ids`` that were tried and ``n_keys`` still
    unanswered so callers can shed, queue, or page a human.
    """

    def __init__(self, node_ids: tuple[int, ...], n_keys: int):
        super().__init__(
            f"all replicas down for {n_keys} keys (nodes {list(node_ids)})")
        self.node_ids = node_ids
        self.n_keys = n_keys


#: A request's tag: a batch's routing round, or a hedge, routed on a
#: table snapshot by its keys' rotations (< rf) over the live nodes;
#: ``weight``: the client requests it stands for.
_Route = namedtuple("_Route", "table shift live weight")


class _Flush(Turn):
    """A turn's requests of one routing snapshot; NodeDown slots retry."""

    retryable = (NodeDown,)

    def __init__(self, requests: list[Request]):
        super().__init__(requests)
        self.table, self.live = requests[0].tag.table, requests[0].tag.live
        self.shift = np.concatenate([r.tag.shift for r in requests])


class ClusterRouter:
    """Replica-aware query front end over a ring of cluster nodes.

    *hedging* fires a backup replica when a primary is slower than the
    hedge delay; the cluster bench measures the tail with it on and off.
    """

    def __init__(self, ring: HashRing, nodes: dict[int, ClusterNode], *,
                 hedging: bool = True):
        missing = [n for n in ring.node_ids if n not in nodes]
        if missing:
            raise ValueError(f"ring nodes without a ClusterNode: {missing}")
        self.ring = ring
        self.nodes = dict(nodes)
        self.hedging = hedging
        self.metrics = ClusterMetrics()
        self._rr = 0              # rotating replica preference
        self._turns = TurnQueue(self._flush)  # grouped by routing snapshot
        self._tasks: set[asyncio.Task] = set()  # lookups at delayed nodes
        self._inflight: set[object] = set()  # batches in flight (quiesce)
        self._chosen_for, self._chosen = None, {}  # _targets' memo
        # Hedge-delay estimator input: per-node sub-request latencies from
        # their own dispatch.  Whole-batch client latencies would feed
        # back — a hedge that wins after delay D records ~D, ratcheting
        # the delay up until hedging stops.  A primary beaten by its hedge
        # is cancelled unrecorded, so the estimate tracks healthy nodes.
        self._hedge_hist = LatencyHistogram()
        self._rebalancing = False
        self._new_rows: np.ndarray | None = None
        self._table = ring.table()

    # -- membership ----------------------------------------------------

    def add_node(self, node: ClusterNode) -> None:
        """Register a node object (e.g. a joiner, before rebalancing)."""
        if node.node_id in self.nodes:
            raise ValueError(f"node {node.node_id} already registered")
        self.nodes[node.node_id] = node

    def remove_node(self, node_id: int) -> ClusterNode:
        """Drop a node object no longer referenced by the ring."""
        if node_id in self.ring.node_ids:
            raise ValueError(f"node {node_id} is still in the ring")
        return self.nodes.pop(node_id)

    # -- rebalance hooks (driven by repro.cluster.rebalance) -----------

    def begin_rebalance(self, tokens: np.ndarray, old_rows: np.ndarray,
                        new_rows: np.ndarray) -> None:
        """Switch routing to a refined table with per-interval handoff."""
        if self._rebalancing:
            raise RuntimeError("a rebalance is already in progress")
        self._rebalancing = True
        self._table = RoutingTable(tokens, old_rows)
        self._new_rows = new_rows

    def flip_interval(self, index: int) -> None:
        """Pass the handoff watermark: interval *index* routes to the
        new replica set from now on (its data is fully installed).  Copy
        on write: batches in flight keep the table they started with."""
        assert self._rebalancing and self._new_rows is not None
        rows = self._table.rows.copy()
        rows[index] = self._new_rows[index]
        self._table = RoutingTable(self._table.tokens, rows)

    def finish_rebalance(self, new_ring: HashRing) -> None:
        """Adopt the new ring's compiled table as the routing truth."""
        self.ring = new_ring
        self._table = new_ring.table()
        self._new_rows = None
        self._rebalancing = False

    async def quiesce(self) -> None:
        """Wait until every batch routed *before now* has finished.

        The rebalancer calls this between the last watermark flip and
        the drops: a lookup in flight was routed by the old rows and must
        find its data where it was sent.  Later batches route by flipped
        rows and are not waited on, so a query stream cannot starve it.
        """
        waiting = set(self._inflight)
        while waiting & self._inflight:
            await asyncio.sleep(1e-4)

    # -- hedging -------------------------------------------------------

    def hedge_delay(self) -> float:
        """Adaptive hedge trigger: multiplier x sub-request p95, clamped."""
        if self._hedge_hist.n < HEDGE_WARMUP:
            return HEDGE_INITIAL_DELAY
        delay = self._hedge_hist.quantile(HEDGE_QUANTILE) * HEDGE_MULTIPLIER
        return min(max(delay, HEDGE_MIN_DELAY), HEDGE_MAX_DELAY)

    # -- query path ----------------------------------------------------

    async def query_many(self, keys: np.ndarray) -> np.ndarray:
        """Answer a client batch of keys; returns counts (0 = absent).

        Raises :class:`RangeUnavailable` when some keys' every replica
        stayed down through the retry budget.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        t0 = now()
        batch = object()
        self._inflight.add(batch)
        try:
            # flip_interval copies on write: this table is our snapshot.
            out = await self._route(keys, self._table)
        finally:
            self._inflight.discard(batch)
        m = self.metrics.router
        m.latency.record(now() - t0, weight=n)
        m.n_queries += n
        m.n_found += int(np.count_nonzero(out))
        return out

    async def query(self, key: int) -> int:
        """Answer one key (a batch of one)."""
        return int((await self.query_many(
            np.array([key], dtype=np.uint64)))[0])

    async def _route(self, keys: np.ndarray,
                     table: RoutingTable) -> np.ndarray:
        """Serve one batch: queue a round, retry, fail over."""
        out = pending = None     # until the first round fails a key
        rot = self._rr
        self._rr += 1
        backoff = BACKOFF_BASE
        for round_no in range(MAX_RETRY_ROUNDS):
            live = tuple(nid for nid, node in self.nodes.items()
                         if node.state is not NodeState.DOWN)
            ask = keys if pending is None else keys[pending]
            shift = np.full(ask.size, (rot + round_no) % table.rf)
            request = Request(ask, _Route(table, shift, live, 1))
            self._turns.submit(request, (id(table), live))
            answers = await request.future
            # A retry per dead node, and one for keys with no live replica.
            self.metrics.retries += len(request.failed)
            if pending is None:
                if not request.failed:
                    return answers   # the first round answered every key
                out, pending = answers.copy(), np.arange(keys.size)
            else:
                out[pending] = answers
            if not request.failed:
                return out
            pending = pending[np.concatenate(request.failed)]
            if round_no + 1 < MAX_RETRY_ROUNDS:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, BACKOFF_MAX)
        self.metrics.failovers += 1
        rows = table.replicas_at(HashRing.positions(keys[pending]))
        raise RangeUnavailable(tuple(np.unique(rows).tolist()), int(pending.size))

    # -- the per-turn flush --------------------------------------------

    def _targets(self, flush: _Flush) -> np.ndarray:
        """Each key's first live replica in its row's preference order
        rotated by its shift (< rf; -1: none), memoised per row and
        rotation."""
        table, live = flush.table, flush.live
        if table is not self._chosen_for:
            self._chosen_for, self._chosen = table, {}
        if live not in self._chosen:
            rows, rf = table.rows, table.rf
            up = np.zeros(max([int(rows.max()), *live]) + 1, dtype=bool)
            up[list(live)] = True
            # (rotation, rank, row) preference orders; argmax: the first live.
            pref = rows.T[(np.arange(rf)[:, None] + np.arange(rf)) % rf]
            ok = up[pref]
            first = np.take_along_axis(pref, ok.argmax(1)[:, None], 1)[:, 0]
            self._chosen[live] = np.where(ok.any(1), first, -1).ravel()
        idx = table.row_index(HashRing.positions(flush.keys))
        return self._chosen[live].take(flush.shift * table.n_tokens + idx)

    def _flush(self, requests: list[Request]) -> None:
        """Route one snapshot's requests of this loop turn; one lookup
        per node, and one settling of what the nodes answered at once."""
        flush = _Flush(requests)
        answered = []
        # Owner 0 collects the keys with no live replica: they fail.
        owners = self._targets(flush) + 1
        for owner, keys, slots in by_owner(
                owners, max(flush.live, default=-1) + 2, flush.keys,
                np.arange(flush.keys.size)):
            node = self.nodes.get(owner - 1)
            if node is None:
                flush.settle(slots, NodeDown(-1))
            elif node.state is NodeState.UP and node.delay == 0.0:
                # Cannot suspend, so nothing to hedge or fail: answer.
                try:
                    flush.answers[slots] = node.answer(keys)
                except Exception as exc:
                    flush.settle(slots, exc)
                else:
                    answered.append(slots)
            else:
                task = asyncio.ensure_future(self._serve(node, keys, slots, flush))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        if answered:
            done = np.concatenate(answered)
            flush.settle(None if done.size == flush.keys.size else np.sort(done))

    async def _serve(self, node: ClusterNode, keys: np.ndarray,
                     slots: np.ndarray, flush: _Flush) -> None:
        """Settle *slots* by a hedged lookup at a node that can suspend."""
        try:
            flush.answers[slots] = await self._hedged(node, keys, slots, flush)
        except Exception as exc:  # NodeDown: the requests re-route
            flush.settle(slots, exc)
        else:
            flush.settle(slots)

    async def _hedged(self, node: ClusterNode, keys: np.ndarray,
                      slots: np.ndarray, flush: _Flush) -> np.ndarray:
        """One node lookup, backed up by a hedge after the hedge delay."""
        n_requests = sum(r.tag.weight for r, _, _ in flush.parts(slots))

        async def timed() -> np.ndarray:
            # One estimator sample per client request the lookup serves.
            t0 = now()
            out = await node.lookup(keys)
            self._hedge_hist.record(now() - t0, weight=n_requests)
            return out

        primary = asyncio.ensure_future(timed())
        done, _ = await asyncio.wait(
            {primary}, timeout=self.hedge_delay() if self.hedging else None)
        if done:
            return primary.result()  # may raise NodeDown
        # Primary is slow: route the same keys again without it, to each
        # key's next live replica.  If some key has none, the hedge would
        # wait for the primary anyway: not worth it.
        live = tuple(nid for nid in flush.live if nid != node.node_id)
        hedge = Request(keys, _Route(flush.table, flush.shift[slots], live,
                                     n_requests))
        if self._targets(_Flush([hedge])).min() < 0:
            return await primary
        self.metrics.hedges_fired += n_requests
        self._turns.submit(hedge, (id(flush.table), live))
        try:
            waiting = {primary, hedge.future}
            while waiting:
                done, waiting = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED)
                if primary in done and primary.exception() is None:
                    return primary.result()
                if hedge.future in done and not hedge.failed \
                        and hedge.future.exception() is None:
                    self.metrics.hedges_won += n_requests
                    return hedge.future.result()
            # Both failed: the primary's NodeDown sends the keys to a retry.
            raise primary.exception()
        finally:
            primary.cancel()

    # -- introspection -------------------------------------------------

    def describe(self) -> dict:
        """JSON-friendly router + membership summary."""
        return {
            "ring": self.ring.describe(),
            "rebalancing": self._rebalancing,
            "hedge_delay_s": self.hedge_delay(),
            "nodes": {str(nid): node.describe()
                      for nid, node in sorted(self.nodes.items())},
        }
