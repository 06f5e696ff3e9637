"""Client-facing cluster router: replica selection, retries, hedging.

The router is the piece that turns "RF copies of every key" into an
availability and tail-latency win.  For each client batch it:

1. **routes** — hashes the keys onto the ring and snapshots their
   replica rows (one ``np.searchsorted`` + one row gather, the same
   vectorised cost as :class:`~repro.serve.shards.ShardedStore`);
2. **selects** — picks one live replica per key (a rotating preference
   spreads load across replicas; nodes known to be DOWN are skipped
   up front, the poor man's failure detector);
3. **hedges** — if the chosen node has not answered within a hedge
   delay derived from the p95 of per-node sub-request latency ("tail
   at scale" style), fires the same lookup at each key's next distinct
   live replica and takes whichever answer lands first;
4. **retries** — a lookup that dies mid-flight (:class:`NodeDown`)
   re-routes its keys to the surviving replicas; when *no* replica of
   a key is currently live the router backs off exponentially and
   re-probes (transient crashes restart), and only after exhausting
   its retry budget raises the typed :class:`RangeUnavailable`.

During a rebalance (:mod:`repro.cluster.rebalance`) the router serves
from a *refined* routing table whose intervals flip from the old to
the new replica set one handoff watermark at a time, so clients keep
getting exact answers while key ranges stream between nodes.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..serve.clock import now
from ..serve.metrics import LatencyHistogram
from .metrics import ClusterMetrics
from .node import ClusterNode, NodeDown, NodeState
from .ring import HashRing

_EMPTY_IDX = np.empty(0, dtype=np.intp)

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


class ClusterRouter:
    """Replica-aware query front end over a ring of cluster nodes.

    *hedging* fires a backup replica when a primary is slower than the
    hedge delay; the cluster bench measures the tail with it on and off.
    """

    def __init__(self, ring: HashRing, nodes: dict[int, ClusterNode], *,
                 hedging: bool = True,
                 metrics: ClusterMetrics | None = None, recorder=None):
        missing = [n for n in ring.node_ids if n not in nodes]
        if missing:
            raise ValueError(f"ring nodes without a ClusterNode: {missing}")
        self.ring = ring
        self.nodes = dict(nodes)
        self.hedging = hedging
        self.metrics = metrics or ClusterMetrics()
        #: Optional :class:`repro.trace.TraceRecorder` (duck-typed:
        #: anything with ``record_batch(keys, tiers)``).  The router
        #: has no cache tier, so every record is charged to the store.
        self.recorder = recorder
        self._rr = 0              # rotating replica preference
        self._inflight: set[int] = set()  # batch ids in flight (for quiesce)
        self._next_batch = 0
        # Hedge-delay estimator input: per-node sub-request latencies,
        # each measured from its own dispatch.  Using whole-batch client
        # latencies here would be a positive feedback loop — a hedge
        # that fires after delay D and wins records ~D, ratcheting the
        # delay up until hedging silently stops.  A slow primary whose
        # hedge wins is *cancelled*, so straggler samples rarely land
        # and the estimate tracks the healthy service time.
        self._hedge_hist = LatencyHistogram()
        self._rebalancing = False
        self._new_rows: np.ndarray | None = None
        table = ring.table()
        self._tokens = table.tokens
        self._rows = table.rows.copy()

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
        self._tokens = tokens
        self._rows = old_rows.copy()
        self._new_rows = new_rows

    def flip_interval(self, index: int) -> None:
        """Pass the handoff watermark: interval *index* routes to the
        new replica set from now on (its data is fully installed)."""
        assert self._rebalancing and self._new_rows is not None
        self._rows[index] = self._new_rows[index]

    def finish_rebalance(self, new_ring: HashRing) -> None:
        """Adopt the new ring's compiled table as the routing truth."""
        self.ring = new_ring
        table = new_ring.table()
        self._tokens = table.tokens
        self._rows = table.rows.copy()
        self._new_rows = None
        self._rebalancing = False

    async def quiesce(self) -> None:
        """Wait until every batch routed *before now* has finished.

        The rebalancer calls this after flipping all watermarks and
        before dropping moved ranges from their old owners: any lookup
        still in flight was routed with the old rows and must find its
        data where it was sent.  Only the batches in flight *when this
        call starts* are waited on — later batches route under flipped
        rows, so a steady query stream cannot starve the quiesce.
        """
        waiting = set(self._inflight)
        while waiting & self._inflight:
            await asyncio.sleep(1e-4)

    # -- hedging -------------------------------------------------------

    def hedge_delay(self) -> float:
        """Adaptive hedge trigger: multiplier x sub-request p95, clamped."""
        hist = self._hedge_hist
        if hist.n < HEDGE_WARMUP:
            return HEDGE_INITIAL_DELAY
        delay = hist.quantile(HEDGE_QUANTILE) * HEDGE_MULTIPLIER
        return min(max(delay, HEDGE_MIN_DELAY), HEDGE_MAX_DELAY)

    async def _timed_lookup(self, node_id: int, keys: np.ndarray) -> np.ndarray:
        """A node lookup that feeds the hedge-delay estimator."""
        t0 = now()
        out = await self.nodes[node_id].lookup(keys)
        self._hedge_hist.record(now() - t0)
        return out

    # -- query path ----------------------------------------------------

    def _down_ids(self) -> list[int]:
        return [nid for nid, node in self.nodes.items()
                if node.state is NodeState.DOWN]

    async def query_many(self, keys: np.ndarray) -> np.ndarray:
        """Answer a client batch of keys; returns counts (0 = absent).

        Raises :class:`RangeUnavailable` when some keys' every replica
        stayed down through the retry budget.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        n = int(keys.size)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        if self.recorder is not None:
            self.recorder.record_batch(keys, None)
        t0 = now()
        positions = HashRing.positions(keys)
        idx = np.searchsorted(self._tokens, positions, side="left") \
            % self._tokens.size
        # Snapshot the replica rows: watermark flips during our awaits
        # must not re-route keys already dispatched under the old rows.
        rows = self._rows[idx]
        batch_id = self._next_batch
        self._next_batch += 1
        self._inflight.add(batch_id)
        try:
            out = await self._route(keys, rows)
        finally:
            self._inflight.discard(batch_id)
        m = self.metrics.router
        m.latency.record(now() - t0, weight=n)
        m.n_queries += n
        m.n_found += int(np.count_nonzero(out))
        return out

    async def query(self, key: int) -> int:
        """Answer one key (a batch of one)."""
        return int((await self.query_many(
            np.array([key], dtype=np.uint64)))[0])

    async def _route(self, keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Serve one batch: select, hedge, retry, fail over."""
        rf = rows.shape[1]
        out = np.zeros(keys.size, dtype=np.int64)
        pending = np.arange(keys.size)
        rot = self._rr
        self._rr += 1
        backoff = BACKOFF_BASE
        for round_no in range(MAX_RETRY_ROUNDS):
            # Per-key target: first live replica in rotated preference
            # order (the rotation spreads steady-state load over all RF
            # replicas of each range).
            down = self._down_ids()
            if not down:
                # Every replica is live: the rotated-primary column IS
                # the target, no per-replica liveness masking needed.
                krows = rows if pending.size == keys.size else rows[pending]
                target = krows[:, (rot + round_no) % rf]
                sel, tgt = pending, target
                stuck = _EMPTY_IDX
            else:
                krows = rows[pending]
                target = np.full(pending.size, -1, dtype=np.int64)
                for j in range(rf):
                    col = krows[:, (rot + round_no + j) % rf]
                    live = ~np.isin(col, down)
                    target = np.where((target < 0) & live, col, target)
                routable = target >= 0
                stuck = pending[~routable]
                sel = pending[routable]
                tgt = target[routable]

            failed: list[np.ndarray] = []
            if sel.size:
                # Distinct target nodes: a handful of small ints, so a
                # python set beats np.unique's sort per batch.
                uniq = sorted(set(tgt.tolist()))
                # Fast path: every chosen node is UP with zero simulated
                # delay.  Those lookups have no suspension points, so
                # awaiting them inline (no tasks, no gather, no hedge
                # timers) cannot be interrupted mid-flight — and a node
                # that answers instantly has no tail worth hedging, so
                # the hedge-delay estimator is skipped too.
                if all(self.nodes[n].state is NodeState.UP
                       and self.nodes[n].delay == 0.0 for n in uniq):
                    for nid in uniq:
                        gsel = sel[tgt == nid]
                        out[gsel] = await self.nodes[nid].lookup(keys[gsel])
                else:
                    groups = []
                    tasks = []
                    for nid in uniq:
                        gsel = sel[tgt == nid]
                        groups.append(gsel)
                        tasks.append(
                            self._hedged(int(nid), keys[gsel], rows[gsel]))
                    results = await asyncio.gather(*tasks,
                                                   return_exceptions=True)
                    for gsel, res in zip(groups, results):
                        if isinstance(res, NodeDown):
                            # Died mid-flight: re-route these keys.
                            self.metrics.retries += 1
                            failed.append(gsel)
                        elif isinstance(res, BaseException):
                            raise res
                        else:
                            out[gsel] = res
            if stuck.size:
                # No live replica right now — transient crashes restart,
                # so this is worth an exponential-backoff re-probe.
                self.metrics.retries += 1

            if stuck.size or failed:
                pending = np.concatenate([stuck, *failed]) if failed else stuck
            else:
                return out
            if round_no + 1 < MAX_RETRY_ROUNDS:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2.0, BACKOFF_MAX)
        self.metrics.failovers += 1
        tried = tuple(sorted({int(x) for x in rows[pending].ravel()}))
        raise RangeUnavailable(tried, int(pending.size))

    async def _hedged(self, node_id: int, keys: np.ndarray,
                      rows: np.ndarray) -> np.ndarray:
        """One node lookup, backed up by a hedge after the hedge delay."""
        primary = asyncio.ensure_future(self._timed_lookup(node_id, keys))
        if not self.hedging or rows.shape[1] < 2:
            return await primary
        done, _ = await asyncio.wait({primary}, timeout=self.hedge_delay())
        if done:
            return primary.result()  # fast path; may raise NodeDown

        # Primary is slow: pick each key's next distinct live replica.
        down = self._down_ids()
        alt = np.full(keys.size, -1, dtype=np.int64)
        for j in range(rows.shape[1]):
            col = rows[:, j]
            ok = (col != node_id) & (alt < 0)
            if down:
                ok &= ~np.isin(col, down)
            alt = np.where(ok, col, alt)
        if (alt < 0).any():
            # Some keys have no live alternate; hedging a subset would
            # still have to wait for the primary — not worth it.
            return await primary
        self.metrics.hedges_fired += 1
        hedge = asyncio.ensure_future(self._fanout(keys, alt))
        try:
            pending_t: set[asyncio.Task] = {primary, hedge}
            finished: set[asyncio.Task] = set()
            while pending_t:
                done, pending_t = await asyncio.wait(
                    pending_t, return_when=asyncio.FIRST_COMPLETED)
                finished |= done
                for task in done:
                    if not task.cancelled() and task.exception() is None:
                        if task is hedge:
                            self.metrics.hedges_won += 1
                        return task.result()
            # Both sides failed; surface the primary's error (NodeDown
            # sends the batch back through the retry loop).
            raise primary.exception() or NodeDown(node_id)
        finally:
            for task in (primary, hedge):
                if not task.done():
                    task.cancel()
                elif not task.cancelled():
                    task.exception()  # consume the loser's error, if any

    async def _fanout(self, keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Look up each key at its per-key target node; align results."""
        out = np.empty(keys.size, dtype=np.int64)
        masks = []
        tasks = []
        for nid in np.unique(targets):
            mask = targets == nid
            masks.append(mask)
            tasks.append(self._timed_lookup(int(nid), keys[mask]))
        results = await asyncio.gather(*tasks)
        for mask, res in zip(masks, results):
            out[mask] = res
        return out

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
