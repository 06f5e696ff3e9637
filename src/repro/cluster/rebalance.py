"""Live rebalancing: node join/leave without stopping the read path.

KMC 2's bin repartitioning shows exact k-mer statistics survive moving
data between owners; the LSM read-view shows a store can serve exact
answers *while* being mutated.  This module combines both for the
cluster: when the ring changes (a node joins, a node leaves, a dead
node is evicted), the keys whose replica set changed stream between
nodes in bounded chunks while the router keeps answering, and every
answer stays bit-exact throughout.  The protocol:

1. **plan** — refine the old and new routing tables onto their common
   token boundaries; every refined interval whose replica set changed
   becomes a :class:`Move` (sources = old replicas, adds = nodes
   gaining the range, drops = nodes losing it);
2. **copy** — for each move, extract the interval's keys from a live
   old replica and install them at the joining replicas in chunks of
   ``chunk_keys``, yielding to the event loop between chunks so
   queries interleave; the router still routes the interval to its old
   replicas, which still hold the data;
3. **flip** — once an interval is fully installed, its handoff
   watermark passes: the router flips that interval to the new replica
   set (one synchronous assignment, no torn routing);
4. **drop** — after all intervals have flipped, wait for in-flight
   batches routed under the old rows to drain
   (:meth:`ClusterRouter.quiesce`), then delete the moved ranges from
   their old owners.  Dropping earlier could strand a lookup that was
   dispatched to an old owner before its watermark passed.

Correctness does not depend on fault-freedom: a move's source can be
any live old replica, so with RF >= 2 a rebalance completes exactly
even while one node of every range is down.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

import numpy as np

from ..serve.clock import now
from .node import NodeState
from .ring import HashRing, RoutingTable
from .router import ClusterRouter

__all__ = ["Move", "RebalancePlan", "RebalanceError", "RebalanceReport",
           "plan_rebalance", "rebalance"]


class RebalanceError(RuntimeError):
    """A range could not be moved (e.g. every source replica is down)."""


@dataclass(frozen=True)
class Move:
    """One refined ring interval that changes replica set."""

    index: int                 # refined-interval index (flip watermark id)
    lo: int                    # interval (lo, hi] on the ring circle
    hi: int
    sources: tuple[int, ...]   # old replicas (data holders), primary first
    adds: tuple[int, ...]      # nodes gaining the range
    drops: tuple[int, ...]     # nodes losing the range


@dataclass(frozen=True)
class RebalancePlan:
    """Refined routing tables plus the moves between them."""

    tokens: np.ndarray         # union of old and new tokens (sorted)
    old_rows: np.ndarray       # (n_refined, rf) replicas before
    new_rows: np.ndarray       # (n_refined, rf) replicas after
    moves: tuple[Move, ...]


@dataclass
class RebalanceReport:
    """What one rebalance pass actually did."""

    n_moves: int = 0
    moved_keys: int = 0        # key copies streamed to joining replicas
    dropped_keys: int = 0      # key copies deleted from leaving replicas
    chunks: int = 0
    duration: float = 0.0
    sources_skipped: int = 0   # down replicas passed over when copying
    joined: tuple[int, ...] = field(default=())
    left: tuple[int, ...] = field(default=())

    def snapshot(self) -> dict:
        return {
            "n_moves": self.n_moves,
            "moved_keys": self.moved_keys,
            "dropped_keys": self.dropped_keys,
            "chunks": self.chunks,
            "duration_s": self.duration,
            "sources_skipped": self.sources_skipped,
            "joined": list(self.joined),
            "left": list(self.left),
        }


def plan_rebalance(old: RoutingTable, new: RoutingTable) -> RebalancePlan:
    """Diff two routing tables into per-interval moves.

    Refining onto the union of both token sets guarantees every
    refined interval has *one* old and *one* new replica row, so the
    diff is exact — no key changes owners without appearing in a move.
    """
    tokens = np.union1d(old.tokens, new.tokens)
    # An interval (lo, hi] is represented by its hi token: the first
    # old/new token >= hi names the row serving every position in it.
    old_idx = np.searchsorted(old.tokens, tokens, side="left") % old.n_tokens
    new_idx = np.searchsorted(new.tokens, tokens, side="left") % new.n_tokens
    old_rows = old.rows[old_idx]
    new_rows = new.rows[new_idx]
    moves = []
    for i in range(tokens.size):
        old_set = {int(x) for x in old_rows[i]}
        new_set = {int(x) for x in new_rows[i]}
        adds = tuple(sorted(new_set - old_set))
        drops = tuple(sorted(old_set - new_set))
        if not adds and not drops:
            continue
        lo = int(tokens[i - 1]) if i > 0 else int(tokens[-1])
        moves.append(Move(index=i, lo=lo, hi=int(tokens[i]),
                          sources=tuple(int(x) for x in old_rows[i]),
                          adds=adds, drops=drops))
    return RebalancePlan(tokens, old_rows, new_rows, tuple(moves))


async def rebalance(router: ClusterRouter, new_ring: HashRing, *,
                    chunk_keys: int = 4096) -> RebalanceReport:
    """Migrate a serving router from its current ring to *new_ring*.

    Joining nodes must already be registered on the router
    (:meth:`ClusterRouter.add_node`) with an empty range store; nodes
    leaving the ring keep their objects registered (callers evict them
    with :meth:`ClusterRouter.remove_node` once the report is back).
    The router keeps serving exact answers for the whole duration.
    """
    if chunk_keys < 1:
        raise ValueError("chunk_keys must be >= 1")
    missing = [n for n in new_ring.node_ids if n not in router.nodes]
    if missing:
        raise ValueError(
            f"joining nodes not registered on the router: {missing}")
    report = RebalanceReport(
        joined=tuple(n for n in new_ring.node_ids
                     if n not in router.ring.node_ids),
        left=tuple(n for n in router.ring.node_ids
                   if n not in new_ring.node_ids),
    )
    plan = plan_rebalance(router.ring.table(), new_ring.table())
    t0 = now()
    router.begin_rebalance(plan.tokens, plan.old_rows, plan.new_rows)
    deferred_drops: list[Move] = []
    for move in plan.moves:
        if move.adds:
            keys, counts = _extract_from_source(router, move, report)
            for lo in range(0, keys.size, chunk_keys):
                chunk_k = keys[lo:lo + chunk_keys]
                chunk_c = counts[lo:lo + chunk_keys]
                for nid in move.adds:
                    router.nodes[nid].store.install(chunk_k, chunk_c)
                    report.moved_keys += int(chunk_k.size)
                report.chunks += 1
                # Yield so queries interleave with the copy stream.
                await _breathe()
        # Handoff watermark: from here this interval routes to the new
        # replica set (which now holds all of its data).
        router.flip_interval(move.index)
        if move.drops:
            deferred_drops.append(move)
        report.n_moves += 1
        await _breathe()
    # Old-row routing may still be in flight; only after those batches
    # drain is it safe to delete moved ranges from their old owners.
    await router.quiesce()
    for move in deferred_drops:
        for nid in move.drops:
            store = router.nodes[nid].store
            if hasattr(store, "drop"):
                report.dropped_keys += store.drop(move.lo, move.hi)
    router.finish_rebalance(new_ring)
    report.duration = now() - t0
    router.metrics.rebalances += 1
    router.metrics.moved_keys += report.moved_keys
    return report


def _extract_from_source(router: ClusterRouter, move: Move,
                         report: RebalanceReport):
    """Copy a move's key range out of the first live source replica."""
    for nid in move.sources:
        node = router.nodes[nid]
        if node.state is NodeState.DOWN:
            report.sources_skipped += 1
            continue
        if not hasattr(node.store, "extract"):
            raise RebalanceError(
                f"node {nid} store has no range protocol "
                "(rebalancing requires RangeStore-backed nodes)")
        return node.store.extract(move.lo, move.hi)
    raise RebalanceError(
        f"every source replica of interval {move.index} is down: "
        f"{list(move.sources)}")


async def _breathe() -> None:
    """Yield to the event loop (lets queries run between chunks)."""
    await asyncio.sleep(0)
