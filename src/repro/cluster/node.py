"""Cluster nodes: a replicated store slice plus a health state machine.

A :class:`ClusterNode` is one member of the serving cluster.  It wraps
a read backend — by default a :class:`RangeStore` holding the sorted
``(k-mer, count)`` slice the :class:`~repro.cluster.ring.HashRing`
assigns it, but anything with a vectorised ``lookup`` works, e.g. a
live :class:`~repro.lsm.LsmReadView` (full replication: every node can
answer every key and the ring only spreads load) — and a health state:

* ``UP``        — answers at its configured ``service_time``;
* ``DEGRADED``  — a straggler: the same answers, dilated by a
  ``CostModel``-style clock factor (thermal throttling, a noisy
  neighbour, a dying disk) — the case hedged requests exist for;
* ``DOWN``      — raises :class:`NodeDown`, checked both on entry and
  after the simulated service delay so a kill lands on in-flight
  lookups too (the case retries and replicas exist for).
"""

from __future__ import annotations

import asyncio
import enum

import numpy as np

from ..apps.store import merge_sorted_counts
from ..core.result import KmerCounts
from ..serve.clock import now
from ..serve.metrics import ServeMetrics
from ..serve.shards import Shard
from .ring import HashRing, interval_mask

__all__ = ["NodeState", "NodeDown", "RangeStore", "ClusterNode", "build_cluster"]


class NodeState(enum.Enum):
    """Health of one cluster node."""

    UP = "up"
    DEGRADED = "degraded"
    DOWN = "down"


class NodeDown(RuntimeError):
    """A lookup reached a node that is (or just went) down."""

    def __init__(self, node_id: int):
        super().__init__(f"node {node_id} is down")
        self.node_id = node_id


class RangeStore:
    """A node's mutable slice of the database, sorted by key.

    Reads go through an immutable :class:`~repro.serve.shards.Shard`
    (one ``np.searchsorted`` per batch); rebalancing mutates the slice
    with the range protocol — :meth:`extract`, :meth:`install`,
    :meth:`drop` — each of which swaps in a freshly merged shard
    atomically (one assignment), so a concurrent reader always sees a
    consistent array pair.
    """

    def __init__(self, kmers: np.ndarray | None = None,
                 counts: np.ndarray | None = None):
        if kmers is None:
            kmers = np.empty(0, dtype=np.uint64)
        if counts is None:
            counts = np.empty(0, dtype=np.int64)
        self._shard = Shard(np.ascontiguousarray(kmers, dtype=np.uint64),
                            np.ascontiguousarray(counts, dtype=np.int64))

    @classmethod
    def empty(cls) -> "RangeStore":
        return cls()

    @property
    def kmers(self) -> np.ndarray:
        return self._shard.kmers

    @property
    def counts(self) -> np.ndarray:
        return self._shard.counts

    @property
    def n_keys(self) -> int:
        return self._shard.n_keys

    @property
    def nbytes(self) -> int:
        return self._shard.nbytes

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup; absent keys answer 0."""
        return self._shard.lookup(keys)

    # -- range protocol (rebalancing) ----------------------------------

    def extract(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Copy out the keys whose ring position lies in ``(lo, hi]``."""
        mask = interval_mask(HashRing.positions(self.kmers), lo, hi)
        return self.kmers[mask].copy(), self.counts[mask].copy()

    def install(self, kmers: np.ndarray, counts: np.ndarray) -> int:
        """Merge a streamed chunk into the slice; returns keys added."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        if kmers.size == 0:
            return 0
        merged_k, merged_c = merge_sorted_counts(
            self.kmers, self.counts, kmers, np.asarray(counts, dtype=np.int64))
        self._shard = Shard(merged_k, merged_c)
        return int(kmers.size)

    def drop(self, lo: int, hi: int) -> int:
        """Forget the keys in ring interval ``(lo, hi]``; returns removed."""
        mask = interval_mask(HashRing.positions(self.kmers), lo, hi)
        removed = int(mask.sum())
        if removed:
            self._shard = Shard(self.kmers[~mask], self.counts[~mask])
        return removed


class ClusterNode:
    """One cluster member: a store slice, health state, and metrics."""

    def __init__(self, node_id: int, store, *, service_time: float = 0.0):
        if service_time < 0:
            raise ValueError("service_time must be >= 0")
        self.node_id = int(node_id)
        self.store = store
        self.service_time = service_time
        self.state = NodeState.UP
        self.dilation = 1.0
        self.metrics = ServeMetrics()

    # -- serving -------------------------------------------------------

    @property
    def delay(self) -> float:
        """Current simulated seconds per batch lookup."""
        if self.state is NodeState.DEGRADED:
            return self.service_time * self.dilation
        return self.service_time

    async def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Answer a batch, or raise :class:`NodeDown`.

        The down check runs again after the simulated service delay so
        a kill interrupts lookups already in flight — the router must
        then fail the batch over to a replica.
        """
        if self.state is NodeState.DOWN:
            raise NodeDown(self.node_id)
        t0 = now()
        delay = self.delay
        if delay > 0:
            await asyncio.sleep(delay)
            if self.state is NodeState.DOWN:
                raise NodeDown(self.node_id)
        return self.answer(keys, now() - t0)

    def answer(self, keys: np.ndarray, elapsed: float = 0.0) -> np.ndarray:
        """Answer a batch now: no health check, no service delay.

        The router calls this directly for a node that is UP with zero
        delay, which has nothing to wait for; *elapsed* is the latency
        sample the node's metrics record.
        """
        out = self.store.lookup(keys)
        n = int(keys.size)
        self.metrics.latency.record(elapsed, weight=n)
        self.metrics.n_queries += n
        self.metrics.n_found += int(np.count_nonzero(out))
        return out

    # -- health transitions --------------------------------------------

    def kill(self) -> None:
        """Crash the node (in-flight and future lookups fail)."""
        self.state = NodeState.DOWN

    def restart(self) -> None:
        """Bring the node back up with its store intact."""
        self.state = NodeState.UP
        self.dilation = 1.0

    def degrade(self, factor: float) -> None:
        """Turn the node into a straggler (clock dilation >= 1)."""
        if factor < 1.0:
            raise ValueError("dilation factor must be >= 1")
        self.state = NodeState.DEGRADED
        self.dilation = factor

    # -- introspection -------------------------------------------------

    @property
    def n_keys(self) -> int:
        store = self.store
        return int(store.n_keys) if hasattr(store, "n_keys") else 0

    def describe(self) -> dict:
        return {
            "node_id": self.node_id,
            "state": self.state.value,
            "dilation": self.dilation,
            "service_time": self.service_time,
            "n_keys": self.n_keys,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"ClusterNode({self.node_id}, {self.state.value}, "
                f"{self.n_keys} keys)")


def build_cluster(
    counts: KmerCounts,
    n_nodes: int,
    *,
    rf: int = 2,
    vnodes: int = 16,
    seed: int = 0,
    service_time: float = 0.0,
) -> tuple[HashRing, dict[int, ClusterNode]]:
    """Materialise a counted database onto a fresh replicated cluster.

    Every node receives the slice of keys whose ring replica set
    includes it, so each key is resident on exactly *rf* nodes and the
    cluster holds ``rf`` copies of the database in total.
    """
    ring = HashRing(range(n_nodes), rf=rf, vnodes=vnodes, seed=seed)
    replicas = ring.replicas_batch(counts.kmers)
    nodes = {}
    for nid in ring.node_ids:
        mask = (replicas == nid).any(axis=1)
        nodes[nid] = ClusterNode(
            nid,
            RangeStore(counts.kmers[mask], counts.counts[mask]),
            service_time=service_time,
        )
    return ring, nodes
