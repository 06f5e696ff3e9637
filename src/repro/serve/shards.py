"""The served database: one sorted table behind hash routing.

A :class:`ShardedStore` holds a :class:`~repro.core.result.KmerCounts`
as its one sorted ``(k-mer, count)`` table and routes keys to N virtual
shards with the same splitmix64 owner function the distributed counters
use to assign k-mers to PEs (:func:`repro.core.owner.owner_pe`).  The
routing matters only where shards model servers with queues (the
engine's in-service path): every replica of a key routes to the same
shard, so serving inherits the counting layer's *imbalance* — all
queries for one heavy-hitter k-mer land on one shard, the skew the
hot-key cache in :mod:`repro.serve.cache` absorbs (the L3 argument,
applied to reads).

Answering needs no routing: a batch of lookups, whatever shards its
keys route to, is one :func:`~repro.core.result.probe_sorted` call over
the whole table instead of per-key binary searches in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.owner import owner_pe
from ..core.result import KmerCounts, probe_sorted
from ..seq.kmers import check_k

__all__ = ["Shard", "ShardedStore"]


@dataclass(frozen=True)
class Shard:
    """A sorted table: key array + aligned counts."""

    kmers: np.ndarray  # uint64, strictly increasing
    counts: np.ndarray  # int64

    def __post_init__(self) -> None:
        if self.kmers.shape != self.counts.shape or self.kmers.ndim != 1:
            raise ValueError("shard arrays must be 1-D and aligned")

    @property
    def n_keys(self) -> int:
        return int(self.kmers.size)

    @property
    def nbytes(self) -> int:
        return int(self.kmers.nbytes + self.counts.nbytes)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised batch lookup; absent keys answer 0."""
        return probe_sorted(self.kmers, self.counts, keys)


class ShardedStore:
    """A counted database, one sorted table, routed to N query shards.

    The shard of a key is ``splitmix64(key) mod n_shards`` — a pure
    function of the key, so clients, load balancers, and the engine's
    in-service queues all agree on routing without coordination.
    """

    def __init__(self, k: int, table: Shard, n_shards: int):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.k = k
        self.table = table
        self.n_shards = n_shards

    @classmethod
    def from_counts(cls, counts: KmerCounts, n_shards: int) -> "ShardedStore":
        """Serve a counted database routed to *n_shards* virtual shards."""
        check_k(counts.k)  # the table keys one word per k-mer
        return cls(counts.k, Shard(counts.kmers, counts.counts), n_shards)

    def shard_of(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Shard id(s) for the given key(s) (splitmix64 mod N)."""
        scalar = np.isscalar(keys) or isinstance(keys, (int, np.integer))
        ids = owner_pe(np.atleast_1d(np.asarray(keys, dtype=np.uint64)), self.n_shards)
        return int(ids[0]) if scalar else ids

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Answer a batch in one probe: sorted once, so the binary
        searches walk the table in order, then scattered back."""
        keys = np.asarray(keys, dtype=np.uint64)
        order = keys.argsort()
        out = np.empty(keys.size, dtype=np.int64)
        out[order] = self.table.lookup(keys[order])
        return out

    def get(self, key: int) -> int:
        """Scalar lookup — the naive per-query path (binary search)."""
        kmers, key = self.table.kmers, np.uint64(key)
        i = int(np.searchsorted(kmers, key))
        return int(self.table.counts[i]) if i < kmers.size and kmers[i] == key else 0

    @property
    def n_distinct(self) -> int:
        return self.table.n_keys

    @property
    def nbytes(self) -> int:
        return self.table.nbytes
