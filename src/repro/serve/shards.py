"""Sharded read-path over a counted k-mer database.

A :class:`ShardedStore` partitions a :class:`~repro.core.result.KmerCounts`
into N virtual shards with the same splitmix64 owner function the
distributed counters use to assign k-mers to PEs
(:func:`repro.core.owner.owner_pe`).  Serving inherits the counting
layer's partitioning property — every replica of a key routes to the
same shard — and also its *imbalance*: all queries for one heavy-hitter
k-mer land on one shard, which is exactly the skew the hot-key cache in
:mod:`repro.serve.cache` absorbs (the L3 argument, applied to reads).

Each shard is a sorted-array store: the global key array is strictly
increasing, so masking out one owner's keys preserves order and a batch
of lookups is one :func:`~repro.core.result.probe_sorted` call instead
of per-key binary searches in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.owner import by_owner, owner_pe
from ..core.result import KmerCounts, probe_sorted
from ..seq.kmers import check_k

__all__ = ["Shard", "ShardedStore"]


@dataclass(frozen=True)
class Shard:
    """One shard: sorted key array + aligned counts."""

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
    """A counted database split into N query shards.

    The shard of a key is ``splitmix64(key) mod n_shards`` — a pure
    function of the key, so clients, load balancers, and the engine's
    flush all agree on routing without coordination.
    """

    def __init__(self, k: int, shards: list[Shard]):
        if not shards:
            raise ValueError("need at least one shard")
        self.k = k
        self.shards = shards
        self.n_shards = len(shards)

    @classmethod
    def from_counts(cls, counts: KmerCounts, n_shards: int) -> "ShardedStore":
        """Partition a counted database into *n_shards* virtual shards."""
        check_k(counts.k)  # a shard keys one word per k-mer
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        owners = owner_pe(counts.kmers, n_shards)
        shards = [
            Shard(counts.kmers[owners == s], counts.counts[owners == s])
            for s in range(n_shards)
        ]
        return cls(counts.k, shards)

    # -- routing -------------------------------------------------------

    def shard_of(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Shard id(s) for the given key(s) (splitmix64 mod N)."""
        scalar = np.isscalar(keys) or isinstance(keys, (int, np.integer))
        ids = owner_pe(np.atleast_1d(np.asarray(keys, dtype=np.uint64)), self.n_shards)
        return int(ids[0]) if scalar else ids

    # -- lookups -------------------------------------------------------

    def lookup_batch(self, shard_id: int, keys: np.ndarray) -> np.ndarray:
        """One vectorised lookup against a single shard.

        The caller is responsible for routing: every key must belong to
        *shard_id* (misrouted keys simply answer 0).
        """
        return self.shards[shard_id].lookup(keys)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Route-and-lookup a mixed batch across all shards."""
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.zeros(keys.size, dtype=np.int64)
        for s, shard_keys, pos in by_owner(owner_pe(keys, self.n_shards),
                                           self.n_shards, keys,
                                           np.arange(keys.size)):
            out[pos] = self.shards[s].lookup(shard_keys)
        return out

    def get(self, key: int) -> int:
        """Scalar lookup — the naive per-query path (binary search)."""
        shard = self.shards[self.shard_of(int(key))]
        if shard.kmers.size == 0:
            return 0
        i = int(np.searchsorted(shard.kmers, np.uint64(key)))
        if i < shard.kmers.size and shard.kmers[i] == np.uint64(key):
            return int(shard.counts[i])
        return 0

    # -- introspection -------------------------------------------------

    @property
    def n_distinct(self) -> int:
        return sum(s.n_keys for s in self.shards)

    @property
    def nbytes(self) -> int:
        return sum(s.nbytes for s in self.shards)

    def shard_sizes(self) -> np.ndarray:
        """Keys per shard (the partition-balance diagnostic)."""
        return np.array([s.n_keys for s in self.shards], dtype=np.int64)
