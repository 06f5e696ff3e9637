"""Hot-key cache with heavy-hitter admission.

Hashing spreads *distinct* k-mers across shards but concentrates every
occurrence of one heavy-hitter key on one owner — the imbalance the
paper's L3 protocol attacks on the write path by absorbing heavy
updates locally.  Serving has the mirror problem: a Zipf-skewed query
stream hammers the hot key's shard.  The mirror fix is a small
front-side cache that answers the heavy hitters before they reach the
shard queues.

Plain LRU caches are churned by one-hit wonders (a long tail of keys
seen once evicts the genuinely hot set).  :class:`HotKeyCache` applies
the L3 admission idea to the cache itself: a key must be *seen* at
least ``admit_threshold`` times before it earns a slot, tracked by a
bounded second-chance counter table, so only traffic-proven heavy
hitters occupy cache capacity.  At ``admit_threshold=1`` it is plain
LRU.  :mod:`repro.trace` models this class itself, at any threshold:
miniature copies of it run over spatial samples of a recorded query
trace (:func:`repro.trace.sampling.pooled_miss_ratio_curve`).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress, repeat

import numpy as np

__all__ = ["HotKeyCache", "base_key", "CANDIDATES_PER_SLOT",
           "TIER_T1", "TIER_STORE"]

#: Tier labels shared by the cache, the engine, and the trace
#: recorder (:mod:`repro.trace`): which layer answered a query.
TIER_T1: int = 0     # the cache
TIER_STORE: int = -1  # cache miss: the sharded store answered

#: Admission candidates tracked per slot (the counter table's bound).
CANDIDATES_PER_SLOT: int = 4


def base_key(key) -> int:
    """The raw k-mer behind a cache key.

    Multi-tenant serving tags cache entries per tenant by using
    ``(tenant, kmer)`` tuples as cache keys — one tenant's traffic
    must not prime hits for another (a cross-tenant hit would dodge
    the second tenant's quota accounting).  The cache treats keys
    opaquely, so tagged and raw keys coexist; this helper recovers
    the k-mer either way for store-driven invalidation.
    """
    return key[1] if type(key) is tuple else key


class HotKeyCache:
    """Bounded LRU over ``key -> count`` with threshold admission.

    * :meth:`get` — cache lookup; refreshes recency on a hit.
    * :meth:`offer` — present a key/value seen at the store; it is
      admitted once its observation count reaches *admit_threshold*
      (``1`` = classic LRU, admit on first sight).
    * :meth:`get_many` / :meth:`offer_many` — the same two operations
      over a group of keys.  :meth:`get_many` leaves exactly the state,
      counters and answers of one :meth:`get` per key in order;
      :meth:`offer_many` is the admission policy itself, and
      :meth:`offer` is a group of one.

    The candidate counter table is itself LRU-bounded
    (:data:`CANDIDATES_PER_SLOT` per slot) so cold keys cannot grow
    state without bound — the same fixed-footprint discipline as the
    L3 heavy-hitter table.
    """

    def __init__(self, capacity: int, *, admit_threshold: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if admit_threshold < 1:
            raise ValueError("admit_threshold must be >= 1")
        self.capacity = capacity
        self.admit_threshold = admit_threshold
        self._slots: OrderedDict[int, int] = OrderedDict()
        self._seen: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: int) -> bool:
        return key in self._slots

    def get(self, key: int) -> int | None:
        """Cached count for *key*, or None on a miss."""
        value = self._slots.get(key)
        if value is None:
            self.misses += 1
            return None
        self._slots.move_to_end(key)
        self.hits += 1
        return value

    def get_many(self, keys) -> np.ndarray:
        """Cached counts for a group of *keys* as int64, -1 for a miss.

        Equals one :meth:`get` per key in order: a get only moves hits
        to MRU (it never inserts or evicts), so one lookup pass then
        one recency pass in key order is the same walk, at C speed.
        """
        slots = self._slots
        out = np.fromiter(map(slots.get, keys, repeat(-1)), dtype=np.int64,
                          count=len(keys))
        hit = out >= 0
        n_hit = int(np.count_nonzero(hit))
        if n_hit:
            deque(map(slots.move_to_end, compress(keys, hit.tolist())),
                  maxlen=0)
        self.hits += n_hit
        self.misses += len(keys) - n_hit
        return out

    def offer(self, key: int, value: int) -> bool:
        """Record a store-answered key; admit it if it proved hot.

        Returns True if the key is (now) resident.
        """
        self.offer_many((key,), (value,))
        return key in self._slots

    def offer_many(self, keys, values) -> None:
        """Record each store-answered ``(key, value)`` pair in order.

        The admission policy.  A resident key takes the new value and
        moves to MRU without burning an observation (counts can change
        under rebuilds).  Any other key makes one candidate-table
        lookup: a first sighting is appended, a repeat below the
        threshold is counted and moved to MRU, and the sighting that
        reaches the threshold leaves the table and is admitted.  Both
        tables drop their LRU entry when full.  The table sizes are
        read once and then counted, so a group is one pass of table
        operations with no Python-level call per key.
        """
        slots, seen = self._slots, self._seen
        # popitem(False) drops a table's LRU entry (positional: cheaper
        # than the keyword on this path).
        move_slot, pop_slot = slots.move_to_end, slots.popitem
        move_seen, pop_seen, seen_get = (seen.move_to_end, seen.popitem,
                                         seen.get)
        capacity, threshold = self.capacity, self.admit_threshold
        max_seen = CANDIDATES_PER_SLOT * capacity
        n_slots, n_seen = len(slots), len(seen)
        evictions = 0
        try:
            for key, value in zip(keys, values):
                if key in slots:
                    slots[key] = value
                    move_slot(key)
                    continue
                count = seen_get(key)
                if count is None:
                    if threshold > 1:
                        if n_seen < max_seen:
                            n_seen += 1
                        else:
                            pop_seen(False)
                        seen[key] = 1
                        continue
                elif count + 1 < threshold:
                    seen[key] = count + 1
                    move_seen(key)
                    continue
                else:
                    del seen[key]
                    n_seen -= 1
                if n_slots < capacity:
                    n_slots += 1
                else:
                    pop_slot(False)
                    evictions += 1
                slots[key] = value
        finally:
            self.evictions += evictions

    def invalidate_many(self, keys) -> int:
        """Drop every cached entry for the k-mers in *keys*.

        The ingest-invalidation hook: a live store notifies with the
        distinct k-mers of each absorbed batch, and any of them that
        were cached must be forgotten or the cache would keep serving
        pre-ingest counts.  Tenant-tagged entries (``(tenant, kmer)``
        keys) are matched by their k-mer, so one ingest invalidates
        every tenant's copy; returns entries dropped (which can exceed
        ``len(keys)`` when several tenants cached the same k-mer).
        """
        targets = {int(k) for k in keys}
        if not targets:
            return 0
        victims = [ck for ck in self._slots if base_key(ck) in targets]
        for ck in victims:
            del self._slots[ck]
        return len(victims)

    def clear(self) -> None:
        self._slots.clear()
        self._seen.clear()

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def stats(self) -> dict:
        """JSON-serialisable counter snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "resident": len(self._slots),
            "capacity": self.capacity,
            "candidates": len(self._seen),
            "admit_threshold": self.admit_threshold,
        }
