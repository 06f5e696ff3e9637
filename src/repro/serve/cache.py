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
hitters occupy cache capacity.

The same cache optionally keeps a second tier (a larger-but-slower t2
under the RAM t1, with promotion and demotion between them) — the
Cydonia multi-tier direction; its capacity-vs-hit-rate behaviour is
what the reuse-distance profiler in :mod:`repro.trace` predicts from
recorded query traces.  A single-tier cache is the two-tier cache
whose t2 is empty.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress, repeat

import numpy as np

__all__ = ["HotKeyCache", "base_key", "CANDIDATES_PER_SLOT", "T2_LATENCY",
           "TIER_T1", "TIER_T2", "TIER_STORE"]

#: Tier labels shared by the cache, the engine, and the trace
#: recorder (:mod:`repro.trace`): which layer answered a query.
TIER_T1: int = 0     # RAM tier
TIER_T2: int = 1     # larger-but-slower second tier
TIER_STORE: int = -1  # cache miss: the sharded store answered

#: Admission candidates tracked per t1 slot (the counter table's bound).
CANDIDATES_PER_SLOT: int = 4
#: Simulated seconds one t2 hit costs (a flash read), charged by the
#: engine through the serving metrics the way the cost model charges
#: beta_link for remote PUTs.
T2_LATENCY: float = 25e-6


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
      over a group of keys, leaving exactly the state, counters and
      answers of the per-key calls in order (which stay the reference).

    The candidate counter table is itself LRU-bounded
    (:data:`CANDIDATES_PER_SLOT` per slot) so cold keys cannot grow
    state without bound — the same fixed-footprint discipline as the
    L3 heavy-hitter table.

    With ``t2_capacity > 0`` a second, slower tier sits under the
    *capacity* RAM slots, and movement between them is the standard
    exclusive policy (a key lives in t1 *or* t2):

    * **admission** — a key that passes the gate lands in t1;
    * **demotion** — a key evicted from t1 (LRU) falls into t2;
    * **promotion** — a t2 hit moves the key back up to t1 (possibly
      demoting t1's LRU victim in turn);
    * **eviction** — a key leaves the cache only off t1's tail when
      there is no t2, else off t2's tail.
    """

    def __init__(self, capacity: int, *, t2_capacity: int = 0,
                 admit_threshold: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if t2_capacity < 0:
            raise ValueError("t2_capacity must be >= 0")
        if admit_threshold < 1:
            raise ValueError("admit_threshold must be >= 1")
        self.capacity = capacity
        self.t2_capacity = t2_capacity
        self.admit_threshold = admit_threshold
        self._t1: OrderedDict[int, int] = OrderedDict()
        self._t2: OrderedDict[int, int] = OrderedDict()
        self._seen: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.t2_hits = 0            # hits answered by t2 (each a promotion)
        self.misses = 0
        self.demotions = 0
        self.evictions = 0          # keys that left the cache entirely
        #: Tier that answered the most recent :meth:`get` hit.
        self.last_tier = TIER_T1

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: int) -> bool:
        return key in self._t1 or key in self._t2

    def get(self, key: int) -> int | None:
        """Cached count for *key*, or None on a miss.

        Sets :attr:`last_tier` to the answering tier; a t2 hit promotes
        the key to t1.
        """
        value = self._t1.get(key)
        if value is not None:
            self._t1.move_to_end(key)
            self.hits += 1
            self.last_tier = TIER_T1
            return value
        value = self._t2.pop(key, None)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self.t2_hits += 1
        self.last_tier = TIER_T2
        self._insert(key, value)
        return value

    def get_many(self, keys, tiers: np.ndarray | None = None) -> np.ndarray:
        """Cached counts for a group of *keys* as int64, -1 for a miss.

        Equals one :meth:`get` per key in order.  *tiers*, when given
        (an int8 array as long as *keys*), receives the answering tier
        of each key (:data:`TIER_STORE` for a miss).
        """
        n = len(keys)
        if self._t2:
            # A t2 hit promotes one key and may demote another within
            # the group, so the order of the gets matters: walk them.
            get = self.get
            out = np.empty(n, dtype=np.int64)
            for i, key in enumerate(keys):
                value = get(key)
                out[i] = -1 if value is None else value
                if tiers is not None:
                    tiers[i] = TIER_STORE if value is None else self.last_tier
            return out
        # With t2 empty a get only moves t1 hits to MRU (it never inserts,
        # evicts or touches t2), so one lookup pass then one recency pass
        # in key order is the same walk, at C speed.
        t1 = self._t1
        out = np.fromiter(map(t1.get, keys, repeat(-1)), dtype=np.int64, count=n)
        hit = out >= 0
        n_hit = int(np.count_nonzero(hit))
        if n_hit:
            deque(map(t1.move_to_end, compress(keys, hit.tolist())), maxlen=0)
            self.last_tier = TIER_T1
        self.hits += n_hit
        self.misses += n - n_hit
        if tiers is not None:
            tiers[:] = np.where(hit, TIER_T1, TIER_STORE)
        return out

    def offer(self, key: int, value: int) -> bool:
        """Record a store-answered key; admit it if it proved hot.

        Returns True if the key is (now) resident in either tier.
        """
        tier = self._t1 if key in self._t1 else self._t2
        if key in tier:
            # Keep resident entries fresh (counts can change under
            # rebuilds) without burning an admission observation;
            # residency in t2 is promotion-on-*hit*, not on offer.
            tier[key] = value
            tier.move_to_end(key)
            return True
        seen = self._seen.get(key, 0) + 1
        if seen < self.admit_threshold:
            self._seen[key] = seen
            self._seen.move_to_end(key)
            if len(self._seen) > CANDIDATES_PER_SLOT * self.capacity:
                self._seen.popitem(last=False)
            return False
        self._seen.pop(key, None)
        self._insert(key, value)
        return True

    def offer_many(self, keys, values) -> None:
        """:meth:`offer` each ``(key, value)`` pair in order."""
        offer = self.offer
        for key, value in zip(keys, values):
            offer(key, value)

    def _insert(self, key: int, value: int) -> None:
        """Place a key at t1 MRU, demoting/evicting down the tiers."""
        self._t1[key] = value
        if len(self._t1) <= self.capacity:
            return
        victim, victim_value = self._t1.popitem(last=False)
        if self.t2_capacity:
            self.demotions += 1
            self._t2[victim] = victim_value
            if len(self._t2) <= self.t2_capacity:
                return
            self._t2.popitem(last=False)
        self.evictions += 1

    def invalidate(self, key: int) -> bool:
        """Drop one key from whichever tier holds it."""
        return (self._t1.pop(key, None) is not None
                or self._t2.pop(key, None) is not None)

    def invalidate_many(self, keys) -> int:
        """Drop every cached entry for the k-mers in *keys*.

        The ingest-invalidation hook: a live store notifies with the
        distinct k-mers of each absorbed batch, and any of them that
        were cached must be forgotten or the cache would keep serving
        pre-ingest counts.  Tenant-tagged entries (``(tenant, kmer)``
        keys) are matched by their k-mer across both tiers, so one
        ingest invalidates every tenant's copy; returns entries dropped
        (which can exceed ``len(keys)`` when several tenants cached the
        same k-mer).
        """
        targets = {int(k) for k in keys}
        if not targets:
            return 0
        dropped = 0
        for tier in (self._t1, self._t2):
            victims = [ck for ck in tier if base_key(ck) in targets]
            for ck in victims:
                del tier[ck]
            dropped += len(victims)
        return dropped

    def clear(self) -> None:
        self._t1.clear()
        self._t2.clear()
        self._seen.clear()

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def stats(self) -> dict:
        """JSON-serialisable counter snapshot (``t2`` only with a t2)."""
        doc = {
            "tiers": 2 if self.t2_capacity else 1,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "resident": len(self._t1),
            "capacity": self.capacity,
            "candidates": len(self._seen),
            "admit_threshold": self.admit_threshold,
        }
        if self.t2_capacity:
            doc["t2"] = {
                "hits": self.t2_hits,
                "resident": len(self._t2),
                "capacity": self.t2_capacity,
                "demotions": self.demotions,
                "time_charged_s": self.t2_hits * T2_LATENCY,
            }
        return doc
