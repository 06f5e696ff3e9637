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

:class:`TieredCache` extends the same admission discipline to two
tiers (a small RAM t1 over a larger-but-slower t2 with promotion and
demotion between them) — the Cydonia multi-tier direction; its
capacity-vs-hit-rate behaviour is what the reuse-distance profiler in
:mod:`repro.trace` predicts from recorded query traces.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["HotKeyCache", "TieredCache", "make_cache", "base_key",
           "TIER_T1", "TIER_T2", "TIER_STORE"]

#: Tier labels shared by the caches, the engine, and the trace
#: recorder (:mod:`repro.trace`): which layer answered a query.
TIER_T1: int = 0     # RAM tier (HotKeyCache, or TieredCache t1)
TIER_T2: int = 1     # larger-but-slower second tier (TieredCache t2)
TIER_STORE: int = -1  # cache miss: the sharded store answered


def base_key(key) -> int:
    """The raw k-mer behind a cache key.

    Multi-tenant serving tags cache entries per tenant by using
    ``(tenant, kmer)`` tuples as cache keys — one tenant's traffic
    must not prime hits for another (a cross-tenant hit would dodge
    the second tenant's quota accounting).  Both caches treat keys
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

    The candidate counter table is itself LRU-bounded (default 4x the
    cache capacity) so cold keys cannot grow state without bound —
    the same fixed-footprint discipline as the L3 heavy-hitter table.
    """

    def __init__(
        self,
        capacity: int,
        *,
        admit_threshold: int = 1,
        candidate_capacity: int | None = None,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if admit_threshold < 1:
            raise ValueError("admit_threshold must be >= 1")
        self.capacity = capacity
        self.admit_threshold = admit_threshold
        self.candidate_capacity = (
            4 * capacity if candidate_capacity is None else candidate_capacity
        )
        self._data: OrderedDict[int, int] = OrderedDict()
        self._seen: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Tier that answered the most recent :meth:`get` hit.  A
        #: single-tier cache always answers from RAM; the attribute
        #: exists so the engine and trace recorder can treat
        #: :class:`HotKeyCache` and :class:`TieredCache` uniformly.
        self.last_tier = TIER_T1

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: int) -> bool:
        return key in self._data

    def get(self, key: int) -> int | None:
        """Cached count for *key*, or None on a miss."""
        value = self._data.get(key)
        if value is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def offer(self, key: int, value: int) -> bool:
        """Record a store-answered key; admit it if it proved hot.

        Returns True if the key is (now) resident.
        """
        if key in self._data:
            # Keep resident entries fresh (counts can change under
            # rebuilds) without burning an admission observation.
            self._data[key] = value
            self._data.move_to_end(key)
            return True
        seen = self._seen.get(key, 0) + 1
        if seen < self.admit_threshold:
            self._seen[key] = seen
            self._seen.move_to_end(key)
            if len(self._seen) > self.candidate_capacity:
                self._seen.popitem(last=False)
            return False
        self._seen.pop(key, None)
        self._data[key] = value
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1
        return True

    def invalidate(self, key: int) -> bool:
        """Drop one key (e.g. after a database rebuild)."""
        return self._data.pop(key, None) is not None

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
        if not targets or not self._data:
            return 0
        victims = [ck for ck in self._data if base_key(ck) in targets]
        for ck in victims:
            del self._data[ck]
        return len(victims)

    def clear(self) -> None:
        self._data.clear()
        self._seen.clear()

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def stats(self) -> dict:
        """JSON-serialisable counter snapshot (one tier)."""
        return {
            "tiers": 1,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "resident": len(self._data),
            "capacity": self.capacity,
            "candidates": len(self._seen),
            "candidate_capacity": self.candidate_capacity,
            "admit_threshold": self.admit_threshold,
        }


class TieredCache:
    """Two-tier hot-key cache: a small RAM t1 over a larger, slower t2.

    The Cydonia/MT-cache shape: t1 is the hand-sized RAM tier that
    answers at memory speed; t2 is bigger but each hit costs
    ``t2_latency`` simulated seconds (a flash read, charged through
    the serving metrics the way the cost model charges β_link for
    remote PUTs).  Movement between the tiers is the standard
    exclusive policy:

    * **admission** — a store-answered key passes the same L3-style
      threshold gate as :class:`HotKeyCache`, then lands in t1;
    * **demotion** — a key evicted from t1 (LRU) falls into t2
      instead of being forgotten;
    * **promotion** — a t2 hit moves the key back up to t1 (possibly
      demoting t1's LRU victim in turn);
    * **eviction** — only t2's LRU tail leaves the cache entirely.

    The tiers are exclusive (a key lives in t1 *or* t2), so total
    resident capacity is ``t1_capacity + t2_capacity``.
    """

    def __init__(
        self,
        t1_capacity: int,
        t2_capacity: int,
        *,
        admit_threshold: int = 1,
        candidate_capacity: int | None = None,
        t2_latency: float = 25e-6,
    ):
        if t1_capacity < 1 or t2_capacity < 1:
            raise ValueError("tier capacities must be >= 1")
        if admit_threshold < 1:
            raise ValueError("admit_threshold must be >= 1")
        if t2_latency < 0:
            raise ValueError("t2_latency must be >= 0")
        self.t1_capacity = t1_capacity
        self.t2_capacity = t2_capacity
        self.admit_threshold = admit_threshold
        self.candidate_capacity = (
            4 * t1_capacity if candidate_capacity is None else candidate_capacity
        )
        self.t2_latency = t2_latency
        self._t1: OrderedDict[int, int] = OrderedDict()
        self._t2: OrderedDict[int, int] = OrderedDict()
        self._seen: OrderedDict[int, int] = OrderedDict()
        self.t1_hits = 0
        self.t2_hits = 0
        self.misses = 0
        self.promotions = 0
        self.demotions = 0
        self.evictions = 0          # keys that left the cache entirely (t2 LRU)
        self.t2_time_charged = 0.0  # simulated seconds spent on t2 hits
        self.last_tier = TIER_T1

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: int) -> bool:
        return key in self._t1 or key in self._t2

    # -- lookups -------------------------------------------------------

    def get(self, key: int) -> int | None:
        """Cached count for *key*, or None on a miss.

        Sets :attr:`last_tier` to the answering tier; a t2 hit promotes
        the key to t1 and charges :attr:`t2_latency`.
        """
        value = self._t1.get(key)
        if value is not None:
            self._t1.move_to_end(key)
            self.t1_hits += 1
            self.last_tier = TIER_T1
            return value
        value = self._t2.pop(key, None)
        if value is not None:
            self.t2_hits += 1
            self.t2_time_charged += self.t2_latency
            self.promotions += 1
            self.last_tier = TIER_T2
            self._insert_t1(key, value)
            return value
        self.misses += 1
        return None

    def offer(self, key: int, value: int) -> bool:
        """Record a store-answered key; admit it if it proved hot.

        Returns True if the key is (now) resident in either tier.
        """
        if key in self._t1:
            self._t1[key] = value
            self._t1.move_to_end(key)
            return True
        if key in self._t2:
            # Refresh the stale value in place; residency in t2 is
            # promotion-on-*hit*, not on offer.
            self._t2[key] = value
            self._t2.move_to_end(key)
            return True
        seen = self._seen.get(key, 0) + 1
        if seen < self.admit_threshold:
            self._seen[key] = seen
            self._seen.move_to_end(key)
            if len(self._seen) > self.candidate_capacity:
                self._seen.popitem(last=False)
            return False
        self._seen.pop(key, None)
        self._insert_t1(key, value)
        return True

    def _insert_t1(self, key: int, value: int) -> None:
        """Place a key at t1 MRU, demoting/evicting down the tiers."""
        self._t1[key] = value
        if len(self._t1) > self.t1_capacity:
            victim, victim_value = self._t1.popitem(last=False)
            self.demotions += 1
            self._t2[victim] = victim_value
            self._t2.move_to_end(victim)
            if len(self._t2) > self.t2_capacity:
                self._t2.popitem(last=False)
                self.evictions += 1

    # -- invalidation ---------------------------------------------------

    def invalidate(self, key: int) -> bool:
        """Drop one key from whichever tier holds it."""
        return (self._t1.pop(key, None) is not None
                or self._t2.pop(key, None) is not None)

    def invalidate_many(self, keys) -> int:
        """Drop every cached entry for the k-mers in *keys*.

        Matches tenant-tagged ``(tenant, kmer)`` entries by their
        k-mer, across both tiers (see :func:`base_key`).
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

    # -- accounting -----------------------------------------------------

    @property
    def hits(self) -> int:
        return self.t1_hits + self.t2_hits

    @property
    def hit_rate(self) -> float:
        seen = self.hits + self.misses
        return self.hits / seen if seen else 0.0

    def stats(self) -> dict:
        """JSON-serialisable per-tier counter snapshot."""
        return {
            "tiers": 2,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "t1": {
                "hits": self.t1_hits,
                "resident": len(self._t1),
                "capacity": self.t1_capacity,
            },
            "t2": {
                "hits": self.t2_hits,
                "resident": len(self._t2),
                "capacity": self.t2_capacity,
                "latency_s": self.t2_latency,
                "time_charged_s": self.t2_time_charged,
            },
            "candidates": len(self._seen),
            "candidate_capacity": self.candidate_capacity,
            "admit_threshold": self.admit_threshold,
        }


def make_cache(capacity: int, t2_capacity: int = 0, admit_threshold: int = 1):
    """The cache a capacity triple asks for — the one place that decides.

    No *capacity* means uncached (``None``); a non-zero *t2_capacity*
    puts a second tier under the *capacity* RAM slots
    (:class:`TieredCache`), otherwise a single :class:`HotKeyCache`.
    """
    if capacity <= 0:
        return None
    if t2_capacity > 0:
        return TieredCache(capacity, t2_capacity, admit_threshold=admit_threshold)
    return HotKeyCache(capacity, admit_threshold=admit_threshold)
