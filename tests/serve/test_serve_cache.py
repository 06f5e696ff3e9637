"""Tests for the hot-key cache and its heavy-hitter admission policy."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.cache import CANDIDATES_PER_SLOT, HotKeyCache
from repro.trace.replay import simulate_cache


class TestLRU:
    def test_admit_and_hit(self):
        c = HotKeyCache(4)
        assert c.get(1) is None
        assert c.offer(1, 10)
        assert c.get(1) == 10
        assert c.hits == 1 and c.misses == 1
        assert c.hit_rate == pytest.approx(0.5)
        # The whole counter document: one tier, nothing else in it.
        assert c.stats() == {
            "hits": 1, "misses": 1, "hit_rate": 0.5, "evictions": 0,
            "resident": 1, "capacity": 4, "candidates": 0,
            "admit_threshold": 1}

    def test_eviction_is_lru(self):
        c = HotKeyCache(2)
        c.offer(1, 10)
        c.offer(2, 20)
        c.get(1)          # 1 is now most recent
        c.offer(3, 30)    # evicts 2
        assert 1 in c and 3 in c and 2 not in c
        assert c.evictions == 1

    def test_offer_refreshes_resident_value(self):
        c = HotKeyCache(2)
        c.offer(1, 10)
        c.offer(1, 11)
        assert c.get(1) == 11

    def test_invalidate_and_clear(self):
        c = HotKeyCache(4)
        c.offer(1, 10)
        assert c.invalidate_many([1]) == 1
        assert c.invalidate_many([1]) == 0
        assert c.invalidate_many([3]) == 0      # never cached
        c.offer(2, 20)
        c.clear()
        assert len(c) == 0
        for key in (1, 2, 3):
            c.offer(key, key)
        assert c.invalidate_many(np.array([1, 2, 99], dtype=np.uint64)) == 2
        assert 3 in c and len(c) == 1
        c.clear()
        assert len(c) == 0 and c.stats()["candidates"] == 0


class TestAdmission:
    def test_threshold_requires_repeat_sightings(self):
        c = HotKeyCache(4, admit_threshold=3)
        assert not c.offer(1, 10)   # seen once
        assert not c.offer(1, 10)   # twice
        assert 1 not in c
        assert c.offer(1, 10)       # third sighting -> admitted
        assert c.get(1) == 10

    def test_one_hit_wonders_do_not_churn_cache(self):
        c = HotKeyCache(2, admit_threshold=2)
        c.offer(100, 1)
        c.offer(100, 1)             # hot key resident
        for cold in range(1000):    # a parade of once-seen keys
            c.offer(cold, 1)
        assert 100 in c             # survived the parade
        assert c.evictions == 0

    def test_classic_lru_when_threshold_one(self):
        c = HotKeyCache(4, admit_threshold=1)
        assert c.offer(5, 50)
        assert c.get(5) == 50

    def test_candidate_table_is_bounded(self):
        c = HotKeyCache(2, admit_threshold=2)
        for key in range(100):
            c.offer(key, 1)
        assert len(c._seen) == CANDIDATES_PER_SLOT * 2

    def test_candidate_eviction_forgets_sightings(self):
        c = HotKeyCache(1, admit_threshold=2)
        c.offer(1, 10)      # candidate: {1}
        for key in range(2, 2 + CANDIDATES_PER_SLOT):
            c.offer(key, key)  # candidate table full -> forgets 1
        assert not c.offer(1, 10)  # counts from scratch
        assert 1 not in c

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HotKeyCache(0)
        with pytest.raises(ValueError):
            HotKeyCache(-1)
        with pytest.raises(ValueError):
            HotKeyCache(4, admit_threshold=0)
        with pytest.raises(ValueError):
            HotKeyCache(0, admit_threshold=2)


def _state(c) -> tuple:
    """Everything a cache call can change, tables in order."""
    return (list(c._slots.items()), list(c._seen.items()),
            c.hits, c.misses, c.evictions)


class _PerKeyCache:
    """The admission policy as one ``get``/``offer`` per key.

    This is the per-key code ``HotKeyCache`` ran before its bulk
    ``offer_many`` became the policy, kept verbatim as an independent
    reference: the bulk and the per-key calls of ``HotKeyCache`` must
    leave exactly its tables, in order, and its counters.
    """

    def __init__(self, capacity: int, *, admit_threshold: int = 1):
        self.capacity = capacity
        self.admit_threshold = admit_threshold
        self._slots: OrderedDict[int, int] = OrderedDict()
        self._seen: OrderedDict[int, int] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: int) -> int | None:
        """Cached count for *key*, or None on a miss."""
        value = self._slots.get(key)
        if value is None:
            self.misses += 1
            return None
        self._slots.move_to_end(key)
        self.hits += 1
        return value

    def offer(self, key: int, value: int) -> bool:
        """Record a store-answered key; admit it if it proved hot.

        Returns True if the key is (now) resident.
        """
        slots = self._slots
        if key in slots:
            # Keep resident entries fresh (counts can change under
            # rebuilds) without burning an admission observation.
            slots[key] = value
            slots.move_to_end(key)
            return True
        seen = self._seen.get(key, 0) + 1
        if seen < self.admit_threshold:
            self._seen[key] = seen
            self._seen.move_to_end(key)
            if len(self._seen) > CANDIDATES_PER_SLOT * self.capacity:
                self._seen.popitem(last=False)
            return False
        self._seen.pop(key, None)
        slots[key] = value
        if len(slots) > self.capacity:
            slots.popitem(last=False)
            self.evictions += 1
        return True


#: Raw and tenant-tagged keys: a hot few that groups repeat, and enough
#: distinct ones to overflow the candidate table of a small cache.
_keys = st.one_of(st.integers(0, 7), st.integers(0, 80),
                  st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 7)))


def _zipf_keys(n: int, tagged: bool, seed: int = 7) -> list:
    """*n* Zipf-skewed keys, raw or ``(tenant, kmer)``-tagged."""
    rng = np.random.default_rng(seed)
    kmers = (rng.zipf(1.3, size=n) % 200).tolist()
    if not tagged:
        return kmers
    return [(("a", "b")[i % 2], kmer) for i, kmer in enumerate(kmers)]


class TestBulkCalls:
    @given(capacity=st.integers(1, 16), admit_threshold=st.integers(1, 3),
           groups=st.lists(st.tuples(
               st.booleans(),
               st.lists(st.tuples(_keys, st.integers(0, 5)), max_size=24)),
               min_size=8, max_size=40))
    def test_bulk_calls_match_per_key_calls(self, capacity, admit_threshold,
                                            groups):
        """get_many/offer_many over a group, and HotKeyCache's own
        get/offer per key, = the reference's get/offer per key in order:
        same answers, same tables in the same order, same counters."""
        bulk = HotKeyCache(capacity, admit_threshold=admit_threshold)
        one = HotKeyCache(capacity, admit_threshold=admit_threshold)
        ref = _PerKeyCache(capacity, admit_threshold=admit_threshold)
        for is_get, pairs in groups:
            keys = [key for key, _ in pairs]
            if is_get:
                got = bulk.get_many(keys)
                want = [-1 if v is None else v for v in map(ref.get, keys)]
                assert got.dtype == np.int64
                assert got.tolist() == want
                assert [-1 if v is None else v
                        for v in map(one.get, keys)] == want
            else:
                bulk.offer_many(keys, [value for _, value in pairs])
                for key, value in pairs:
                    assert one.offer(key, value) == ref.offer(key, value)
            assert _state(bulk) == _state(ref)
            assert _state(one) == _state(ref)

    @pytest.mark.parametrize("capacity,admit_threshold",
                             [(1, 2), (4, 2), (4, 3), (2, 1)])
    def test_long_skewed_stream_matches_per_key_calls(
            self, capacity, admit_threshold):
        """The engine's pattern, long enough to churn every table: get a
        Zipf group, offer its misses."""
        bulk = HotKeyCache(capacity, admit_threshold=admit_threshold)
        ref = _PerKeyCache(capacity, admit_threshold=admit_threshold)
        rng = np.random.default_rng(7)
        for _ in range(400):
            keys = (rng.zipf(1.3, size=rng.integers(0, 24)) % 200).tolist()
            got = bulk.get_many(keys)
            assert got.tolist() == [-1 if v is None else v
                                    for v in map(ref.get, keys)]
            misses = [key for key, v in zip(keys, got.tolist()) if v < 0]
            bulk.offer_many(misses, [key % 3 for key in misses])
            for key in misses:
                ref.offer(key, key % 3)
            assert _state(bulk) == _state(ref)

    @pytest.mark.parametrize("tagged", [False, True])
    @pytest.mark.parametrize("admit_threshold", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4])
    def test_one_long_call_crosses_both_bounds(self, capacity,
                                               admit_threshold, tagged):
        """One offer_many of ~2,000 keys fills and churns the slot table
        and the candidate table many times inside a single call, where
        the counted sizes must track the real ones."""
        keys = _zipf_keys(2000, tagged)
        values = list(range(len(keys)))
        bulk = HotKeyCache(capacity, admit_threshold=admit_threshold)
        ref = _PerKeyCache(capacity, admit_threshold=admit_threshold)
        bulk.offer_many(keys, values)
        for key, value in zip(keys, values):
            ref.offer(key, value)
        assert _state(bulk) == _state(ref)
        assert ref.evictions > capacity
        # A second long call starts from full tables.
        bulk.offer_many(keys[::-1], values)
        for key, value in zip(keys[::-1], values):
            ref.offer(key, value)
        assert _state(bulk) == _state(ref)

    @pytest.mark.parametrize("admit_threshold", [1, 2])
    def test_unhashable_key_keeps_the_prefix(self, admit_threshold):
        """A bad key midway raises TypeError and leaves the state the
        reference reaches after the keys before it, evictions included."""
        keys = _zipf_keys(600, tagged=False)
        values = [key % 5 for key in keys]
        bulk = HotKeyCache(2, admit_threshold=admit_threshold)
        ref = _PerKeyCache(2, admit_threshold=admit_threshold)
        with pytest.raises(TypeError):
            bulk.offer_many(keys[:300] + [[1, 2]] + keys[300:], values)
        for key, value in zip(keys[:300], values):
            ref.offer(key, value)
        assert ref.evictions > 0
        assert _state(bulk) == _state(ref)

    @pytest.mark.parametrize("admit_threshold", [1, 2, 3])
    @pytest.mark.parametrize("capacity", [1, 4, 64])
    def test_simulate_cache_matches_per_key_calls(self, capacity,
                                                  admit_threshold):
        """``simulate_cache`` hands its misses to one ``offer_many``
        through a generator: the same hits, tables and counters as the
        reference's get, then offer on a miss, per key — also run a
        second time from the warm state the first left."""
        keys = np.asarray(_zipf_keys(3000, tagged=False), dtype=np.uint64)
        cache = HotKeyCache(capacity, admit_threshold=admit_threshold)
        ref = _PerKeyCache(capacity, admit_threshold=admit_threshold)
        for stream in (keys, keys[::-1]):
            sim = simulate_cache(stream, cache)
            hits = 0
            for key in stream.tolist():
                if ref.get(key) is None:
                    ref.offer(key, 1)
                else:
                    hits += 1
            assert (sim["hits"], sim["misses"]) == (hits, stream.size - hits)
            assert _state(cache) == _state(ref)
        assert ref.evictions > 0
