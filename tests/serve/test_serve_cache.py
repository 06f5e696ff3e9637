"""Tests for the hot-key cache and its heavy-hitter admission policy."""

from __future__ import annotations

import pytest

from repro.serve.cache import CANDIDATES_PER_SLOT, HotKeyCache


class TestLRU:
    def test_admit_and_hit(self):
        c = HotKeyCache(4)
        assert c.get(1) is None
        assert c.offer(1, 10)
        assert c.get(1) == 10
        assert c.hits == 1 and c.misses == 1
        assert c.hit_rate == pytest.approx(0.5)

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
        assert c.invalidate(1)
        assert not c.invalidate(1)
        c.offer(2, 20)
        c.clear()
        assert len(c) == 0


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
            HotKeyCache(4, t2_capacity=-1)
        with pytest.raises(ValueError):
            HotKeyCache(4, admit_threshold=0)
