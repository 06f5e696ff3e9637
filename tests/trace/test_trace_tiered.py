"""Tests for the cache's second tier (t1 RAM over a larger, slower t2)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.serve.cache import T2_LATENCY, TIER_STORE, TIER_T1, TIER_T2, HotKeyCache
from repro.serve.engine import EngineConfig, QueryEngine
from repro.serve.shards import ShardedStore
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import simulate_cache


def make(t1=2, t2=4, **kw) -> HotKeyCache:
    kw.setdefault("admit_threshold", 1)
    return HotKeyCache(t1, t2_capacity=t2, **kw)


class TestTierMovement:
    def test_admission_lands_in_t1(self):
        c = make()
        assert c.offer(1, 10)
        assert c.get(1) == 10
        assert c.last_tier == TIER_T1

    def test_t1_eviction_demotes_to_t2(self):
        c = make(t1=2, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)
        c.offer(3, 30)  # t1 full: 1 falls to t2
        assert c.demotions == 1
        assert c.evictions == 0
        assert 1 in c  # still resident, one tier down
        assert c.get(1) == 10
        assert c.last_tier == TIER_T2

    def test_t2_hit_promotes_back_to_t1(self):
        c = make(t1=2, t2=4)
        for key in (1, 2, 3):
            c.offer(key, key)
        c.get(1)  # t2 hit → promotion (demoting t1's LRU in turn)
        assert c.t2_hits == 1
        assert c.get(1) == 1
        assert c.last_tier == TIER_T1  # now answered from t1

    def test_tiers_are_exclusive(self):
        c = make(t1=1, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)  # demotes 1
        c.get(1)        # promotes 1, demotes 2
        stats = c.stats()
        assert stats["resident"] + stats["t2"]["resident"] == len(c) == 2

    def test_only_t2_tail_leaves_entirely(self):
        c = make(t1=1, t2=2)
        for key in (1, 2, 3, 4):
            c.offer(key, key)
        # capacity 1+2=3: exactly one key fell off the t2 tail
        assert len(c) == 3
        assert c.evictions == 1
        assert 1 not in c  # oldest demotion was the victim

    def test_t2_latency_is_charged_per_t2_hit(self):
        c = make(t1=1, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)
        c.get(1)
        c.offer(3, 30)
        c.get(2)
        assert c.t2_hits == 2
        assert c.stats()["t2"]["time_charged_s"] == pytest.approx(2 * T2_LATENCY)


class TestAdmissionAndInvalidation:
    def test_threshold_gates_admission_like_single_tier(self):
        c = make(admit_threshold=2)
        assert not c.offer(1, 10)  # first sighting: candidate only
        assert c.get(1) is None
        assert c.offer(1, 10)      # proved hot
        assert c.get(1) == 10

    def test_offer_refreshes_resident_value_in_either_tier(self):
        c = make(t1=1, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)      # 1 now in t2
        c.offer(1, 11)      # refresh in place, no promotion
        assert c.t2_hits == 0
        assert c.get(1) == 11  # served from t2 with the fresh value

    def test_invalidate_reaches_both_tiers(self):
        c = make(t1=1, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)
        assert c.invalidate(1)      # t2 resident
        assert c.invalidate(2)      # t1 resident
        assert not c.invalidate(3)  # absent
        assert len(c) == 0

    def test_invalidate_many_and_clear(self):
        c = make(t1=2, t2=4)
        for key in (1, 2, 3):
            c.offer(key, key)
        assert c.invalidate_many(np.array([1, 2, 99], dtype=np.uint64)) == 2
        c.clear()
        assert len(c) == 0

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HotKeyCache(0, t2_capacity=4)
        with pytest.raises(ValueError):
            HotKeyCache(2, t2_capacity=-1)
        with pytest.raises(ValueError):
            HotKeyCache(2, t2_capacity=4, admit_threshold=0)


class TestStats:
    def test_stats_document_shape(self):
        c = make(t1=2, t2=4)
        c.offer(1, 10)
        c.get(1)
        c.get(2)
        stats = c.stats()
        assert stats["tiers"] == 2
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["capacity"] == 2
        assert stats["t2"]["capacity"] == 4
        # A single tier is the same document without the t2 section.
        single = HotKeyCache(2).stats()
        assert single["tiers"] == 1 and "t2" not in single

    def test_total_hits_sum_tiers(self):
        c = make(t1=1, t2=4)
        c.offer(1, 10)
        c.offer(2, 20)
        c.get(1)  # t2
        c.get(1)  # t1
        assert (c.hits, c.t2_hits) == (2, 1)


class TestTieringWins:
    def test_two_tier_beats_single_tier_at_equal_t1_ram(self):
        # The bench acceptance claim in miniature: on a skewed stream
        # whose hot set overflows t1, the demoted head is caught by t2
        # instead of falling through to the store.
        rng = np.random.default_rng(0)
        keys = rng.zipf(1.2, size=30_000).astype(np.uint64)
        t1 = 64
        single = simulate_cache(keys, HotKeyCache(t1, admit_threshold=2))
        tiered = simulate_cache(
            keys, HotKeyCache(t1, t2_capacity=4096, admit_threshold=2))
        assert tiered["hit_rate"] > single["hit_rate"]


class TestEnginePass:
    def test_one_pass_records_tiers_and_charges_t2(self, small_reads):
        # k-mers 0..3 are offered in order into a 2+4 cache: 0 and 1
        # are demoted to t2, 2 and 3 stay in t1.  One query of 2, 3, 0,
        # 1 and the never-cached 4 is answered t1, t1, t2, t2, store,
        # and only the two t2 hits are charged.
        db = serial_count(small_reads, 15)
        store = ShardedStore.from_counts(db, 2)
        cache = make(t1=2, t2=4)
        for key, value in zip(db.kmers[:4].tolist(), db.counts[:4].tolist()):
            cache.offer(key, value)
        order = [2, 3, 0, 1, 4]
        keys = db.kmers[order]
        recorder = TraceRecorder()

        async def go():
            async with QueryEngine(store, EngineConfig(batch_window=0.0),
                                   cache=cache, recorder=recorder) as engine:
                return await engine.query_many(keys), engine.metrics

        out, metrics = asyncio.run(go())
        assert np.array_equal(out, db.counts[order])
        assert recorder.snapshot().tiers.tolist() == [
            TIER_T1, TIER_T1, TIER_T2, TIER_T2, TIER_STORE]
        assert metrics.cache_t2_hits == cache.t2_hits == 2
        assert metrics.t2_time_charged == pytest.approx(2 * T2_LATENCY)
