"""Regression: the hot-key cache over a *live* store must never serve
pre-ingest counts.

A :class:`~repro.serve.engine.QueryEngine` over a frozen
:class:`~repro.serve.shards.ShardedStore` may cache forever — the
answers cannot change.  Over a live :class:`~repro.lsm.LsmReadView`
they can: every ingested batch bumps counts, and a cache entry
admitted before the ingest is silently stale.  The engine therefore
subscribes the cache's ``invalidate_many`` to the store's ingest
notifications while running.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.serial import serial_count
from repro.lsm.store import LsmReadView, LsmStore
from repro.serve.cache import HotKeyCache
from repro.serve.engine import EngineConfig, QueryEngine

K = 15


def run(coro):
    return asyncio.run(coro)


class TestCacheInvalidation:
    def test_invalidate_many(self):
        cache = HotKeyCache(capacity=8, admit_threshold=1)
        for key in range(5):
            cache.offer(key, key * 10)
        assert cache.get(3) == 30
        dropped = cache.invalidate_many(np.array([1, 3, 99], dtype=np.uint64))
        assert dropped == 2
        assert cache.get(3) is None
        assert cache.get(2) == 20

    def test_store_subscribe_unsubscribe(self, tmp_path, small_reads):
        store = LsmStore(tmp_path / "db", K)
        seen = []
        unsubscribe = store.subscribe(seen.append)
        store.ingest(small_reads[:10])
        assert len(seen) == 1
        expect = serial_count(small_reads[:10], K)
        assert np.array_equal(seen[0], expect.kmers)
        unsubscribe()
        unsubscribe()  # idempotent
        store.ingest(small_reads[10:20])
        assert len(seen) == 1

    def test_replay_does_not_notify_new_subscribers(self, tmp_path, small_reads):
        path = tmp_path / "db"
        store = LsmStore(path, K)
        store.ingest(small_reads[:20])
        store.close()
        seen = []
        reopened = LsmStore(path, K)  # WAL replay happens in here
        reopened.subscribe(seen.append)
        assert seen == []

    def test_cached_engine_over_live_store_stays_exact(
            self, tmp_path, small_reads):
        """The regression: serve + cache + concurrent ingest."""
        first, second = small_reads[:100], small_reads[100:]
        store = LsmStore(tmp_path / "db", K)
        store.ingest(first)
        view = LsmReadView(store, n_shards=2)
        cache = HotKeyCache(capacity=4096, admit_threshold=1)
        cfg = EngineConfig()

        both = serial_count(small_reads, K)
        only_first = serial_count(first, K)
        # Keys whose count changes in the second batch — the ones a
        # stale cache would answer wrongly.
        first_counts = np.array([only_first.get(int(k)) for k in both.kmers])
        grown = both.kmers[both.counts > first_counts]
        assert grown.size > 0

        async def go():
            async with QueryEngine(view, cfg, cache=cache) as engine:
                # Warm the cache on pre-ingest counts.
                await engine.query_many(only_first.kmers)
                await engine.query_many(only_first.kmers)
                assert cache.hits > 0
                store.ingest(second)  # notifies -> invalidates stale keys
                out = await engine.query_many(both.kmers)
                assert np.array_equal(out, both.counts)

        run(go())

    def test_unsubscribed_on_stop(self, tmp_path, small_reads):
        store = LsmStore(tmp_path / "db", K)
        store.ingest(small_reads[:20])
        view = LsmReadView(store)
        cache = HotKeyCache(capacity=64, admit_threshold=1)
        engine = QueryEngine(view, EngineConfig(), cache=cache)

        async def go():
            await engine.start()
            assert len(store._listeners) == 1
            await engine.stop()
            assert len(store._listeners) == 0

        run(go())
