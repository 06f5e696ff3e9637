"""Tests for the asyncio query engine: batching, backpressure, caching."""

from __future__ import annotations

import asyncio
import copy

import numpy as np
import pytest

from repro.core.result import probe_sorted
from repro.core.serial import serial_count
from repro.serve import engine as engine_mod
from repro.serve.cache import TIER_STORE, TIER_T1, HotKeyCache
from repro.serve.clock import now, run_virtual
from repro.serve.engine import EngineConfig, Overloaded, QueryEngine, naive_serve
from repro.serve.shards import ShardedStore
from repro.serve.workload import drive_load, key_groups, zipf_workload
from repro.trace.recorder import TraceRecorder


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


@pytest.fixture(scope="module")
def store(db):
    return ShardedStore.from_counts(db, 4)


def run(coro):
    return asyncio.run(coro)


class CountingStore:
    """A store that records the size of every lookup."""

    def __init__(self, store):
        self.inner, self.calls = store, []
        self.n_shards, self.shard_of = store.n_shards, store.shard_of

    def lookup(self, keys):
        self.calls.append(int(keys.size))
        return self.inner.lookup(keys)


class TestCorrectness:
    # A service cost puts each shard in service (flushes of BATCH_SIZE
    # keys); without one the turn's flush answers every key at once.
    @pytest.mark.parametrize("batch_size,service", [(1, 0.0), (16, 0.0), (64, 1e-3)])
    def test_matches_oracle(self, db, store, rng, monkeypatch, batch_size, service):
        monkeypatch.setattr(engine_mod, "BATCH_SIZE", batch_size)
        keys = rng.choice(db.kmers, size=400)
        expect = np.array([db.get(int(k)) for k in keys])
        # The group's misses span every shard: one answer assembled
        # from a chunk per shard, each key flushed exactly once.
        assert set(store.shard_of(keys).tolist()) == set(range(store.n_shards))

        async def go():
            cfg = EngineConfig(flush_service_time=service)
            async with QueryEngine(store, cfg) as engine:
                return await engine.query_many(keys), engine

        out, engine = run_virtual(go())
        assert np.array_equal(out, expect)
        assert engine.metrics.batched_keys == keys.size
        assert engine.inflight == 0 and not engine._requests

    def test_scalar_query_and_absent_key(self, db, store):
        key = int(db.kmers[0])

        async def go():
            async with QueryEngine(store) as engine:
                hit = await engine.query(key)
                miss = await engine.query((1 << 30) + 12345)
                return hit, miss

        hit, miss = run(go())
        assert hit == db.get(key)
        assert miss == 0

    def test_empty_batch(self, store):
        async def go():
            async with QueryEngine(store) as engine:
                return await engine.query_many(np.empty(0, dtype=np.uint64))

        assert run(go()).size == 0

    def test_concurrent_clients_agree_with_naive(self, db, store, rng):
        keys = rng.choice(db.kmers, size=2000)
        naive_out, _ = naive_serve(store, keys)

        async def go():
            cache = HotKeyCache(512, admit_threshold=2)
            async with QueryEngine(store, cache=cache) as engine:
                return (await drive_load(engine, key_groups(keys, 100),
                                         concurrency=4))[0]

        assert np.array_equal(run(go()), naive_out)

    def test_query_without_start_raises(self, store):
        engine = QueryEngine(store)
        with pytest.raises(RuntimeError, match="not started"):
            run(engine.query_many(np.array([1], dtype=np.uint64)))


class TestBatching:
    def test_requests_are_coalesced(self, db, store):
        keys = db.kmers[:300]

        async def go():
            async with QueryEngine(store) as engine:
                groups = [keys[i : i + 10] for i in range(0, 300, 10)]
                await asyncio.gather(*(engine.query_many(g) for g in groups))
                return engine.metrics

        metrics = run(go())
        assert metrics.n_queries == 300
        # 30 requests in one loop turn: one flush, one store lookup
        # (30 would be one per request without the turn's batching).
        assert metrics.n_batches == 1
        assert metrics.mean_batch_size == 300
        assert metrics.batched_keys == 300

    def test_zipf_stream_one_lookup_per_turn(self, db, store, monkeypatch):
        """A small Zipf stream through the threshold-2 cache: answers
        are the table's, the cache counters are the ones recorded when
        each turn still made one lookup per shard (the engine offers
        the same keys in the same order), and every turn without a
        service cost makes exactly one store lookup, of all its keys."""
        stream = zipf_workload(db, 4000, s=1.0, seed=0, miss_fraction=0.05)
        counting = CountingStore(store)
        turns = []
        flush = QueryEngine._flush

        def counted_flush(engine, requests):
            turns.append(sum(int(r.keys.size) for r in requests))
            flush(engine, requests)

        monkeypatch.setattr(QueryEngine, "_flush", counted_flush)

        async def go():
            cache = HotKeyCache(256, admit_threshold=2)
            async with QueryEngine(counting, cache=cache) as engine:
                out, _ = await drive_load(engine, key_groups(stream.keys, 64),
                                          concurrency=4)
                return out, cache.stats(), engine.metrics

        out, stats, metrics = run(go())
        assert np.array_equal(out, probe_sorted(db.kmers, db.counts, stream.keys))
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (2069, 1931, 162)
        assert len(turns) > 1 and counting.calls == turns
        assert metrics.n_batches == len(turns)
        assert metrics.batched_keys == sum(turns) == stats["misses"]

    def test_lone_query_answers_in_its_turn(self, db, store):
        """Zero service cost: nothing waits for company, so on virtual
        time a lone query is answered at the instant it was asked."""
        key = int(db.kmers[3])

        async def go():
            async with QueryEngine(store) as engine:
                return await engine.query(key), now()

        assert run_virtual(go()) == (db.get(key), 0.0)

    def test_no_window_still_answers(self, db, store, monkeypatch):
        """BATCH_SIZE bounds only a shard in service: without a service
        cost a group bigger than it is still one lookup."""
        monkeypatch.setattr(engine_mod, "BATCH_SIZE", 8)

        async def go():
            async with QueryEngine(store) as engine:
                return await engine.query_many(db.kmers[:64]), engine.metrics

        out, metrics = run(go())
        assert np.array_equal(out, db.counts[:64])
        assert metrics.n_batches == 1

    def test_in_service_flushes_split_at_batch_size(self, db, store, monkeypatch):
        """A shard in service is one server: keys queue behind its
        flush, and each flush takes chunks until it holds BATCH_SIZE."""
        monkeypatch.setattr(engine_mod, "BATCH_SIZE", 16)
        counting = CountingStore(store)

        async def go():
            cfg = EngineConfig(flush_service_time=1e-3)
            async with QueryEngine(counting, cfg) as engine:
                out, _ = await drive_load(engine, key_groups(db.kmers[:480], 8))
                return out, engine.metrics

        out, metrics = run_virtual(go())
        assert np.array_equal(out, db.counts[:480])
        assert metrics.n_queries == metrics.batched_keys == 480
        # A flush stops at the chunk that reaches 16 keys (a chunk is
        # at most one 8-key group), and keys did wait behind flushes.
        sizes = counting.calls
        assert max(sizes) <= 16 + 8 - 1 and len(sizes) >= 480 // 23
        assert metrics.queue_depth_max > 0


class TestBackpressure:
    def test_overloaded_raised_and_counted(self, db, store, monkeypatch):
        # Bound so small that the second in-flight batch must bounce; a
        # service cost keeps the first batch in flight while we probe.
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 4)

        async def go():
            cfg = EngineConfig(flush_service_time=5e-2)
            async with QueryEngine(store, cfg) as engine:
                first = asyncio.create_task(engine.query_many(db.kmers[:4]))
                await asyncio.sleep(0)  # let it enter the queues
                with pytest.raises(Overloaded) as exc:
                    await engine.query_many(db.kmers[4:8])
                await first
                return engine.metrics, exc.value

        metrics, err = run_virtual(go())
        assert metrics.rejected == 4
        assert err.limit == 4 and err.inflight == 4

    def test_rejection_does_not_leak_inflight(self, db, store, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 4)

        async def go():
            cfg = EngineConfig(flush_service_time=5e-2)
            async with QueryEngine(store, cfg) as engine:
                first = asyncio.create_task(engine.query_many(db.kmers[:4]))
                await asyncio.sleep(0)
                for _ in range(3):
                    with pytest.raises(Overloaded):
                        await engine.query_many(db.kmers[4:8])
                await first
                # Once drained, admission opens again.
                out = await engine.query_many(db.kmers[4:8])
                assert engine.inflight == 0
                return out

        assert (run_virtual(go()) > 0).all()

    def test_replay_counts_rejections_instead_of_raising(self, db, store, monkeypatch):
        monkeypatch.setattr(engine_mod, "BATCH_SIZE", 8)
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 8)

        async def go():
            async with QueryEngine(store) as engine:
                await drive_load(engine, key_groups(db.kmers[:256], 8),
                                 concurrency=16)
                return engine.metrics

        metrics = run(go())
        assert metrics.rejected > 0
        assert metrics.n_queries + metrics.rejected == 256


class TestCacheIntegration:
    def test_hot_keys_served_from_cache(self, db, store):
        hot = np.repeat(db.kmers[:2], 200)

        async def go():
            cache = HotKeyCache(64, admit_threshold=2)
            async with QueryEngine(store, cache=cache) as engine:
                # Sequential groups: the cache warms on the first group
                # and every later group must hit it.
                await drive_load(engine, key_groups(hot, 40), concurrency=1)
                return engine.metrics

        metrics = run(go())
        assert metrics.cache_hits > 0.5 * metrics.n_queries
        assert metrics.cache_hit_rate == pytest.approx(
            metrics.cache_hits / (metrics.cache_hits + metrics.cache_misses)
        )

    def test_cached_answers_stay_correct(self, db, store, rng):
        keys = rng.choice(db.kmers[:32], size=1500)  # heavy repetition
        expect = np.array([db.get(int(k)) for k in keys])

        async def go():
            cache = HotKeyCache(128, admit_threshold=1)
            async with QueryEngine(store, cache=cache) as engine:
                return (await drive_load(engine, key_groups(keys, 64)))[0]

        assert np.array_equal(run(go()), expect)

    def test_recorded_tiers_are_the_per_key_tiers(self, db, store, rng):
        keys = rng.choice(db.kmers[:48], size=1200)
        cache = HotKeyCache(8, admit_threshold=1)
        expected = []
        bulk = cache.get_many

        def per_key_then_bulk(ckeys):
            # The reference: per-key gets on a copy of the cache as it
            # stands when the engine asks.
            twin = copy.deepcopy(cache)
            for key in ckeys:
                expected.append(
                    TIER_STORE if twin.get(key) is None else TIER_T1)
            return bulk(ckeys)

        cache.get_many = per_key_then_bulk
        recorder = TraceRecorder()

        async def go():
            async with QueryEngine(store, cache=cache,
                                   recorder=recorder) as engine:
                return (await drive_load(engine, key_groups(keys, 40),
                                         concurrency=2))[0]

        out = run(go())
        assert np.array_equal(out, [db.get(int(k)) for k in keys])
        tiers = recorder.snapshot().tiers.tolist()
        assert tiers == expected
        assert set(tiers) == {TIER_T1, TIER_STORE}


class TestLifecycle:
    def test_stop_is_idempotent(self, store):
        async def go():
            engine = QueryEngine(store)
            await engine.start()
            await engine.start()  # no-op
            await engine.stop()
            await engine.stop()   # no-op

        run(go())

    @pytest.mark.parametrize("pause", [0.0, 0.01])
    def test_stop_fails_waiting_callers(self, db, store, pause):
        # pause 0: the keys still wait for their turn's flush when
        # stop() comes; 0.01: every shard holds them in its 0.2 s service.
        async def go():
            engine = QueryEngine(store, EngineConfig(flush_service_time=0.2))
            await engine.start()
            caller = asyncio.create_task(engine.query_many(db.kmers[:49]))
            await asyncio.sleep(pause)
            assert engine.inflight == 49
            await engine.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await asyncio.wait_for(caller, 1.0)
            return engine.inflight

        assert run_virtual(go()) == 0

    def test_stop_fails_keys_queued_behind_a_shard_in_service(self, db, store):
        counting = CountingStore(store)

        async def go():
            engine = QueryEngine(counting, EngineConfig(flush_service_time=0.2))
            await engine.start()
            callers = [asyncio.create_task(engine.query_many(db.kmers[:49]))]
            await asyncio.sleep(0.01)   # in service ...
            callers.append(asyncio.create_task(engine.query_many(db.kmers[49:98])))
            await asyncio.sleep(0.01)   # ... and the second batch behind it
            assert sum(q.qsize() for q in engine._queues) > 0
            handles = list(engine._serving.values())
            assert handles
            await engine.stop()
            assert all(h.cancelled() for h in handles) and not engine._serving
            results = await asyncio.gather(*callers, return_exceptions=True)
            await asyncio.sleep(1.0)    # no completion left to fire
            return results, engine.inflight

        results, inflight = run_virtual(go())
        assert all(isinstance(r, RuntimeError) and "stopped" in str(r)
                   for r in results)
        assert inflight == 0 and counting.calls == []

    def test_cancelled_caller_releases_inflight(self, db, store):
        async def go():
            cfg = EngineConfig(flush_service_time=5e-3)
            async with QueryEngine(store, cfg) as engine:
                caller = asyncio.create_task(engine.query_many(db.kmers[:40]))
                await asyncio.sleep(0)
                caller.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await caller
                await asyncio.sleep(0)
                assert engine.inflight == 40   # its keys are in service
                await asyncio.sleep(0.05)      # ... until their flush
                assert engine.inflight == 0
                return await engine.query_many(db.kmers[40:100])

        assert np.array_equal(run_virtual(go()), db.counts[40:100])

    def test_metrics_elapsed_set_by_replay(self, db, store):
        async def go():
            async with QueryEngine(store) as engine:
                _, engine.metrics.elapsed = await drive_load(
                    engine, key_groups(db.kmers[:100], 25))
                return engine.metrics

        metrics = run(go())
        assert metrics.elapsed > 0
        assert metrics.throughput_qps > 0


class TestNaive:
    def test_naive_matches_database(self, db, store, rng):
        keys = rng.choice(db.kmers, size=300)
        out, metrics = naive_serve(store, keys)
        expect = np.array([db.get(int(k)) for k in keys])
        assert np.array_equal(out, expect)
        assert metrics.n_queries == 300
        assert metrics.n_found == 300
        assert metrics.elapsed > 0
        assert metrics.latency.n == 300
