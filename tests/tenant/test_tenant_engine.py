"""Tenant-aware engine integration: quotas, shedding, tagged caching."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.serve import engine as engine_mod
from repro.serve.cache import HotKeyCache
from repro.serve.clock import run_virtual
from repro.serve.engine import EngineConfig, Overloaded, QueryEngine
from repro.serve.shards import ShardedStore
from repro.tenant import QuotaExceeded, TenantRegistry, TenantSpec
from repro.tenant.scheduler import DRRQueue


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


@pytest.fixture(scope="module")
def store(db):
    return ShardedStore.from_counts(db, 4)


def run(coro):
    return asyncio.run(coro)


def registry():
    return TenantRegistry([
        TenantSpec("gold", weight=4.0, slo_ms=100.0),
        TenantSpec("bronze", weight=1.0, rate=100.0, burst=200.0,
                   priority=1),
    ])


class TestAdmission:
    def test_quota_rejection_before_queue_depth(self, db, store):
        async def go():
            engine = QueryEngine(store, tenants=registry())
            async with engine:
                await engine.query_many(db.kmers[:200], tenant="bronze")
                with pytest.raises(QuotaExceeded) as exc:
                    await engine.query_many(db.kmers[:50], tenant="bronze")
                return engine, exc.value

        engine, err = run(go())
        assert err.tenant == "bronze" and err.retry_after > 0
        # The rejection consumed no queue depth and was tallied under
        # its cause, globally and on the tenant.
        assert engine.inflight == 0
        assert engine.metrics.rejected_by_cause == {"quota": 50}
        tm = engine.tenant_metrics.get("bronze")
        assert tm.rejected_by_cause == {"quota": 50}
        assert tm.n_queries == 200

    def test_priority_class_sheds_early_and_refunds_quota(self, db, store,
                                                          monkeypatch):
        # bronze (priority 1) sees MAX_INFLIGHT >> 1 = 64 while the engine
        # still has headroom for gold at 128.
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 128)

        async def go():
            cfg = EngineConfig(flush_service_time=5e-2)
            engine = QueryEngine(store, cfg, tenants=registry())
            async with engine:
                first = asyncio.create_task(
                    engine.query_many(db.kmers[:60], tenant="bronze"))
                await asyncio.sleep(0)
                with pytest.raises(Overloaded) as exc:
                    await engine.query_many(db.kmers[60:130], tenant="bronze")
                ok = await engine.query_many(db.kmers[60:124], tenant="gold")
                await first
                return engine, exc.value, ok

        engine, err, gold_out = run_virtual(go())
        assert err.limit == 64
        assert err.retry_after > 0
        assert engine.metrics.rejected_by_cause == {"shed": 70}
        assert gold_out.size == 64  # class 0 still admitted
        # The shed request's bucket debit was refunded: bronze still
        # holds its full 200-key burst minus the 60 admitted.
        bucket = engine.tenants.bucket("bronze")
        assert bucket.tokens >= 130.0

    def test_overload_cause_for_class_zero(self, db, store, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 32)

        async def go():
            cfg = EngineConfig(flush_service_time=5e-2)
            engine = QueryEngine(store, cfg, tenants=registry())
            async with engine:
                first = asyncio.create_task(
                    engine.query_many(db.kmers[:30], tenant="gold"))
                await asyncio.sleep(0)
                with pytest.raises(Overloaded):
                    await engine.query_many(db.kmers[30:40], tenant="gold")
                await first
                return engine

        engine = run_virtual(go())
        assert engine.metrics.rejected_by_cause == {"overload": 10}
        assert engine.tenant_metrics.get("gold").rejected_by_cause == {
            "overload": 10}

    def test_unknown_tenant_rejected(self, db, store):
        async def go():
            engine = QueryEngine(store, tenants=registry())
            async with engine:
                with pytest.raises(KeyError):
                    await engine.query_many(db.kmers[:4], tenant="iron")

        run(go())

    def test_untenanted_requests_still_flow(self, db, store):
        async def go():
            engine = QueryEngine(store, tenants=registry())
            async with engine:
                return await engine.query_many(db.kmers[:50])

        assert (run(go()) > 0).all()


class TestFairQueues:
    def test_drr_queues_installed_with_tenants(self, store):
        async def go(cfg):
            engine = QueryEngine(store, cfg, tenants=registry())
            async with engine:
                return [type(q) for q in engine._queues]

        kinds = run(go(EngineConfig(flush_service_time=1e-3)))
        assert len(kinds) == store.n_shards
        assert all(k is DRRQueue for k in kinds)
        # Without a service cost nothing waits: the turn's flush
        # answers every key, so no shard keeps a queue.
        assert run(go(EngineConfig())) == []

    def test_fifo_queues_when_fair_scheduling_off(self, store):
        async def go():
            cfg = EngineConfig(fair_scheduling=False, flush_service_time=1e-3)
            engine = QueryEngine(store, cfg, tenants=registry())
            async with engine:
                return [type(q) for q in engine._queues]

        kinds = run(go())
        assert len(kinds) == store.n_shards
        assert all(k is engine_mod._Fifo for k in kinds)

    def test_answers_exact_under_drr(self, db, store, rng):
        keys = rng.choice(db.kmers, size=600)
        expect = np.array([db.get(int(k)) for k in keys])
        unlimited = TenantRegistry([TenantSpec("gold", weight=4.0),
                                    TenantSpec("silver", weight=1.0)])

        async def go():
            cfg = EngineConfig(flush_service_time=1e-3)
            engine = QueryEngine(store, cfg, tenants=unlimited)
            async with engine:
                groups = [keys[i:i + 50] for i in range(0, 600, 50)]
                outs = await asyncio.gather(*(
                    engine.query_many(g, tenant="gold" if i % 2 else "silver")
                    for i, g in enumerate(groups)))
                return np.concatenate(outs)

        assert np.array_equal(run_virtual(go()), expect)


class TestTenantTaggedCache:
    def test_entries_are_keyed_per_tenant(self, db, store):
        hot = np.repeat(db.kmers[:4], 30)

        async def go():
            cache = HotKeyCache(64, admit_threshold=1)
            engine = QueryEngine(store, cache=cache, tenants=registry())
            async with engine:
                await engine.query_many(hot, tenant="gold")
                await engine.query_many(hot, tenant="gold")
                gold_hits = engine.tenant_metrics.get("gold").cache_hits
                # A second tenant must not inherit gold's hot set.
                await engine.query_many(hot[:40], tenant="bronze")
                bronze = engine.tenant_metrics.get("bronze")
                return cache, gold_hits, bronze

        cache, gold_hits, bronze = run(go())
        assert gold_hits > 0
        assert bronze.cache_hits == 0
        assert ("gold", int(db.kmers[0])) in cache
        assert int(db.kmers[0]) not in cache  # no untagged aliases

    def test_invalidate_many_drops_every_tenants_copy(self, db):
        cache = HotKeyCache(16)
        kmer = int(db.kmers[0])
        cache.offer(("gold", kmer), 3)
        cache.offer(("bronze", kmer), 3)
        cache.offer(kmer, 3)
        assert cache.invalidate_many([kmer]) == 3
        assert len(cache) == 0


class TestTenantMetricsMirroring:
    def test_single_tenant_run_mirrors_globals(self, db, store):
        async def go():
            cache = HotKeyCache(64, admit_threshold=1)
            engine = QueryEngine(store, cache=cache, tenants=registry())
            async with engine:
                for i in range(0, 300, 50):
                    await engine.query_many(db.kmers[i % 100:i % 100 + 50],
                                            tenant="gold")
                return engine

        engine = run(go())
        g, t = engine.metrics, engine.tenant_metrics.get("gold")
        assert t.n_queries == g.n_queries == 300
        assert t.n_found == g.n_found
        assert t.cache_hits == g.cache_hits
        assert t.cache_misses == g.cache_misses
        assert t.latency.n == g.latency.n

    def test_slo_gauge_in_snapshot(self, db, store):
        async def go():
            engine = QueryEngine(store, tenants=registry())
            async with engine:
                await engine.query_many(db.kmers[:40], tenant="gold")
                return engine.tenant_metrics.snapshot()

        snap = run(go())
        assert snap["gold"]["slo"]["target_ms"] == 100.0
        assert 0.0 <= snap["gold"]["slo"]["attainment"] <= 1.0
        assert "slo" not in snap.get("bronze", {})


class TestRetryHints:
    def test_cold_hint_clamped_to_floor(self, db, store, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 16)

        async def go():
            cfg = EngineConfig(flush_service_time=5e-2)
            engine = QueryEngine(store, cfg, tenants=registry())
            async with engine:
                first = asyncio.create_task(
                    engine.query_many(db.kmers[:16], tenant="gold"))
                await asyncio.sleep(0)
                with pytest.raises(Overloaded) as exc:
                    await engine.query_many(db.kmers[16:24], tenant="gold")
                await first
                return exc.value

        err = run_virtual(go())
        # No flush has drained yet: the hint is the floor.
        assert engine_mod.RETRY_FLOOR <= err.retry_after <= 5.0
        assert err.retry_after == engine_mod.RETRY_FLOOR

    def test_warm_hint_follows_the_drain_rate(self, db, monkeypatch):
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 64)
        service = 1e-2
        one_shard = ShardedStore.from_counts(db, 1)

        async def go():
            cfg = EngineConfig(flush_service_time=service)
            async with QueryEngine(one_shard, cfg) as engine:
                # One flush each, completing `service` apart.
                for lo, hi in ((0, 16), (16, 48), (48, 56)):
                    await engine.query_many(db.kmers[lo:hi])
                first = asyncio.create_task(engine.query_many(db.kmers[:60]))
                await asyncio.sleep(0)
                with pytest.raises(Overloaded) as exc:
                    await engine.query_many(db.kmers[60:70])
                await first
                return exc.value

        err = run_virtual(go())
        # The first flush only starts the clock; then an EWMA of
        # keys / seconds between flushes.
        rate = 32 / service
        rate = 0.8 * rate + 0.2 * (8 / service)
        assert err.retry_after == pytest.approx(10 / rate)

    def test_shed_hint_counts_against_the_class_bound(self, db, monkeypatch):
        """A shed request waits for room under its class's bound,
        ``MAX_INFLIGHT >> priority``, not under the engine-wide one."""
        monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 64)
        service = 1e-2
        one_shard = ShardedStore.from_counts(db, 1)
        tenants = TenantRegistry([TenantSpec("gold"), TenantSpec("iron", priority=2)])

        async def go():
            cfg = EngineConfig(flush_service_time=service)
            async with QueryEngine(one_shard, cfg, tenants=tenants) as engine:
                for lo, hi in ((0, 16), (16, 48), (48, 56)):
                    await engine.query_many(db.kmers[lo:hi], tenant="gold")
                first = asyncio.create_task(
                    engine.query_many(db.kmers[:40], tenant="gold"))
                await asyncio.sleep(0)
                with pytest.raises(Overloaded) as exc:
                    await engine.query_many(db.kmers[40:50], tenant="iron")
                await first
                return exc.value, engine.metrics.rejected_by_cause

        err, causes = run_virtual(go())
        assert causes == {"shed": 10}
        assert (err.inflight, err.limit) == (40, 16)
        rate = 0.8 * (32 / service) + 0.2 * (8 / service)
        assert err.retry_after == pytest.approx((40 + 10 - 16) / rate)

    def test_shards_finishing_together_count_together(self, db, store):
        """Four shards in service finish each flush in one instant; the
        drain rate counts all their keys, not the first shard's."""
        service = 1e-2

        async def go():
            cfg = EngineConfig(flush_service_time=service)
            async with QueryEngine(store, cfg) as engine:
                for lo in range(0, 640, 64):
                    await engine.query_many(db.kmers[lo:lo + 64])
                return engine._drain_rate

        assert run_virtual(go()) == pytest.approx(64 / service, rel=0.1)
