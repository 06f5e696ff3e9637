"""The one load driver, run against an engine and a cluster router."""

from __future__ import annotations

import asyncio
from contextlib import asynccontextmanager

import numpy as np
import pytest

from repro.cluster.node import build_cluster
from repro.cluster.router import ClusterRouter
from repro.core.result import probe_sorted
from repro.core.serial import serial_count
from repro.serve import engine as engine_mod
from repro.serve.engine import EngineConfig, Overloaded, QueryEngine
from repro.serve.shards import ShardedStore
from repro.serve.workload import drive_load, key_groups
from repro.tenant.registry import QuotaExceeded


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


@asynccontextmanager
async def engine_target(db):
    cfg = EngineConfig()
    async with QueryEngine(ShardedStore.from_counts(db, 4), cfg) as engine:
        yield engine


@asynccontextmanager
async def router_target(db):
    yield ClusterRouter(*build_cluster(db, 4, rf=2, seed=0))


TARGETS = pytest.mark.parametrize(
    "open_target", [engine_target, router_target], ids=["engine", "router"])


class RejectsFirst:
    """Any ``query_many`` target, refusing each group's first submission."""

    def __init__(self, inner, error):
        self.inner, self.error, self.seen, self.calls = inner, error, set(), 0

    async def query_many(self, keys, **kwargs):
        self.calls += 1
        if keys.tobytes() not in self.seen:
            self.seen.add(keys.tobytes())
            raise self.error
        return await self.inner.query_many(keys, **kwargs)


def stream(db, rng, n=1500):
    hits = rng.choice(db.kmers, size=n)
    misses = rng.integers(0, 2**63, size=n // 10, dtype=np.uint64)
    keys = np.concatenate([hits.astype(np.uint64), misses])
    rng.shuffle(keys)
    return keys


@TARGETS
@pytest.mark.parametrize("concurrency", [1, 16])
def test_answers_come_back_in_stream_order(db, rng, open_target, concurrency):
    keys = stream(db, rng)

    async def go():
        async with open_target(db) as target:
            return await drive_load(target, key_groups(keys, 37),
                                    concurrency=concurrency)

    answers, elapsed = asyncio.run(go())
    assert np.array_equal(answers, probe_sorted(db.kmers, db.counts, keys))
    assert elapsed > 0


@TARGETS
def test_empty_stream(db, open_target):
    async def go():
        async with open_target(db) as target:
            return await drive_load(target, key_groups(np.empty(0, np.uint64), 8))

    answers, elapsed = asyncio.run(go())
    assert answers.size == 0 and answers.dtype == np.int64
    assert elapsed >= 0


@TARGETS
@pytest.mark.parametrize("error", [Overloaded(8, 8, retry_after=1e-4),
                                   QuotaExceeded("t", 8, retry_after=1e-4)],
                         ids=["overloaded", "quota"])
def test_rejected_groups_answer_zeros(db, open_target, error):
    keys = db.kmers[:64]

    async def go():
        async with open_target(db) as target:
            flaky = RejectsFirst(target, error)
            first, _ = await drive_load(flaky, key_groups(keys, 8))
            again, _ = await drive_load(flaky, key_groups(keys, 8))
            return first, again, flaky.calls

    first, again, calls = asyncio.run(go())
    assert not first.any() and first.size == 64   # refused: zeros, in place
    assert np.array_equal(again, db.counts[:64])  # admitted the second time
    assert calls == 16                            # never resubmitted


@TARGETS
def test_resubmit_backs_off_until_admitted(db, open_target):
    keys = db.kmers[:64]

    async def go():
        async with open_target(db) as target:
            flaky = RejectsFirst(target, Overloaded(8, 8, retry_after=1e-4))
            lat = np.zeros(8)
            answers, _ = await drive_load(flaky, key_groups(keys, 8),
                                          concurrency=3, resubmit=True,
                                          latencies=lat)
            return answers, flaky.calls, lat

    answers, calls, lat = asyncio.run(go())
    assert np.array_equal(answers, db.counts[:64])
    assert calls == 16                       # each group: one refusal, one answer
    assert (lat >= 1e-4).all()               # the back-off is inside the latency


def test_real_overload_resubmits_to_a_complete_answer(db, monkeypatch):
    monkeypatch.setattr(engine_mod, "BATCH_SIZE", 8)
    monkeypatch.setattr(engine_mod, "MAX_INFLIGHT", 8)
    keys = db.kmers[:256]

    async def go():
        cfg = EngineConfig()
        async with QueryEngine(ShardedStore.from_counts(db, 4), cfg) as engine:
            answers, _ = await drive_load(engine, key_groups(keys, 8),
                                          concurrency=16, resubmit=True)
            return answers, engine.metrics

    answers, metrics = asyncio.run(go())
    assert metrics.rejected > 0
    assert np.array_equal(answers, db.counts[:256])


def test_paced_groups_are_submitted_on_schedule(db):
    """Open loop: group i is due at i * interval, answered or not."""
    interval = 5e-3

    async def go():
        cfg = EngineConfig(flush_service_time=3 * interval)
        store = ShardedStore.from_counts(db, 1)
        async with QueryEngine(store, cfg) as engine:
            groups = key_groups(db.kmers[:80], 8)
            lat = np.zeros(len(groups))
            answers, elapsed = await drive_load(
                engine, groups, concurrency=len(groups), interval=interval,
                latencies=lat)
            return answers, elapsed, lat

    answers, elapsed, lat = asyncio.run(go())
    assert np.array_equal(answers, db.counts[:80])
    # Never ahead of the pace; and each answer is slower than the pace,
    # so only overlapping submissions make the latencies outweigh the
    # wall clock.
    assert elapsed >= 9 * interval
    assert (lat >= 3 * interval).all() and lat.sum() > elapsed


def test_tenant_is_forwarded_only_when_given(db):
    seen = []

    class Spy:
        async def query_many(self, keys, **kwargs):
            seen.append(kwargs)
            return np.zeros(keys.size, dtype=np.int64)

    asyncio.run(drive_load(Spy(), key_groups(db.kmers[:8], 8)))
    asyncio.run(drive_load(Spy(), key_groups(db.kmers[:8], 8), tenant="gold"))
    assert seen == [{}, {"tenant": "gold"}]
