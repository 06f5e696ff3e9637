"""Tests for the cluster router: routing, retries, hedging, failover."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.node import ClusterNode, RangeStore, build_cluster
from repro.cluster import router as router_mod
from repro.cluster.router import ClusterRouter, RangeUnavailable
from repro.core.result import probe_sorted
from repro.core.serial import serial_count
from repro.serve.clock import run_virtual
from repro.serve.workload import drive_load, key_groups


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


def make_cluster(db, n_nodes=4, rf=2, seed=0, **kw):
    ring, nodes = build_cluster(db, n_nodes, rf=rf, seed=seed, **kw)
    return ring, nodes


def run(coro):
    return asyncio.run(coro)


class TestConfig:
    def test_router_rejects_missing_nodes(self, db):
        ring, nodes = make_cluster(db)
        nodes.pop(0)
        with pytest.raises(ValueError):
            ClusterRouter(ring, nodes)


class TestFaultFree:
    def test_exact_answers(self, db, rng):
        ring, nodes = make_cluster(db)
        router = ClusterRouter(ring, nodes)
        keys = rng.choice(db.kmers, size=1000)
        miss = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        stream = np.concatenate([keys.astype(np.uint64), miss])
        out, _ = run(drive_load(router, key_groups(stream, 128)))
        assert np.array_equal(out, probe_sorted(db.kmers, db.counts, stream))
        assert router.metrics.retries == 0
        assert router.metrics.failovers == 0

    def test_empty_batch(self, db):
        ring, nodes = make_cluster(db)
        router = ClusterRouter(ring, nodes)
        out = run(router.query_many(np.empty(0, dtype=np.uint64)))
        assert out.size == 0

    def test_scalar_query(self, db):
        ring, nodes = make_cluster(db)
        router = ClusterRouter(ring, nodes)
        key = int(db.kmers[7])
        assert run(router.query(key)) == int(db.counts[7])

    def test_rotation_spreads_load(self, db):
        """With RF=2 both replicas of a range should serve some traffic."""
        ring, nodes = make_cluster(db, n_nodes=3, rf=2)
        router = ClusterRouter(ring, nodes, hedging=False)

        async def go():
            for _ in range(20):
                await router.query_many(db.kmers[:64])
        run(go())
        served = {nid: n.metrics.n_queries for nid, n in nodes.items()}
        assert all(v > 0 for v in served.values())


class TestFailures:
    def test_down_node_skipped_up_front(self, db):
        ring, nodes = make_cluster(db, rf=2)
        router = ClusterRouter(ring, nodes)
        nodes[1].kill()
        out, _ = run(drive_load(router, key_groups(db.kmers, 256)))
        assert np.array_equal(out, db.counts)
        assert nodes[1].metrics.n_queries == 0  # never consulted

    def test_mid_flight_kill_retries_to_replica(self, db):
        ring, nodes = make_cluster(db, rf=2, service_time=2e-3)
        router = ClusterRouter(ring, nodes, hedging=False)

        async def go():
            task = asyncio.ensure_future(router.query_many(db.kmers[:512]))
            await asyncio.sleep(5e-4)
            nodes[0].kill()
            return await task

        out = run(go())
        assert np.array_equal(out, db.counts[:512])
        assert router.metrics.retries >= 1

    def test_all_replicas_down_raises_typed_error(self, db, monkeypatch):
        monkeypatch.setattr(router_mod, "MAX_RETRY_ROUNDS", 2)
        monkeypatch.setattr(router_mod, "BACKOFF_BASE", 1e-4)
        ring, nodes = make_cluster(db, n_nodes=2, rf=2)
        router = ClusterRouter(ring, nodes, hedging=False)
        nodes[0].kill()
        nodes[1].kill()
        with pytest.raises(RangeUnavailable) as exc:
            run(router.query_many(db.kmers[:10]))
        assert exc.value.n_keys == 10
        assert set(exc.value.node_ids) == {0, 1}
        assert router.metrics.failovers == 1

    def test_restart_during_backoff_recovers(self, db, monkeypatch):
        monkeypatch.setattr(router_mod, "BACKOFF_BASE", 2e-3)
        ring, nodes = make_cluster(db, n_nodes=2, rf=2)
        router = ClusterRouter(ring, nodes, hedging=False)
        nodes[0].kill()
        nodes[1].kill()

        async def go():
            task = asyncio.ensure_future(router.query_many(db.kmers[:64]))
            await asyncio.sleep(1e-3)
            nodes[0].restart()
            return await task

        out = run(go())
        assert np.array_equal(out, db.counts[:64])
        assert router.metrics.retries >= 1
        assert router.metrics.failovers == 0


class TestBatching:
    """One lookup per node per loop turn, whatever the node does."""

    def test_one_lookup_per_node_per_turn(self, db, monkeypatch):
        ring, nodes = make_cluster(db, n_nodes=4)
        router = ClusterRouter(ring, nodes)
        calls = []
        answer = ClusterNode.answer

        def counting(node, keys, elapsed=0.0):
            calls.append(node.node_id)
            return answer(node, keys, elapsed)

        monkeypatch.setattr(ClusterNode, "answer", counting)
        groups = key_groups(db.kmers[:512], 64)

        async def go():
            return await asyncio.gather(*map(router.query_many, groups))

        assert np.array_equal(np.concatenate(run(go())), db.counts[:512])
        assert len(groups) == 8
        assert len(calls) == len(set(calls)) <= 4

    def test_node_killed_between_queue_and_flush(self, db):
        ring, nodes = make_cluster(db, n_nodes=4)
        router = ClusterRouter(ring, nodes)
        groups = key_groups(db.kmers[:512], 64)

        async def go():
            tasks = [asyncio.ensure_future(router.query_many(g))
                     for g in groups]
            # Runs after every group has queued its round, before the
            # flush those rounds scheduled.
            asyncio.get_running_loop().call_soon(nodes[0].kill)
            return await asyncio.gather(*tasks)

        assert np.array_equal(np.concatenate(run(go())), db.counts[:512])
        assert router.metrics.retries >= 1

    def test_mid_flight_kill_reroutes_every_group(self, db, monkeypatch):
        """A delayed node holding keys of two groups in one lookup dies:
        both groups re-route and answer exactly."""
        ring, nodes = make_cluster(db, rf=2, service_time=2e-3)
        router = ClusterRouter(ring, nodes, hedging=False)
        lookups = []
        lookup = ClusterNode.lookup

        async def counting(node, keys):
            lookups.append(node.node_id)
            return await lookup(node, keys)

        monkeypatch.setattr(ClusterNode, "lookup", counting)
        groups = key_groups(db.kmers[:512], 256)

        async def go():
            tasks = [asyncio.ensure_future(router.query_many(g))
                     for g in groups]
            await asyncio.sleep(5e-4)
            nodes[0].kill()
            return await asyncio.gather(*tasks)

        assert np.array_equal(np.concatenate(run_virtual(go())),
                              db.counts[:512])
        assert lookups.count(0) == 1
        assert router.metrics.retries >= len(groups) == 2

    def test_flip_never_mutates_a_table_in_flight(self, db):
        """Retries of a batch in flight route by the table it started
        with, even after every interval flipped to an empty joiner."""
        ring, nodes = make_cluster(db, rf=2, service_time=2e-3)
        router = ClusterRouter(ring, nodes, hedging=False)
        router.add_node(ClusterNode(9, RangeStore.empty(), service_time=2e-3))
        table = ring.table()
        router.begin_rebalance(table.tokens, table.rows,
                               np.full_like(table.rows, 9))
        held = router._table
        rows = held.rows.copy()

        async def go():
            task = asyncio.ensure_future(router.query_many(db.kmers[:512]))
            await asyncio.sleep(5e-4)
            for i in range(table.n_tokens):
                router.flip_interval(i)
            nodes[0].kill()
            return await task

        out = run_virtual(go())
        assert router._table is not held
        assert np.array_equal(held.rows, rows)
        assert np.array_equal(out, db.counts[:512])
        assert router.metrics.retries >= 1


@pytest.fixture
def fixed_hedge_delay(monkeypatch):
    """Hedge after a fixed 1 ms: the estimator never leaves warmup."""
    monkeypatch.setattr(router_mod, "HEDGE_INITIAL_DELAY", 1e-3)
    monkeypatch.setattr(router_mod, "HEDGE_WARMUP", 10**9)


class TestHedging:
    """Queueing claims: these run on virtual time, exact for a seed."""

    def test_hedge_beats_straggler(self, db, fixed_hedge_delay):
        ring, nodes = make_cluster(db, rf=2, service_time=1e-4)
        straggler = 0
        nodes[straggler].degrade(200.0)  # 20 ms vs 0.1 ms healthy
        router = ClusterRouter(ring, nodes)
        out, _ = run_virtual(
            drive_load(router, key_groups(db.kmers[:2048], 256)))
        assert np.array_equal(out, db.counts[:2048])
        assert router.metrics.hedges_fired > 0
        assert router.metrics.hedges_won > 0
        # Client-visible p99 must sit far below the straggler's 20 ms.
        assert router.metrics.router.latency.quantile(0.99) < 15e-3

    def test_no_hedge_when_disabled(self, db):
        ring, nodes = make_cluster(db, rf=2, service_time=1e-4)
        nodes[0].degrade(50.0)
        router = ClusterRouter(ring, nodes, hedging=False)
        out, _ = run(drive_load(router, key_groups(db.kmers[:512], 256)))
        assert np.array_equal(out, db.counts[:512])
        assert router.metrics.hedges_fired == 0

    def test_hedge_delay_adapts_from_subrequest_latency(self, db, monkeypatch):
        monkeypatch.setattr(router_mod, "HEDGE_WARMUP", 4)
        monkeypatch.setattr(router_mod, "HEDGE_MIN_DELAY", 1e-4)
        monkeypatch.setattr(router_mod, "HEDGE_MAX_DELAY", 1.0)
        ring, nodes = make_cluster(db, rf=2, service_time=1e-3)
        router = ClusterRouter(ring, nodes)
        assert router.hedge_delay() == router_mod.HEDGE_INITIAL_DELAY
        run_virtual(drive_load(router, key_groups(db.kmers[:1024], 128)))
        # After warmup the delay tracks ~2x the 1 ms node service time,
        # not the much larger whole-batch client latency.
        delay = router.hedge_delay()
        assert 1e-3 < delay < 2e-2

    def test_hedged_primary_down_falls_back(self, db, fixed_hedge_delay):
        """Primary dies mid-hedge-wait: the batch must still answer."""
        ring, nodes = make_cluster(db, rf=2, service_time=5e-3)
        router = ClusterRouter(ring, nodes)

        async def go():
            task = asyncio.ensure_future(router.query_many(db.kmers[:256]))
            await asyncio.sleep(2e-3)  # past the hedge delay
            nodes[0].kill()
            return await task

        out = run_virtual(go())
        assert np.array_equal(out, db.counts[:256])


class TestMembership:
    def test_add_remove_node(self, db):
        ring, nodes = make_cluster(db)
        router = ClusterRouter(ring, nodes)
        joiner = ClusterNode(9, RangeStore.empty())
        router.add_node(joiner)
        with pytest.raises(ValueError):
            router.add_node(joiner)
        assert router.remove_node(9) is joiner
        with pytest.raises(ValueError):
            router.remove_node(0)  # still in the ring

    def test_describe(self, db):
        ring, nodes = make_cluster(db)
        router = ClusterRouter(ring, nodes)
        doc = router.describe()
        assert doc["ring"]["rf"] == 2
        assert not doc["rebalancing"]
        assert set(doc["nodes"]) == {"0", "1", "2", "3"}


class TestOverheadBench:
    def test_engine_and_router_drives_alternate(self, db, monkeypatch):
        """A slow host window over one run of drives must not land on
        one side only: the bench interleaves engine and router drives
        and keeps the best of each."""
        from repro.cluster import bench as bench_mod
        from repro.serve.engine import QueryEngine

        keys = db.kmers[:64]
        oracle = probe_sorted(db.kmers, db.counts, keys)
        order = []

        async def fake_drive(target, groups, **kwargs):
            side = "engine" if isinstance(target, QueryEngine) else "router"
            order.append(side)
            return oracle, 1.0 + len(order)

        monkeypatch.setattr(bench_mod, "drive_load", fake_drive)
        doc = bench_mod._bench_overhead(
            db, [keys], oracle, n_nodes=4, rf=2, vnodes=8, seed=0,
            concurrency=1, repeats=3)
        assert order == ["engine", "router"] * 3
        assert doc["answers_match"]
        assert doc["engine_seconds"] == 2.0 and doc["router_seconds"] == 3.0
