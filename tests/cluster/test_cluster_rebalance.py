"""Tests for live rebalancing: plans, exactness under movement, chaos."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.node import ClusterNode, NodeState, RangeStore, build_cluster
from repro.cluster.rebalance import RebalanceError, plan_rebalance, rebalance
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter
from repro.core.serial import serial_count


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


def run(coro):
    return asyncio.run(coro)


class TestPlan:
    def test_identical_rings_no_moves(self):
        ring = HashRing(range(4), rf=2, seed=0)
        plan = plan_rebalance(ring.table(), ring.table())
        assert plan.moves == ()

    def test_join_plan_covers_all_changed_keys(self, rng):
        old = HashRing(range(4), rf=2, vnodes=8, seed=1)
        new = old.with_node(4)
        plan = plan_rebalance(old.table(), new.table())
        assert plan.moves  # a join always changes some intervals
        keys = rng.integers(0, 2**63, size=5000, dtype=np.uint64)
        pos = HashRing.positions(keys)
        before = old.table().replicas_at(pos)
        after = new.table().replicas_at(pos)
        changed = (np.sort(before, axis=1) != np.sort(after, axis=1)).any(axis=1)
        # Every changed key's position must land in some move interval.
        idx = np.searchsorted(plan.tokens, pos, side="left") % plan.tokens.size
        move_idx = {m.index for m in plan.moves}
        covered = np.isin(idx, list(move_idx))
        assert covered[changed].all()

    def test_plan_adds_and_drops_disjoint(self):
        old = HashRing(range(5), rf=2, vnodes=8, seed=2)
        new = old.with_node(5).without_node(0)
        plan = plan_rebalance(old.table(), new.table())
        for move in plan.moves:
            assert not (set(move.adds) & set(move.drops))
            assert set(move.adds).isdisjoint(move.sources)


class TestRebalance:
    def test_join_then_leave_exact(self, db):
        ring, nodes = build_cluster(db, 4, rf=2, seed=0)
        router = ClusterRouter(ring, nodes)

        async def go():
            router.add_node(ClusterNode(4, RangeStore.empty()))
            rep1 = await rebalance(router, router.ring.with_node(4),
                                   chunk_keys=512)
            assert rep1.joined == (4,)
            assert rep1.moved_keys > 0
            out = await router.query_many(db.kmers)
            assert np.array_equal(out, db.counts)

            rep2 = await rebalance(router, router.ring.without_node(0),
                                   chunk_keys=512)
            assert rep2.left == (0,)
            router.remove_node(0)
            out = await router.query_many(db.kmers)
            assert np.array_equal(out, db.counts)

        run(go())
        assert router.metrics.rebalances == 2
        # RF invariant restored: exactly 2 copies of every key resident.
        total = sum(n.n_keys for n in router.nodes.values())
        assert total == 2 * db.n_distinct

    def test_exact_while_moving(self, db):
        """Queries issued concurrently with the copy stream stay exact."""
        ring, nodes = build_cluster(db, 4, rf=2, seed=3, service_time=1e-4)
        router = ClusterRouter(ring, nodes)

        async def go():
            router.add_node(ClusterNode(4, RangeStore.empty(),
                                        service_time=1e-4))
            reb = asyncio.create_task(
                rebalance(router, router.ring.with_node(4), chunk_keys=256))
            sweeps = 0
            while not reb.done():
                out = await router.query_many(db.kmers)
                assert np.array_equal(out, db.counts)
                sweeps += 1
            await reb
            assert sweeps >= 1
            out = await router.query_many(db.kmers)
            assert np.array_equal(out, db.counts)

        run(go())

    def test_evict_dead_node_with_rf2(self, db):
        """A dead node leaves; survivors re-replicate from live copies."""
        ring, nodes = build_cluster(db, 4, rf=2, seed=5)
        router = ClusterRouter(ring, nodes)
        nodes[3].kill()

        async def go():
            rep = await rebalance(router, router.ring.without_node(3),
                                  chunk_keys=512)
            assert rep.sources_skipped > 0  # the corpse was passed over
            router.remove_node(3)
            out = await router.query_many(db.kmers)
            assert np.array_equal(out, db.counts)

        run(go())
        total = sum(n.n_keys for n in router.nodes.values())
        assert total == 2 * db.n_distinct
        assert all(n.state is NodeState.UP for n in router.nodes.values())

    def test_unregistered_joiner_rejected(self, db):
        ring, nodes = build_cluster(db, 3, rf=2, seed=0)
        router = ClusterRouter(ring, nodes)
        with pytest.raises(ValueError, match="not registered"):
            run(rebalance(router, ring.with_node(7)))

    def test_all_sources_down_raises(self, db):
        ring, nodes = build_cluster(db, 2, rf=2, seed=0)
        router = ClusterRouter(ring, nodes)
        nodes[0].kill()
        nodes[1].kill()

        async def go():
            router.add_node(ClusterNode(2, RangeStore.empty()))
            with pytest.raises(RebalanceError, match="down"):
                await rebalance(router, router.ring.with_node(2))

        run(go())

    def test_chunk_keys_validated(self, db):
        ring, nodes = build_cluster(db, 2, rf=1, seed=0)
        router = ClusterRouter(ring, nodes)
        with pytest.raises(ValueError):
            run(rebalance(router, ring, chunk_keys=0))


class TestChaosKillDuringRebalance:
    def test_kill_source_mid_rebalance_still_exact(self, db):
        """RF=2: a node dies *while* data is streaming; answers stay exact."""
        ring, nodes = build_cluster(db, 4, rf=2, seed=7, service_time=5e-5)
        router = ClusterRouter(ring, nodes)

        async def go():
            router.add_node(ClusterNode(4, RangeStore.empty(),
                                        service_time=5e-5))
            reb = asyncio.create_task(
                rebalance(router, router.ring.with_node(4), chunk_keys=128))
            await asyncio.sleep(1e-3)
            nodes[2].kill()
            while not reb.done():
                out = await router.query_many(db.kmers)
                assert np.array_equal(out, db.counts)
            await reb
            out = await router.query_many(db.kmers)
            assert np.array_equal(out, db.counts)

        run(go())
        assert router.metrics.failovers == 0
