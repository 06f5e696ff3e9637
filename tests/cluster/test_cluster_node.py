"""Tests for cluster nodes: range stores and health states."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.node import (
    ClusterNode,
    NodeDown,
    NodeState,
    RangeStore,
    build_cluster,
)
from repro.cluster.ring import HashRing
from repro.core.serial import serial_count


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


def run(coro):
    return asyncio.run(coro)


class TestRangeStore:
    def test_lookup_matches_oracle(self, db):
        store = RangeStore(db.kmers, db.counts)
        assert np.array_equal(store.lookup(db.kmers), db.counts)
        absent = np.array([db.kmers.max() + 1], dtype=np.uint64)
        assert store.lookup(absent).tolist() == [0]

    def test_empty(self):
        store = RangeStore.empty()
        assert store.n_keys == 0
        assert store.lookup(np.array([3], dtype=np.uint64)).tolist() == [0]

    def test_extract_install_drop_roundtrip(self, db):
        src = RangeStore(db.kmers, db.counts)
        dst = RangeStore.empty()
        pos = HashRing.positions(db.kmers)
        lo, hi = int(np.median(pos.astype(np.float64))), int(pos.max())
        keys, counts = src.extract(lo, hi)
        assert keys.size > 0
        dst.install(keys, counts)
        assert np.array_equal(dst.lookup(keys), counts)
        removed = src.drop(lo, hi)
        assert removed == keys.size
        assert (src.lookup(keys) == 0).all()
        # Source still answers everything outside the dropped interval.
        rest = np.setdiff1d(db.kmers, keys)
        assert np.array_equal(src.lookup(rest),
                              db.counts[np.isin(db.kmers, rest)])

    def test_install_empty_chunk_is_noop(self, db):
        store = RangeStore(db.kmers, db.counts)
        assert store.install(np.empty(0, dtype=np.uint64),
                             np.empty(0, dtype=np.int64)) == 0
        assert store.n_keys == db.n_distinct


class TestClusterNode:
    def test_lookup_up(self, db):
        node = ClusterNode(0, RangeStore(db.kmers, db.counts))
        out = run(node.lookup(db.kmers[:100]))
        assert np.array_equal(out, db.counts[:100])
        assert node.metrics.n_queries == 100

    def test_down_raises(self, db):
        node = ClusterNode(1, RangeStore(db.kmers, db.counts))
        node.kill()
        assert node.state is NodeState.DOWN
        with pytest.raises(NodeDown):
            run(node.lookup(db.kmers[:10]))

    def test_kill_lands_on_inflight_lookup(self, db):
        node = ClusterNode(2, RangeStore(db.kmers, db.counts),
                           service_time=5e-3)

        async def go():
            task = asyncio.ensure_future(node.lookup(db.kmers[:10]))
            await asyncio.sleep(1e-3)
            node.kill()
            with pytest.raises(NodeDown):
                await task

        run(go())

    def test_degrade_dilates_delay(self, db):
        node = ClusterNode(3, RangeStore(db.kmers, db.counts),
                           service_time=1e-3)
        assert node.delay == pytest.approx(1e-3)
        node.degrade(10.0)
        assert node.state is NodeState.DEGRADED
        assert node.delay == pytest.approx(1e-2)
        node.restart()
        assert node.state is NodeState.UP
        assert node.delay == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            node.degrade(0.5)


class TestBuildCluster:
    def test_every_key_on_rf_nodes(self, db):
        ring, nodes = build_cluster(db, 5, rf=3, seed=2)
        total = sum(n.n_keys for n in nodes.values())
        assert total == 3 * db.n_distinct
        replicas = ring.replicas_batch(db.kmers)
        for nid, node in nodes.items():
            want = int((replicas == nid).any(axis=1).sum())
            assert node.n_keys == want

    def test_each_node_answers_its_slice(self, db):
        ring, nodes = build_cluster(db, 4, rf=2, seed=0)
        replicas = ring.replicas_batch(db.kmers)
        for nid, node in nodes.items():
            mask = (replicas == nid).any(axis=1)
            out = run(node.lookup(db.kmers[mask]))
            assert np.array_equal(out, db.counts[mask])
