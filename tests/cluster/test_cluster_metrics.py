"""Tests for cluster metrics rollup and snapshots."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.metrics import ClusterMetrics, rollup_nodes
from repro.cluster.node import build_cluster
from repro.cluster.router import ClusterRouter
from repro.core.serial import serial_count


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


def test_rollup_merges_histograms(db):
    ring, nodes = build_cluster(db, 3, rf=2, seed=0)

    async def go():
        for node in nodes.values():
            await node.lookup(db.kmers[:100])
    asyncio.run(go())

    total = rollup_nodes(nodes)
    assert total.n_queries == 300
    assert total.latency.n == sum(n.metrics.latency.n for n in nodes.values())
    # Each key is resident on exactly rf=2 of the 3 nodes.
    assert total.n_found == 200


def test_rollup_carries_every_counter_a_node_carries(db):
    """The rollup used to drop cache and per-cause counters, so a
    snapshot could read ``rejected: 40, rejected_by_cause: {}``."""
    ring, nodes = build_cluster(db, 3, rf=2, seed=0)
    for nid, node in nodes.items():
        node.metrics.reject(10 + nid, "overload")
        node.metrics.reject(3, "quota")
        node.metrics.cache_hits += 5
        node.metrics.cache_misses += 2
        node.metrics.observe_queue_depth(nid)
    total = rollup_nodes(nodes)
    assert total.rejected == 33 + 9
    assert total.rejected_by_cause == {"overload": 33, "quota": 9}
    assert sum(total.rejected_by_cause.values()) == total.rejected
    assert (total.cache_hits, total.cache_misses) == (15, 6)
    assert total.queue_depth_max == 2
    queue = ClusterMetrics().snapshot(nodes)["rollup"]["queue"]
    assert sum(queue["rejected_by_cause"].values()) == queue["rejected"] == 42


def test_hedge_win_rate():
    m = ClusterMetrics()
    assert m.hedge_win_rate == 0.0
    m.hedges_fired = 4
    m.hedges_won = 3
    assert m.hedge_win_rate == pytest.approx(0.75)


def test_snapshot_shape(db):
    ring, nodes = build_cluster(db, 3, rf=2, seed=0)
    router = ClusterRouter(ring, nodes)
    out = asyncio.run(router.query_many(db.kmers[:200]))
    assert np.array_equal(out, db.counts[:200])

    doc = router.metrics.snapshot(nodes)
    assert doc["router"]["n_queries"] == 200
    assert set(doc["hedging"]) == {"fired", "won", "win_rate"}
    assert set(doc["nodes"]) == {"0", "1", "2"}
    assert "rollup" in doc
    assert doc["rollup"]["n_queries"] == 200
    # Without nodes: no per-node sections.
    lean = router.metrics.snapshot()
    assert "nodes" not in lean and "rollup" not in lean
