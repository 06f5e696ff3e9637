"""Property tests: ring placement laws and router failover equivalence.

The ring's contract is *structural*, so the tests quantify over the
inputs instead of pinning examples: placement must be a function of
the node-id *set* (not the order ids were listed), every key must have
exactly RF distinct owners after any legal join/leave history, and —
because each key lives on RF replicas — killing any single node must
not change a single answer the router returns.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import HashRing, build_cluster
from repro.cluster.router import ClusterRouter
from repro.core.result import probe_sorted
from repro.core.serial import serial_count

node_id_sets = st.sets(st.integers(0, 40), min_size=1, max_size=8)


def _sample_keys(rng: np.random.Generator, n: int = 64) -> np.ndarray:
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64)


@given(ids=node_id_sets, order_seed=st.integers(0, 1 << 31),
       rf=st.integers(1, 3), ring_seed=st.integers(0, 1 << 31))
@settings(max_examples=40, deadline=None)
def test_ring_is_permutation_invariant(ids, order_seed, rf, ring_seed):
    """Placement depends on the node-id *set*, not the listing order."""
    ids = sorted(ids)
    rf = min(rf, len(ids))
    rng = np.random.default_rng(order_seed)
    shuffled = list(rng.permutation(ids))
    a = HashRing(ids, rf=rf, vnodes=4, seed=ring_seed).table()
    b = HashRing(shuffled, rf=rf, vnodes=4, seed=ring_seed).table()
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.rows, b.rows)
    keys = _sample_keys(np.random.default_rng(ring_seed))
    ra = HashRing(ids, rf=rf, vnodes=4, seed=ring_seed).replicas_batch(keys)
    rb = HashRing(shuffled, rf=rf, vnodes=4, seed=ring_seed).replicas_batch(keys)
    assert np.array_equal(ra, rb)


@given(
    rf=st.integers(1, 3),
    ops=st.lists(st.tuples(st.booleans(), st.integers(0, 12)),
                 min_size=0, max_size=10),
    seed=st.integers(0, 1 << 31),
)
@settings(max_examples=40, deadline=None)
def test_rf_distinct_owners_after_any_join_leave(rf, ops, seed):
    """Exactly RF distinct owners per key survives any legal churn."""
    start = max(rf, 3)
    ring = HashRing(range(start), rf=rf, vnodes=4, seed=seed)
    for join, node in ops:
        if join and node not in ring.node_ids:
            ring = ring.with_node(node)
        elif not join and node in ring.node_ids and len(ring.node_ids) > rf:
            ring = ring.without_node(node)
    keys = _sample_keys(np.random.default_rng(seed))
    replicas = ring.replicas_batch(keys)
    assert replicas.shape == (keys.size, rf)
    live = set(ring.node_ids)
    for row in replicas:
        owners = {int(n) for n in row}
        assert len(owners) == rf  # rf *distinct* owners
        assert owners <= live     # all of them in the current ring
    # The compiled table itself obeys the law (key-independent form).
    for row in ring.table().rows:
        assert len({int(n) for n in row}) == rf


@given(victim=st.integers(0, 3), seed=st.integers(0, 1 << 31))
@settings(max_examples=10, deadline=None)
def test_router_failover_answers_identical(victim, seed):
    """With RF=2, killing any one node changes no answer."""
    rng = np.random.default_rng(seed)
    reads = [rng.integers(0, 4, size=50).astype(np.uint8) for _ in range(12)]
    counts = serial_count(reads, 7)
    keys = np.concatenate([
        rng.choice(counts.kmers, size=96).astype(np.uint64),
        rng.integers(0, 1 << 63, size=8, dtype=np.uint64),  # misses
    ])
    oracle = probe_sorted(counts.kmers, counts.counts, keys)

    def serve(kill: int | None) -> np.ndarray:
        ring, nodes = build_cluster(counts, 4, rf=2, vnodes=4, seed=seed)
        router = ClusterRouter(ring, nodes, hedging=False)
        if kill is not None:
            router.nodes[kill].kill()
        return asyncio.run(router.query_many(keys))

    healthy = serve(None)
    degraded = serve(victim)
    assert np.array_equal(healthy, oracle)
    assert np.array_equal(degraded, healthy)
