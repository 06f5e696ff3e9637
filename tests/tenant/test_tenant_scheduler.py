"""Tests for the deficit-round-robin queue: fairness, bounds, surface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tenant.scheduler import DRRQueue


class Chunk:
    """Minimal schedulable: sized keys plus a tenant tag."""

    __slots__ = ("keys", "tenant")

    def __init__(self, n: int, tenant=None):
        self.keys = np.empty(n, dtype=np.uint64)
        self.tenant = tenant


def drain(q: DRRQueue) -> list:
    out = []
    while q.qsize():
        out.append(q.get_nowait())
    return out


class TestQueueSurface:
    def test_fifo_for_a_single_tenant(self):
        q = DRRQueue(quantum=4)
        chunks = [Chunk(3, "a") for _ in range(5)]
        for c in chunks:
            q.put_nowait(c)
        assert q.qsize() == 5
        assert drain(q) == chunks
        assert q.qsize() == 0

    def test_get_nowait_on_empty_raises(self):
        q = DRRQueue()
        with pytest.raises(IndexError):
            q.get_nowait()

    def test_anonymous_lane_schedules_at_default_weight(self):
        q = DRRQueue({"a": 1.0}, quantum=8)
        q.put_nowait(Chunk(4, "a"))
        q.put_nowait(Chunk(4, None))
        served = drain(q)
        assert {c.tenant for c in served} == {"a", None}
        assert q.served_keys[None] == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            DRRQueue(quantum=0)
        with pytest.raises(ValueError):
            DRRQueue({"a": -1.0})


class TestScheduling:
    def test_weighted_interleaving_tracks_weights(self):
        weights = {"heavy": 3.0, "light": 1.0}
        q = DRRQueue(weights, quantum=16)
        for _ in range(600):
            q.put_nowait(Chunk(8, "heavy"))
            q.put_nowait(Chunk(8, "light"))
        # Drain a saturated window only (both stay backlogged).
        for _ in range(400):
            q.get_nowait()
        total = sum(q.served_keys.values())
        share = q.served_keys["heavy"] / total
        assert share == pytest.approx(0.75, abs=0.05)
        assert q.starvation_violations == 0

    def test_flooder_cannot_wall_off_a_light_tenant(self):
        # The FIFO failure mode DRR exists to break: 500 antagonist
        # chunks enqueued *before* one victim chunk.
        q = DRRQueue({"victim": 1.0, "antagonist": 1.0}, quantum=16)
        for _ in range(500):
            q.put_nowait(Chunk(16, "antagonist"))
        q.put_nowait(Chunk(16, "victim"))
        position = next(
            i for i, c in enumerate(drain(q)) if c.tenant == "victim")
        assert position <= 2  # served within a round, not after 500 chunks

    def test_grant_bound(self):
        q = DRRQueue({"a": 2.0}, quantum=10)
        assert q.grant_bound(40, "a") == 2   # ceil(40 / 20)
        assert q.grant_bound(1, "a") == 1
        assert q.grant_bound(10, "zzz") == 1  # default weight 1.0

    def test_emptied_flow_forfeits_deficit(self):
        q = DRRQueue({"a": 1.0}, quantum=100)
        q.put_nowait(Chunk(1, "a"))
        q.get_nowait()
        # The 99 leftover credits must not survive the idle period.
        assert q._deficit["a"] == 0.0

    def test_oversized_chunk_is_served_across_turns(self):
        q = DRRQueue({"big": 1.0, "small": 1.0}, quantum=4)
        q.put_nowait(Chunk(40, "big"))    # needs 10 grant turns
        for _ in range(20):
            q.put_nowait(Chunk(2, "small"))
        served = drain(q)
        assert len(served) == 21
        assert q.starvation_violations == 0

    def test_stats_and_backlog(self):
        q = DRRQueue({"a": 1.0}, quantum=8)
        q.put_nowait(Chunk(4, "a"))
        q.put_nowait(Chunk(4, "b"))
        assert q.backlog() == {"a": 1, "b": 1}
        q.get_nowait()
        stats = q.stats()
        assert stats["quantum"] == 8
        assert stats["starvation_violations"] == 0
        assert sum(stats["served_keys"].values()) == 4


class TestFairnessProperty:
    @given(
        weights=st.lists(
            st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
            min_size=2, max_size=4),
        quantum=st.integers(min_value=4, max_value=64),
        chunk=st.integers(min_value=1, max_value=24),
    )
    def test_served_counts_converge_to_weights_under_saturation(
            self, weights, quantum, chunk):
        """DRR's theorem, fuzzed: share error < additive bound."""
        names = [f"t{i}" for i in range(len(weights))]
        wmap = dict(zip(names, weights))
        q = DRRQueue(wmap, quantum=quantum)
        per_unit = max(400, 20 * quantum)
        backlog = {t: int(2 * per_unit * w / chunk) + 1
                   for t, w in wmap.items()}
        for t, n in backlog.items():
            for _ in range(n):
                q.put_nowait(Chunk(chunk, t))
        lightest = min(wmap, key=wmap.get)
        while q.served_keys.get(lightest, 0) < per_unit * wmap[lightest]:
            q.get_nowait()
        total = sum(q.served_keys.values())
        total_w = sum(wmap.values())
        error = max(abs(q.served_keys.get(t, 0) / total - w / total_w)
                    for t, w in wmap.items())
        # One quantum grant plus one max chunk per tenant, normalised.
        bound = len(wmap) * (quantum * max(weights) + chunk) / total + 0.01
        assert error <= bound
        assert q.starvation_violations == 0
