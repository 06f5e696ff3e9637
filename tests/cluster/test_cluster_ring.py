"""Tests for the consistent-hash ring: placement, determinism, RF."""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster.ring import HashRing, interval_mask


class TestConstruction:
    def test_basic_shape(self):
        ring = HashRing(range(4), rf=2, vnodes=8, seed=0)
        table = ring.table()
        assert table.tokens.size == 4 * 8
        assert table.rows.shape == (32, 2)
        assert np.all(np.diff(table.tokens.astype(object)) > 0)

    def test_rf_must_fit(self):
        with pytest.raises(ValueError):
            HashRing(range(2), rf=3)

    def test_needs_nodes(self):
        with pytest.raises(ValueError):
            HashRing([], rf=1)

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing([1, 1, 2], rf=1)

    def test_with_without_node(self):
        ring = HashRing(range(3), rf=2, vnodes=4, seed=5)
        grown = ring.with_node(7)
        assert 7 in grown.node_ids
        back = grown.without_node(7)
        assert back.node_ids == ring.node_ids
        with pytest.raises(ValueError):
            ring.with_node(2)
        with pytest.raises(ValueError):
            ring.without_node(99)


class TestPlacement:
    def test_replicas_distinct(self, rng):
        ring = HashRing(range(5), rf=3, vnodes=16, seed=1)
        keys = rng.integers(0, 2**63, size=2000, dtype=np.uint64)
        rows = ring.replicas_batch(keys)
        srt = np.sort(rows, axis=1)
        assert (srt[:, 1:] != srt[:, :-1]).all()

    def test_scalar_matches_batch(self, rng):
        ring = HashRing(range(4), rf=2, vnodes=8, seed=2)
        keys = rng.integers(0, 2**63, size=50, dtype=np.uint64)
        batch = ring.replicas_batch(keys)
        for i, key in enumerate(keys):
            assert tuple(batch[i]) == ring.replicas(int(key))

    def test_join_moves_bounded_share(self, rng):
        """Adding one node to N should remap roughly 1/(N+1) of keys."""
        keys = rng.integers(0, 2**63, size=20_000, dtype=np.uint64)
        ring = HashRing(range(8), rf=1, vnodes=32, seed=3)
        grown = ring.with_node(8)
        before = ring.replicas_batch(keys)[:, 0]
        after = grown.replicas_batch(keys)[:, 0]
        moved = float((before != after).mean())
        assert moved < 0.3  # full rehash would move ~8/9 of keys
        # Keys that moved went to the joiner, not shuffled among old nodes.
        assert set(np.unique(after[before != after])) == {8}

    def test_primary_share_roughly_balanced(self, rng):
        ring = HashRing(range(6), rf=2, vnodes=64, seed=4)
        keys = rng.integers(0, 2**63, size=30_000, dtype=np.uint64)
        primary = ring.replicas_batch(keys)[:, 0]
        shares = np.bincount(primary, minlength=6) / keys.size
        assert shares.max() < 3.0 / 6.0  # no node owns half the ring


class TestDeterminism:
    def test_same_seed_same_table(self):
        a = HashRing(range(5), rf=2, vnodes=16, seed=9).table()
        b = HashRing(range(5), rf=2, vnodes=16, seed=9).table()
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.rows, b.rows)

    def test_different_seed_different_table(self):
        a = HashRing(range(5), rf=2, vnodes=16, seed=1).table()
        b = HashRing(range(5), rf=2, vnodes=16, seed=2).table()
        assert not np.array_equal(a.tokens, b.tokens)

    def test_placement_survives_process_restart(self):
        """Ring placement must not depend on interpreter hash state."""
        import os
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        script = textwrap.dedent("""
            import numpy as np
            from repro.cluster.ring import HashRing
            ring = HashRing(range(5), rf=2, vnodes=8, seed=42)
            keys = np.arange(1000, dtype=np.uint64) * np.uint64(2654435761)
            print(ring.replicas_batch(keys).tobytes().hex())
        """)
        outs = set()
        for hashseed in ("1", "271828"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hashseed)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout)
        assert len(outs) == 1


@given(
    n_nodes=st.integers(min_value=1, max_value=12),
    rf=st.integers(min_value=1, max_value=3),
    vnodes=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_every_key_has_rf_distinct_replicas(n_nodes, rf, vnodes, seed):
    if rf > n_nodes:
        rf = n_nodes
    ring = HashRing(range(n_nodes), rf=rf, vnodes=vnodes, seed=seed)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**64, size=256, dtype=np.uint64)
    rows = ring.replicas_batch(keys)
    assert rows.shape == (256, rf)
    srt = np.sort(rows, axis=1)
    if rf > 1:
        assert (srt[:, 1:] != srt[:, :-1]).all()
    assert set(np.unique(rows)) <= set(ring.node_ids)
    # Deterministic: a second identically-seeded ring places identically.
    again = HashRing(range(n_nodes), rf=rf, vnodes=vnodes, seed=seed)
    assert np.array_equal(again.replicas_batch(keys), rows)


@given(
    n_nodes=st.integers(min_value=1, max_value=40),
    vnodes=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_row_index_is_the_first_token_at_or_after(n_nodes, vnodes, seed):
    """The slice-table walk equals a binary search over the tokens,
    wrap past the last token included, at and beside every token."""
    table = HashRing(range(n_nodes), rf=1, vnodes=vnodes, seed=seed).table()
    one = np.uint64(1)
    positions = np.concatenate([
        np.random.default_rng(seed).integers(0, 2**64, 512, dtype=np.uint64),
        table.tokens, table.tokens - one, table.tokens + one,
        np.array([0, 2**64 - 1], dtype=np.uint64)])
    expect = np.searchsorted(table.tokens, positions) % table.n_tokens
    assert np.array_equal(table.row_index(positions), expect)


class TestIntervalMask:
    def test_plain_interval(self):
        pos = np.array([5, 10, 15, 20], dtype=np.uint64)
        mask = interval_mask(pos, 10, 20)
        assert mask.tolist() == [False, False, True, True]  # (10, 20]

    def test_wrapping_interval(self):
        pos = np.array([5, 10, 15, 20], dtype=np.uint64)
        mask = interval_mask(pos, 15, 10)  # wraps through 0
        assert mask.tolist() == [True, True, False, True]

    def test_full_circle(self):
        pos = np.array([0, 1, 2**63], dtype=np.uint64)
        assert interval_mask(pos, 7, 7).all()
