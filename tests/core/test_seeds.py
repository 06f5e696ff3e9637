"""Tests for collision-free child-seed derivation (repro.core.seeds)."""

from __future__ import annotations

import pytest

from repro.core.seeds import spawn_seeds


class TestSpawnSeeds:
    def test_deterministic(self):
        assert spawn_seeds(42, 8) == spawn_seeds(42, 8)

    def test_prefix_stable(self):
        """Child i is independent of how many siblings were spawned."""
        assert spawn_seeds(7, 10)[:4] == spawn_seeds(7, 4)

    def test_children_distinct(self):
        seeds = spawn_seeds(0, 64)
        assert len(set(seeds)) == 64

    def test_adjacent_roots_do_not_alias(self):
        """The failure mode of ``seed + i``: offset roots share children."""
        a = set(spawn_seeds(0, 64))
        b = set(spawn_seeds(1, 64))
        assert not (a & b)

    def test_fits_63_bits(self):
        assert all(0 <= s < (1 << 63) for s in spawn_seeds(3, 32))

    def test_zero_children(self):
        assert spawn_seeds(0, 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)
