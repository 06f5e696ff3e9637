"""Tests for immutable sorted runs: fences, sparse index, partial reads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lsm.run import Run, write_run


@pytest.fixture
def keys_vals(rng):
    keys = np.unique(rng.integers(0, 1 << 48, 20_000).astype(np.uint64))
    vals = rng.integers(1, 100, keys.size).astype(np.int64)
    return keys, vals


@pytest.fixture
def run(tmp_path, keys_vals):
    keys, vals = keys_vals
    path = tmp_path / "run-000001.run"
    write_run(path, 21, keys, vals, index_stride=256)
    return Run(path)


class TestWriteOpen:
    def test_metadata(self, run, keys_vals):
        keys, _ = keys_vals
        assert run.k == 21
        assert run.n_keys == keys.size
        assert run.fence_min == int(keys[0])
        assert run.fence_max == int(keys[-1])
        assert run.index_keys.size == -(-keys.size // 256)

    def test_atomic_publication(self, tmp_path, keys_vals):
        keys, vals = keys_vals
        path = tmp_path / "run-000002.run"
        write_run(path, 21, keys, vals)
        assert path.exists()
        assert not path.with_name(path.name + ".tmp").exists()

    def test_load_roundtrip(self, run, keys_vals):
        keys, vals = keys_vals
        rk, rv = run.load()
        assert np.array_equal(rk, keys)
        assert np.array_equal(rv, vals)

    def test_empty_run(self, tmp_path):
        path = tmp_path / "empty.run"
        write_run(path, 21, np.empty(0, dtype=np.uint64),
                  np.empty(0, dtype=np.int64))
        r = Run(path)
        assert r.n_keys == 0
        assert r.get(np.array([1], dtype=np.uint64)).tolist() == [0]


class TestPointLookups:
    def test_exact_counts_present_and_absent(self, run, keys_vals, rng):
        keys, vals = keys_vals
        present = rng.choice(keys, 300)
        absent = np.setdiff1d(
            rng.integers(0, 1 << 48, 300).astype(np.uint64), keys)
        q = np.concatenate([present, absent])
        got = run.get(q)
        lookup = dict(zip(keys.tolist(), vals.tolist()))
        want = np.array([lookup.get(int(x), 0) for x in q], dtype=np.int64)
        assert np.array_equal(got, want)

    def test_partial_reads_bounded_by_index(self, run, keys_vals):
        keys, _ = keys_vals
        run.get(keys[:3])  # three keys, at most three index blocks
        assert run.blocks_read <= 3

    def test_fence_skip_does_no_io(self, run):
        out_of_range = np.array([run.fence_max + 1], dtype=np.uint64)
        run.get(out_of_range)
        assert run.blocks_read == 0
        assert run.point_queries == 0

    def test_block_edges(self, tmp_path):
        keys = np.arange(0, 1000, dtype=np.uint64) * 7
        vals = np.arange(1, 1001, dtype=np.int64)
        path = tmp_path / "edges.run"
        write_run(path, 15, keys, vals, index_stride=64)
        r = Run(path)
        # First/last key of every block, plus both fences.
        probe = np.concatenate([keys[::64], keys[63::64], keys[:1], keys[-1:]])
        got = r.get(probe)
        want = np.concatenate([vals[::64], vals[63::64], vals[:1], vals[-1:]])
        assert np.array_equal(got, want)


class TestValidation:
    def test_bad_index_stride_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="index_stride"):
            write_run(tmp_path / "x.run", 5,
                      np.empty(0, dtype=np.uint64),
                      np.empty(0, dtype=np.int64), index_stride=0)
