"""Tests for size-tiered compaction and the streaming k-way merge."""

from __future__ import annotations

import functools
import tracemalloc

import numpy as np
import pytest

from repro.apps.store import merge_sorted_counts
from repro.lsm import compaction
from repro.lsm.compaction import merge_runs, pick_compaction
from repro.lsm.run import Run, write_run
from repro.lsm.store import LsmConfig
from repro.sort.accumulate import accumulate_weighted


def _make_run(tmp_path, name, rng, n, k=17):
    keys = np.unique(rng.integers(0, 1 << 44, n).astype(np.uint64))
    vals = rng.integers(1, 20, keys.size).astype(np.int64)
    path = tmp_path / name
    write_run(path, k, keys, vals)
    return Run(path), keys, vals


class TestPolicy:
    def _runs_with_sizes(self, tmp_path, rng, sizes):
        return [_make_run(tmp_path, f"r{i}.run", rng, n)[0]
                for i, n in enumerate(sizes)]

    def test_within_bound_is_none(self, tmp_path, rng):
        runs = self._runs_with_sizes(tmp_path, rng, [100, 200, 300])
        assert pick_compaction(runs, max_runs=3, fan_in=8) is None

    def test_picks_smallest_fan_in(self, tmp_path, rng):
        runs = self._runs_with_sizes(
            tmp_path, rng, [5000, 60, 4000, 50, 3000])
        sel = pick_compaction(runs, max_runs=4, fan_in=2)
        assert sel == [1, 3]  # the two smallest, in index order

    def test_fan_in_clamped_to_population(self, tmp_path, rng):
        runs = self._runs_with_sizes(tmp_path, rng, [10, 20, 30])
        sel = pick_compaction(runs, max_runs=2, fan_in=8)
        assert sel == [0, 1, 2]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="fan_in"):
            LsmConfig(fan_in=1)
        with pytest.raises(ValueError, match="max_runs"):
            LsmConfig(max_runs=0)


class TestMergeRuns:
    @pytest.mark.parametrize("chunk_keys", [1, 7, 1000, 1 << 16])
    def test_chunk_size_invariance(self, tmp_path, rng, monkeypatch, chunk_keys):
        """Any chunking must yield the exact full-materialise merge."""
        monkeypatch.setattr(compaction, "CHUNK_KEYS", chunk_keys)
        parts = [_make_run(tmp_path, f"in{i}.run", rng, n)
                 for i, n in enumerate([900, 50, 1700])]
        runs = [p[0] for p in parts]
        out = tmp_path / "out.run"
        merge_runs(runs, out, 17)
        got_k, got_v = Run(out).load()
        want_k, want_v = accumulate_weighted(
            np.concatenate([p[1] for p in parts]),
            np.concatenate([p[2] for p in parts]))
        assert np.array_equal(got_k, want_k)
        assert np.array_equal(got_v, want_v)

    def test_peak_memory_is_chunks_not_runs(self, tmp_path, monkeypatch):
        """The merge cursors over views of the mapped runs: its allocation
        peak at CHUNK_KEYS << n stays under what the seek-and-read merge
        took for this very input (286,508 B traced), 1/25 of the runs."""
        monkeypatch.setattr(compaction, "CHUNK_KEYS", 1024)
        rng = np.random.default_rng(0)
        runs = []
        for i in range(3):
            keys = np.unique(rng.integers(0, 1 << 40, 150_000).astype(np.uint64))
            write_run(tmp_path / f"in{i}.run", 17, keys,
                      rng.integers(1, 9, keys.size).astype(np.int64))
            runs.append(Run(tmp_path / f"in{i}.run"))
        tracemalloc.start()
        try:
            merge_runs(runs, tmp_path / "out.run", 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 286_508
        assert Run(tmp_path / "out.run").n_keys <= sum(r.n_keys for r in runs)

    def test_spill_files_cleaned_up(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(compaction, "CHUNK_KEYS", 64)
        run, _, _ = _make_run(tmp_path, "in.run", rng, 500)
        merge_runs([run], tmp_path / "out.run", 17)
        assert not list(tmp_path.glob("*.spill"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_empty_inputs(self, tmp_path):
        empty = tmp_path / "e.run"
        write_run(empty, 17, np.empty(0, dtype=np.uint64),
                  np.empty(0, dtype=np.int64))
        out = tmp_path / "out.run"
        merge_runs([Run(empty), Run(empty)], out, 17)
        assert Run(out).n_keys == 0

    def test_k_mismatch_rejected(self, tmp_path, rng):
        a, _, _ = _make_run(tmp_path, "a.run", rng, 100, k=17)
        b, _, _ = _make_run(tmp_path, "b.run", rng, 100, k=19)
        with pytest.raises(ValueError, match="disagree on k"):
            merge_runs([a, b], tmp_path / "out.run", 17)

    def test_nothing_to_merge_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="nothing to merge"):
            merge_runs([], tmp_path / "out.run", 17)


def _fold_reference(runs, path, k):
    """The merge as a pairwise ``merge_sorted_counts`` fold of whole runs."""
    keys, vals = functools.reduce(
        lambda a, b: merge_sorted_counts(*a, *b), [r.load() for r in runs])
    write_run(path, k, keys, vals)


class TestOneSortMerge:
    """One stable argsort + reduceat per merge step writes the same run
    file, byte for byte, as folding the runs pairwise."""

    @pytest.mark.parametrize("fan_in", range(2, 9))
    def test_matches_pairwise_fold(self, tmp_path, monkeypatch, fan_in):
        monkeypatch.setattr(compaction, "CHUNK_KEYS", 64)
        rng = np.random.default_rng(fan_in)
        runs = []
        for i in range(fan_in):
            # Keys from a small universe overlap across runs; run 0 holds
            # only low keys, so it is exhausted after the first steps.
            hi = 500 if i == 0 else 5000
            keys = np.unique(rng.integers(0, hi, int(rng.integers(40, 700))))
            path = tmp_path / f"in{i}.run"
            write_run(path, 17, keys.astype(np.uint64),
                      rng.integers(1, 1 << 40, keys.size).astype(np.int64))
            runs.append(Run(path))
        merge_runs(runs, tmp_path / "out.run", 17)
        _fold_reference(runs, tmp_path / "ref.run", 17)
        assert ((tmp_path / "out.run").read_bytes()
                == (tmp_path / "ref.run").read_bytes())

    def test_keys_straddling_a_chunk_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(compaction, "CHUNK_KEYS", 64)
        a = np.arange(0, 256, 2, dtype=np.uint64)   # two slices of 64
        b = a[62:66].copy()                          # across a's slice edge
        c = np.arange(1, 200, 2, dtype=np.uint64)   # odd: no shared key
        runs = []
        for name, keys in (("a", a), ("b", b), ("c", c)):
            write_run(tmp_path / f"{name}.run", 17, keys,
                      np.full(keys.size, 1, dtype=np.int64))
            runs.append(Run(tmp_path / f"{name}.run"))
        merge_runs(runs, tmp_path / "out.run", 17)
        _fold_reference(runs, tmp_path / "ref.run", 17)
        assert ((tmp_path / "out.run").read_bytes()
                == (tmp_path / "ref.run").read_bytes())
        keys, vals = Run(tmp_path / "out.run").load()
        at = np.searchsorted(keys, a[62:66])
        assert vals[at].tolist() == [2, 2, 2, 2]
