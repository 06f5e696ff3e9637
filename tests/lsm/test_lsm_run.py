"""Tests for immutable sorted runs: fences, sparse index, partial reads."""

from __future__ import annotations

import mmap
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.result import probe_sorted
from repro.fileio import BLOCK_KEYS, FormatError, record
from repro.lsm import run as run_module
from repro.lsm.run import RUN, Run, write_run
from repro.lsm.store import LsmConfig, LsmStore


@pytest.fixture
def keys_vals(rng):
    keys = np.unique(rng.integers(0, 1 << 48, 20_000).astype(np.uint64))
    vals = rng.integers(1, 100, keys.size).astype(np.int64)
    return keys, vals


@pytest.fixture
def run(tmp_path, keys_vals):
    keys, vals = keys_vals
    path = tmp_path / "run-000001.run"
    write_run(path, 21, keys, vals)
    return Run(path)


class TestWriteOpen:
    def test_metadata(self, run, keys_vals):
        keys, _ = keys_vals
        assert run.k == 21
        assert run.n_keys == keys.size
        assert run.fence_min == int(keys[0])
        assert run.fence_max == int(keys[-1])
        assert run.index_stride == BLOCK_KEYS
        assert run.index_keys.size == -(-keys.size // BLOCK_KEYS)

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

    def test_block_edges(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_module, "BLOCK_KEYS", 64)
        keys = np.arange(0, 1000, dtype=np.uint64) * 7
        vals = np.arange(1, 1001, dtype=np.int64)
        path = tmp_path / "edges.run"
        write_run(path, 15, keys, vals)
        r = Run(path)
        # First/last key of every block, plus both fences.
        probe = np.concatenate([keys[::64], keys[63::64], keys[:1], keys[-1:]])
        got = r.get(probe)
        want = np.concatenate([vals[::64], vals[63::64], vals[:1], vals[-1:]])
        assert np.array_equal(got, want)


def block_loop_get(run: Run, keys) -> tuple[np.ndarray, dict]:
    """``Run.get`` as it was before the sections were mapped: the reference.

    One pass of a Python loop per touched index block, each reading its
    slice of both sections with a seek + read; returns the answers and
    what the three counters would have gained.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    out = np.zeros(keys.size, dtype=np.int64)
    gained = {"probes": 0, "point_queries": 0, "blocks_read": 0}
    if run.n_keys == 0 or keys.size == 0:
        return out, gained
    gained["probes"] = 1
    in_fence = (keys >= np.uint64(run.fence_min)) & (keys <= np.uint64(run.fence_max))
    if not in_fence.any():
        return out, gained
    gained["point_queries"] = int(keys.size)
    cand_pos = np.flatnonzero(in_fence)
    cand = keys[cand_pos]
    blocks = np.searchsorted(run.index_keys, cand, side="right") - 1
    with open(run.path, "rb") as fh:
        for b in np.unique(blocks):
            lo = int(b) * run.index_stride
            n = min(lo + run.index_stride, run.n_keys) - lo
            sections = []
            for at, dtype in ((run._keys_at, "<u8"),
                              (run._keys_at + 8 * run.n_keys, "<i8")):
                fh.seek(at + 8 * lo)
                sections.append(np.frombuffer(fh.read(8 * n), dtype=dtype))
            gained["blocks_read"] += 1
            sel = blocks == b
            out[cand_pos[sel]] = probe_sorted(*sections, cand[sel])
    return out, gained


UNIVERSE = 1 << 10   # small enough that random queries hit, miss and repeat


@st.composite
def run_and_queries(draw):
    keys = np.array(sorted(draw(st.sets(st.integers(0, UNIVERSE - 1),
                                        min_size=1, max_size=120))), dtype=np.uint64)
    stride = draw(st.sampled_from([1, 2, 7, 16, 64, 4096]))   # 4096 > n always
    edges = [int(keys[0]), int(keys[-1]), *keys[::stride].tolist(),   # fences, index keys
             int(keys[0]) - 1, int(keys[-1]) + 1]                      # just outside
    queries = draw(st.lists(
        st.one_of(st.sampled_from(edges), st.sampled_from(keys.tolist()),
                  st.integers(-5, UNIVERSE + 5)),
        max_size=60))
    return keys, stride, np.array([q % (1 << 64) for q in queries], dtype=np.uint64)


class TestAgainstBlockLoop:
    """The mapped lookup answers and counts exactly as the block loop did."""

    @given(run_and_queries())
    def test_answers_and_counters_match_reference(self, case):
        keys, stride, queries = case
        vals = (keys.astype(np.int64) * 7) % 13 + 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.run"
            with mock.patch.object(run_module, "BLOCK_KEYS", stride):
                write_run(path, 5, keys, vals)
            run = Run(path)
            for group in (queries, np.sort(queries), queries[:0],
                          queries[queries > keys[-1]]):       # all out of fence
                want, gained = block_loop_get(run, group)
                before = (run.probes, run.point_queries, run.blocks_read)
                assert np.array_equal(run.get(group), want)
                assert (run.probes - before[0], run.point_queries - before[1],
                        run.blocks_read - before[2]) == (
                    gained["probes"], gained["point_queries"], gained["blocks_read"])
            run.close()

    def test_all_miss_group_inside_the_fences(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run_module, "BLOCK_KEYS", 64)        # 1000 = 15 x 64 + 40
        keys = np.arange(0, 2000, 2, dtype=np.uint64)            # evens only
        write_run(tmp_path / "r.run", 9, keys, np.ones(keys.size, dtype=np.int64))
        run = Run(tmp_path / "r.run")
        odd = np.arange(1, 1999, 2, dtype=np.uint64)
        want, gained = block_loop_get(run, odd)
        assert not want.any() and np.array_equal(run.get(odd), want)
        assert run.blocks_read == gained["blocks_read"] == 16


@st.composite
def store_and_groups(draw):
    """0-5 overlapping runs (newest first; one-key runs likely), a memtable
    that may be empty, an index stride, and groups with duplicates and
    keys below, between and above every run's fences and index keys."""
    key_sets = st.sets(st.integers(0, UNIVERSE - 1), min_size=1, max_size=80)
    runs = draw(st.lists(st.one_of(st.sets(st.integers(0, UNIVERSE - 1),
                                           min_size=1, max_size=1), key_sets),
                         max_size=5))
    memtable = draw(st.sets(st.integers(0, UNIVERSE - 1), max_size=40))
    stride = draw(st.sampled_from([1, 3, 16, 4096]))
    edges = {e for keys in runs for e in (*sorted(keys)[::stride], max(keys))}
    near = sorted({e + d for e in edges for d in (-1, 0, 1)} & set(range(UNIVERSE)))
    present = sorted(set().union(*runs, memtable)) or [0]
    query = st.one_of(st.sampled_from(near or [0]), st.sampled_from(present),
                      st.integers(0, UNIVERSE - 1))
    groups = draw(st.lists(st.lists(query, max_size=60), min_size=1, max_size=3))
    return runs, memtable, stride, [np.array(g, dtype=np.uint64) for g in groups]


def _sorted_pairs(keys) -> tuple[np.ndarray, np.ndarray]:
    keys = np.array(sorted(keys), dtype=np.uint64)
    return keys, (keys.astype(np.int64) * 7) % 13 + 1


class TestStoreAgainstBlockLoop:
    """``LsmStore.get`` answers as the merged snapshot does, and every
    counter gains what the block loop reports for each run."""

    @given(store_and_groups())
    def test_answers_and_counters_match_reference(self, case):
        runs, memtable, stride, groups = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(run_module, "BLOCK_KEYS", stride):
            store = LsmStore(Path(tmp) / "st", 5, config=LsmConfig(auto_compact=False))
            for keys in reversed(runs):          # runs[0] is flushed last: newest
                store.ingest_counts(*_sorted_pairs(keys))
                store.flush()
            if memtable:
                store.ingest_counts(*_sorted_pairs(memtable))
            assert store.n_runs == len(runs)
            snap = store.snapshot()
            want = {run.path.name: [0, 0, 0] for run in store.runs}
            point_reads = run_probes = 0
            for group in groups:
                assert np.array_equal(store.get(group),
                                      probe_sorted(snap.kmers, snap.counts, group))
                point_reads += group.size
                for run in store.runs:
                    _, gained = block_loop_get(run, group)
                    run_probes += gained["probes"] * group.size
                    counters = want[run.path.name]
                    counters[0] += gained["probes"]
                    counters[1] += gained["point_queries"]
                    counters[2] += gained["blocks_read"]
            assert (store.stats.point_reads, store.stats.run_probes) == (point_reads,
                                                                       run_probes)
            for run in store.runs:
                assert [run.probes, run.point_queries, run.blocks_read] == want[run.path.name]
            store.close()


class TestAlignedLayout:
    """Version 3: a zero pad puts both sections on an 8-byte boundary,
    so a lookup is one ``searchsorted`` over the mapping, copy-free."""

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 12_293])
    def test_sections_start_8_aligned(self, tmp_path, n):
        keys = np.arange(n, dtype=np.uint64) * 3 + 1
        vals = np.arange(1, n + 1, dtype=np.int64)
        write_run(tmp_path / "r.run", 21, keys, vals)
        run = Run(tmp_path / "r.run")
        assert run._keys_at % 8 == 0
        mapped_keys, mapped_counts = run.load()
        assert mapped_keys.flags.aligned and mapped_counts.flags.aligned
        assert np.array_equal(mapped_keys, keys) and np.array_equal(mapped_counts, vals)

    def test_add_sorted_adds_probe_sorted_over_copies(self, run, keys_vals, rng):
        keys, _ = keys_vals
        copies = tuple(np.array(section) for section in run.load())
        present = rng.choice(keys, 200)
        absent = np.setdiff1d(rng.integers(keys[0], keys[-1], 200, dtype=np.uint64), keys)
        below = np.arange(3, dtype=np.uint64) + keys[0] - np.uint64(3)
        above = np.arange(3, dtype=np.uint64) + keys[-1] + np.uint64(1)
        mixed = np.sort(np.concatenate([below, present, present[:50], absent,   # 50 dups
                                        keys[:1], keys[-1:], above]))
        for group in (mixed, np.repeat(np.sort(present[:20]), 3), np.sort(absent),
                      below, above, keys[-1:], absent[:1], mixed[:0]):
            base = rng.integers(-5, 5, group.size)
            out = base.copy()
            run.add_sorted(group, out)
            assert np.array_equal(out, base + probe_sorted(*copies, group))


class TestLifetime:
    def test_closed_run_refuses_every_read(self, run):
        run.get(np.array([run.fence_min], dtype=np.uint64))
        run.close()
        assert run._sections is None
        for read in (lambda: run.get(np.array([1], dtype=np.uint64)),
                     run.load, lambda: run.read_slice(0, 1)):
            with pytest.raises(ValueError, match=r"run-000001\.run: run is closed"):
                read()

    def test_views_outlive_close_and_unlink(self, run, keys_vals):
        keys, vals = keys_vals
        whole, part = run.load(), run.read_slice(100, 200)
        run.close()
        run.path.unlink()
        assert np.array_equal(whole[0], keys) and np.array_equal(whole[1], vals)
        assert np.array_equal(part[0], keys[100:200])

    def test_sections_are_read_only_views_of_one_mapping(self, run):
        keys, counts = run.load()
        assert not keys.flags.writeable and not counts.flags.writeable
        assert isinstance(keys.base.obj, mmap.mmap)          # no copy,
        assert keys.base.obj is counts.base.obj              # one map


class TestValidation:
    def test_bad_index_stride_rejected(self, tmp_path):
        """A header stride of 0 indexes nothing: the run is refused on open."""
        path = tmp_path / "x.run"
        path.write_bytes(RUN.header(5, 0, 0, 0, 0) + record(b""))
        with pytest.raises(FormatError, match="at stride 0"):
            Run(path)

    def test_nonzero_pad_is_corrupt(self, run):
        blob = bytearray(run.path.read_bytes())
        pad_at = run._keys_at - 1
        assert run._keys_at - len(RUN.header(0, 0, 0, 0, 0)) - len(
            record(run.index_keys.tobytes())) == 4 and blob[pad_at] == 0
        blob[pad_at] = 1
        run.path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="nonzero pad") as exc:
            Run(run.path)
        assert exc.value.reason == "corrupt"
