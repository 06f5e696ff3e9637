"""Tests for the query-trace on-disk format (save/load round-trips)."""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.fileio import FormatError
from repro.trace.format import (
    TIER_STORE,
    TIER_T1,
    TRACE_MAGIC,
    TRACE_VERSION,
    QueryTrace,
    load_trace,
    save_trace,
)


def make_trace(n: int = 100, seed: int = 0) -> QueryTrace:
    rng = np.random.default_rng(seed)
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    return QueryTrace(
        ts=ts,
        streams=rng.integers(0, 3, size=n).astype(np.int32),
        keys=rng.integers(0, 1 << 30, size=n).astype(np.uint64),
        tiers=rng.choice([TIER_T1, TIER_STORE], size=n).astype(np.int8),
        k=21, seed=seed, source="unit-test", meta={"note": "fixture"},
    )


class TestRoundTrip:
    def test_save_load_preserves_records_and_provenance(self, tmp_path,
                                                        same_records):
        trace = make_trace(257)
        path = tmp_path / "t.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert same_records(loaded, trace)
        assert loaded.k == 21
        assert loaded.seed == 0
        assert loaded.source == "unit-test"
        assert loaded.meta == {"note": "fixture"}

    def test_empty_trace_round_trips(self, tmp_path):
        empty = QueryTrace(
            ts=np.empty(0, np.float64), streams=np.empty(0, np.int32),
            keys=np.empty(0, np.uint64), tiers=np.empty(0, np.int8),
        )
        path = tmp_path / "empty.npz"
        save_trace(path, empty)
        loaded = load_trace(path)
        assert loaded.n_records == 0
        assert loaded.duration == 0.0
        assert loaded.unique_fraction() == 0.0
        assert loaded.tier_counts() == {"t1": 0, "store": 0}

    def test_dtypes_are_canonical_after_load(self, tmp_path):
        # Sloppy caller dtypes are normalised on save.
        trace = QueryTrace(
            ts=np.arange(4, dtype=np.float32),
            streams=np.zeros(4, dtype=np.int64),
            keys=np.arange(4, dtype=np.int64),
            tiers=np.zeros(4, dtype=np.int64),
        )
        path = tmp_path / "t.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.ts.dtype == np.float64
        assert loaded.streams.dtype == np.int32
        assert loaded.keys.dtype == np.uint64
        assert loaded.tiers.dtype == np.int8


class TestDefensiveLoads:
    """Trace-specific refusals; the cross-format cases (truncated,
    garbage, empty, flipped byte) are rows of
    ``tests/test_fileio_corruption.py``."""

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_trace(tmp_path / "nope.npz")

    def test_foreign_npz_raises_format_error(self, tmp_path):
        path = tmp_path / "counts.npz"
        np.savez(path, kmers=np.arange(4), counts=np.ones(4))
        with pytest.raises(FormatError, match="no member header"):
            load_trace(path)

    def test_version_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "t.npz"
        trace = make_trace(8)
        header = {
            "magic": TRACE_MAGIC, "version": TRACE_VERSION + 1,
            "n_records": 8, "k": 0, "seed": 0, "source": "", "meta": {},
        }
        blob = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, header=blob, ts=trace.ts, streams=trace.streams,
                 keys=trace.keys, tiers=trace.tiers)
        with pytest.raises(FormatError, match="version"):
            load_trace(path)

    def test_bad_magic_is_refused(self, tmp_path):
        path = tmp_path / "t.npz"
        trace = make_trace(8)
        header = {"magic": "someone-elses-trace", "version": TRACE_VERSION}
        blob = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, header=blob, ts=trace.ts, streams=trace.streams,
                 keys=trace.keys, tiers=trace.tiers)
        with pytest.raises(FormatError, match="magic"):
            load_trace(path)

    def test_missing_column_is_refused(self, tmp_path):
        path = tmp_path / "t.npz"
        trace = make_trace(8)
        header = {"magic": TRACE_MAGIC, "version": TRACE_VERSION,
                  "n_records": 8}
        blob = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez(path, header=blob, ts=trace.ts, streams=trace.streams,
                 keys=trace.keys)  # tiers column dropped
        with pytest.raises(FormatError, match="no member tiers"):
            load_trace(path)

    def test_header_record_count_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(path, make_trace(8))
        # Rewrite the header claiming a different record count.
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["header"].tobytes()).decode())
        header["n_records"] = 9
        arrays["header"] = np.frombuffer(json.dumps(header).encode(),
                                         dtype=np.uint8)
        np.savez(path, **arrays)
        with pytest.raises(FormatError, match="records"):
            load_trace(path)

    def test_saved_file_is_a_real_zip_with_header(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(path, make_trace(8))
        with zipfile.ZipFile(path) as zf:
            assert "header.npy" in zf.namelist()


class TestSlicing:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            QueryTrace(ts=np.zeros(3), streams=np.zeros(3, np.int32),
                       keys=np.zeros(2, np.uint64), tiers=np.zeros(3, np.int8))

    def test_window_slices_by_time(self):
        trace = make_trace(200)
        sub = trace.window(0.25, 0.75)
        assert sub.n_records == int(((trace.ts >= 0.25) & (trace.ts < 0.75)).sum())
        assert sub.ts.min() >= 0.25 and sub.ts.max() < 0.75
        assert sub.k == trace.k and sub.source == trace.source

    def test_select_keeps_masked_records(self):
        trace = make_trace(50)
        mask = trace.tiers == TIER_STORE
        sub = trace.select(mask)
        assert np.array_equal(sub.keys, trace.keys[mask])
        assert sub.tier_counts()["t1"] == 0
