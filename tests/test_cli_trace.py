"""End-to-end tests for the `dakc trace` command family."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.apps.store import save_counts
from repro.cli import main
from repro.core.serial import serial_count
from repro.trace import load_trace, measured_miss_ratio_curve, save_trace


@pytest.fixture(scope="module")
def db(tmp_path_factory, small_reads):
    path = tmp_path_factory.mktemp("tracedb") / "db.npz"
    save_counts(path, serial_count(small_reads, 15))
    return str(path)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, db):
    path = tmp_path_factory.mktemp("trace") / "t.npz"
    # 6k queries = ~24 concurrent client groups: enough for later
    # groups to hit the cache the earlier groups populated.
    rc = main(["trace", "record", "--database", db, "--queries", "6000",
               "--shards", "4", "--burst-amplitude", "4",
               "--out", str(path)])
    assert rc == 0
    return str(path)


class TestRecord:
    def test_record_writes_a_loadable_trace(self, recorded, db):
        trace = load_trace(recorded)
        assert trace.n_records == 6000
        assert trace.k == 15
        assert np.all(np.diff(trace.ts) >= 0)
        # The engine attributed answers to both layers.
        tiers = trace.tier_counts()
        assert tiers["t1"] > 0 and tiers["store"] > 0
        assert sum(tiers.values()) == 6000


class TestProfile:
    def test_profile_prints_the_curve(self, recorded, capsys):
        rc = main(["trace", "profile", recorded])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss-ratio" in out
        assert "admit_threshold=2" in out

    def test_profile_is_the_full_simulation_at_the_recorded_threshold(
            self, recorded, tmp_path):
        doc_path = tmp_path / "profile.json"
        rc = main(["trace", "profile", recorded,
                   "--capacities", "4,32,256", "--json", str(doc_path)])
        assert rc == 0
        doc = json.loads(doc_path.read_text())
        trace = load_trace(recorded)
        # `trace record` wrote its cache into the header.
        assert trace.meta["cache"] == {"capacity": 4096,
                                       "admit_threshold": 2}
        assert doc["admit_threshold"] == 2
        assert doc["capacities"] == [4, 32, 256]
        assert doc["miss_ratio"] == measured_miss_ratio_curve(
            trace.keys, [4, 32, 256], admit_threshold=2).tolist()

    def test_profile_of_a_trace_without_a_cache_is_at_threshold_one(
            self, recorded, tmp_path):
        bare = tmp_path / "bare.npz"
        trace = load_trace(recorded)
        save_trace(bare, dataclasses.replace(trace, meta={}))
        doc_path = tmp_path / "profile.json"
        assert main(["trace", "profile", str(bare), "--capacities", "8,64",
                     "--json", str(doc_path)]) == 0
        doc = json.loads(doc_path.read_text())
        assert doc["admit_threshold"] == 1
        assert doc["miss_ratio"] == measured_miss_ratio_curve(
            trace.keys, [8, 64], admit_threshold=1).tolist()

    def test_profile_rejects_non_trace_files(self, db, capsys):
        rc = main(["trace", "profile", db])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_spatial_sample_with_check(self, recorded, tmp_path, capsys):
        out = tmp_path / "sampled.npz"
        rc = main(["trace", "sample", recorded, "--rate", "0.5",
                   "--check", "--out", str(out)])
        assert rc == 0
        sampled = load_trace(out)
        full = load_trace(recorded)
        assert 0 < sampled.n_records < full.n_records
        assert sampled.meta["sample"]["kind"] == "spatial"
        assert "miss-ratio error" in capsys.readouterr().out

    def test_check_fails_past_the_bound(self, recorded, tmp_path, capsys):
        """A 20% sample of a 6k-record trace keeps too few keys for its
        miniature caches to place the curve within the bound (14.30 pp
        off at the recorded threshold 2): the check exits 1."""
        rc = main(["trace", "sample", recorded, "--rate", "0.2",
                   "--check", "--out", str(tmp_path / "thin.npz")])
        assert rc == 1
        assert "FAILED" in capsys.readouterr().out

    def test_check_refuses_a_temporal_sample(self, recorded, tmp_path,
                                             capsys):
        out = tmp_path / "windowed.npz"
        rc = main(["trace", "sample", recorded, "--window", "0.001",
                   "--every", "0.004", "--check", "--out", str(out)])
        assert rc == 2
        assert "--check needs --rate" in capsys.readouterr().err
        assert not out.exists()

    def test_temporal_sample(self, recorded, tmp_path):
        out = tmp_path / "windowed.npz"
        rc = main(["trace", "sample", recorded, "--window", "0.001",
                   "--every", "0.004", "--out", str(out)])
        assert rc == 0
        assert load_trace(out).meta["sample"]["kind"] == "temporal"

    def test_sample_requires_exactly_one_mode(self, recorded, tmp_path, capsys):
        out = tmp_path / "x.npz"
        assert main(["trace", "sample", recorded, "--out", str(out)]) == 2
        assert main(["trace", "sample", recorded, "--rate", "0.5",
                     "--window", "0.1", "--every", "1.0",
                     "--out", str(out)]) == 2


class TestReplay:
    def test_replay_is_bit_identical(self, recorded, db, tmp_path, capsys):
        doc_path = tmp_path / "replay.json"
        rc = main(["trace", "replay", recorded, "--database", db,
                   "--shards", "4", "--json", str(doc_path)])
        assert rc == 0
        doc = json.loads(doc_path.read_text())
        assert doc["answers_match"] is True
        assert doc["n_records"] == 6000
        assert "bit-identical to scalar oracle: True" in capsys.readouterr().out
