"""Tests for the LSM CLI verbs (ingest, compact) and serving a live store
(`dakc xp run benchmarks/xp/serve.json --set database=<store dir>`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.serial import serial_count
from repro.lsm import LsmStore
from repro.seq.fastx import write_fastq
from repro.seq.readsim import reads_to_records


@pytest.fixture
def fastq(tmp_path, small_reads):
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads_to_records(small_reads))
    return str(path)


class TestIngest:
    def test_ingest_fastq_matches_oracle(self, tmp_path, fastq, small_reads,
                                         capsys):
        store_dir = tmp_path / "db"
        rc = main(["ingest", "--store", str(store_dir), "--input", fastq,
                   "-k", "17", "--batch-records", "50"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# ingested:   200 records (4 WAL batches)" in out
        assert "# total occurrences:" in out
        with LsmStore(store_dir) as store:
            assert store.snapshot() == serial_count(small_reads, 17)

    def test_ingest_is_incremental(self, tmp_path, fastq, small_reads, capsys):
        store_dir = str(tmp_path / "db")
        base = ["ingest", "--store", store_dir, "--input", fastq, "-k", "17"]
        assert main(base) == 0
        assert main(base) == 0  # same file again: counts double
        capsys.readouterr()
        with LsmStore(store_dir) as store:
            want = serial_count(small_reads, 17)
            assert store.total == 2 * want.total

    def test_ingest_flush_publishes_run(self, tmp_path, fastq, capsys):
        store_dir = tmp_path / "db"
        rc = main(["ingest", "--store", str(store_dir), "--input", fastq,
                   "-k", "17", "--flush"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run-000001.run" in out
        assert (store_dir / "run-000001.run").exists()

    def test_ingest_dataset_replica(self, tmp_path, capsys):
        rc = main(["ingest", "--store", str(tmp_path / "db"),
                   "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--batch-records", "200"])
        assert rc == 0
        assert "# ingested:" in capsys.readouterr().out

    def test_ingest_k_mismatch_fails(self, tmp_path, fastq, capsys):
        store_dir = str(tmp_path / "db")
        assert main(["ingest", "--store", store_dir, "--input", fastq,
                     "-k", "17"]) == 0
        rc = main(["ingest", "--store", store_dir, "--input", fastq,
                   "-k", "21"])
        assert rc == 2
        assert "has k=17" in capsys.readouterr().err


class TestCompact:
    def test_compact_to_bound(self, tmp_path, fastq, small_reads, capsys):
        store_dir = str(tmp_path / "db")
        # Tiny memtable + --no-compact: one run per WAL batch piles up.
        assert main(["ingest", "--store", store_dir, "--input", fastq,
                     "-k", "17", "--batch-records", "50",
                     "--memtable-mb", "0.000001", "--no-compact"]) == 0
        with LsmStore(store_dir) as store:
            assert store.n_runs == 4
        capsys.readouterr()
        rc = main(["compact", "--store", store_dir, "--max-runs", "1",
                   "--fan-in", "8"])
        assert rc == 0
        assert "# runs:    4 -> 1" in capsys.readouterr().out
        with LsmStore(store_dir) as store:
            assert store.n_runs == 1
            assert store.snapshot() == serial_count(small_reads, 17)

    def test_compact_flush_first(self, tmp_path, fastq, capsys):
        store_dir = str(tmp_path / "db")
        assert main(["ingest", "--store", store_dir, "--input", fastq,
                     "-k", "17"]) == 0  # everything still in the memtable
        capsys.readouterr()
        rc = main(["compact", "--store", store_dir, "--flush"])
        assert rc == 0
        assert "# runs:    0 -> 1" in capsys.readouterr().out

    def test_compact_missing_store_fails(self, tmp_path, capsys):
        rc = main(["compact", "--store", str(tmp_path / "nope")])
        assert rc == 2
        assert f"error: {tmp_path / 'nope'}: no LSM store here" in capsys.readouterr().err
        assert not (tmp_path / "nope").exists()


class TestServeBenchLsm:
    @pytest.fixture
    def store_dir(self, tmp_path, fastq, capsys):
        path = str(tmp_path / "db")
        assert main(["ingest", "--store", path, "--input", fastq,
                     "-k", "17", "--flush"]) == 0
        capsys.readouterr()
        return path

    def test_serve_bench_over_live_store(self, store_dir, run_scenario,
                                         monkeypatch):
        """A directory is a live store: served through its read view
        (merge-on-read lookups), its snapshot ranking the workload."""
        probes = []
        real_get = LsmStore.get
        monkeypatch.setattr(
            LsmStore, "get",
            lambda self, keys: probes.append(len(keys)) or real_get(self, keys))
        run = run_scenario("serve", f"database={store_dir}", "n_queries=2000",
                           "n_shards=2")
        assert run.cell["checks"]["answers_match"] is True
        assert set(run.cell["checks"]) == {
            "answers_match", "cache_absorbed_head", "batching_coalesced",
            "nothing_shed", "speedup_ge_5x"}
        assert sum(probes) >= 2000  # the naive pass alone is one get per query

    def test_serve_bench_missing_store_fails(self, tmp_path, run_scenario):
        run = run_scenario("serve", f"database={tmp_path / 'nope'}",
                           "n_queries=100")
        assert run.rc == 2 and str(tmp_path / "nope") in run.err

    def test_store_is_closed_when_the_bench_raises(self, store_dir,
                                                   run_scenario, monkeypatch):
        import functools

        from repro.serve import run_serve_bench

        opened = []

        @functools.wraps(run_serve_bench)  # the target reads its signature
        def boom(counts, *, store, **kwargs):
            opened.append(store.store)
            raise RuntimeError("bench failed mid-run")

        monkeypatch.setattr("repro.serve.run_serve_bench", boom)
        with pytest.raises(RuntimeError, match="mid-run"):
            run_scenario("serve", f"database={store_dir}", "n_queries=100")
        (lsm,) = opened
        assert lsm.wal._fh.closed
        assert lsm.runs and all(run._sections is None for run in lsm.runs)
        with pytest.raises(ValueError, match="run is closed"):
            lsm.get(np.array([1], dtype=np.uint64))
