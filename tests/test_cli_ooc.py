"""Tests for the `dakc ooc-count` CLI verb."""

from __future__ import annotations

import json

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


class TestOocCount:
    def test_fastq_verified_against_oracle(self, fastq, capsys):
        rc = main(["ooc-count", "--input", fastq, "-k", "17",
                   "--n-bins", "16", "--memory-mb", "0.002", "--verify"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# verify:     bit-identical to in-memory count" in out
        assert "B spilled" in out and "slices)" in out

    def test_dataset_replica(self, capsys):
        rc = main(["ooc-count", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "20000", "--memory-mb", "0.01",
                   "--n-bins", "8", "--verify"])
        assert rc == 0
        assert "# source:     synthetic-20" in capsys.readouterr().out

    def test_store_fusion(self, tmp_path, fastq, small_reads, capsys):
        store_dir = tmp_path / "db"
        rc = main(["ooc-count", "--input", fastq, "-k", "17",
                   "--memory-mb", "0.005", "--store", str(store_dir)])
        assert rc == 0
        assert "# store:" in capsys.readouterr().out
        with LsmStore(store_dir) as store:
            assert store.snapshot() == serial_count(small_reads, 17)

    def test_json_report(self, tmp_path, fastq, capsys):
        report = tmp_path / "out" / "ooc.json"
        rc = main(["ooc-count", "--input", fastq, "-k", "17",
                   "--memory-mb", "0.002", "--verify",
                   "--json", str(report)])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(report.read_text())
        assert doc["verified"] is True
        assert doc["spill"]["bytes_reread"] == doc["spill"]["bytes_spilled"] > 0
        assert doc["spill"]["n_slices"] >= 2
        assert doc["disk_time_s"] > 0

    def test_workdir_is_left_empty(self, tmp_path, fastq, capsys):
        workdir = tmp_path / "scratch"
        rc = main(["ooc-count", "--input", fastq, "-k", "17",
                   "--memory-mb", "0.002", "--workdir", str(workdir)])
        assert rc == 0
        assert "scratch runs written" in capsys.readouterr().out
        assert workdir.is_dir() and not list(workdir.iterdir())

    def test_removed_options_are_refused(self, fastq, capsys):
        for extra in (["-w", "5"], ["--keep-bins"]):
            with pytest.raises(SystemExit) as exc:
                main(["ooc-count", "--input", fastq, "-k", "17", *extra])
            assert exc.value.code == 2
        capsys.readouterr()

    def test_canonical_verified(self, fastq, capsys):
        rc = main(["ooc-count", "--input", fastq, "-k", "17",
                   "--memory-mb", "0.002", "--canonical", "--verify"])
        assert rc == 0
        assert "bit-identical" in capsys.readouterr().out
