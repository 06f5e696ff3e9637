"""Tests for the dakc CLI."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np
import pytest

from repro.apps.store import save_counts
from repro.cli import build_parser, main
from repro.core.serial import serial_count
from repro.lsm import LsmStore
from repro.seq.fastx import write_fastq
from repro.seq.readsim import reads_to_records
from repro.trace import QueryTrace, save_trace

SPECS = Path(__file__).resolve().parents[1] / "benchmarks" / "xp"


@pytest.fixture
def fastq_path(tmp_path, tiny_reads):
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads_to_records(tiny_reads))
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_mutually_exclusive_sources(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["count", "--input", "a", "--dataset", "b"])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert "dakc" in capsys.readouterr().out

    def test_the_verbs_are_the_artefact_tools_and_xp(self):
        """A scenario is run as `dakc xp run <spec>`, never as a verb."""
        def choices(parser):
            (sub,) = (a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
            return sub.choices

        verbs = choices(build_parser())
        assert set(verbs) == {
            "count", "datasets", "model", "bench", "simulate", "analyze",
            "compare", "sweep", "calibrate", "timeline", "ingest", "compact",
            "ooc-count", "dst", "trace", "xp"}
        assert set(choices(verbs["dst"])) == {"run", "replay"}
        assert set(choices(verbs["trace"])) == {
            "record", "profile", "replay", "sample"}
        assert set(choices(verbs["xp"])) == {"run", "gate", "report", "list"}

    @pytest.mark.parametrize("argv", [
        ["serve-bench"], ["tenant-bench"], ["cluster-bench"], ["chaos"],
        ["dst", "sweep"]], ids=" ".join)
    def test_a_scenario_is_not_a_verb(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestCount:
    def test_count_file(self, fastq_path, capsys):
        rc = main(["count", "--input", fastq_path, "-k", "9",
                   "--algorithm", "serial"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# distinct:" in out and "# total k-mers:" in out

    def test_count_dataset_with_simulation(self, capsys):
        rc = main(["count", "--dataset", "synthetic-20", "-k", "15",
                   "--nodes", "2", "--budget", "50000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated kernel time" in out
        assert "global syncs: 3" in out

    def test_top_and_spectrum(self, fastq_path, capsys):
        rc = main(["count", "--input", fastq_path, "-k", "9",
                   "--algorithm", "serial", "--top", "2", "--spectrum", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# top 2 k-mers:" in out
        assert "# spectrum" in out

    def test_output_tsv(self, fastq_path, tmp_path, capsys):
        out_path = tmp_path / "counts.tsv"
        rc = main(["count", "--input", fastq_path, "-k", "9",
                   "--algorithm", "serial", "--output", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) > 0
        kmer, count = lines[0].split("\t")
        assert len(kmer) == 9 and int(count) >= 1

    def test_unknown_dataset_is_graceful(self, capsys):
        rc = main(["count", "--dataset", "no-such", "-k", "9"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestOtherCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Synthetic 32" in out and "Human" in out

    def test_model(self, capsys):
        assert main(["model", "--dataset", "synthetic-28", "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        assert "T_total (sum model)" in out
        assert "iadd64/B" in out

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig7" in out and "table5" in out

    def test_bench_single(self, capsys):
        assert main(["bench", "table4"]) == 0
        assert "121.9" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "fig99"]) == 2

    def test_bench_prints_exactly_the_committed_body(self, capsys):
        assert main(["bench", "fig5"]) == 0
        body = Path(__file__).parents[1] / "benchmarks" / "results" / "fig5.txt"
        assert capsys.readouterr().out == body.read_text()

    def test_bench_refuses_a_parameter_the_experiment_lacks(self, capsys):
        """fig2 is a closed form: `--budget 5` used to run at full size."""
        assert main(["bench", "fig2", "--budget", "5"]) == 2
        err = capsys.readouterr().err
        assert "fig2: unknown parameters ['budget']" in err
        assert "accepts ['node_counts']" in err

    def test_bench_has_no_report_renderer(self):
        """The ledger envelope + `xp report` is the artefact."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "all", "--report", "r.md"])

    def test_bench_all_hands_budget_only_to_experiments_that_have_one(
            self, monkeypatch, capsys):
        from repro.bench import experiments
        from repro.bench.experiments import ExperimentResult

        seen = {}

        def sized(*, budget: int = 9, seed: int = 0):
            seen["sized"] = (budget, seed)
            return ExperimentResult("sized", "a replica")

        def closed_form():
            seen["closed-form"] = ()
            return ExperimentResult("closed-form", "no replica")

        monkeypatch.setattr(experiments, "EXPERIMENTS",
                            {"sized": sized, "closed-form": closed_form})
        assert main(["bench", "all", "--budget", "7"]) == 0
        assert seen == {"sized": (7, 0), "closed-form": ()}
        assert main(["bench", "closed-form", "--budget", "7"]) == 2

    def test_simulate(self, tmp_path, capsys):
        out_path = tmp_path / "sim.fastq"
        rc = main(["simulate", "--dataset", "synthetic-20",
                   "--fidelity", "0.0001", "--output", str(out_path)])
        assert rc == 0
        text = out_path.read_text()
        assert text.startswith("@read0")


def _scenario(name: str, database: str) -> list[str]:
    """argv serving *database* through a shipped scenario."""
    return ["xp", "run", str(SPECS / f"{name}.json"), "--quick",
            "--set", f"database={database}"]


class TestUnreadableFiles:
    """A damaged file is `error: <path>: …` and exit 2, never a traceback."""

    DAMAGE = {
        "truncated": lambda blob: blob[: len(blob) // 2],
        "garbage": lambda blob: np.random.default_rng(0).bytes(len(blob)),
        "empty": lambda blob: b"",
    }
    # verb -> (which good file to damage, argv given the paths)
    VERBS = {
        "analyze": ("db", lambda p: ["analyze", p["db"]]),
        "compare": ("db", lambda p: ["compare", p["db"], p["db"]]),
        "serve-bench": ("db", lambda p: _scenario("serve", p["db"])),
        "tenant-bench": ("db", lambda p: _scenario("tenant", p["db"])),
        "cluster-bench": ("db", lambda p: _scenario("cluster", p["db"])),
        "trace-replay-db": ("db", lambda p: [
            "trace", "replay", p["trace"], "--database", p["db"]]),
        "trace-replay-trace": ("trace", lambda p: [
            "trace", "replay", p["trace"], "--database", p["db"]]),
        "compact-run": ("run", lambda p: ["compact", "--store", p["store"]]),
        "compact-manifest": ("manifest", lambda p: [
            "compact", "--store", p["store"]]),
        "ingest-manifest": ("manifest", lambda p: [
            "ingest", "--store", p["store"], "--dataset", "synthetic-20",
            "-k", "9", "--budget", "1000"]),
    }

    @pytest.fixture
    def paths(self, tmp_path, tiny_reads):
        counts = serial_count(tiny_reads, 9)
        save_counts(tmp_path / "db.npz", counts)
        save_trace(tmp_path / "trace.npz", QueryTrace(
            ts=np.arange(4.0), streams=np.zeros(4, np.int32),
            keys=counts.kmers[:4], tiers=np.zeros(4, np.int8), k=9))
        with LsmStore(tmp_path / "store", 9) as store:
            store.ingest(tiny_reads)
            run = store.flush()
        return {"db": str(tmp_path / "db.npz"),
                "trace": str(tmp_path / "trace.npz"),
                "store": str(tmp_path / "store"),
                "run": str(run.path),
                "manifest": str(tmp_path / "store" / "MANIFEST.json")}

    @pytest.mark.parametrize("damage", DAMAGE)
    @pytest.mark.parametrize("verb", VERBS)
    def test_exit_2_naming_the_file(self, paths, verb, damage, capsys):
        target, argv = self.VERBS[verb]
        victim = Path(paths[target])
        victim.write_bytes(self.DAMAGE[damage](victim.read_bytes()))
        assert main(argv(paths)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {victim}: "), err
        assert "Traceback" not in err
