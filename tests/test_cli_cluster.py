"""The cluster scenario, run as `dakc xp run benchmarks/xp/cluster.json`."""

from __future__ import annotations

import pytest

from repro.apps.store import save_counts
from repro.cli import build_parser, main
from repro.core.serial import serial_count

FAST = ["n_queries=1500", "repeats=1", "n_nodes=4", "service_time=5e-5",
        "straggler_delay=3e-3", "chunk_keys=512"]
#: The checks that do not depend on this host's timing at this size.
EXACT = ["answers_match", "hedging_answers_match", "chaos_answers_exact",
         "no_failovers", "final_rf_ok", "rebalance_moved"]


class TestClusterBench:
    def test_dataset_replica_run(self, run_scenario):
        run = run_scenario("cluster", "dataset=synthetic-20", "k=15",
                           "budget=20000", *FAST)
        assert run.rc in (0, 1)  # 1: a timing threshold missed at this size
        assert all(run.cell["checks"][name] for name in EXACT)
        for line in ("router_overhead_frac", "hedged_p99_reduction",
                     "check:chaos_answers_exact"):
            assert line in run.out

    def test_database_input_and_json(self, tmp_path, small_reads,
                                     run_scenario):
        db = tmp_path / "counts.npz"
        save_counts(db, serial_count(small_reads, 15))
        run = run_scenario("cluster", f"database={db}", *FAST)
        assert all(run.cell["checks"][name] for name in EXACT)
        # What the verb printed and its target did not carry: reported.
        metrics = run.cell["metrics"]
        assert metrics["failovers"] == [0.0]
        assert metrics["moved_keys"][0] > 0 and metrics["retries"][0] >= 0
        assert run.cell["params"]["database"] == str(db)

    def test_help_lists_verb(self, capsys):
        """The scenario's verb is `xp`; `cluster-bench` names its target,
        which `xp list` shows with the parameters `--help` used to."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        help_text = capsys.readouterr().out
        assert "xp" in help_text and "cluster-bench" not in help_text
        assert main(["xp", "list"]) == 0
        listed = capsys.readouterr().out
        assert "cluster-bench" in listed and "n_nodes=6" in listed

    def test_rf_must_fit_nodes(self, run_scenario):
        run = run_scenario("cluster", "dataset=synthetic-20", "k=15",
                           "budget=20000", "n_nodes=2", "rf=3",
                           "n_queries=100", "repeats=1")
        assert run.rc == 2
        assert "error:" in run.err

    @pytest.mark.parametrize("override,param", [
        ("service_time=0", "service_time"),
        ("straggler_delay=1e-5", "straggler_delay"),
    ])
    def test_straggler_timing_refused(self, run_scenario, override, param):
        """The straggler's slowdown is straggler_delay / service_time: a
        zero service time or a delay below it is refused up front."""
        run = run_scenario("cluster", "dataset=synthetic-20", "k=15",
                           "budget=20000", "n_queries=100", "repeats=1",
                           override)
        assert run.rc == 2 and run.cell is None
        assert run.err.startswith(f"error: {param} must be")
