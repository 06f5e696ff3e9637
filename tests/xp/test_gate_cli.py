"""Gate semantics + the ``dakc xp`` CLI, including the acceptance
scenario: an identical re-run gates green, a hand-injected 2x slowdown
of one cell gates red, and ``xp run`` on the serve spec reproduces
``answers_match`` with bootstrap CIs in the ledger entry."""

from __future__ import annotations

import copy
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.xp.gate import gate_envelopes
from repro.xp.ledger import Ledger
from repro.xp.runner import run_spec
from repro.xp.spec import ExperimentSpec, RepetitionPolicy, SweepSpec, save_spec
from repro.xp.targets import TARGETS, TargetOutcome, XpTarget

REPO = Path(__file__).parents[2]
SMOKE_SPEC = str(REPO / "benchmarks" / "xp" / "smoke.json")
SERVE_SPEC = str(REPO / "benchmarks" / "xp" / "serve.json")


def synth_spec() -> ExperimentSpec:
    return ExperimentSpec(
        experiment="xp-gate-test",
        target="synthetic-latency",
        fixed={"base": 1.0, "noise": 0.05},
        sweep=SweepSpec.from_doc({"scale": [1.0, 2.0]}),
        seed=0,
        policy=RepetitionPolicy(warmup=0, repetitions=5),
        gate_metrics=("value",),
    )


def slow_down(envelope: dict, cell_id: str, factor: float = 2.0) -> dict:
    """Hand-inject a slowdown into one cell's gated metric."""
    doc = copy.deepcopy(envelope)
    for cell in doc["cells"]:
        if cell["cell_id"] == cell_id:
            cell["metrics"]["value"] = [
                factor * v for v in cell["metrics"]["value"]]
    return doc


class TestGateEnvelopes:
    def test_identical_rerun_passes(self):
        base, cur = run_spec(synth_spec()), run_spec(synth_spec())
        result = gate_envelopes(base, cur)
        assert result.ok
        assert result.comparisons and not result.regressions
        assert not result.failed_checks and not result.missing_cells

    def test_injected_2x_slowdown_of_one_cell_fails(self):
        base = run_spec(synth_spec())
        cur = slow_down(run_spec(synth_spec()), "scale=1.0")
        result = gate_envelopes(base, cur)
        assert not result.ok
        # The regression is localized to the doctored cell.
        assert [(c, m) for c, m, _ in result.regressions] == \
            [("scale=1.0", "value")]
        verdict = result.regressions[0][2]
        assert verdict.p_value < 0.01 and verdict.shift == pytest.approx(
            1.0, abs=0.2)

    def test_improvement_never_fails(self):
        base = run_spec(synth_spec())
        cur = slow_down(run_spec(synth_spec()), "scale=2.0", factor=0.5)
        result = gate_envelopes(base, cur)
        assert result.ok and result.improvements

    def test_failed_correctness_check_always_gates_red(self):
        base = run_spec(synth_spec())
        cur = run_spec(synth_spec())
        cur["cells"][0]["checks"]["answers_match"] = False
        result = gate_envelopes(base, cur)
        assert not result.ok
        assert result.failed_checks == ["[scale=1.0] answers_match"]

    def test_new_cells_are_reported_not_gated(self):
        base = run_spec(synth_spec())
        cur = run_spec(synth_spec())
        cur["cells"][1]["cell_id"] = "scale=4.0"
        result = gate_envelopes(base, cur)
        assert result.ok and result.missing_cells == ["scale=4.0"]

    def test_gate_metrics_restricts_judgment(self):
        base = run_spec(synth_spec())
        cur = copy.deepcopy(base)
        # elapsed_s is wall-clock noise; it is NOT in gate_metrics, so
        # even a doctored 100x blowup there cannot fail the gate.
        for cell in cur["cells"]:
            cell["metrics"]["elapsed_s"] = [
                100 * v for v in cell["metrics"]["elapsed_s"]]
        result = gate_envelopes(base, cur)
        assert result.ok
        assert {m for _, m, _ in result.comparisons} == {"value"}

    def test_experiment_mismatch_raises(self):
        base = run_spec(synth_spec())
        cur = copy.deepcopy(base)
        cur["experiment"] = "something-else"
        with pytest.raises(ValueError, match="experiment mismatch"):
            gate_envelopes(base, cur)

    def test_verdict_doc_is_json_serializable(self):
        base = run_spec(synth_spec())
        doc = gate_envelopes(base, slow_down(base, "scale=1.0")).to_doc()
        doc = json.loads(json.dumps(doc))
        assert doc["ok"] is False and doc["regressions"]


class TestXpCli:
    def ledger_args(self, tmp_path):
        return ["--ledger", str(tmp_path / "ledger")]

    def test_run_appends_envelope_with_cis(self, tmp_path, capsys):
        rc = main(["xp", "run", SMOKE_SPEC, *self.ledger_args(tmp_path)])
        assert rc == 0
        ledger = Ledger(tmp_path / "ledger")
        assert ledger.experiments() == ["xp-smoke"]
        env = ledger.latest("xp-smoke")
        ci = env["cells"][0]["summary"]["value"]["ci95"]
        assert ci[0] <= ci[1]
        out = capsys.readouterr().out
        assert "ledger entry" in out

    def test_run_names_each_failed_check_and_its_kind(self, tmp_path, monkeypatch,
                                                       capsys):
        """A failed wall-clock ratio is a cost check, not a wrong answer:
        ``xp run`` names every failed check with its kind."""
        def outcome(params):
            return TargetOutcome(metrics={"value": 1.0},
                                 checks={"exact": True, "sorted": False},
                                 cost_checks={"fast": False, "cheap": True})

        monkeypatch.setitem(TARGETS, "mixed-checks", XpTarget(
            "mixed-checks", outcome, {"value": "lower"},
            "fails one answer and one cost check"))
        spec = save_spec(ExperimentSpec(
            experiment="xp-kinds", target="mixed-checks", fixed={},
            sweep=SweepSpec(), seed=0,
            policy=RepetitionPolicy(warmup=0, repetitions=1)), tmp_path / "kinds.json")
        assert main(["xp", "run", str(spec), "--no-ledger"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: cost check failed: fast (cell default)",
                       "error: answer check failed: sorted (cell default)"]

    def test_gate_identical_rerun_exits_zero(self, tmp_path):
        args = self.ledger_args(tmp_path)
        assert main(["xp", "run", SMOKE_SPEC, *args]) == 0
        # Same spec, same seeds: the deterministic target reproduces
        # the baseline samples exactly, so the gate must pass.
        assert main(["xp", "gate", SMOKE_SPEC, *args]) == 0
        # The passing run became the next ledger entry.
        assert len(Ledger(tmp_path / "ledger").entries("xp-smoke")) == 2

    def test_gate_2x_slowdown_exits_nonzero(self, tmp_path, capsys):
        args = self.ledger_args(tmp_path)
        assert main(["xp", "run", SMOKE_SPEC, *args]) == 0
        # Inject the slowdown from the CLI: doubling the fixed 'base'
        # doubles every cell's value against the recorded baseline.
        rc = main(["xp", "gate", SMOKE_SPEC, *args, "--set", "base=2.0"])
        assert rc == 1
        assert "REGRESSED" in capsys.readouterr().out
        # The regressed run never became a baseline.
        assert len(Ledger(tmp_path / "ledger").entries("xp-smoke")) == 1

    def test_gate_report_only_always_exits_zero(self, tmp_path):
        args = self.ledger_args(tmp_path)
        assert main(["xp", "run", SMOKE_SPEC, *args]) == 0
        rc = main(["xp", "gate", SMOKE_SPEC, *args, "--set", "base=2.0",
                   "--report-only"])
        assert rc == 0

    def test_gate_empty_ledger_records_first_entry(self, tmp_path):
        args = self.ledger_args(tmp_path)
        assert main(["xp", "gate", SMOKE_SPEC, *args]) == 0
        assert len(Ledger(tmp_path / "ledger").entries("xp-smoke")) == 1

    def test_gate_json_verdict(self, tmp_path):
        args = self.ledger_args(tmp_path)
        out = tmp_path / "verdict.json"
        assert main(["xp", "run", SMOKE_SPEC, *args]) == 0
        assert main(["xp", "gate", SMOKE_SPEC, *args,
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True and doc["n_comparisons"] > 0

    def test_run_overrides_and_json_dump(self, tmp_path):
        args = self.ledger_args(tmp_path)
        out = tmp_path / "not-made-yet" / "envelope.json"  # --json makes it
        rc = main(["xp", "run", SMOKE_SPEC, *args, "--repetitions", "2",
                   "--warmup", "0", "--seed", "9", "--json", str(out)])
        assert rc == 0
        env = json.loads(out.read_text())
        assert env["spec"]["seed"] == 9
        assert all(len(c["seeds"]) == 2 for c in env["cells"])

    @pytest.mark.parametrize("spec_repetitions, ran", [(5, 2), (1, 1)])
    def test_quick_caps_repetitions_and_never_raises_them(
            self, tmp_path, spec_repetitions, ran):
        """A deterministic one-repetition spec (paper.json) runs once
        under --quick, not twice."""
        spec = replace(synth_spec(), policy=RepetitionPolicy(
            warmup=1, repetitions=spec_repetitions))
        path = save_spec(spec, tmp_path / "spec.json")
        out = tmp_path / "envelope.json"
        assert main(["xp", "run", str(path), "--quick", "--json", str(out),
                     *self.ledger_args(tmp_path)]) == 0
        env = json.loads(out.read_text())
        assert env["spec"]["policy"] == {"warmup": 0, "repetitions": ran}
        assert all(len(c["seeds"]) == ran for c in env["cells"])
        assert Ledger(tmp_path / "ledger").experiments() == []  # never appended

    def test_report_of_a_paper_run_ends_with_the_claims_table(
            self, tmp_path, capsys):
        spec = ExperimentSpec(
            experiment="paper", target="paper",
            sweep=SweepSpec.from_doc({"exp_id": ["table2", "fig5"]}),
            policy=RepetitionPolicy(warmup=0, repetitions=1))
        path = save_spec(spec, tmp_path / "paper.json")
        args = self.ledger_args(tmp_path)
        assert main(["xp", "run", str(path), *args]) == 0
        capsys.readouterr()
        assert main(["xp", "report", "paper", *args]) == 0
        out = capsys.readouterr().out
        assert "| experiment | claim | paper | measured | holds |" in out
        assert ("| table2 | `hops_3d == 3` | Table II: 3D HyperX, 3 hops "
                "| 3 | yes |") in out
        assert "| fig5 | `compute_share_pct < 10` |" in out
        # An experiment the run did not sweep is not evaluated, not passed.
        assert "| fig8 | `dakc_oom_max == 0` | Fig. 8: DAKC runs everywhere " \
               "| - | not evaluated |" in out

    def test_list_and_report_verbs(self, tmp_path, capsys):
        args = self.ledger_args(tmp_path)
        assert main(["xp", "run", SMOKE_SPEC, *args]) == 0
        capsys.readouterr()
        assert main(["xp", "list", *args,
                     "--specs", str(REPO / "benchmarks" / "xp")]) == 0
        out = capsys.readouterr().out
        assert "synthetic-latency" in out and "smoke.json" in out
        # What `--help` on a scenario verb used to be for: each target's
        # parameters, with the defaults read from `run_*_bench`.
        assert "n_queries=40000" in out and "database=''" in out
        assert "base=1.0  scale=1.0  noise=0.02" in out
        assert main(["xp", "report", *args]) == 0
        assert "xp-smoke" in capsys.readouterr().out
        assert main(["xp", "report", "xp-smoke", *args]) == 0
        assert "trajectory" in capsys.readouterr().out

    @pytest.mark.parametrize("override, complaint", [
        ("n_queries=abc", "n_queries: expected int, got 'abc'"),
        ("n_queries=1.5", "n_queries: expected int, got 1.5"),
        ("n_queries=true", "n_queries: expected int, got True"),
        ("zipf_s=steep", "zipf_s: expected float, got 'steep'"),
        ("database=7", "database: expected str, got 7"),
    ])
    def test_set_refuses_a_value_of_another_type_before_anything_runs(
            self, tmp_path, capsys, monkeypatch, override, complaint):
        monkeypatch.setattr("repro.serve.bench.zipf_workload",
                            lambda *a, **kw: pytest.fail("the bench ran"))
        rc = main(["xp", "run", SERVE_SPEC, "--quick", "--set", override])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {complaint}\n"

    def test_bad_spec_path_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["xp", "run", str(tmp_path / "missing.json"),
                   *self.ledger_args(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestAcceptanceServeSpec:
    """ISSUE acceptance: ``dakc xp run`` on the serve spec reproduces
    the serving claim with CIs landing in the ledger, under the same
    experiment id as the pre-ledger history."""

    def test_serve_spec_run_reproduces_answers_match(self, tmp_path):
        rc = main(["xp", "run", SERVE_SPEC,
                   "--ledger", str(tmp_path / "ledger"),
                   "--repetitions", "3", "--warmup", "0"])
        assert rc == 0
        env = Ledger(tmp_path / "ledger").latest("serve-bench")
        assert env["ok"] is True
        (cell,) = env["cells"]
        assert cell["cell_id"] == ""  # one cell: one trajectory
        assert all(cell["checks"].values())
        assert {"answers_match", "speedup_ge_5x"} <= set(cell["checks"])
        ci = cell["summary"]["speedup"]["ci95"]
        assert ci[0] <= cell["summary"]["speedup"]["median"] <= ci[1]
        assert cell["summary"]["cache_hit_rate"]["mean"] > 0.3
