"""Tests for the runner envelopes and the append-only ledger."""

from __future__ import annotations

import json

import pytest

from repro.xp.ledger import LEDGER_VERSION, Ledger, validate_envelope
from repro.xp.runner import run_spec
from repro.xp.spec import ExperimentSpec, RepetitionPolicy, SweepSpec
from repro.xp.targets import TARGETS, TargetOutcome, XpTarget


def synth_spec(**overrides) -> ExperimentSpec:
    base = dict(
        experiment="xp-synth",
        target="synthetic-latency",
        fixed={"base": 1.0, "noise": 0.05},
        sweep=SweepSpec.from_doc({"scale": [1.0, 2.0]}),
        seed=11,
        policy=RepetitionPolicy(warmup=1, repetitions=5),
        gate_metrics=("value",),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunner:
    def test_envelope_shape_and_validation(self):
        env = run_spec(synth_spec())
        validate_envelope(env)  # the runner's output IS ledger-ready
        assert env["kind"] == "xp-run"
        assert env["experiment"] == "xp-synth"
        assert env["ok"] is True
        assert len(env["cells"]) == 2
        assert env["directions"]["value"] == "lower"
        assert env["directions"]["elapsed_s"] == "lower"
        # The spec travels inside the envelope, round-trippable.
        assert ExperimentSpec.from_doc(env["spec"]) == synth_spec()

    def test_environment_fingerprint_is_stamped(self):
        env = run_spec(synth_spec())
        fp = env["env"]
        for key in ("git_sha", "git_dirty", "python", "numpy", "scipy",
                    "platform", "cpu_count", "timestamp"):
            assert key in fp

    def test_repetition_policy_honored_and_warmup_discarded(self):
        env = run_spec(synth_spec(
            policy=RepetitionPolicy(warmup=2, repetitions=3)))
        for cell in env["cells"]:
            assert len(cell["seeds"]) == 3
            for samples in cell["metrics"].values():
                assert len(samples) == 3

    def test_failed_check_in_a_warmup_fails_the_envelope(self, monkeypatch):
        calls = []

        def wrong_only_on_first_call(params):
            calls.append(params["seed"])
            return TargetOutcome(metrics={"value": 1.0},
                                 checks={"exact": len(calls) > 1})

        monkeypatch.setitem(TARGETS, "flaky-first", XpTarget(
            "flaky-first", wrong_only_on_first_call, {"value": "lower"},
            "wrong answer on its first call only"))
        env = run_spec(synth_spec(
            target="flaky-first", fixed={}, sweep=SweepSpec(),
            policy=RepetitionPolicy(warmup=1, repetitions=3)))
        (cell,) = env["cells"]
        assert len(calls) == 4 and len(cell["metrics"]["value"]) == 3
        assert cell["checks"] == {"exact": False}
        assert env["ok"] is False  # never baseline-eligible

    @pytest.mark.parametrize("failing_call,ok", [(1, True), (2, False)])
    def test_cost_checks_count_kept_repetitions_only(self, monkeypatch,
                                                     failing_call, ok):
        """A slow warm-up misses a wall-clock ratio without failing the
        cell; the same miss in a kept repetition does fail it."""
        calls = []

        def slow_on_one_call(params):
            calls.append(params["seed"])
            return TargetOutcome(metrics={"value": 1.0},
                                 checks={"exact": True},
                                 cost_checks={"fast": len(calls) != failing_call})

        monkeypatch.setitem(TARGETS, "slow-once", XpTarget(
            "slow-once", slow_on_one_call, {"value": "lower"},
            "misses its wall-clock check on one call"))
        env = run_spec(synth_spec(
            target="slow-once", fixed={}, sweep=SweepSpec(),
            policy=RepetitionPolicy(warmup=1, repetitions=3)))
        (cell,) = env["cells"]
        assert len(calls) == 4
        assert cell["checks"] == {"exact": True, "fast": ok}
        assert env["ok"] is ok

    def test_seeds_distinct_across_reps_and_cells(self):
        env = run_spec(synth_spec())
        all_seeds = [s for cell in env["cells"] for s in cell["seeds"]]
        assert len(set(all_seeds)) == len(all_seeds)

    def test_identical_spec_reproduces_identical_samples(self):
        a, b = run_spec(synth_spec()), run_spec(synth_spec())
        for ca, cb in zip(a["cells"], b["cells"]):
            assert ca["metrics"]["value"] == cb["metrics"]["value"]
            assert ca["seeds"] == cb["seeds"]

    def test_different_root_seed_changes_samples(self):
        a = run_spec(synth_spec(seed=1))
        b = run_spec(synth_spec(seed=2))
        assert (a["cells"][0]["metrics"]["value"]
                != b["cells"][0]["metrics"]["value"])

    def test_summary_has_bootstrap_ci(self):
        env = run_spec(synth_spec())
        for cell in env["cells"]:
            s = cell["summary"]["value"]
            lo, hi = s["ci95"]
            assert lo <= s["mean"] <= hi
            assert s["n"] == 5

    def test_scale_sweep_actually_scales(self):
        env = run_spec(synth_spec(fixed={"base": 1.0, "noise": 0.0}))
        by_cell = {c["cell_id"]: c["summary"]["value"]["mean"]
                   for c in env["cells"]}
        assert by_cell["scale=2.0"] == pytest.approx(
            2 * by_cell["scale=1.0"])

    def test_unknown_target_param_is_loud(self):
        spec = synth_spec(fixed={"base": 1.0, "turbo": True})
        with pytest.raises(ValueError, match="unknown parameters"):
            run_spec(spec)


class TestValidateEnvelope:
    def make(self):
        return run_spec(synth_spec())

    def test_rejects_wrong_version(self):
        env = self.make()
        env["version"] = LEDGER_VERSION + 1
        with pytest.raises(ValueError, match="unsupported envelope"):
            validate_envelope(env)

    def test_rejects_missing_key(self):
        env = self.make()
        del env["directions"]
        with pytest.raises(ValueError, match="directions"):
            validate_envelope(env)

    def test_rejects_empty_cells(self):
        env = self.make()
        env["cells"] = []
        with pytest.raises(ValueError, match="no cells"):
            validate_envelope(env)

    def test_rejects_duplicate_cell_ids(self):
        env = self.make()
        env["cells"].append(dict(env["cells"][0]))
        with pytest.raises(ValueError, match="duplicate cell id"):
            validate_envelope(env)

    def test_rejects_bad_direction_and_empty_samples(self):
        env = self.make()
        env["directions"]["value"] = "sideways"
        with pytest.raises(ValueError, match="direction"):
            validate_envelope(env)
        env = self.make()
        env["cells"][0]["metrics"]["value"] = []
        with pytest.raises(ValueError, match="no\\s+samples"):
            validate_envelope(env)


class TestLedger:
    def test_append_load_round_trip(self, tmp_path):
        ledger = Ledger(tmp_path)
        env = run_spec(synth_spec())
        path = ledger.append(env)
        assert path.name.startswith("000001-")
        assert ledger.load(path) == env
        assert ledger.experiments() == ["xp-synth"]

    def test_sequence_is_total_order(self, tmp_path):
        ledger = Ledger(tmp_path)
        env = run_spec(synth_spec())
        p1, p2, p3 = (ledger.append(env) for _ in range(3))
        assert [p.name[:6] for p in (p1, p2, p3)] == \
            ["000001", "000002", "000003"]
        assert ledger.entries("xp-synth") == [p1, p2, p3]
        assert ledger.latest("xp-synth") == env

    def test_baseline_skips_failed_checks(self, tmp_path):
        ledger = Ledger(tmp_path)
        good = run_spec(synth_spec())
        bad = json.loads(json.dumps(good))
        bad["ok"] = False
        bad["cells"][0]["metrics"]["value"] = [99.0] * 5
        ledger.append(good)
        ledger.append(bad)
        base = ledger.baseline("xp-synth")
        assert base["ok"] and base["cells"][0]["metrics"]["value"] != [99.0] * 5

    def test_append_rejects_invalid(self, tmp_path):
        with pytest.raises(ValueError):
            Ledger(tmp_path).append({"version": LEDGER_VERSION})

    def test_empty_ledger_reads_cleanly(self, tmp_path):
        ledger = Ledger(tmp_path / "nope")
        assert ledger.experiments() == []
        assert ledger.entries("x") == []
        assert ledger.latest("x") is None
        assert ledger.baseline("x") is None
