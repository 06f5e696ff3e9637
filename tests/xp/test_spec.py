"""Tests for the declarative experiment spec layer (repro.xp.spec)."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.xp.spec import (
    SPEC_VERSION,
    ExperimentSpec,
    RepetitionPolicy,
    SweepSpec,
    cell_id,
    load_spec,
    save_spec,
)

def make_spec(**overrides) -> ExperimentSpec:
    base = dict(
        experiment="xp-test",
        target="synthetic-latency",
        fixed={"base": 1.0, "noise": 0.05},
        sweep=SweepSpec.from_doc({"scale": [1.0, 2.0]}),
        seed=7,
        policy=RepetitionPolicy(warmup=1, repetitions=4),
        gate_metrics=("value",),
        notes="unit-test spec",
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRepetitionPolicy:
    def test_defaults(self):
        p = RepetitionPolicy()
        assert p.warmup == 1 and p.repetitions == 5

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError, match="warmup"):
            RepetitionPolicy(warmup=-1)

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError, match="repetitions"):
            RepetitionPolicy(repetitions=0)

    def test_rejects_unknown_doc_keys(self):
        with pytest.raises(ValueError, match="unknown policy keys"):
            RepetitionPolicy.from_doc({"rounds": 3})


class TestSweepSpec:
    def test_grid_expansion_is_cartesian(self):
        sweep = SweepSpec.from_doc({"a": [1, 2], "b": ["x", "y", "z"]})
        cells = sweep.cells()
        assert len(cells) == 6
        assert {(c["a"], c["b"]) for c in cells} == {
            (a, b) for a in (1, 2) for b in ("x", "y", "z")
        }

    def test_empty_sweep_is_one_default_cell(self):
        assert SweepSpec().cells() == [{}]
        assert cell_id({}) == ""

    def test_axes_sorted_for_stable_order(self):
        sweep = SweepSpec.from_doc({"b": [1], "a": [2]})
        assert [name for name, _ in sweep.axes] == ["a", "b"]

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="non-empty list"):
            SweepSpec.from_doc({"a": []})

    def test_rejects_scalar_axis(self):
        with pytest.raises(ValueError, match="non-empty list"):
            SweepSpec.from_doc({"a": 3})

    def test_rejects_non_scalar_values(self):
        with pytest.raises(ValueError, match="non-scalar"):
            SweepSpec.from_doc({"a": [[1, 2]]})

    def test_cell_id_is_sorted_and_readable(self):
        assert cell_id({"b": 2, "a": 1}) == "a=1,b=2"


class TestExperimentSpec:
    def test_cells_merge_fixed_under_swept(self):
        spec = make_spec()
        cells = spec.cells()
        assert [cid for cid, _ in cells] == ["scale=1.0", "scale=2.0"]
        for _, params in cells:
            assert params["base"] == 1.0 and params["noise"] == 0.05
        assert cells[1][1]["scale"] == 2.0

    def test_rejects_param_both_fixed_and_swept(self):
        with pytest.raises(ValueError, match="both fixed and swept"):
            make_spec(fixed={"scale": 1.0})

    def test_rejects_empty_experiment_and_target(self):
        with pytest.raises(ValueError, match="experiment id"):
            make_spec(experiment="")
        with pytest.raises(ValueError, match="no target"):
            make_spec(target="")

    def test_rejects_non_scalar_fixed(self):
        with pytest.raises(ValueError, match="non-scalar"):
            make_spec(fixed={"base": [1, 2]})

    def test_doc_round_trip_is_identity(self):
        spec = make_spec()
        assert ExperimentSpec.from_doc(spec.to_doc()) == spec

    def test_from_doc_rejects_wrong_version(self):
        doc = make_spec().to_doc()
        doc["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="unsupported spec version"):
            ExperimentSpec.from_doc(doc)

    def test_from_doc_rejects_unknown_keys(self):
        doc = make_spec().to_doc()
        doc["repetitions"] = 3  # policy key misplaced at top level
        with pytest.raises(ValueError, match="unknown spec keys"):
            ExperimentSpec.from_doc(doc)


class TestSpecIO:
    def test_json_round_trip(self, tmp_path):
        spec = make_spec()
        path = save_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec
        # The on-disk form is versioned.
        assert json.loads(path.read_text())["version"] == SPEC_VERSION

    def test_unknown_extension_rejected(self, tmp_path):
        path = tmp_path / "spec.toml"   # a form this repo once wrote
        path.write_text("{}")
        with pytest.raises(ValueError, match="unknown spec extension"):
            load_spec(path)
        with pytest.raises(ValueError, match="unknown spec extension"):
            save_spec(make_spec(), path)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="bad.json"):
            load_spec(path)

    def test_committed_specs_load(self):
        from pathlib import Path

        specs_dir = Path(__file__).parents[2] / "benchmarks" / "xp"
        specs = sorted(specs_dir.glob("*.json"))
        assert len(specs) >= 4  # serve, lsm, ooc, smoke
        for path in specs:
            spec = load_spec(path)
            assert spec.cells()

    def test_replace_keeps_validation(self):
        spec = make_spec()
        with pytest.raises(ValueError, match="both fixed and swept"):
            dataclasses.replace(spec, fixed={"scale": 3.0})
