"""Round-trip, registry and ledger checks for the specs in benchmarks/xp/.

Every spec the CI smoke jobs run must load, reference a registered
target whose sweep axes exist, and survive a save/load round trip —
catching drift between the JSON files and the target registry before a
scheduled run does.  The committed ledger must agree with them: one
experiment id is one spec is one trajectory.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.xp.ledger import Ledger
from repro.xp.spec import load_spec, save_spec
from repro.xp.targets import get_target

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
SPEC_PATHS = sorted((BENCHMARKS / "xp").glob("*.json"))
LEDGER = Ledger(BENCHMARKS / "results" / "ledger")
#: The six scenarios whose history starts with a pre-ledger n=1 sample.
LEGACY_IDS = ["serve-bench", "lsm-store", "ooc-count", "cluster-bench",
              "tenant-bench", "trace-bench"]
#: Experiments whose spec was folded into another one; their ledger
#: history stays as the record of what was measured.
RETIRED_IDS = {"chaos-sweep"}  # its checks run in dst-sweep now
#: Ledger metrics retired with the mechanism they measured: the legacy
#: sample may hold them, the newest entry no longer does.  The second
#: cache tier was deleted with its gain metric (still passing then).
RETIRED_METRICS = {"two_tier_gain"}


def test_spec_dir_has_the_expected_campaigns():
    assert {p.stem for p in SPEC_PATHS} == {
        "cluster", "count", "dst", "lsm", "ooc", "paper", "serve",
        "smoke", "tenant", "trace"}


def test_every_ledger_directory_belongs_to_exactly_one_spec():
    owners = Counter(load_spec(p).experiment for p in SPEC_PATHS)
    assert set(owners.values()) == {1}, owners
    assert not RETIRED_IDS & set(owners), "a retired experiment has a spec"
    orphans = set(LEDGER.experiments()) - set(owners) - RETIRED_IDS
    assert not orphans, f"ledger history no shipped spec records to: {orphans}"


@pytest.mark.parametrize("path", [p for p in SPEC_PATHS if p.stem != "smoke"],
                         ids=lambda p: p.stem)
def test_spec_has_a_committed_xp_run_entry(path):
    experiment = load_spec(path).experiment
    kinds = [LEDGER.load(e)["kind"] for e in LEDGER.entries(experiment)]
    assert "xp-run" in kinds, f"{experiment}: ledger holds {kinds}"


@pytest.mark.parametrize("experiment", LEGACY_IDS)
def test_legacy_sample_and_rerecording_are_one_trajectory(experiment):
    legacy = LEDGER.load(LEDGER.entries(experiment)[0])
    newest = LEDGER.baseline(experiment)  # what `xp gate` compares to
    assert legacy["kind"] == "legacy-import" and newest["kind"] == "xp-run"
    (old,), (new,) = legacy["cells"], newest["cells"]
    assert old["cell_id"] == new["cell_id"] == ""
    assert all(len(v) == 1 for v in old["metrics"].values())
    assert all(len(v) >= 5 for v in new["metrics"].values())
    # Same names, so `xp report` and `xp gate` line the two up.
    assert set(old["metrics"]) - RETIRED_METRICS <= set(new["metrics"])
    assert set(old["checks"]) <= set(new["checks"])


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_spec_loads_and_targets_resolve(path):
    spec = load_spec(path)
    target = get_target(spec.target)
    assert spec.gate_metrics, f"{path.stem}: gate_metrics must be non-empty"
    for metric in spec.gate_metrics:
        assert metric in target.directions, (
            f"{path.stem}: gate metric {metric!r} has no direction on "
            f"target {target.name!r}")


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_spec_round_trips(path, tmp_path):
    spec = load_spec(path)
    copy = tmp_path / path.name
    save_spec(spec, copy)
    assert load_spec(copy) == spec
