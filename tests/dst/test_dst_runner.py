"""The campaign loop: its shrink budget (at most MAX_BUNDLES failures are
shrunk, whether or not their bundles are written anywhere) and the
schedule classes its coverage block counts."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dst import runner
from repro.dst.invariants import Violation
from repro.dst.schedule import Schedule
from repro.dst.sim import Simulation, Trajectory


@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
def test_shrinks_at_most_max_bundles_failures(monkeypatch, tmp_path, out):
    def failing_run(self, schedule, reads=None):
        return Trajectory(schedule, [Violation("canary", "lsm", "always")],
                          {}, "digest")

    shrunk = []

    def fake_shrink(sim, schedule, reads):
        shrunk.append(schedule)
        return SimpleNamespace(schedule=schedule, reads=reads,
                               trajectory=failing_run(sim, schedule),
                               invariant="canary")

    monkeypatch.setattr(Simulation, "run", failing_run)
    monkeypatch.setattr(runner, "shrink_failure", fake_shrink)
    monkeypatch.setattr(runner.ReproBundle, "from_failure",
                        staticmethod(lambda *args: object()))
    monkeypatch.setattr(runner, "save_bundle", lambda bundle, path: path)
    budget = runner.MAX_BUNDLES + 4
    report = runner.dst_run(budget=budget, seed=0, determinism_every=0,
                            out_dir=tmp_path if out else None)
    assert len(report.violations) == budget
    assert len(shrunk) == runner.MAX_BUNDLES
    assert len(report.bundles) == (runner.MAX_BUNDLES if out else 0)


def test_coverage_counts_the_order_classes():
    """A drain-heap permutation and a slice-order permutation each count
    as their own class, apart from the fault classes."""
    plain = runner._coverage(Schedule())
    assert not plain["drain_permuted"] and not plain["slice_permuted"]
    both = runner._coverage(Schedule(drain_seed=3, spill_seed=5))
    assert both["drain_permuted"] and both["slice_permuted"]
    assert not both["protected_crash"] and not both["unprotected"]
