"""The campaign loop's shrink budget: at most MAX_BUNDLES failures are
shrunk, whether or not their bundles are written anywhere."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.dst import runner
from repro.dst.invariants import Violation
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
