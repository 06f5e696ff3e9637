"""CLI smoke tests for ``dakc dst run | replay`` and the dst sweep scenario."""

from __future__ import annotations

import json

from repro.cli import main
from repro.dst.bundle import ReproBundle, save_bundle
from repro.dst.schedule import ScheduleFuzzer
from repro.dst.sim import SimConfig, Simulation


def test_dst_run_smoke(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["dst", "run", "--budget", "3", "--seed", "0",
               "--json", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: PASS" in out
    assert "digests identical" in out
    doc = json.loads(report_path.read_text())
    assert doc["ok"] is True
    assert doc["schedules_run"] == 3


def test_dst_sweep_smoke(run_scenario):
    """One campaign per root seed is `dakc xp run benchmarks/xp/dst.json`;
    its fault-cost section is checked in tests/test_cli_chaos.py."""
    run = run_scenario("dst", "n_seeds=2", "budget=2")
    assert run.cell["metrics"]["schedules_run"] == [4.0]
    assert run.cell["metrics"]["violations"] == [0.0]
    assert all(run.cell["checks"][name] for name in (
        "no_violations", "deterministic", "all_schedules_ran",
        "determinism_sampled", "digests_distinct"))


def test_dst_replay_reproduces_clean_bundle(capsys, tmp_path):
    """A recorded trajectory replays to the same digest: REPRODUCED."""
    sim = Simulation()
    schedule = ScheduleFuzzer(seed=0).schedule(1)
    reads = sim.make_reads(schedule.seed)
    trajectory = sim.run(schedule, reads=reads)
    bundle = ReproBundle.from_failure(SimConfig(), schedule, reads, trajectory)
    path = save_bundle(bundle, tmp_path / "repro.json")

    rc = main(["dst", "replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: REPRODUCED" in out
    assert trajectory.digest in out


def test_dst_replay_flags_digest_drift(capsys, tmp_path):
    """Tampering with the recorded digest flips the verdict to CHANGED."""
    sim = Simulation()
    schedule = ScheduleFuzzer(seed=0).schedule(0)
    reads = sim.make_reads(schedule.seed)
    trajectory = sim.run(schedule, reads=reads)
    bundle = ReproBundle.from_failure(SimConfig(), schedule, reads, trajectory)
    bundle.digest = "0" * 64
    path = save_bundle(bundle, tmp_path / "drifted.json")

    rc = main(["dst", "replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict: CHANGED" in out
