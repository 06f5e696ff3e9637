"""The fault-tolerance campaign that was the chaos scenario.

Its clean/hostile cost runs are the fault-cost section of
`dakc xp run benchmarks/xp/dst.json`; the plan fields that section
leaves at zero (stragglers, delays) reach the counter through DST's
wiring, :func:`repro.dst.sim.run_runtime`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.dst.schedule import Schedule
from repro.dst.sim import run_runtime
from repro.fault import FaultPlan
from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop

COST_CHECKS = ["cost_runs_exact", "overhead_lt_10pct",
               "clean_needed_no_recovery", "hostile_time_bounded"]


class TestChaosCommand:
    def test_chaos_campaign_passes(self, run_scenario):
        run = run_scenario("dst", "n_seeds=1", "budget=1", seed=5)
        assert run.cell is not None
        checks = run.cell["checks"]
        assert {name: checks[name] for name in COST_CHECKS} == dict.fromkeys(
            COST_CHECKS, True)
        metrics = run.cell["metrics"]
        assert metrics["retransmits"][0] > 0
        assert metrics["mean_recovery_time"][0] > 0
        assert 1.0 <= metrics["fault_free_overhead"][0] < 1.10

    def test_chaos_straggler_and_protocol(self):
        """One PE at 1/50 speed slows a protected 2D run and changes
        nothing about the counts; a delay probability is the plan's to
        validate."""
        rng = np.random.default_rng(5)
        reads = [rng.integers(0, 4, size=120).astype(np.uint8)
                 for _ in range(60)]
        oracle = serial_count(reads, 15)

        def run(**plan):
            cost = CostModel(laptop(nodes=2, cores=2))
            schedule = Schedule(protocol="2D", protect=True,
                                plan=FaultPlan(seed=5, drop_prob=0.01, **plan))
            return run_runtime(schedule, reads, 15, cost)

        base = run()
        slowed = run(straggler_pes=(0,), straggler_factor=50.0)
        for result in (base, slowed):
            assert result.error is None and result.counts == oracle
        assert slowed.stats.sim_time > 3.0 * base.stats.sim_time
        with pytest.raises(ValueError, match=r"delay_prob must be in \[0, 1\]"):
            FaultPlan(delay_prob=1.5)

    def test_bad_machine_preset(self, run_scenario):
        """The cost section's machine is the target's (phoenix-intel),
        not a parameter: setting it is refused, nothing run."""
        run = run_scenario("dst", "machine=cray-1", "budget=1")
        assert run.rc == 2 and "unknown parameters ['machine']" in run.err
        assert run.cell is None

    def test_bad_protocol(self, run_scenario):
        """So is its topology (2D)."""
        run = run_scenario("dst", "protocol=9D", "budget=1")
        assert run.rc == 2 and run.err.startswith("error: ")
        assert "unknown parameters ['protocol']" in run.err
        assert run.cell is None
