"""Tests for the failure shrinker (ddmin over reads + schedule nulling)."""

from __future__ import annotations

import pytest

from repro.cluster.script import MembershipEvent
from repro.dst.invariants import Invariant, default_registry
from repro.dst.schedule import Schedule, ScheduleFuzzer
from repro.dst.shrink import MAX_RUNS, shrink_failure
from repro.dst.sim import SimConfig, Simulation
from repro.fault.models import FaultPlan

FAST = SimConfig(n_reads=12, read_len=30, n_queries=48, miss_queries=8,
                 group_size=24)


def _always_failing_sim() -> Simulation:
    """A sim where one invariant fires on every run — failure-preserving
    shrinks can then go all the way, which makes the minimum predictable."""
    registry = default_registry()
    registry.register(Invariant("always-fire", "runtime",
                                lambda ctx: "fired"))
    return Simulation(FAST, registry=registry)


LOADED = Schedule(
    seed=5, protocol="2D", protect=False, drain_seed=3,
    plan=FaultPlan(seed=1, drop_prob=0.05, duplicate_prob=0.05),
    crash_point="flush.pre_manifest",
    membership=(MembershipEvent("kill", 1, 0),
                MembershipEvent("restart", 1, 2)),
)


def test_shrinks_to_minimal_reads_and_baseline_schedule():
    sim = _always_failing_sim()
    reads = sim.make_reads(LOADED.seed)
    result = shrink_failure(sim, LOADED, reads)
    # Every knob was irrelevant to the failure, so all of them go.
    s = result.schedule
    assert s.plan is None and s.crash_point is None
    assert not s.membership
    assert s.drain_seed is None
    assert s.protocol == "1D" and s.protect
    # ddmin bottoms out at a single read.
    assert result.reads_before == FAST.n_reads
    assert result.reads_after == len(result.reads) == 1
    assert result.runs <= MAX_RUNS
    # The kept trajectory still shows the first violation.
    assert result.invariant == "always-fire"
    assert any(v.invariant == "always-fire"
               for v in result.trajectory.violations)


def test_shrink_refuses_passing_input():
    sim = Simulation(FAST)  # default registry: clean code passes
    schedule = ScheduleFuzzer(seed=0).schedule(0)
    with pytest.raises(ValueError):
        shrink_failure(sim, schedule, sim.make_reads(0))
