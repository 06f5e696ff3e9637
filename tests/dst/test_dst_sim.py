"""Tests for the Simulation: determinism, clean passes, pluggable checks."""

from __future__ import annotations

import numpy as np

from repro.dst.invariants import Invariant, default_registry
from repro.dst.runner import dst_run
from repro.dst.schedule import ScheduleFuzzer
from repro.dst.sim import SimConfig, Simulation

# Small universe: a run costs tens of milliseconds, corner cases
# (flushes, compactions, relays) still trigger.
FAST = SimConfig(n_reads=12, read_len=30, n_queries=48, miss_queries=8,
                 group_size=24)


class TestSimConfig:
    def test_roundtrip(self):
        cfg = SimConfig(n_reads=7, rf=3, memtable_bytes=1024)
        assert SimConfig.from_doc(cfg.to_doc()) == cfg

    def test_n_pes(self):
        assert SimConfig(nodes=3, cores_per_node=2).n_pes == 6


class TestSimulation:
    def test_make_reads_deterministic(self):
        sim = Simulation(FAST)
        a, b = sim.make_reads(5), sim.make_reads(5)
        assert len(a) == FAST.n_reads
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = sim.make_reads(6)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_clean_baseline_passes(self):
        """Schedule 0 is the fault-free production path: must be green."""
        sim = Simulation(FAST)
        t = sim.run(ScheduleFuzzer(seed=0).schedule(0))
        assert t.ok, [v.to_doc() for v in t.violations]
        assert len(t.digest) == 64

    def test_digest_is_deterministic(self):
        """The determinism contract: same schedule, byte-identical digest."""
        sim = Simulation(FAST)
        for schedule in ScheduleFuzzer(seed=0).schedules(6):
            t1 = sim.run(schedule)
            t2 = sim.run(schedule)
            assert t1.digest == t2.digest, schedule.describe()
            assert t1.events == t2.events

    def test_distinct_schedules_distinct_digests(self):
        sim = Simulation(FAST)
        digests = {sim.run(s).digest
                   for s in ScheduleFuzzer(seed=0).schedules(4)}
        assert len(digests) == 4

    def test_faulty_schedules_pass_on_clean_code(self):
        """Drops/dups/crashes are *tolerated* faults, not violations."""
        sim = Simulation(FAST)
        interesting = [s for s in ScheduleFuzzer(seed=0).schedules(20)
                       if s.plan is not None or s.crash_point is not None]
        assert interesting  # the fuzzer actually exercises faults
        for schedule in interesting[:6]:
            t = sim.run(schedule)
            assert t.ok, (schedule.describe(),
                          [v.to_doc() for v in t.violations])

    def test_ooc_layer_runs_and_conserves_spill(self):
        """Every run exercises out-of-core counting; a spill-permuted
        schedule still passes with bytes reread == bytes spilled."""
        sim = Simulation(FAST)
        schedules = [s for s in ScheduleFuzzer(seed=0).schedules(12)
                     if s.spill_seed is not None]
        assert schedules  # the fuzzer samples the spill knob
        for schedule in [ScheduleFuzzer(seed=0).schedule(0)] + schedules[:2]:
            t = sim.run(schedule)
            assert t.ok, [v.to_doc() for v in t.violations]
            spill = t.events["ooc"]["spill"]
            assert spill["bytes_spilled"] == spill["bytes_reread"] > 0

    def test_ooc_invariants_registered(self):
        names = default_registry().names()
        assert "ooc-exact" in names and "spill-conservation" in names

    def test_registry_is_pluggable(self):
        """A user-registered invariant fires like a built-in one."""
        registry = default_registry()
        registry.register(Invariant("always-fire", "runtime",
                                    lambda ctx: "fired"))
        sim = Simulation(FAST, registry=registry)
        t = sim.run(ScheduleFuzzer(seed=0).schedule(0))
        assert any(v.invariant == "always-fire" for v in t.violations)
        assert t.events["violations"]  # recorded in the trajectory too


class TestDstRun:
    def test_small_clean_campaign(self):
        report = dst_run(budget=6, seed=0, determinism_every=3)
        assert report.ok
        assert report.schedules_run == 6
        assert report.determinism_checked == 2  # indices 0 and 3
        assert report.determinism_ok
        assert len(report.digests) == 6
