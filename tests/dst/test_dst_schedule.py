"""Tests for DST schedules and the deterministic fuzzer."""

from __future__ import annotations

import pytest

from repro.cluster.script import MembershipEvent
from repro.dst.schedule import Schedule, ScheduleFuzzer
from repro.fault.models import FaultPlan
from repro.lsm.crash import CRASH_POINTS


class TestSchedule:
    def test_roundtrip_default(self):
        s = Schedule(seed=7)
        assert Schedule.from_doc(s.to_doc()) == s

    def test_roundtrip_fully_loaded(self):
        s = Schedule(
            seed=9,
            protocol="2D",
            protect=False,
            drain_seed=11,
            spill_seed=19,
            plan=FaultPlan(seed=3, drop_prob=0.01, straggler_pes=(1,),
                           straggler_factor=2.0),
            crash_point="flush.pre_manifest",
            crash_nth=2,
            membership=(MembershipEvent("kill", 0, 1),
                        MembershipEvent("join", 4, 2)),
        )
        doc = s.to_doc()
        assert Schedule.from_doc(doc) == s
        # The doc must be plain-JSON material (no tuples, no objects).
        import json

        assert json.loads(json.dumps(doc)) == doc

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(crash_point="not.a.point")
        with pytest.raises(ValueError):
            Schedule(crash_point=CRASH_POINTS[0], crash_nth=0)

    def test_bundles_from_the_exact_mode_era_fail_loudly(self):
        """DAKC once also ran an actor-scheduled exact mode, and schedules
        carried ``mode``, ``mailbox_seed`` and ``step_seed``.  A recorded
        fast schedule (null seeds) still loads; one that ran the removed
        path is refused by name instead of replaying another trajectory."""
        doc = Schedule(seed=9, drain_seed=11).to_doc()
        assert not {"mode", "mailbox_seed", "step_seed"} & doc.keys()
        old = {**doc, "mode": "fast", "mailbox_seed": None, "step_seed": None}
        assert Schedule.from_doc(old) == Schedule(seed=9, drain_seed=11)
        for field, value in (("mode", "exact"), ("mailbox_seed", 13), ("step_seed", 17)):
            with pytest.raises(ValueError, match=field):
                Schedule.from_doc({**old, field: value})

    def test_describe_mentions_active_knobs(self):
        s = Schedule(seed=1, protect=False, drain_seed=5, spill_seed=23,
                     crash_point="wal.mid_append",
                     membership=(MembershipEvent("kill", 2, 0),))
        d = s.describe()
        assert "bare" in d and "drain-permuted" in d
        assert "crash@wal.mid_append" in d and "kill:2@0" in d
        assert "spill-permuted" in d


class TestScheduleFuzzer:
    def test_pure_function_of_seed_and_index(self):
        a = ScheduleFuzzer(seed=0)
        b = ScheduleFuzzer(seed=0)
        for i in range(12):
            assert a.schedule(i) == b.schedule(i)

    def test_prefix_stable_under_budget(self):
        fz = ScheduleFuzzer(seed=3)
        assert list(fz.schedules(5)) == list(fz.schedules(10))[:5]

    def test_roots_explore_different_spaces(self):
        a = list(ScheduleFuzzer(seed=0).schedules(6))
        b = list(ScheduleFuzzer(seed=1).schedules(6))
        assert a != b

    def test_schedule_zero_is_production_baseline(self):
        s = ScheduleFuzzer(seed=0).schedule(0)
        assert s.plan is None and s.crash_point is None
        assert s.drain_seed is None and not s.membership
        assert s.protect
        assert s.spill_seed is None

    def test_fuzzer_covers_the_knobs(self):
        """A modest budget exercises every nondeterminism source."""
        schedules = list(ScheduleFuzzer(seed=0).schedules(40))
        assert any(s.plan is not None for s in schedules)
        assert any(s.crash_point is not None for s in schedules)
        assert any(s.drain_seed is not None for s in schedules)
        assert any(not s.protect for s in schedules)
        assert any(s.membership for s in schedules)
        assert any(s.spill_seed is not None for s in schedules)
        crashes = [s for s in schedules if s.plan is not None and s.plan.crash_pes]
        assert {s.protect for s in crashes} == {True, False}
