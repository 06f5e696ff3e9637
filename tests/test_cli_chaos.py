"""The chaos scenario, run as `dakc xp run benchmarks/xp/chaos.json`."""

from __future__ import annotations

SMALL = ["dataset=synthetic-20", "k=17", "nodes=2", "n_plans=1", "crash_pe=1"]


class TestChaosCommand:
    def test_chaos_campaign_passes(self, run_scenario):
        run = run_scenario("chaos", *SMALL, "budget=30000", "drop_prob=0.02",
                           seed=5)
        assert run.rc == 0
        assert "status: ok" in run.out
        assert run.cell["checks"] == dict.fromkeys(
            ["benign_exact", "protected_clean_exact",
             "clean_needed_no_recovery", "overhead_lt_10pct",
             "hostile_all_exact", "hostile_recovered",
             "hostile_time_bounded"], True)
        assert run.cell["metrics"]["retransmits"][0] > 0

    def test_chaos_straggler_and_protocol(self, run_scenario):
        """The fault-plan fields only the old verb reached are spec keys,
        off by default: one PE at 1/50 speed blows the time bound and
        changes nothing about the counts; a delay probability is the
        plan's to validate."""
        base = [*SMALL, "budget=20000", "protocol=2D", "drop_prob=0.01"]
        assert run_scenario("chaos", *base).rc == 0
        slowed = run_scenario("chaos", *base, "straggler_pe=0",
                              "straggler_factor=50")
        assert slowed.rc == 1
        assert slowed.cell["checks"]["hostile_all_exact"]
        assert not slowed.cell["checks"]["hostile_time_bounded"]
        refused = run_scenario("chaos", *base, "delay_prob=1.5")
        assert refused.rc == 2 and "delay_prob must be in [0, 1]" in refused.err

    def test_bad_machine_preset(self, run_scenario):
        """The machine is the target's (phoenix-intel), not a parameter."""
        run = run_scenario("chaos", "machine=cray-1", "budget=1000")
        assert run.rc == 2 and "unknown parameters ['machine']" in run.err

    def test_bad_protocol(self, run_scenario):
        run = run_scenario("chaos", "protocol=9D", "budget=1000")
        assert run.rc == 2 and run.err.startswith("error: ")
