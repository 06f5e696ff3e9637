"""Every target, run once at a small size.

The shipped specs run these targets at the size their claims are stated
at (``benchmarks/xp/``, recorded in the ledger, smoke-run by CI).  Here
each runs once, small, so tier-1 pins what does not depend on the
host: which checks a target reports, that every exactness /
conservation / structural check holds, and that every metric has a
declared direction for the gate.  Checks whose threshold is a timing
ratio or a sampling estimate are named but not asserted at this size.
The ``paper`` target has no small size — an experiment's defaults are
its record — so it runs on the sub-second experiment ids.
"""

from __future__ import annotations

import pytest

from repro.xp.targets import TARGETS

#: ``paper`` experiment id -> the claims its cell reports as checks.
PAPER_CHECKS = {
    "table2": {"hops_1d == 1", "hops_2d == 2", "hops_3d == 3",
               "buffers_1d_over_2d > 1", "buffers_2d_over_3d > 1"},
    "table3": {"l0_bytes_1d == 10485760", "l1_bytes_1d == 270336",
               "l2_bytes_1d == 67584", "l3_bytes_1d == 80000"},
    "fig2": {"mem_1d_bytes_min < 4194304", "mem_1d_bytes_max > 209715200",
             "mem_3d_bytes_max < 8388608", "n_node_counts == 8"},
    "fig5": {"compute_share_pct < 10", "movement_share_pct > 90",
             "op_to_byte == 0.123", "cpu_balance == 2.6",
             "h100_balance == 8.3"},
}

#: target -> (small params, host-independent checks, size-dependent checks)
CASES = {
    "serve-bench": (
        {"budget": 20_000, "n_queries": 4_000},
        {"answers_match", "cache_absorbed_head", "batching_coalesced",
         "nothing_shed"},
        {"speedup_ge_5x"},
    ),
    "lsm-bench": (
        {"budget": 20_000, "batch_records": 25, "memtable_kib": 4},
        {"snapshot_exact", "incremental_exact", "amp_equals_runs_before",
         "runs_exceeded_fan_in", "amp_bounded"},
        {"incremental_ge_3x"},
    ),
    "ooc-bench": (
        {"budget": 30_000},
        {"counts_exact", "store_exact", "dataset_ge_10x_ceiling",
         "ceiling_hit_twice", "spilled", "reread_matches_spill",
         "disk_writes_charged", "store_flushed"},
        set(),
    ),
    "count-bench": (
        {"budget": 20_000},
        {"fast_equals_scalar", "fast_equals_serial_oracle",
         "database_round_trips"},
        set(),
    ),
    # The fault-cost section runs at its fixed counting size, so its
    # checks (the chaos sweep's, bounds unchanged) hold here too.
    "dst-sweep": (
        {"budget": 10, "n_seeds": 1},
        {"no_violations", "deterministic", "all_schedules_ran",
         "determinism_sampled", "digests_distinct", "cost_runs_exact",
         "overhead_lt_10pct", "clean_needed_no_recovery",
         "hostile_time_bounded"},
        {"throughput_gt_10_per_s", "crashes_covered"},
    ),
    "cluster-bench": (
        {"budget": 20_000, "n_queries": 3_000, "repeats": 1,
         "service_time": 1e-4, "straggler_delay": 1e-2},
        {"answers_match", "hedging_answers_match", "hedges_fired",
         "chaos_answers_exact", "no_failovers", "final_rf_ok",
         "rebalance_moved"},
        {"overhead_lt_15pct", "hedged_p99_lt_70pct"},
    ),
    "tenant-bench": (
        {"budget": 20_000, "n_victim_groups": 40, "victim_interval": 4e-3,
         "flooders": 4, "flush_service_time": 5e-3},
        {"answers_match", "no_starvation", "share_error_lt_5pct",
         "autoscale_exact", "autoscale_split_and_merged"},
        {"isolated_lt_10pct", "unprotected_gt_50pct"},
    ),
    "trace-bench": (
        {"budget": 20_000, "n_queries": 4_000},
        {"replay_bit_identical"},
        {"model_error_le_2pp"},
    ),
    "paper": ({"exp_id": "fig5"}, PAPER_CHECKS["fig5"], set()),
    "synthetic-latency": ({}, set(), set()),
}


def test_cases_cover_exactly_the_registered_targets():
    assert set(CASES) == set(TARGETS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_target_checks_and_metric_directions(name):
    params, exact, size_dependent = CASES[name]
    target = TARGETS[name]
    outcome = target.run({**params, "seed": 3})
    checks = {**outcome.checks, **outcome.cost_checks}
    assert set(checks) == exact | size_dependent
    failed = sorted(c for c in exact if not checks[c])
    assert not failed, f"{name}: {failed} (metrics {outcome.metrics})"
    assert outcome.metrics and set(outcome.metrics) <= set(target.directions)


@pytest.mark.parametrize("exp_id", sorted(PAPER_CHECKS))
def test_paper_checks_are_the_claims_and_metrics_their_values(exp_id):
    target = TARGETS["paper"]
    outcome = target.run({"exp_id": exp_id, "seed": 3})
    assert outcome.checks == dict.fromkeys(PAPER_CHECKS[exp_id], True)
    # Every recorded value is what some claim is about (so it has a
    # direction), and every claim found its value.
    assert {name.split()[0] for name in outcome.checks} == set(outcome.metrics)
    assert set(outcome.metrics) <= set(target.directions)


def test_paper_needs_an_exp_id_and_takes_nothing_else():
    with pytest.raises(KeyError, match="unknown experiment None"):
        TARGETS["paper"].run({})
    with pytest.raises(ValueError, match=r"accepts \['exp_id'\]"):
        TARGETS["paper"].run({"exp_id": "fig5", "budget": 5})


@pytest.mark.parametrize("name", ["serve-bench", "cluster-bench",
                                  "tenant-bench", "trace-bench"])
def test_serving_targets_reject_unknown_keys_naming_the_accepted_ones(name):
    """Their keyword defaults live at ``run_*_bench``; the accepted keys
    are read from its signature, and a typo is still an error."""
    with pytest.raises(ValueError, match="unknown parameters") as exc:
        TARGETS[name].run({"n_querys": 10})
    message = str(exc.value)
    assert "'n_querys'" in message
    for accepted in ("dataset", "budget", "zipf_s"):
        assert f"'{accepted}'" in message
    assert message.count("seed") == 1  # "(+ seed)", not also in the list


def test_a_float_parameter_takes_an_int_and_a_none_default_takes_anything():
    merged = TARGETS["serve-bench"].merged({"zipf_s": 2, "n_queries": 10})
    assert merged["zipf_s"] == 2 and merged["seed"] == 0
    assert TARGETS["paper"].merged({"exp_id": "fig5"})["exp_id"] == "fig5"
