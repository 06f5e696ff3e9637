"""Smoke + shape tests for the experiment registry (cheap settings).

Shapes are asserted as named claims (``repro.bench.claims``) over the
values each experiment returns, at reduced sizes where the full record
is too slow for tier-1; the recorded sizes are the registry defaults,
run by ``dakc xp run benchmarks/xp/paper.json``.
"""

from __future__ import annotations

import pytest

from repro.bench.claims import CLAIMS, claims_for, evaluate
from repro.bench.experiments import (
    EXPERIMENTS,
    experiment_parameters,
    list_experiments,
    run_experiment,
)


def assert_claims(result, *names):
    """Every named claim was evaluated on *result* and holds; with no
    names, every claim the result can answer."""
    verdicts = evaluate(result.exp_id, result.values)
    for name in names or verdicts:
        assert name in verdicts, f"{name}: not evaluated (values {result.values})"
        assert verdicts[name], f"{name} (values {result.values})"
    return verdicts


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        """One experiment per table (II-V) and figure (1-13)."""
        ids = set(list_experiments())
        for table in ("table2", "table3", "table4", "table5"):
            assert table in ids
        for fig in range(1, 14):
            assert f"fig{fig}" in ids

    def test_ablations_and_extensions_registered(self):
        assert {e for e in list_experiments() if e[0] in "ae"} == {
            "ablation-batch", "ablation-heavy-threshold", "ablation-minimizer",
            "ablation-preaccumulate", "ablation-sort",
            "ext-bigk", "ext-gpu", "ext-overlap"}

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_experiment("fig99")

    def test_misspelt_parameter_names_what_the_experiment_accepts(self):
        with pytest.raises(ValueError, match="unknown parameters") as exc:
            run_experiment("fig7", budgte=1)
        message = str(exc.value)
        assert "'budgte'" in message
        for accepted in ("budget", "datasets", "node_counts", "seed"):
            assert f"'{accepted}'" in message

    def test_inapplicable_parameter_is_refused_not_ignored(self):
        """fig2 is a closed form: it has no replica, so no budget."""
        with pytest.raises(ValueError, match=r"fig2: unknown parameters \['budget'\]"):
            run_experiment("fig2", budget=5)
        with pytest.raises(ValueError, match="accepts none"):
            run_experiment("table4", seed=1)

    def test_no_experiment_swallows_keywords(self):
        for exp_id in EXPERIMENTS:
            assert "_" not in experiment_parameters(exp_id), exp_id

    def test_every_claim_names_a_registered_experiment(self):
        assert {c.exp_id for c in CLAIMS} == set(EXPERIMENTS)
        names = [(c.exp_id, c.name) for c in CLAIMS]
        assert len(set(names)) == len(names)


class TestClaimSemantics:
    def test_absent_value_is_not_evaluated_never_passed(self):
        (claim,) = [c for c in claims_for("fig8") if c.value == "pakman_oom_at_32"]
        assert claim.holds({}) is None
        assert claim.holds({"pakman_oom_at_32": 1.0}) is True
        assert claim.holds({"pakman_oom_at_32": 0.0}) is False
        assert claim.name not in evaluate("fig8", {"pakman_oom_at_16": 1.0})

    def test_name_states_the_bound_and_direction_follows_the_comparison(self):
        by_name = {c.name: c for c in claims_for("fig1") + claims_for("fig11")}
        assert by_name["vs_kmc3_min > 10"].direction == "higher"
        assert by_name["vs_kmc3_min > 10"].paper == "Fig. 1: 15-102x over KMC3"
        assert by_name["speedup_2d_over_1d_max <= 1.02"].direction == "lower"


class TestCheapExperiments:
    def test_table2_hop_bounds(self):
        r = run_experiment("table2", p=64)
        assert_claims(r, "hops_1d == 1", "hops_2d == 2", "hops_3d == 3",
                      "buffers_1d_over_2d > 1", "buffers_2d_over_3d > 1")

    def test_table3_rows(self):
        r = run_experiment("table3", p=64)
        assert len(r.tables[0][1]) == 4
        # The P-independent closed forms hold at any P; L0 and L2 are
        # stated at the recorded P = 256.
        assert_claims(r, "l1_bytes_1d == 270336", "l3_bytes_1d == 80000")
        assert_claims(run_experiment("table3"))

    def test_table4_rows(self):
        assert_claims(run_experiment("table4"),
                      "c_node_gops == 121.9", "line_bytes == 64")

    def test_table5_full_inventory(self):
        r = run_experiment("table5")
        assert len(r.tables[0][1]) == 20
        assert_claims(r, "n_datasets == 20", "has_synthetic_32 == 1",
                      "has_srr28206931 == 1")

    def test_fig2_memory_ordering(self):
        r = run_experiment("fig2", node_counts=[2, 64])
        assert len(r.tables[0][1]) == 2
        verdicts = assert_claims(r, "mem_1d_bytes_min < 4194304",
                                 "mem_3d_bytes_max < 8388608")
        # 64 nodes is 1536 cores, not the 6144 the claim is stated at.
        assert verdicts["mem_1d_bytes_max > 209715200"] is False
        assert_claims(run_experiment("fig2"))

    def test_fig5_breakdown(self):
        r = run_experiment("fig5")
        assert {row["component"] for row in r.tables[0][1]} == {
            "compute", "intranode", "internode"}
        assert_claims(r, "compute_share_pct < 10", "movement_share_pct > 90")

    def test_fig5_roofline_claim(self):
        assert_claims(run_experiment("fig5"), "op_to_byte == 0.123",
                      "cpu_balance == 2.6", "h100_balance == 8.3")


class TestShapeExperiments:
    """Slower experiments at reduced budgets — shape assertions only."""

    def test_fig6_radix_beats_quicksort(self):
        # Default budget: the sort-path difference needs per-rank
        # arrays large enough to spill the (scaled) cache.
        assert_claims(run_experiment("fig6"),
                      "datasets_ran > 0", "radix_speedup_min > 1.15")

    def test_fig8_oom_pattern(self):
        r = run_experiment("fig8", budget=120_000, node_counts=[16, 64])
        verdicts = assert_claims(r, "pakman_oom_at_16 == 1", "pakman_oom_at_64 == 0",
                                 "hysortk_oom_min == 1", "dakc_oom_max == 0")
        assert "pakman_oom_at_32 == 1" not in verdicts

    def test_fig11_1d_fastest(self):
        r = run_experiment("fig11", budget=120_000, node_counts=[8])
        assert_claims(r, "speedup_2d_over_1d_max <= 1.02",
                      "speedup_3d_over_1d_max <= 1.02")

    def test_fig13_c2_flat_above_8(self):
        r = run_experiment("fig13", budget=120_000)
        assert_claims(r, "c2_8_speedup > 0.88", "c2_16_64_128_speedup_min > 0.95",
                      "c2_2_speedup < 1.0")


class TestHeadlineExperiments:
    """Small-budget versions of the headline figures (shape only)."""

    def test_fig10_dakc_ahead(self):
        r = run_experiment("fig10", base_budget=40_000, node_counts=[1, 4, 8])
        assert_claims(r, "vs_hysortk_min > 1.1", "vs_pakman_min > 1.2")

    def test_fig7_dakc_fastest_at_limit(self):
        r = run_experiment("fig7", budget=100_000, node_counts=[4, 16],
                           datasets=["s-coelicolor"])
        assert_claims(r, "pakman_over_dakc_at_limit_min > 1",
                      "hysortk_over_dakc_at_limit_min > 1",
                      "dakc_first_to_last_speedup_min > 1")

    def test_fig7_one_node_count_has_no_scaling_to_claim(self):
        r = run_experiment("fig7", budget=100_000, node_counts=[4],
                           datasets=["s-coelicolor"])
        assert "dakc_first_to_last_speedup_min" not in r.values
        assert "dakc_first_to_last_speedup_min > 1" not in evaluate("fig7", r.values)
