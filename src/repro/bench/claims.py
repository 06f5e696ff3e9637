"""The paper's record as data: every figure claim, stated once.

A :class:`Claim` compares one named value of an experiment
(:attr:`repro.bench.experiments.ExperimentResult.values`) with a
literal bound, and carries what the paper itself reports beside it.
The ``paper`` xp target turns the claims of an experiment into its
checks; ``tests/bench`` asserts them at reduced sizes; EXPERIMENTS.md
renders them next to the newest ledger entry.  A claim's name is its
own statement (``vs_kmc3_min > 10``), so the threshold can never drift
from the check that reports it.

The bounds are the replica's shape tolerances, not the paper's numbers:
who wins, by roughly how much, where a method fails (see
EXPERIMENTS.md, "How to read these numbers").
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

__all__ = ["Claim", "CLAIMS", "claims_for", "evaluate"]

_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "==": operator.eq}

MiB = 1024**2


@dataclass(frozen=True)
class Claim:
    """``value <op> bound`` on one experiment, with the paper's figure."""

    exp_id: str
    value: str
    op: str
    bound: float
    paper: str

    @property
    def name(self) -> str:
        return f"{self.value} {self.op} {self.bound}"

    @property
    def direction(self) -> str:
        """Which way the value is better, for the gate (an exact
        constant has no better side; the gate needs one)."""
        return "higher" if self.op[0] == ">" else "lower"

    def holds(self, values: dict) -> bool | None:
        """True/False, or None when *values* lacks the value (a reduced
        sweep that never reached it): not evaluated, never passed."""
        if self.value not in values:
            return None
        return bool(_COMPARISONS[self.op](values[self.value], self.bound))


CLAIMS: tuple[Claim, ...] = tuple(Claim(*row) for row in (
    # -- Tables II-V -------------------------------------------------------
    ("table2", "hops_1d", "==", 1, "Table II: 1D all-connected, 1 hop"),
    ("table2", "hops_2d", "==", 2, "Table II: 2D HyperX, 2 hops"),
    ("table2", "hops_3d", "==", 3, "Table II: 3D HyperX, 3 hops"),
    ("table2", "buffers_1d_over_2d", ">", 1, "Table II: O(P^2) vs O(P^(3/2)) memory"),
    ("table2", "buffers_2d_over_3d", ">", 1, "Table II: O(P^(3/2)) vs O(P^(4/3)) memory"),
    ("table3", "l0_bytes_1d", "==", 40 * 1024 * 256, "Table III: L0 = 40K x P (1D), P = 256"),
    ("table3", "l1_bytes_1d", "==", 264 * 1024, "Table III: L1 = 264K (C1 = 1024)"),
    ("table3", "l2_bytes_1d", "==", 264 * 256, "Table III: L2 = 264 x P (C2 = 32), P = 256"),
    ("table3", "l3_bytes_1d", "==", 80_000, "Table III: L3 = 80K (C3 = 10^4)"),
    ("table4", "c_node_gops", "==", 121.9, "Table IV: C_node = 121.9 GOp/s"),
    ("table4", "line_bytes", "==", 64, "Table IV: L = 64 B"),
    ("table5", "n_datasets", "==", 20, "Table V: 13 synthetic + 7 SRA datasets"),
    ("table5", "has_synthetic_32", "==", 1, "Table V: Synthetic 32 (451 GB)"),
    ("table5", "has_srr28206931", "==", 1, "Table V: SRR28206931 (Human)"),
    # -- Fig. 1: headline --------------------------------------------------
    ("fig1", "vs_kmc3_min", ">", 10, "Fig. 1: 15-102x over KMC3"),
    ("fig1", "vs_pakman_min", ">", 1.0, "Fig. 1: 2.8x mean over PakMan*"),
    ("fig1", "vs_hysortk_min", ">", 1.0, "Fig. 1: 2.3x mean over HySortK"),
    # -- Fig. 2: conveyor memory (48 .. 6144 cores) ------------------------
    ("fig2", "mem_1d_bytes_min", "<", 4 * MiB, "Fig. 2: 1D modest at 48 cores"),
    ("fig2", "mem_1d_bytes_max", ">", 200 * MiB, "Fig. 2: 1D excessive at 6144 cores"),
    ("fig2", "mem_3d_bytes_max", "<", 8 * MiB, "Fig. 2: 3D stays within a few MB"),
    ("fig2", "n_node_counts", "==", 8, "Fig. 2: 2 .. 256 nodes"),
    # -- Figs. 3-4: measured / analytical model, per phase -----------------
    ("fig3", "p1_miss_ratio_min", ">=", 0.7, "Fig. 3: P1 model slightly under measured"),
    ("fig3", "p1_miss_ratio_max", "<=", 1.5, "Fig. 3: P1 model slightly under measured"),
    ("fig3", "p2_miss_ratio_max", "<=", 1.05, "Fig. 3: P2 worst-case model over measured"),
    ("fig4", "t1_ratio_min", ">=", 0.33, "Fig. 4: model underestimates, same ballpark"),
    ("fig4", "t1_ratio_max", "<=", 3.0, "Fig. 4: model underestimates, same ballpark"),
    ("fig4", "t2_ratio_min", ">=", 0.2, "Fig. 4: model underestimates, same ballpark"),
    ("fig4", "t2_ratio_max", "<=", 3.0, "Fig. 4: model underestimates, same ballpark"),
    # -- Fig. 5 + Sec. VII roofline ----------------------------------------
    ("fig5", "compute_share_pct", "<", 10, "Fig. 5: compute share very small"),
    ("fig5", "movement_share_pct", ">", 90, "Fig. 5: data movement dominates"),
    ("fig5", "op_to_byte", "==", 0.123, "Sec. VII: ~0.12 iadd64/B (1 per 8.14 B)"),
    ("fig5", "cpu_balance", "==", 2.60, "Sec. VII: CPU balance 2.6 iadd64/B"),
    ("fig5", "h100_balance", "==", 8.3, "Sec. VII: H100 balance 8.3 iadd64/B"),
    # -- Fig. 6: PakMan -> PakMan* -----------------------------------------
    ("fig6", "datasets_ran", ">", 0, "Fig. 6: Synthetic 27-30"),
    ("fig6", "radix_speedup_min", ">", 1.15, "Fig. 6: ~2x from the radix swap"),
    # -- Fig. 7 + Sec. VI-E: strong scaling --------------------------------
    ("fig7", "hysortk_over_pakman_mean", ">=", 1.0, "Sec. VI-E: HySortK 1.17x over PakMan*"),
    ("fig7", "hysortk_over_pakman_mean", "<=", 2.5, "Sec. VI-E: HySortK 1.17x over PakMan*"),
    ("fig7", "dakc_first_to_last_speedup_min", ">", 1, "Fig. 7: DAKC strong-scales"),
    ("fig7", "pakman_over_dakc_at_limit_min", ">", 1, "Fig. 7: 2.81x mean over PakMan*"),
    ("fig7", "hysortk_over_dakc_at_limit_min", ">", 1, "Fig. 7: 2.34x mean over HySortK"),
    # -- Fig. 8: Synthetic 32 OOM gates ------------------------------------
    ("fig8", "pakman_oom_at_16", "==", 1, "Fig. 8: PakMan* OOM at 16 & 32"),
    ("fig8", "pakman_oom_at_32", "==", 1, "Fig. 8: PakMan* OOM at 16 & 32"),
    ("fig8", "pakman_oom_at_64", "==", 0, "Fig. 8: PakMan* runs from 64 nodes"),
    ("fig8", "pakman_oom_at_128", "==", 0, "Fig. 8: PakMan* runs from 64 nodes"),
    ("fig8", "pakman_oom_at_256", "==", 0, "Fig. 8: PakMan* runs from 64 nodes"),
    ("fig8", "hysortk_oom_min", "==", 1, "Fig. 8: HySortK runs at no node count"),
    ("fig8", "dakc_oom_max", "==", 0, "Fig. 8: DAKC runs everywhere"),
    # -- Fig. 9: one node --------------------------------------------------
    ("fig9", "vs_kmc3_min", ">", 1.5, "Fig. 9: ~2x over KMC3"),
    ("fig9", "vs_pakman_min", ">", 0.85, "Fig. 9: ~2x over PakMan*"),
    ("fig9", "vs_hysortk_min", ">", 0.85, "Fig. 9: ~2x over HySortK"),
    # -- Fig. 10: weak scaling ---------------------------------------------
    ("fig10", "vs_hysortk_min", ">", 1.1, "Fig. 10: 1.7-3.4x over HySortK"),
    ("fig10", "vs_pakman_min", ">", 1.2, "Fig. 10: 2.0-6.3x over PakMan*"),
    # -- Fig. 11: topology -------------------------------------------------
    ("fig11", "speedup_2d_over_1d_max", "<=", 1.02, "Fig. 11: 1D is 10-20% faster"),
    ("fig11", "speedup_3d_over_1d_max", "<=", 1.02, "Fig. 11: 1D is 10-20% faster"),
    # -- Fig. 12: aggregation layers ---------------------------------------
    ("fig12", "human_l3_speedup_min", ">", 1.3, "Fig. 12: up to 66x on Human (6144 cores)"),
    ("fig12", "human_l3_speedup_growth", ">=", 0.9, "Fig. 12: grows with the core count"),
    ("fig12", "human_l3_over_l2_min", ">", 0.95, "Fig. 12: L3 essential on Human"),
    ("fig12", "synthetic_l2_speedup_min", ">", 1.2, "Fig. 12: L2 ~2x on uniform data"),
    ("fig12", "synthetic_l3_over_l2_max", "<=", 1.1, "Fig. 12: L3 adds nothing on uniform data"),
    # -- Fig. 13: C2 / C3 tuning -------------------------------------------
    ("fig13", "c2_8_speedup", ">", 0.88, "Fig. 13: flat for C2 >= 8"),
    ("fig13", "c2_16_64_128_speedup_min", ">", 0.95, "Fig. 13: flat for C2 >= 8"),
    ("fig13", "c2_2_speedup", "<", 1.0, "Fig. 13: degraded for C2 <= 4"),
    ("fig13", "c3_1e3_1e4_speedup_min", ">", 0.9, "Fig. 13: flat for 1e3 <= C3 <= 1e6"),
    ("fig13", "c3_100_speedup", "<", 1.0, "Fig. 13: degraded at C3 = 1e2"),
    # -- Ablations (DESIGN.md section 4) -----------------------------------
    ("ablation-batch", "syncs_b64_over_b1", ">", 1, "Eq. 1: smaller b, more supersteps"),
    ("ablation-batch", "time_b64_over_b1", ">=", 0.95, "Eq. 1: more supersteps never help"),
    ("ablation-heavy-threshold", "time_thr2_over_no_heavy_path", "<", 1,
     "Alg. 4: HEAVY is count > 2"),
    ("ablation-minimizer", "counts_exact", "==", 1, "same counts as Algorithm 1"),
    ("ablation-minimizer", "minimizer_over_hash_bytes", "<", 0.6,
     "super-k-mers cut wire volume"),
    ("ablation-minimizer", "minimizer_over_hash_imbalance", ">", 1,
     "Sec. IV: hashing balances load"),
    ("ablation-preaccumulate", "preaccumulated_over_raw_bytes", "<", 1,
     "Alg. 2: Accumulate(T_s[i]) before the exchange"),
    ("ablation-sort", "radix_over_quicksort_time", "<", 1, "Fig. 6: radix beats quicksort"),
    # -- Section VII extensions --------------------------------------------
    ("ext-bigk", "serial_total_exact", "==", 1, "Sec. VII: k <= 64 in 128 bits"),
    ("ext-bigk", "global_syncs", "==", 3, "Alg. 3: three global syncs"),
    ("ext-bigk", "counts_exact", "==", 1, "same counts as the serial 128-bit count"),
    ("ext-gpu", "h100_bandwidth_bound", "==", 1, "Sec. VII: bandwidth-bound on an H100"),
    ("ext-gpu", "h100_compute_utilisation", "<", 0.05, "Sec. VII: compute units idle"),
    ("ext-gpu", "h100_total_speedup", ">", 1.0, "Sec. VII: internode time unchanged"),
    ("ext-gpu", "h100_total_speedup", "<", 25.0, "Sec. VII: internode time unchanged"),
    ("ext-overlap", "counts_exact", "==", 1, "same counts as Algorithm 1"),
    ("ext-overlap", "stock_syncs_at_4", "==", 3, "Alg. 3: three global syncs"),
    ("ext-overlap", "overlap_syncs_at_4", "==", 2, "Sec. VII: two is the lower bound"),
    ("ext-overlap", "stock_syncs_at_16", "==", 3, "Alg. 3: three global syncs"),
    ("ext-overlap", "overlap_syncs_at_16", "==", 2, "Sec. VII: two is the lower bound"),
    ("ext-overlap", "overlap_over_stock_time_max", "<", 2.0,
     "Sec. VII: barrier saved vs costlier insertion"),
))


def claims_for(exp_id: str) -> list[Claim]:
    return [claim for claim in CLAIMS if claim.exp_id == exp_id]


def evaluate(exp_id: str, values: dict) -> dict[str, bool]:
    """``claim name -> holds`` over the claims of *exp_id* that *values*
    can answer; a claim whose value is absent is left out."""
    verdicts = {claim.name: claim.holds(values) for claim in claims_for(exp_id)}
    return {name: held for name, held in verdicts.items() if held is not None}
