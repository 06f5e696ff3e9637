"""Experiment registry: one entry per table and figure of the paper.

Every function regenerates the rows/series of its table or figure on
scaled replica workloads (see DESIGN.md §3 for the index).  All return
an :class:`ExperimentResult`: ``tables`` render with
:func:`repro.bench.tables.format_table`, ``values`` are the named
numbers the experiment's claims (:mod:`repro.bench.claims`) are about,
taken where the function holds them as floats.  ``dakc bench`` and the
``paper`` xp target are thin wrappers over this registry.

Conventions:

* node counts are *simulated* nodes (PE = node granularity unless the
  experiment is single-node, where PE = core or socket as deployed in
  the paper);
* ``budget`` is the approximate k-mer count of each replica workload;
* speedups are ratios of simulated kernel times;
* every default is the size the paper record is stated at
  (``benchmarks/results/<id>.txt``, the ``paper`` ledger entries), and
  a value that does not exist at a reduced size is left out, never
  filled in.
"""

from __future__ import annotations

import inspect
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..api import count_kmers
from ..core.bsp import BspConfig, bsp_count
from ..core.dakc import dakc_count, dakc_count_big
from ..core.l2l3 import AggregationConfig
from ..core.minipart import minimizer_partitioned_count
from ..core.serial import serial_count
from ..core.sortedset import dakc_overlap_count
from ..model.analytical import predict
from ..model.gpu import A100, H100, project_speedup
from ..model.params import table4_params, table4_rows
from ..model.roofline import H100_BALANCE, hardware_balance, operational_intensity
from ..model.validation import validate_workload
from ..runtime.cost import CostModel
from ..runtime.machine import phoenix_amd, phoenix_intel
from ..runtime.memory import aggregation_memory_per_pe, table3_rows
from ..runtime.topology import make_topology
from ..seq.datasets import ALL_SPECS, get_spec, table5_rows
from ..seq.genomes import uniform_genome
from ..seq.readsim import ReadSimConfig, simulate_reads
from .harness import best_time, run_point, sweep_nodes
from .tables import format_bytes, format_speedup, format_table, format_time
from .workloads import DEFAULT_BUDGET_KMERS, build_workload

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "list_experiments",
           "experiment_parameters"]

#: Default k everywhere: the paper counts k=31 in every experiment.
K = 31


@dataclass
class ExperimentResult:
    """Rows, rendered tables and named values of one regenerated table/figure."""

    exp_id: str
    title: str
    tables: list[tuple[str, list[dict]]] = field(default_factory=list)
    notes: str = ""
    values: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        # Flags and counts are recorded as floats.  A value no point could
        # answer (every run OOM-gated, a sweep too short to hold it) is
        # given as None and left out, never NaN.
        self.values = {name: float(v) for name, v in self.values.items() if v is not None}

    def render(self) -> str:
        parts = [f"### {self.exp_id}: {self.title}\n"]
        for title, rows in self.tables:
            parts.append(format_table(rows, title=title))
        if self.notes:
            parts.append(f"Notes: {self.notes}\n")
        return "\n".join(parts)


def _over(num, den) -> list[float]:
    """``[num.sim_time / den.sim_time]``; empty when either point was OOM-gated."""
    return [] if num.oom or den.oom else [num.sim_time / den.sim_time]


def _three_way(w, nodes: int, **dakc_options):
    """DAKC and the two distributed baselines at one point: the three
    :class:`RunPoint` and their table cells (``OOM`` where gated)."""
    points = (run_point("dakc", w, K, nodes=nodes, **dakc_options),
              run_point("pakman*", w, K, nodes=nodes),
              run_point("hysortk", w, K, nodes=nodes))
    cells = {label: "OOM" if pt.oom else format_time(pt.sim_time)
             for label, pt in zip(("DAKC", "PakMan*", "HySortK"), points)}
    return points, cells


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def table2(*, p: int = 256) -> ExperimentResult:
    """Table II: Conveyors protocol properties, verified on topologies."""
    rows = []
    buffers, max_hops = {}, {}
    for proto, mem_class in (("1D", "O(P^2)"), ("2D", "O(P^(3/2))"), ("3D", "O(P^(4/3))")):
        topo = make_topology(proto, p)
        # Sample with coprime strides so 2D/3D pairs land off-axis.
        hops = max(
            topo.hop_count(s, d)
            for s in range(0, p, max(1, min(17, p // 4 or 1)))
            for d in range(0, p, max(1, min(13, p // 4 or 1)))
        )
        buffers[proto], max_hops[proto] = topo.total_buffers(), hops
        rows.append({"Protocol": proto,
                     "Topology": "All-Connected" if proto == "1D" else f"{proto} HyperX",
                     "Memory": mem_class, "Total buffers": buffers[proto], "#Hops": hops})
    return ExperimentResult(
        "table2", "Conveyors protocols (topology, memory, hops)",
        [(f"Table II @ P={p}", rows)],
        notes="Total buffers measured on the actual virtual topologies; "
        "hop counts verified over a sample of (src, dst) pairs.",
        values={**{f"hops_{proto.lower()}": hops for proto, hops in max_hops.items()},
                "buffers_1d_over_2d": buffers["1D"] / buffers["2D"],
                "buffers_2d_over_3d": buffers["2D"] / buffers["3D"]},
    )


def table3(*, p: int = 256) -> ExperimentResult:
    """Table III: aggregation parameters and memory per PE."""
    per_pe = aggregation_memory_per_pe("1D", p)
    return ExperimentResult(
        "table3",
        "Aggregation parameters",
        [(f"Table III @ P={p}", table3_rows(p))],
        values={f"{layer.lower()}_bytes_1d": per_pe[layer]
                for layer in ("L0", "L1", "L2", "L3")},
    )


def table4() -> ExperimentResult:
    """Table IV: model parameters for Phoenix."""
    params = table4_params()
    return ExperimentResult("table4", "Model parameters (Phoenix Intel)",
                            [("Table IV", table4_rows())],
                            values={"c_node_gops": params.c_node / 1e9, "line_bytes": params.l})


def table5() -> ExperimentResult:
    """Table V: dataset inventory at paper scale."""
    names = {spec.display for spec in ALL_SPECS.values()}
    return ExperimentResult(
        "table5", "Datasets used in experiments", [("Table V", table5_rows())],
        values={"n_datasets": len(ALL_SPECS),
                "has_synthetic_32": "Synthetic 32" in names,
                "has_srr28206931": "SRR28206931" in names},
    )


# ---------------------------------------------------------------------------
# Headline and memory figures
# ---------------------------------------------------------------------------

#: Fig. 1 datasets with replica budgets roughly tracking their real
#: relative sizes (the paper's scatter sizes dots by input size).
_FIG1_DATASETS = (("synthetic-24", 200_000), ("synthetic-26", 400_000),
                  ("p-aeruginosa", 250_000), ("s-coelicolor", 300_000), ("human", 500_000))


def fig1(*, budget: int | None = None, seed: int = 0) -> ExperimentResult:
    """Fig. 1: speedup of DAKC over baselines per dataset."""
    rows = []
    vs_kmc3, vs_pakman, vs_hysortk = [], [], []
    nodes_grid = [4, 8, 16]
    for key, ds_budget in _FIG1_DATASETS:
        w = build_workload(key, K, budget_kmers=budget or ds_budget, seed=seed)
        pts = sweep_nodes(["dakc", "pakman*", "hysortk"], w, K, nodes_grid, verify=False)
        t_dakc = best_time(pts, "dakc")
        t_pak = best_time(pts, "pakman*")
        t_hys = best_time(pts, "hysortk")
        kmc = run_point("kmc3", w, K, nodes=1)
        vs_kmc3.append(kmc.sim_time / t_dakc)
        vs_pakman.append(t_pak / t_dakc)
        vs_hysortk.append(t_hys / t_dakc)
        rows.append({"dataset": w.spec.display, "kmers": w.n_kmers(K),
                     "vs KMC3": format_speedup(vs_kmc3[-1]),
                     "vs PakMan*": format_speedup(vs_pakman[-1]),
                     "vs HySortK": format_speedup(vs_hysortk[-1])})
    return ExperimentResult(
        "fig1", "Speedup of DAKC over baselines (headline)",
        [("Fig. 1 (best configuration per method)", rows)],
        notes="Paper: 15-102x over shared memory (KMC3), 2.3x/2.8x mean over "
        "HySortK/PakMan*.",
        values={"vs_kmc3_min": min(vs_kmc3), "vs_pakman_min": min(vs_pakman),
                "vs_hysortk_min": min(vs_hysortk)},
    )


def fig2(*, node_counts: Sequence[int] = (2, 4, 8, 16, 32, 64, 128, 256)) -> ExperimentResult:
    """Fig. 2: per-core memory overhead of 1D/2D/3D conveyors."""
    machine = phoenix_intel(1)
    rows = []
    per_core = {"1D": [], "2D": [], "3D": []}
    for nodes in node_counts:
        p = nodes * machine.cores_per_node
        row = {"nodes": nodes, "cores (P)": p}
        for proto, series in per_core.items():
            series.append(aggregation_memory_per_pe(proto, p)["total"])
            row[proto] = format_bytes(series[-1])
        rows.append(row)
    return ExperimentResult(
        "fig2", "Per-core memory overhead of 1D/2D/3D Conveyors (Synthetic 32 strong scaling)",
        [("Fig. 2", rows)],
        notes="1D grows linearly in P and dominates at high core counts; "
        "2D/3D stay modest (Table III closed forms).",
        values={"n_node_counts": len(rows),
                "mem_1d_bytes_min": min(per_core["1D"]),
                "mem_1d_bytes_max": max(per_core["1D"]),
                "mem_3d_bytes_max": max(per_core["3D"])},
    )


_FIG34_BUDGETS = (50_000, 100_000, 200_000, 400_000, 800_000)


def _validation_rows(seed: int, budgets: Sequence[int]) -> list:
    """One model-vs-measured :class:`ValidationRow` per budget (8 nodes)."""
    machine = phoenix_intel(8)
    # Low-coverage replicas keep the genome far larger than the L3
    # window, so wire volume tracks k-mer volume as at paper scale.
    return [
        validate_workload(
            build_workload("synthetic-24", K, budget_kmers=budget, seed=seed, coverage=2),
            K, machine)[0]
        for budget in budgets
    ]


def fig3(*, seed: int = 0, budgets: Sequence[int] = _FIG34_BUDGETS) -> ExperimentResult:
    """Fig. 3: LLC misses, model vs measured (8 nodes)."""
    points = _validation_rows(seed, budgets)
    rows = [{"kmers": row.n_kmers,
             "P1 predicted": f"{row.predicted_misses_p1:.3g}",
             "P1 measured": f"{row.measured_misses_p1:.3g}",
             "P2 predicted": f"{row.predicted_misses_p2:.3g}",
             "P2 measured": f"{row.measured_misses_p2:.3g}"} for row in points]
    p1 = [row.miss_ratio_p1 for row in points]
    return ExperimentResult(
        "fig3", "Last-level cache misses: model vs measured (8 nodes)",
        [("Fig. 3", rows)],
        notes="Phase-1 prediction is a slight underestimate (optimal vs real "
        "replacement); Phase-2 prediction overestimates (worst-case radix "
        "model vs the hybrid sorter's early termination).",
        values={"p1_miss_ratio_min": min(p1), "p1_miss_ratio_max": max(p1),
                "p2_miss_ratio_max": max(row.miss_ratio_p2 for row in points)},
    )


def fig4(*, seed: int = 0, budgets: Sequence[int] = _FIG34_BUDGETS) -> ExperimentResult:
    """Fig. 4: phase times, model (Sum/Max) vs measured (8 nodes)."""
    points = _validation_rows(seed, budgets)
    rows = [{"kmers": row.n_kmers,
             "T1 sum-model": format_time(row.predicted_t1_sum),
             "T1 max-model": format_time(row.predicted_t1_max),
             "T1 measured": format_time(row.measured_t1),
             "T2 model": format_time(row.predicted_t2),
             "T2 measured": format_time(row.measured_t2)} for row in points]
    t1 = [row.measured_t1 / row.predicted_t1_sum for row in points]
    t2 = [row.measured_t2 / row.predicted_t2 for row in points]
    return ExperimentResult(
        "fig4", "Phase execution time: model vs measured (8 nodes)",
        [("Fig. 4", rows)],
        notes="Model underestimates but stays in the same ballpark "
        "(paper's wording).",
        values={"t1_ratio_min": min(t1), "t1_ratio_max": max(t1),
                "t2_ratio_min": min(t2), "t2_ratio_max": max(t2)},
    )


def fig5() -> ExperimentResult:
    """Fig. 5: time breakdown of Synthetic 30 on 32 nodes (pure model)."""
    spec = get_spec("synthetic-30")
    machine = phoenix_intel(32)
    pred = predict(spec.n_reads, spec.read_len, K, machine)
    shares = pred.breakdown("sum")
    rows = [{"component": name, "share": f"{100 * val:.1f} %"} for name, val in shares.items()]
    oi = operational_intensity(spec.n_reads, spec.read_len, K)
    roof = [
        {"quantity": "DAKC op-to-byte", "value": f"{oi:.3f} iadd64/B (1 per {1/oi:.2f} B)"},
        {"quantity": "Phoenix CPU balance", "value": f"{hardware_balance():.2f} iadd64/B"},
        {"quantity": "NVIDIA H100 balance", "value": f"{H100_BALANCE:.1f} iadd64/B"},
    ]
    return ExperimentResult(
        "fig5", "Compute/intranode/internode breakdown, Synthetic 30 @ 32 nodes",
        [("Fig. 5 (analytical, no overlap)", rows), ("Section VII roofline", roof)],
        notes="Paper: compute share is very small; data movement dominates.",
        values={
            "compute_share_pct": 100 * shares["compute"],
            "movement_share_pct": 100 * (shares["intranode"] + shares["internode"]),
            # The three Sec. VII constants at the precision the paper quotes.
            "op_to_byte": round(oi, 3),
            "cpu_balance": round(hardware_balance(), 2),
            "h100_balance": H100_BALANCE,
        },
    )


def fig6(*, budget: int = DEFAULT_BUDGET_KMERS, seed: int = 0) -> ExperimentResult:
    """Fig. 6: PakMan (quicksort) vs PakMan* (radix) ~2x."""
    rows = []
    speedups = []
    for key in ("synthetic-27", "synthetic-28", "synthetic-29", "synthetic-30"):
        w = build_workload(key, K, budget_kmers=budget, seed=seed)
        quick = run_point("pakman", w, K, nodes=8)
        star = run_point("pakman*", w, K, nodes=8)
        speedups += _over(quick, star)
        rows.append({"dataset": w.spec.display,
                     "PakMan (quicksort)": format_time(quick.sim_time),
                     "PakMan* (radix)": format_time(star.sim_time),
                     "speedup": format_speedup(quick.sim_time / star.sim_time)})
    return ExperimentResult(
        "fig6", "Radix sort in PakMan (PakMan*) vs original quicksort",
        [("Fig. 6 @ 8 nodes", rows)],
        notes="Paper reports ~2x from the sort swap alone.  Replica shows "
        "~1.2-1.4x: a comparison sort's log2(n) depth shrinks with the "
        "scaled per-rank array (11 levels vs ~26 at paper scale), so "
        "the constant-factor gap cannot fully reappear at replica size.",
        values={"datasets_ran": len(speedups),
                "radix_speedup_min": min(speedups, default=None)},
    )


_FIG7_DATASETS = ("p-aeruginosa", "s-coelicolor", "f-vesca", "human",
                  "synthetic-27", "synthetic-29")


def fig7(
    *, budget: int = 250_000, seed: int = 0, node_counts: Sequence[int] = (1, 4, 16, 32),
    datasets: Sequence[str] = _FIG7_DATASETS,
) -> ExperimentResult:
    """Fig. 7: strong scaling on real + synthetic datasets."""
    tables = []
    ratios = []
    # Per dataset: DAKC's first-to-last node count speedup, and the
    # baselines over DAKC at the last node count (the scaling limit).
    scaling, pakman_at_limit, hysortk_at_limit = [], [], []
    for key in datasets:
        spec = get_spec(key)
        w = build_workload(key, K, budget_kmers=budget, seed=seed)
        # The paper enables L3 only on the heavy-hitter genomes.
        agg = AggregationConfig(enable_l3=spec.heavy)
        rows = []
        dakc = []
        for nodes in node_counts:
            (d, p, h), cells = _three_way(w, nodes, agg=agg)
            rows.append({"nodes": nodes, **cells})
            ratios += _over(p, h)
            dakc.append(d)
        if len(dakc) > 1:
            scaling += _over(dakc[0], d)
        pakman_at_limit += _over(p, d)
        hysortk_at_limit += _over(h, d)
        tables.append((f"Fig. 7 — {spec.display} ({spec.organism})", rows))
    note = ""
    if ratios:
        note = (f"Blocking-vs-nonblocking (Sec. VI-E): HySortK is "
                f"{np.mean(ratios):.2f}x faster than PakMan* on average (paper: 1.17x).")
    return ExperimentResult(
        "fig7", "Strong scaling (up to 256 nodes in the paper)", tables, notes=note,
        values={
            "hysortk_over_pakman_mean": np.mean(ratios) if ratios else None,
            "dakc_first_to_last_speedup_min": min(scaling, default=None),
            "pakman_over_dakc_at_limit_min": min(pakman_at_limit, default=None),
            "hysortk_over_dakc_at_limit_min": min(hysortk_at_limit, default=None),
        },
    )


def fig8(
    *, budget: int = 200_000, seed: int = 0,
    node_counts: Sequence[int] = (16, 32, 64, 128, 256),
) -> ExperimentResult:
    """Fig. 8: strong scaling on Synthetic 32 with OOM gating."""
    w = build_workload("synthetic-32", K, budget_kmers=budget, seed=seed)
    rows = []
    values = {}
    dakc_oom, hysortk_oom = [], []
    for nodes in node_counts:
        (d, p, h), cells = _three_way(w, nodes)
        values[f"pakman_oom_at_{nodes}"] = p.oom
        dakc_oom.append(d.oom)
        hysortk_oom.append(h.oom)
        rows.append({"nodes": nodes, **cells})
    return ExperimentResult(
        "fig8", "Strong scaling, Synthetic 32 (451 GB)", [("Fig. 8", rows)],
        notes="Paper: PakMan* OOMs at 16 & 32 nodes; HySortK does not run "
        "at any node count; DAKC runs everywhere.",
        values={**values, "hysortk_oom_min": min(hysortk_oom),
                "dakc_oom_max": max(dakc_oom)},
    )


def fig9(*, seed: int = 0) -> ExperimentResult:
    """Fig. 9: single-node comparison on AMD (128c) and Intel (24c)."""
    tables = []
    vs_kmc3, vs_pakman, vs_hysortk = [], [], []
    for label, machine, gran in (
        ("Intel node (24 cores)", phoenix_intel(1), "core"),
        ("AMD node (128 cores)", phoenix_amd(1), "core"),
    ):
        rows = []
        for key, ds_budget in (("synthetic-22", 200_000), ("synthetic-24", 400_000),
                               ("p-aeruginosa", 300_000)):
            w = build_workload(key, K, budget_kmers=ds_budget, seed=seed)
            d = run_point("dakc", w, K, machine=machine, nodes=1, pe_granularity=gran)
            kc = run_point("kmc3", w, K, machine=machine, nodes=1)
            p = run_point("pakman*", w, K, machine=machine, nodes=1, pe_granularity=gran)
            h = run_point("hysortk", w, K, machine=machine, nodes=1,
                          pe_granularity="socket")
            vs_kmc3.append(kc.sim_time / d.sim_time)
            vs_pakman.append(p.sim_time / d.sim_time)
            vs_hysortk.append(h.sim_time / d.sim_time)
            rows.append({"dataset": w.spec.display, "DAKC": format_time(d.sim_time),
                         "vs KMC3": format_speedup(vs_kmc3[-1]),
                         "vs PakMan*": format_speedup(vs_pakman[-1]),
                         "vs HySortK": format_speedup(vs_hysortk[-1])})
        tables.append((f"Fig. 9 — {label}", rows))
    return ExperimentResult(
        "fig9", "Shared-memory (single node) speedups", tables,
        notes="Paper: DAKC ~2x over KMC3 and ~2x over the distributed "
        "baselines on one node (co-located sends become memcpys).",
        values={"vs_kmc3_min": min(vs_kmc3), "vs_pakman_min": min(vs_pakman),
                "vs_hysortk_min": min(vs_hysortk)},
    )


def fig10(
    *, base_budget: int = 80_000, seed: int = 0,
    node_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> ExperimentResult:
    """Fig. 10: weak scaling — problem grows with the node count."""
    rows = []
    vs_hysortk, vs_pakman = [], []
    base_scale = 24
    for i, nodes in enumerate(node_counts):
        key = f"synthetic-{base_scale + i}"
        w = build_workload(key, K, budget_kmers=base_budget * nodes, seed=seed)
        (d, p, h), cells = _three_way(w, nodes)
        vs_hysortk += _over(h, d)
        vs_pakman += _over(p, d)
        # A gated point's time is NaN, which renders as "-".
        rows.append({"nodes": nodes, "dataset": w.spec.display, **cells,
                     "DAKC vs HySortK": format_speedup(h.sim_time / d.sim_time),
                     "DAKC vs PakMan*": format_speedup(p.sim_time / d.sim_time)})
    return ExperimentResult(
        "fig10", "Weak scaling on synthetic datasets", [("Fig. 10", rows)],
        notes="Paper: DAKC 1.7-3.4x over HySortK and 2.0-6.3x over PakMan*; "
        "flat lines = perfect weak scaling.",
        values={"vs_hysortk_min": min(vs_hysortk, default=None),
                "vs_pakman_min": min(vs_pakman, default=None)},
    )


def fig11(
    *, budget: int = 200_000, seed: int = 0,
    node_counts: Sequence[int] = (4, 8, 16, 32),
) -> ExperimentResult:
    """Fig. 11: 2D/3D Conveyors speedup over 1D (expected < 1)."""
    w = build_workload("synthetic-27", K, budget_kmers=budget, seed=seed)
    rows = []
    speedup_2d, speedup_3d = [], []
    for nodes in node_counts:
        times = {proto: run_point("dakc", w, K, nodes=nodes, protocol=proto).sim_time
                 for proto in ("1D", "2D", "3D")}
        speedup_2d.append(times["1D"] / times["2D"])
        speedup_3d.append(times["1D"] / times["3D"])
        rows.append({"nodes": nodes, "1D": format_time(times["1D"]),
                     "2D/1D speedup": format_speedup(speedup_2d[-1]),
                     "3D/1D speedup": format_speedup(speedup_3d[-1])})
    return ExperimentResult(
        "fig11", "Choice of Conveyors topology", [("Fig. 11", rows)],
        notes="Paper: 1D is 10-20% faster than 2D/3D (speedups < 1) at the "
        "cost of the Fig. 2 memory overhead.",
        values={"speedup_2d_over_1d_max": max(speedup_2d),
                "speedup_3d_over_1d_max": max(speedup_3d)},
    )


def fig12(
    *, budget: int = 250_000, seed: int = 0, node_counts: Sequence[int] = (4, 16),
) -> ExperimentResult:
    """Fig. 12: aggregation-layer ablation on Human and Synthetic 32.

    Runs at PE-per-core granularity: the heavy-hitter penalty of the
    L0-L1/L0-L2 configurations is incast at the hot owner *core*, so
    it scales with the PE count (the paper's 66x is at 6144 cores; the
    replica shows the same multiplicative trend at its smaller core
    counts).
    """
    configs = [
        ("L0-L1", AggregationConfig(enable_l2=False, enable_l3=False)),
        ("L0-L2", AggregationConfig(enable_l2=True, enable_l3=False)),
        ("L0-L3", AggregationConfig(enable_l2=True, enable_l3=True)),
    ]
    tables = []
    speedups = {}  # (dataset, layers) -> speedup over L0-L1 at each node count
    for key in ("human", "synthetic-32"):
        w = build_workload(key, K, budget_kmers=budget, seed=seed)
        rows = []
        for nodes in node_counts:
            row = {"nodes": nodes, "cores": nodes * 24}
            base = None
            for label, agg in configs:
                pt = run_point("dakc", w, K, nodes=nodes, agg=agg,
                               pe_granularity="core", enforce_oom_gate=False)
                row[label] = format_time(pt.sim_time)
                if label == "L0-L1":
                    base = pt.sim_time
                else:
                    speedups.setdefault((key, label), []).append(base / pt.sim_time)
                    row[f"{label} speedup"] = format_speedup(base / pt.sim_time)
            rows.append(row)
        tables.append((f"Fig. 12 — {w.spec.display}", rows))
    human_l2, human_l3 = speedups["human", "L0-L2"], speedups["human", "L0-L3"]
    synth_l2, synth_l3 = speedups["synthetic-32", "L0-L2"], speedups["synthetic-32", "L0-L3"]
    return ExperimentResult(
        "fig12", "Benefit of the application aggregation layers", tables,
        notes="Paper: L2 gives ~2x on uniform data (L3 adds nothing there); "
        "on Human the L3 layer is essential, with speedup growing with the "
        "core count (up to 66x over L0-L1 at 6144 cores).",
        values={
            "human_l3_speedup_min": min(human_l3),
            "human_l3_speedup_growth": human_l3[-1] / human_l3[0],
            "human_l3_over_l2_min": min(l3 / l2 for l3, l2 in zip(human_l3, human_l2)),
            "synthetic_l2_speedup_min": min(synth_l2),
            "synthetic_l3_over_l2_max": max(l3 / l2 for l3, l2 in zip(synth_l3, synth_l2)),
        },
    )


def fig13(
    *, budget: int = DEFAULT_BUDGET_KMERS, seed: int = 0, nodes: int = 8,
) -> ExperimentResult:
    """Fig. 13: tuning C2 and C3."""
    # A reduced-coverage replica keeps the genome much larger than any
    # swept C3, so within-chunk duplicate density stays paper-like
    # (uniform genomes have almost no repeats at C3 granularity).
    w = build_workload("synthetic-26", K, budget_kmers=budget, seed=seed, coverage=6)
    base = run_point("dakc", w, K, nodes=nodes, agg=AggregationConfig()).sim_time
    rows_c2 = []
    by_c2 = {}
    for c2 in (2, 4, 8, 16, 32, 64, 128):
        pt = run_point("dakc", w, K, nodes=nodes, agg=AggregationConfig(c2=c2))
        by_c2[c2] = base / pt.sim_time
        rows_c2.append(
            {"C2": c2, "time": format_time(pt.sim_time),
             "speedup vs C2=32": format_speedup(by_c2[c2])}
        )
    # The C3 sweep runs on the heavy-hitter (Human) replica: too-small
    # C3 windows fail to catch heavy k-mers (local counts stay <= 2),
    # inflating communication volume, while oversized C3 pays extra
    # sorting — both ends of the paper's Fig. 13b U-shape.
    wh = build_workload("human", K, budget_kmers=budget, seed=seed)
    base_h = run_point("dakc", wh, K, nodes=nodes, agg=AggregationConfig(),
                       enforce_oom_gate=False).sim_time
    rows_c3 = []
    by_c3 = {}
    for c3 in (100, 1_000, 10_000, 100_000, 1_000_000):
        pt = run_point("dakc", wh, K, nodes=nodes, agg=AggregationConfig(c3=c3),
                       enforce_oom_gate=False)
        by_c3[c3] = base_h / pt.sim_time
        rows_c3.append(
            {"C3": c3, "time": format_time(pt.sim_time),
             "speedup vs C3=1e4": format_speedup(by_c3[c3])}
        )
    return ExperimentResult(
        "fig13", "Tuning the application aggregation parameters",
        [("Fig. 13a — C2 sweep", rows_c2), ("Fig. 13b — C3 sweep", rows_c3)],
        notes="Paper: flat for C2 >= 8, degraded for C2 <= 4; flat for "
        "1e3 <= C3 <= 1e6 with degradation outside.  Replica artifact: "
        "C3 >= 1e5 shows a mild extra gain because the scaled per-PE "
        "stream is comparable to C3, letting one window deduplicate "
        "across the whole stream; at paper scale (1e9 k-mers/PE) this "
        "effect vanishes.",
        # Speedups over the defaults (C2=32, C3=1e4), which are 1.0 by construction.
        values={
            "c2_2_speedup": by_c2[2],
            "c2_8_speedup": by_c2[8],
            "c2_16_64_128_speedup_min": min(by_c2[16], by_c2[64], by_c2[128]),
            "c3_100_speedup": by_c3[100],
            "c3_1e3_1e4_speedup_min": min(by_c3[1_000], by_c3[10_000]),
        },
    )


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md section 4) and Section VII extensions
# ---------------------------------------------------------------------------


def _cost(nodes: int) -> CostModel:
    return CostModel(phoenix_intel(nodes), cores_per_pe=24)


def _stats_rows(label: str, runs: dict) -> list[dict]:
    """One row per variant of ``{variant: RunStats}``."""
    return [
        {label: variant, "time": format_time(stats.sim_time),
         "bytes sent": format_bytes(stats.total_bytes_sent),
         "global syncs": stats.global_syncs,
         "receive imbalance": f"{stats.receive_imbalance():.2f}"}
        for variant, stats in runs.items()
    ]


def ablation_batch(*, budget: int = 250_000, seed: int = 0) -> ExperimentResult:
    """The BSP batch size b (Eq. 1): smaller b means more supersteps
    (DAKC has no such knob — that is the point of Algorithm 3)."""
    w = build_workload("synthetic-26", K, budget_kmers=budget, seed=seed)
    local = w.n_kmers(K) // 8
    pts = {divisor: run_point("pakman*", w, K, nodes=8, batch_size=max(1, local // divisor))
           for divisor in (1, 4, 16, 64)}
    rows = [{"b": f"local/{divisor}", "time": format_time(pt.sim_time),
             "global syncs": pt.global_syncs} for divisor, pt in pts.items()]
    return ExperimentResult(
        "ablation-batch", "BSP batch size b (PakMan*, Synthetic 26 @ 8 nodes)",
        [("Ablation — batch size", rows)],
        values={"syncs_b64_over_b1": pts[64].global_syncs / pts[1].global_syncs,
                "time_b64_over_b1": pts[64].sim_time / pts[1].sim_time},
    )


def ablation_heavy_threshold(*, budget: int = 250_000, seed: int = 0) -> ExperimentResult:
    """Algorithm 4's HEAVY rule (the paper fixes ``count > 2``): 1 sends
    everything as pairs, a huge threshold disables the heavy path."""
    w = build_workload("human", K, budget_kmers=budget, seed=seed)
    times = {
        threshold: run_point("dakc", w, K, nodes=8, pe_granularity="core",
                             agg=AggregationConfig(heavy_threshold=threshold),
                             enforce_oom_gate=False).sim_time
        for threshold in (1, 2, 8, 1_000_000)
    }
    rows = [{"heavy threshold": t, "time": format_time(v)} for t, v in times.items()]
    return ExperimentResult(
        "ablation-heavy-threshold", "HEAVY threshold of Algorithm 4 (Human @ 8 nodes)",
        [("Ablation — heavy threshold", rows)],
        values={"time_thr2_over_no_heavy_path": times[2] / times[1_000_000]},
    )


def ablation_minimizer(*, budget: int = 200_000, seed: int = 0) -> ExperimentResult:
    """DAKC's hash partitioning vs the kmerind lineage's super-k-mers to
    minimizer owners: fewer wire bytes, but concentrated load."""
    w = build_workload("synthetic-26", K, budget_kmers=budget, seed=seed)
    _, by_hash = dakc_count(w.reads, K, _cost(8))
    counts, by_minimizer = minimizer_partitioned_count(w.reads, K, _cost(8))
    return ExperimentResult(
        "ablation-minimizer", "Hash vs minimizer partitioning (Synthetic 26 @ 8 nodes)",
        [("Ablation — partitioning",
          _stats_rows("partitioning", {"hash (DAKC)": by_hash, "minimizer": by_minimizer}))],
        values={
            "counts_exact": counts == serial_count(w.reads, K),
            "minimizer_over_hash_bytes":
                by_minimizer.total_bytes_sent / by_hash.total_bytes_sent,
            "minimizer_over_hash_imbalance":
                by_minimizer.receive_imbalance() / by_hash.receive_imbalance(),
        },
    )


def ablation_preaccumulate(*, budget: int = 200_000, seed: int = 0) -> ExperimentResult:
    """Algorithm 2's literal ``Accumulate(T_s[i])`` before the exchange
    (real PakMan ships raw k-mers): fewer bytes on heavy-hitter data."""
    w = build_workload("human", K, budget_kmers=budget, seed=seed)
    runs = {label: bsp_count(w.reads, K, _cost(4), BspConfig(preaccumulate=pre))[1]
            for label, pre in (("raw", False), ("pre-accumulated", True))}
    return ExperimentResult(
        "ablation-preaccumulate", "Pre-accumulated send buckets in BSP (Human @ 4 nodes)",
        [("Ablation — pre-accumulation", _stats_rows("send buckets", runs))],
        values={"preaccumulated_over_raw_bytes":
                runs["pre-accumulated"].total_bytes_sent / runs["raw"].total_bytes_sent},
    )


def ablation_sort(*, budget: int = 300_000, seed: int = 0) -> ExperimentResult:
    """Sort choice inside the BSP baseline (the Fig. 6 swap in isolation)."""
    w = build_workload("synthetic-27", K, budget_kmers=budget, seed=seed)
    runs = {sort: bsp_count(w.reads, K, _cost(4), BspConfig(sort=sort))[1]
            for sort in ("radix", "quicksort")}
    return ExperimentResult(
        "ablation-sort", "Radix vs quicksort inside BSP (Synthetic 27 @ 4 nodes)",
        [("Ablation — sort", _stats_rows("sort", runs))],
        values={"radix_over_quicksort_time":
                runs["radix"].sim_time / runs["quicksort"].sim_time},
    )


def ext_bigk() -> ExperimentResult:
    """128-bit k-mer counting (k = 51; Sec. VII): the kernel's two-word
    count, and distributed."""
    k, read_len = 51, 300
    reads = simulate_reads(uniform_genome(20_000, seed=0),
                           ReadSimConfig(read_len=read_len, coverage=10, seed=0))
    serial = count_kmers(reads, k, algorithm="fast").counts
    counts, stats = dakc_count_big(reads, k, _cost(4))
    return ExperimentResult(
        "ext-bigk", "128-bit k-mers (k = 51) @ 4 nodes",
        [("Extension — big k", _stats_rows("k", {k: stats}))],
        values={
            "serial_total_exact": serial.total == reads.shape[0] * (read_len - k + 1),
            "global_syncs": stats.global_syncs,
            "counts_exact": counts == serial,
        },
    )


def ext_gpu() -> ExperimentResult:
    """The Section VII GPU projection, quantified (Synthetic 30 @ 32 nodes)."""
    spec = get_spec("synthetic-30")
    projections = {acc.name: project_speedup(spec.n_reads, spec.read_len, K, acc)
                   for acc in (A100, H100)}
    rows = [
        {"accelerator": name,
         "intranode speedup bound": f"{p.intranode_speedup:.1f}x",
         "end-to-end speedup": format_speedup(p.total_speedup),
         "compute utilisation": f"{100 * p.compute_utilisation:.1f}%"}
        for name, p in projections.items()
    ]
    h100 = projections["H100"]
    return ExperimentResult(
        "ext-gpu", "GPU offload projection", [("Sec. VII GPU projection", rows)],
        notes="Paper: k-mer counting is bandwidth-bound; the compute units idle.",
        values={"h100_bandwidth_bound": h100.bandwidth_bound,
                "h100_compute_utilisation": h100.compute_utilisation,
                "h100_total_speedup": h100.total_speedup},
    )


def ext_overlap(*, budget: int = 250_000, seed: int = 0) -> ExperimentResult:
    """The barrier-free sorted-set variant (Sec. VII) vs stock DAKC: two
    global syncs instead of three, Phase 2 folded into delivery
    service — the barrier traded for costlier insertion."""
    w = build_workload("synthetic-26", K, budget_kmers=budget, seed=seed)
    reference = serial_count(w.reads, K)
    tables, values = [], {}
    exact, slowdown = [], []
    for nodes in (4, 16):
        stock_counts, stock = dakc_count(w.reads, K, _cost(nodes))
        overlap_counts, overlap = dakc_overlap_count(w.reads, K, _cost(nodes))
        exact.append(stock_counts == reference and overlap_counts == reference)
        slowdown.append(overlap.sim_time / stock.sim_time)
        values[f"stock_syncs_at_{nodes}"] = stock.global_syncs
        values[f"overlap_syncs_at_{nodes}"] = overlap.global_syncs
        tables.append((f"Extension — overlap @ {nodes} nodes",
                       _stats_rows("variant", {"stock DAKC": stock, "sorted-set": overlap})))
    return ExperimentResult(
        "ext-overlap", "Barrier-free sorted-set DAKC (Synthetic 26)", tables,
        values={**values, "counts_exact": all(exact),
                "overlap_over_stock_time_max": max(slowdown)},
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Experiment id -> function; the id is the function's name, dashed.
EXPERIMENTS = {fn.__name__.replace("_", "-"): fn for fn in (
    table2, table3, table4, table5,
    fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
    ablation_batch, ablation_heavy_threshold, ablation_minimizer, ablation_preaccumulate,
    ablation_sort, ext_bigk, ext_gpu, ext_overlap)}


def list_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def experiment_parameters(exp_id: str) -> tuple[str, ...]:
    """Names of the keyword parameters *exp_id* accepts."""
    try:
        fn = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(list_experiments())}"
        ) from None
    return tuple(inspect.signature(fn).parameters)


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    """Run one registered experiment by id (e.g. ``"fig7"``)."""
    accepted = experiment_parameters(exp_id)
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        raise ValueError(
            f"{exp_id}: unknown parameters {unknown}; "
            f"this experiment accepts {sorted(accepted) or 'none'}")
    return EXPERIMENTS[exp_id](**kwargs)
