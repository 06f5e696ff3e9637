#!/usr/bin/env python
"""Scaling study: reproduce the paper's Fig. 7/8/10 story on your data.

Shows the harness API for running strong- and weak-scaling sweeps of
DAKC against the BSP baselines on scaled dataset replicas, including
the full-scale OOM gates of Fig. 8.

Run:  python examples/scaling_study.py
"""

from __future__ import annotations

from repro.bench.harness import run_point, sweep_nodes
from repro.bench.plots import scaling_chart
from repro.bench.tables import format_speedup, format_time, print_table
from repro.bench.workloads import build_workload

K = 31


def strong_scaling() -> None:
    w = build_workload("s-coelicolor", K, budget_kmers=250_000)
    print(f"strong scaling on a {w.spec.organism} replica "
          f"({w.n_kmers(K):,} k-mers)\n")
    points = sweep_nodes(["dakc", "pakman*", "hysortk"], w, K,
                         [1, 2, 4, 8, 16, 32], verify=True)
    rows = []
    curves: dict[str, dict[int, float]] = {a: {} for a in ("dakc", "pakman*", "hysortk")}
    for nodes in (1, 2, 4, 8, 16, 32):
        row = {"nodes": nodes}
        for algo in ("dakc", "pakman*", "hysortk"):
            pt = next(p for p in points if p.nodes == nodes and p.algorithm == algo)
            row[algo] = "OOM" if pt.oom else format_time(pt.sim_time)
            if not pt.oom:
                curves[algo][nodes] = pt.sim_time
        rows.append(row)
    print_table(rows, title="Strong scaling (simulated Phoenix)")
    print(scaling_chart(curves))


def oom_gates() -> None:
    w = build_workload("synthetic-32", K, budget_kmers=150_000)
    print("Fig. 8 semantics: OOM gates evaluated at FULL dataset scale\n")
    rows = []
    for nodes in (16, 32, 64, 128, 256):
        row = {"nodes": nodes}
        for algo in ("dakc", "pakman*", "hysortk"):
            pt = run_point(algo, w, K, nodes=nodes)
            row[algo] = "OOM" if pt.oom else format_time(pt.sim_time)
        rows.append(row)
    print_table(rows, title="Synthetic 32 (451 GB at paper scale)")


def efficiency() -> None:
    w = build_workload("synthetic-27", K, budget_kmers=250_000)
    base = run_point("dakc", w, K, nodes=1).sim_time
    rows = []
    for nodes in (1, 2, 4, 8, 16):
        t = run_point("dakc", w, K, nodes=nodes).sim_time
        rows.append({
            "nodes": nodes,
            "time": format_time(t),
            "speedup": format_speedup(base / t),
            "parallel efficiency": f"{100 * base / (t * nodes):.0f}%",
        })
    print_table(rows, title="DAKC parallel efficiency")


if __name__ == "__main__":
    strong_scaling()
    oom_gates()
    efficiency()
