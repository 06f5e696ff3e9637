"""Model validation: predicted vs measured (Figs. 3 and 4).

The paper validates its analytical model against PAPI cache-miss
counters and measured phase times on 8 Phoenix nodes.  We validate the
same way against the simulated runtime: run DAKC on a scaled workload,
read its measured cache-miss and phase-time counters, and compare with
the model evaluated *at the scaled workload's own (n, m, k, P)* — the
comparison is model-vs-measurement at equal scale, exactly as in the
paper.

The expected relationships (asserted by tests with tolerance bands):

* predicted Phase-1 misses <= measured (optimal replacement vs LRU);
* predicted Phase-2 misses >= measured when the sorter skips work
  (worst-case radix model), converging as data grows;
* predicted times underestimate but stay within the same ballpark
  (the paper's wording for Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dakc import DakcConfig, dakc_count
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from ..runtime.stats import RunStats
from ..seq.datasets import Workload
from .analytical import ModelPrediction, predict

__all__ = ["ValidationRow", "validate_workload", "scaling_curve_agreement"]


@dataclass(frozen=True, slots=True)
class ValidationRow:
    """One Fig. 3/4 data point: model vs measurement."""

    dataset: str
    n_kmers: int
    nodes: int
    predicted_misses_p1: float
    measured_misses_p1: float
    predicted_misses_p2: float
    measured_misses_p2: float
    predicted_t1_sum: float
    predicted_t1_max: float
    measured_t1: float
    predicted_t2: float
    measured_t2: float

    @property
    def miss_ratio_p1(self) -> float:
        """measured / predicted, Phase 1 (expected >= ~1)."""
        return self.measured_misses_p1 / max(1e-12, self.predicted_misses_p1)

    @property
    def miss_ratio_p2(self) -> float:
        """measured / predicted, Phase 2 (expected <= ~1)."""
        return self.measured_misses_p2 / max(1e-12, self.predicted_misses_p2)


def validate_workload(
    workload: Workload,
    k: int,
    machine: MachineConfig,
) -> tuple[ValidationRow, RunStats, ModelPrediction]:
    """Run DAKC on *workload*, one PE per node, and pair measurements
    with predictions."""
    cost = CostModel(machine, cores_per_pe=machine.cores_per_node)
    _, stats = dakc_count(workload.reads, k, cost, DakcConfig())

    pred = predict(workload.n_reads, workload.read_len, k, machine)
    # Per-node measured misses: sum over the PEs of one node; with the
    # default PE-per-node model this is just the mean over PEs times
    # PEs per node.
    pes_per_node = cost.pes_per_node
    meas_p1 = np.array([p.cache_misses_p1 for p in stats.pe], dtype=np.float64)
    meas_p2 = np.array([p.cache_misses_p2 for p in stats.pe], dtype=np.float64)
    per_node_p1 = meas_p1.mean() * pes_per_node
    per_node_p2 = meas_p2.mean() * pes_per_node

    row = ValidationRow(
        dataset=workload.spec.display,
        n_kmers=workload.n_kmers(k),
        nodes=machine.nodes,
        predicted_misses_p1=pred.phase1.misses,
        measured_misses_p1=float(per_node_p1),
        predicted_misses_p2=pred.phase2.misses,
        measured_misses_p2=float(per_node_p2),
        predicted_t1_sum=pred.phase1.total("sum"),
        predicted_t1_max=pred.phase1.total("max"),
        measured_t1=stats.phase1_time,
        predicted_t2=pred.phase2.total("sum"),
        measured_t2=stats.phase2_time,
    )
    return row, stats, pred


def scaling_curve_agreement(
    workload: Workload,
    k: int,
    machine: MachineConfig,
    node_counts: list[int],
) -> tuple[np.ndarray, np.ndarray, float]:
    """Model vs simulation across a strong-scaling sweep.

    Runs DAKC at every node count, evaluates the analytical model at
    the same points, and returns ``(measured, predicted, correlation)``
    where correlation is Pearson's r between the two curves — a whole-
    curve validation on top of Fig. 4's per-point comparison.
    """
    measured = []
    predicted = []
    for nodes in node_counts:
        m = machine.with_nodes(nodes)
        cost = CostModel(m, cores_per_pe=m.cores_per_node)
        _, stats = dakc_count(workload.reads, k, cost, DakcConfig())
        measured.append(stats.sim_time)
        pred = predict(workload.n_reads, workload.read_len, k, m)
        predicted.append(pred.t_total("sum"))
    measured_arr = np.array(measured)
    predicted_arr = np.array(predicted)
    if len(node_counts) < 2 or measured_arr.std() == 0 or predicted_arr.std() == 0:
        corr = 1.0
    else:
        corr = float(np.corrcoef(measured_arr, predicted_arr)[0, 1])
    return measured_arr, predicted_arr, corr
