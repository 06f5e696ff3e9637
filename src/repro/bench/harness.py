"""Execution harness: run any counter on any workload/machine point.

One experiment data point = (algorithm, dataset, node count).  The
harness:

1. checks the *full-scale* OOM gate (Fig. 8 semantics) via
   :func:`repro.model.footprints.check_fits` — a gated point is
   reported with ``oom=True`` and no timing, matching the paper's
   missing data points;
2. runs the scaled replica through the requested algorithm;
3. optionally cross-validates the counts against Algorithm 1;
4. returns a flat row ready for the table printers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..api import count_kmers
from ..core.l2l3 import AggregationConfig
from ..core.result import KmerCounts
from ..core.serial import serial_count
from ..model.footprints import check_fits
from ..runtime.machine import MachineConfig, phoenix_intel
from ..runtime.memory import OutOfMemoryError
from ..runtime.stats import RunStats
from ..seq.datasets import Workload
from .workloads import scaled_batch_size

__all__ = ["RunPoint", "run_point", "sweep_nodes", "best_time"]

#: Algorithms whose footprints are gated at paper scale.
_GATED = {"dakc", "pakman", "pakman*", "hysortk"}


@dataclass
class RunPoint:
    """One measured (or OOM-gated) experiment data point."""

    algorithm: str
    dataset: str
    nodes: int
    oom: bool = False
    oom_reason: str = ""
    sim_time: float = float("nan")
    phase1_time: float = float("nan")
    phase2_time: float = float("nan")
    global_syncs: int = 0
    bytes_sent: int = 0
    puts: int = 0
    receive_imbalance: float = 1.0
    peak_buffer_bytes_per_pe: int = 0
    stats: RunStats | None = field(default=None, repr=False)
    counts: KmerCounts | None = field(default=None, repr=False)

    def row(self) -> dict:
        """Flat dict for the table printers."""
        from .tables import format_time

        return {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "nodes": self.nodes,
            "time": "OOM" if self.oom else format_time(self.sim_time),
            "syncs": "-" if self.oom else self.global_syncs,
            "imbalance": "-" if self.oom else f"{self.receive_imbalance:.2f}",
        }


def run_point(
    algorithm: str,
    workload: Workload,
    k: int,
    *,
    machine: MachineConfig | None = None,
    nodes: int = 1,
    pe_granularity: str = "node",
    protocol: str = "1D",
    agg: AggregationConfig | None = None,
    batch_size: int | None = None,
    verify_against: KmerCounts | None = None,
    keep_stats: bool = False,
    enforce_oom_gate: bool = True,
    scale_cache: bool = True,
    scale_time: bool = True,
) -> RunPoint:
    """Run one data point; returns measurements or an OOM record.

    ``scale_cache`` shrinks the machine's LLC by the workload's
    fidelity so the scaled replica keeps the paper-scale data:cache
    ratio — without it, replica working sets fit in the 38 MB LLC and
    every out-of-cache effect (radix vs quicksort, C3 sorting
    overhead) vanishes.  ``scale_time`` shrinks the fixed latencies
    (tau, injection, message overheads) by the same factor, keeping
    the latency:bandwidth regime at its paper-scale balance — without
    it, microsecond latencies that are noise against gigabyte batches
    dominate kilobyte replicas.  The full-scale OOM gate always uses
    the real machine.
    """
    base = machine or phoenix_intel(nodes)
    m = base.with_nodes(nodes)
    point = RunPoint(algorithm=algorithm, dataset=workload.spec.display, nodes=nodes)

    if enforce_oom_gate and algorithm.lower() in _GATED:
        try:
            check_fits(algorithm, workload.spec, k, m, nodes, protocol=protocol)
        except OutOfMemoryError as exc:
            point.oom = True
            point.oom_reason = str(exc)
            return point

    if batch_size is None and algorithm.lower() in ("pakman", "pakman*", "hysortk", "bsp"):
        batch_size = scaled_batch_size(workload, k)

    full = workload.spec.n_kmers(k)
    shrink = workload.n_kmers(k) / full if full else 1.0
    if scale_cache:
        m = replace(m, cache_bytes=max(2048, int(m.cache_bytes * shrink)))
    if scale_time:
        m = m.with_time_scale(shrink)

    run = count_kmers(
        workload.reads,
        k,
        algorithm=algorithm,
        machine=m,
        pe_granularity=pe_granularity,
        protocol=protocol,
        agg=agg,
        batch_size=batch_size,
    )
    if verify_against is not None and run.counts != verify_against:
        raise AssertionError(
            f"{algorithm} disagrees with reference on {workload.spec.display}: "
            + "; ".join(run.counts.diff(verify_against))
        )
    s = run.stats
    point.sim_time = s.sim_time
    point.phase1_time = s.phase1_time
    point.phase2_time = s.phase2_time
    point.global_syncs = s.global_syncs
    point.bytes_sent = s.total_bytes_sent
    point.puts = s.total_puts
    point.receive_imbalance = s.receive_imbalance()
    point.peak_buffer_bytes_per_pe = s.peak_buffer_bytes_per_pe
    if keep_stats:
        point.stats = s
        point.counts = run.counts
    return point


def sweep_nodes(
    algorithms: list[str],
    workload: Workload,
    k: int,
    node_counts: list[int],
    *,
    verify: bool = True,
    **kwargs,
) -> list[RunPoint]:
    """Strong-scaling sweep: every algorithm at every node count."""
    reference = serial_count(workload.reads, k) if verify else None
    out: list[RunPoint] = []
    for nodes in node_counts:
        for algo in algorithms:
            out.append(
                run_point(
                    algo,
                    workload,
                    k,
                    nodes=nodes,
                    verify_against=reference,
                    **kwargs,
                )
            )
    return out


def best_time(points: list[RunPoint], algorithm: str) -> float:
    """Best (minimum) non-OOM simulated time of one algorithm."""
    times = [p.sim_time for p in points if p.algorithm == algorithm and not p.oom]
    return min(times) if times else float("nan")
