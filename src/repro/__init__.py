"""DAKC reproduction: asynchronous distributed-memory k-mer counting.

A from-scratch Python reproduction of *"An Asynchronous Distributed-
Memory Parallel Algorithm for k-mer Counting"* (Hati, Hayashi, Vuduc;
IPDPS 2025): the DAKC algorithm, its BSP baselines (PakMan, PakMan*,
HySortK), the KMC3 shared-memory baseline, a simulated PGAS runtime
standing in for OpenSHMEM + Conveyors + HClib-Actor, and the paper's
analytical model — plus a benchmark harness regenerating every table
and figure of the evaluation.

Quickstart::

    from repro import count_kmers
    run = count_kmers(["ACGTACGTAC"], k=5, algorithm="serial")
    print(run.counts.n_distinct)

See README.md for the architecture tour and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from .api import ALGORITHMS, CountRun, count_kmers, load_reads, resolve_machine
from .core.bsp import BspConfig, bsp_count
from .core.dakc import DakcConfig, dakc_count
from .core.l2l3 import AggregationConfig
from .core.result import KmerCounts
from .core.serial import serial_count
from .runtime.cost import CostModel
from .runtime.machine import MachineConfig, laptop, phoenix_amd, phoenix_intel
from .runtime.stats import RunStats
from .seq import DatasetSpec, Workload, materialize

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "count_kmers",
    "CountRun",
    "ALGORITHMS",
    "load_reads",
    "resolve_machine",
    "KmerCounts",
    "serial_count",
    "dakc_count",
    "DakcConfig",
    "bsp_count",
    "BspConfig",
    "AggregationConfig",
    "MachineConfig",
    "CostModel",
    "RunStats",
    "phoenix_intel",
    "phoenix_amd",
    "laptop",
    "DatasetSpec",
    "Workload",
    "materialize",
]
