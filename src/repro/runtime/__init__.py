"""Distributed runtime substrate: the simulated PGAS machine.

Substitutes for OpenSHMEM + Conveyors + HClib-Actor on real hardware
(see DESIGN.md).  The pieces:

* :mod:`repro.runtime.machine` — cluster geometry and Table IV rates;
* :mod:`repro.runtime.cost` — event pricing onto virtual clocks;
* :mod:`repro.runtime.topology` — 1D/2D/3D virtual HyperX routing;
* :mod:`repro.runtime.conveyors` — L0/L1 aggregation + PUT engine;
* :mod:`repro.runtime.actor` — FA-BSP cooperative actor scheduler;
* :mod:`repro.runtime.collectives` — BSP barrier and alltoallv;
* :mod:`repro.runtime.cache` — LLC miss accounting (the PAPI stand-in);
* :mod:`repro.runtime.memory` — buffer accounting and OOM models;
* :mod:`repro.runtime.stats` — per-PE counters and clocks.
"""

from .actor import Actor, ActorRuntime
from .cache import CacheAccounting, scan_misses
from .collectives import alltoallv, barrier, exchange_matrix_bytes
from .conveyors import Conveyor, PacketGroup
from .cost import CostModel
from .machine import MachineConfig, laptop, phoenix_amd, phoenix_intel
from .memory import (
    L0_BUFFER_BYTES,
    MemoryTracker,
    OutOfMemoryError,
    aggregation_memory_per_pe,
    table3_rows,
)
from .stats import PEStats, RunStats
from .trace import Span, Tracer, render_gantt, to_chrome_trace
from .topology import (
    HEADER_BYTES,
    Topology,
    Topology1D,
    Topology2D,
    Topology3D,
    make_topology,
)

__all__ = [
    "MachineConfig",
    "phoenix_intel",
    "phoenix_amd",
    "laptop",
    "CostModel",
    "PEStats",
    "RunStats",
    "Topology",
    "Topology1D",
    "Topology2D",
    "Topology3D",
    "make_topology",
    "HEADER_BYTES",
    "Conveyor",
    "PacketGroup",
    "Actor",
    "ActorRuntime",
    "barrier",
    "alltoallv",
    "exchange_matrix_bytes",
    "CacheAccounting",
    "scan_misses",
    "MemoryTracker",
    "OutOfMemoryError",
    "aggregation_memory_per_pe",
    "table3_rows",
    "L0_BUFFER_BYTES",
    "Tracer",
    "Span",
    "render_gantt",
    "to_chrome_trace",
]
