"""Machine model: the simulated cluster DAKC runs on.

Substitutes for the physical Phoenix cluster (Section VI).  A
:class:`MachineConfig` carries exactly the parameters of the paper's
analytical model (Table IV) plus the cluster geometry:

* ``c_node`` — peak INT64 throughput per node (GOp/s);
* ``beta_mem`` — per-node memory bandwidth (GB/s);
* ``cache_bytes`` (Z) and ``line_bytes`` (L) — the two-level memory
  hierarchy of the model;
* ``beta_link`` — combined bidirectional NIC bandwidth per node;
* ``tau`` — remote message latency (the paper's :math:`\\tau`, with
  :math:`\\tau \\gg \\mu`);
* ``mem_bytes`` — node DRAM capacity, used for OOM modelling (Fig. 8).

PEs map onto cores: PE ``i`` lives on node ``i // cores_per_node``.
Per-core rates are the node rates divided by the cores per node
(assumption 2 of the model: 100% intranode parallel efficiency).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = ["MachineConfig", "phoenix_intel", "phoenix_amd", "laptop"]


@dataclass(frozen=True, slots=True)
class MachineConfig:
    """Geometry and rates of the simulated cluster."""

    name: str
    nodes: int
    sockets_per_node: int
    cores_per_socket: int
    c_node: float  # INT64 ops/s per node
    beta_mem: float  # bytes/s per node
    beta_link: float  # bytes/s per node NIC (combined bidirectional)
    cache_bytes: int  # Z
    line_bytes: int  # L
    mem_bytes: int  # DRAM per node
    tau: float = 2.0e-6  # remote latency, seconds
    #: One-sided PUT *injection* overhead: the source CPU cost of
    #: posting an RDMA write.  The wire latency tau is paid by the
    #: message (arrival time), not by the sender — the asymmetry that
    #: lets FA-BSP sources stream PUTs without stalling.
    tau_inject: float = 1.0e-7
    local_latency: float = 5.0e-8  # same-node "send" (memcpy) latency
    #: Sequential disk bandwidth per node (bytes/s) — the β_disk the
    #: out-of-core path charges for spill writes and rereads, exactly
    #: as beta_link prices the wire.  Default is an NVMe-class 2 GB/s.
    beta_disk: float = 2.0e9
    #: Fixed per-I/O overhead (seek + syscall), charged once per
    #: spill flush or bin read.
    disk_latency: float = 1.0e-4

    def __post_init__(self) -> None:
        if self.nodes < 1 or self.sockets_per_node < 1 or self.cores_per_socket < 1:
            raise ValueError("machine geometry must be positive")
        for f in ("c_node", "beta_mem", "beta_link", "beta_disk"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive")
        if self.cache_bytes <= 0 or self.line_bytes <= 0 or self.mem_bytes <= 0:
            raise ValueError("memory parameters must be positive")

    # -- geometry ----------------------------------------------------

    @property
    def cores_per_node(self) -> int:
        return self.sockets_per_node * self.cores_per_socket

    @property
    def n_pes(self) -> int:
        """Total PEs = total cores (one PE per core, SHMEM-style)."""
        return self.nodes * self.cores_per_node

    def node_of(self, pe: int) -> int:
        """Node hosting PE *pe*."""
        if not 0 <= pe < self.n_pes:
            raise ValueError(f"PE {pe} out of range [0, {self.n_pes})")
        return pe // self.cores_per_node

    def colocated(self, a: int, b: int) -> bool:
        """True if two PEs share a node (the runtime then uses memcpy)."""
        return self.node_of(a) == self.node_of(b)

    def with_nodes(self, nodes: int) -> "MachineConfig":
        """Same machine scaled to a different node count."""
        return replace(self, nodes=nodes)

    def with_time_scale(self, factor: float) -> "MachineConfig":
        """Scale all fixed latencies by *factor* (time dilation).

        The benchmark harness runs replicas thousands of times smaller
        than the paper's inputs; shrinking every fixed per-event
        latency (wire latency, injection overhead, local latency) by
        the same factor keeps the latency-vs-bandwidth regime — and
        therefore every crossover the paper reports — at its
        paper-scale balance.  Bandwidths and capacities are untouched.
        """
        if factor <= 0:
            raise ValueError("time scale factor must be positive")
        return replace(
            self,
            tau=self.tau * factor,
            tau_inject=self.tau_inject * factor,
            local_latency=self.local_latency * factor,
        )

    @property
    def barrier_time(self) -> float:
        """Tree-reduction barrier: :math:`\\tau \\log_2 P` (Eq. 3)."""
        p = max(2, self.n_pes)
        return self.tau * math.log2(p)


def phoenix_intel(nodes: int = 8) -> MachineConfig:
    """Phoenix Intel node (Table IV): dual Xeon Gold 6226, 24 cores.

    121.9 GOp/s INT64, 46.9 GB/s memory bandwidth, 38 MB LLC, 64 B
    lines, 12.5 GB/s link, 192 GB DRAM.
    """
    return MachineConfig(
        name="phoenix-intel",
        nodes=nodes,
        sockets_per_node=2,
        cores_per_socket=12,
        c_node=121.9e9,
        beta_mem=46.9e9,
        beta_link=12.5e9,
        cache_bytes=38 * 1024 * 1024,
        line_bytes=64,
        mem_bytes=192 * 1024**3,
    )


def phoenix_amd(nodes: int = 1) -> MachineConfig:
    """Phoenix AMD node: dual EPYC 7742, 128 cores, 512 GB DRAM.

    Rates scaled from the Intel node by core count and the EPYC's
    8-channel DDR4 memory system.
    """
    return MachineConfig(
        name="phoenix-amd",
        nodes=nodes,
        sockets_per_node=2,
        cores_per_socket=64,
        c_node=409.6e9,
        beta_mem=190.0e9,
        beta_link=12.5e9,
        cache_bytes=256 * 1024 * 1024,
        line_bytes=64,
        mem_bytes=512 * 1024**3,
    )


def laptop(nodes: int = 1, cores: int = 8) -> MachineConfig:
    """A small machine preset for tests and examples."""
    return MachineConfig(
        name="laptop",
        nodes=nodes,
        sockets_per_node=1,
        cores_per_socket=cores,
        c_node=50.0e9,
        beta_mem=30.0e9,
        beta_link=10.0e9,
        cache_bytes=16 * 1024 * 1024,
        line_bytes=64,
        mem_bytes=16 * 1024**3,
    )
