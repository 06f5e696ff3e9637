"""Run statistics: per-PE counters and virtual clocks.

Everything the simulated runtime measures lives here.  The counters are
*measured* quantities from real executions of the algorithms (k-mers
routed, PUTs issued, bytes on the wire, hops traversed, buffer flushes,
barriers) — the machine model then converts them into simulated time.
Keeping measurement separate from costing mirrors how the paper
validates its analytical model against PAPI hardware counters (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PEStats", "RunStats"]


@dataclass(slots=True)
class PEStats:
    """Counters and virtual clock of a single processing element."""

    pe: int
    clock: float = 0.0  # virtual seconds

    # Phase 1: parse / generate / route
    kmers_generated: int = 0
    kmers_received: int = 0
    elements_received: int = 0  # wire elements (HEAVY pairs count as 2)
    compute_ops: int = 0
    mem_bytes: int = 0  # intranode memory traffic charged
    cache_misses_p1: int = 0
    cache_misses_p2: int = 0

    # Communication
    puts_issued: int = 0
    bytes_sent: int = 0  # payload + headers leaving this PE's NIC
    header_bytes: int = 0
    hops_forwarded: int = 0  # store-and-forward relays handled
    local_memcpy_bytes: int = 0  # co-located "sends" served by memcpy

    # Disk (out-of-core spill, repro.ooc)
    disk_bytes_written: int = 0  # spill-bin bytes written
    disk_bytes_read: int = 0  # out-of-core scratch bytes read back
    disk_ops: int = 0  # charged I/O operations (flushes + bin reads)

    # Aggregation layer activity
    l3_flushes: int = 0
    l2_flushes: int = 0
    l1_flushes: int = 0
    l0_flushes: int = 0
    heavy_pairs_sent: int = 0
    normal_elements_sent: int = 0

    # Synchronisation
    barriers: int = 0
    collectives: int = 0
    sync_wait_time: float = 0.0  # time wasted waiting at sync points

    # Reliability / fault tolerance (repro.fault)
    retransmits: int = 0  # groups re-sent after loss/corruption
    dup_drops: int = 0  # duplicate deliveries discarded by dedup
    acks_sent: int = 0  # acknowledgement messages sent by this PE
    crashes: int = 0  # transient crashes suffered at phase boundaries

    def advance(self, dt: float) -> None:
        """Advance this PE's virtual clock by *dt* seconds."""
        if dt < 0:
            raise ValueError("cannot advance clock by negative time")
        self.clock += dt


_SUM_FIELDS = (
    "kmers_generated",
    "kmers_received",
    "elements_received",
    "compute_ops",
    "mem_bytes",
    "cache_misses_p1",
    "cache_misses_p2",
    "puts_issued",
    "bytes_sent",
    "header_bytes",
    "hops_forwarded",
    "local_memcpy_bytes",
    "disk_bytes_written",
    "disk_bytes_read",
    "disk_ops",
    "l3_flushes",
    "l2_flushes",
    "l1_flushes",
    "l0_flushes",
    "heavy_pairs_sent",
    "normal_elements_sent",
    "barriers",
    "collectives",
    "retransmits",
    "dup_drops",
    "acks_sent",
    "crashes",
)


@dataclass
class RunStats:
    """Aggregated statistics of one simulated counting run."""

    n_pes: int
    pe: list[PEStats] = field(default_factory=list)
    #: Wall-clock (virtual) time of the run, set by the driver.
    sim_time: float = 0.0
    #: Virtual time at the end of phase 1 (k-mer generation+reshuffle).
    phase1_time: float = 0.0
    #: Virtual time spent in phase 2 (sort + accumulate).
    phase2_time: float = 0.0
    #: Number of global synchronisations performed.
    global_syncs: int = 0
    #: Peak per-PE aggregation-buffer memory (bytes), measured.
    peak_buffer_bytes_per_pe: int = 0
    #: Virtual time spent recovering from faults (retransmit rounds,
    #: crash restarts, checkpoint restores) — 0 on clean runs.
    recovery_time: float = 0.0
    #: Real (host) seconds spent executing the run, for benchmarks.
    host_seconds: float = 0.0
    #: Free-form extras (algorithm-specific measurements).
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.pe:
            self.pe = [PEStats(i) for i in range(self.n_pes)]
        if len(self.pe) != self.n_pes:
            raise ValueError("pe list length must equal n_pes")

    # -- totals ------------------------------------------------------

    def total(self, field_name: str) -> int:
        """Sum a counter field across all PEs."""
        if field_name not in _SUM_FIELDS:
            raise KeyError(f"unknown summable field {field_name!r}")
        return sum(getattr(p, field_name) for p in self.pe)

    @property
    def total_bytes_sent(self) -> int:
        return self.total("bytes_sent")

    @property
    def total_puts(self) -> int:
        return self.total("puts_issued")

    @property
    def total_kmers(self) -> int:
        return self.total("kmers_generated")

    @property
    def max_clock(self) -> float:
        return max((p.clock for p in self.pe), default=0.0)

    # -- imbalance ---------------------------------------------------

    def receive_imbalance(self) -> float:
        """Max/mean ratio of per-PE received elements (1.0 = balanced).

        Skewed k-mer distributions (heavy hitters) show up here; this
        is the quantity the L3 protocol attacks.
        """
        received = np.array([p.elements_received for p in self.pe], dtype=np.float64)
        mean = received.mean() if received.size else 0.0
        if mean == 0:
            return 1.0
        return float(received.max() / mean)

    # -- reporting ---------------------------------------------------

    def summary(self) -> dict:
        """Flat dict of headline measurements (for tables/benchmarks)."""
        return {
            "n_pes": self.n_pes,
            "sim_time": self.sim_time,
            "phase1_time": self.phase1_time,
            "phase2_time": self.phase2_time,
            "global_syncs": self.global_syncs,
            "kmers": self.total_kmers,
            "puts": self.total_puts,
            "bytes_sent": self.total_bytes_sent,
            "header_bytes": self.total("header_bytes"),
            "local_memcpy_bytes": self.total("local_memcpy_bytes"),
            "disk_bytes_written": self.total("disk_bytes_written"),
            "disk_bytes_read": self.total("disk_bytes_read"),
            "receive_imbalance": self.receive_imbalance(),
            "peak_buffer_bytes_per_pe": self.peak_buffer_bytes_per_pe,
            "retransmits": self.total("retransmits"),
            "dup_drops": self.total("dup_drops"),
            "acks_sent": self.total("acks_sent"),
            "recovery_time": self.recovery_time,
            "host_seconds": self.host_seconds,
        }
