"""Cost model: converts measured events into virtual time.

The simulated runtime executes the *real* algorithms and counts real
events (k-mers parsed, buffer flushes, PUTs, bytes, hops).  This module
prices those events on a :class:`~repro.runtime.machine.MachineConfig`,
advancing per-PE virtual clocks.  The pricing rules are the paper's own
model (Section V) applied at event granularity:

* compute: ``ops`` at one core's share of ``c_node`` (Eq. 9/12
  denominators);
* intranode traffic: ``bytes`` at one core's share of ``beta_mem``
  (Eqs. 10/13);
* remote PUT: ``tau`` plus ``bytes`` at one core's share of
  ``beta_link`` (tau >> mu, Table I);
* co-located PUT: converted to a memcpy at memory bandwidth — the
  HClib-Actor behaviour the paper credits for beating KMC3 on a single
  node (Section VI-B);
* barrier: ``tau * log2(P)`` tree reduction (Eq. 3).

Per-element and per-packet CPU overheads are explicit named constants;
they are the only calibrated values in the whole model and are chosen
once (documented in EXPERIMENTS.md), not per-experiment.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .machine import MachineConfig
from .stats import PEStats

__all__ = [
    "ClockLedger",
    "CostModel",
    "OPS_PER_ELEMENT_BUFFER",
    "OPS_PER_PACKET",
    "OPS_PER_SUPERKMER",
]

#: Ops to append one element to an aggregation buffer (bounds check,
#: store, counter bump).
OPS_PER_ELEMENT_BUFFER: int = 2

#: Ops to package one super-k-mer run for the wire: detect the run
#: boundary, 2-bit pack its bases, write the (minimizer, length)
#: header, append to the destination buffer.  Charged per *run*, not
#: per k-mer — the amortisation that makes minimizer routing cheap
#: (KMC2/MSPKmerCounter): a run of ``r`` k-mers ships
#: ``ceil((r + k - 1) / 4)`` bytes + one header instead of ``8 r``.
OPS_PER_SUPERKMER: int = 4

#: Ops of fixed per-packet handling: buffer management, header
#: write/parse, dispatch — roughly 30 ns of the Conveyors software
#: path per packet on a ~5 GHz-equivalent core.  This is what the L2
#: layer amortises: without L2 every 8-byte k-mer is its own packet
#: and pays this cost on both sides, which is where the paper's ~2x
#: L2 speedup on uniform data comes from (Fig. 12).
OPS_PER_PACKET: int = 160

#: Ops per element on the receive side (type dispatch + append to T).
OPS_PER_ELEMENT_RECV: int = 2

#: Per-doubling parallel efficiency of a *threaded* rank (OpenMP teams
#: spanning many cores lose throughput to NUMA traffic, barriers and
#: false sharing; ~3% per core-count doubling is the well-documented
#: ballpark).  Applied via ``CostModel(threaded=True)`` for the hybrid
#: baselines (HySortK's OpenMP ranks, KMC3's thread pool); DAKC's
#: fine-grained one-PE-per-core deployment does not pay it — part of
#: its measured single-node advantage (Fig. 9).  A multi-core PE used
#: merely as a *simulation aggregate* of per-core PEs (pe_granularity
#: choices for DAKC node sweeps) must NOT set ``threaded``.
THREAD_EFFICIENCY_PER_DOUBLING: float = 0.97


@dataclass
class CostModel:
    """Prices events on a machine; mutates :class:`PEStats` clocks."""

    machine: MachineConfig
    #: Number of physical cores represented by one simulated PE.
    cores_per_pe: int = 1
    #: Optional :class:`~repro.runtime.trace.Tracer` recording spans.
    tracer: object | None = None
    #: True when a multi-core PE is a real *threaded rank* (OpenMP) —
    #: it then pays :data:`THREAD_EFFICIENCY_PER_DOUBLING` per core
    #: doubling.  Leave False for PEs that merely aggregate per-core
    #: PEs for simulation speed.
    threaded: bool = False
    #: Optional per-PE clock-dilation factors (straggler modelling,
    #: :mod:`repro.fault`): every dt charged on PE ``i`` is multiplied
    #: by ``dilation[i]``.  A factor of 1 is a healthy PE; 2 models a
    #: core running at half speed (thermal throttling, a noisy
    #: neighbour, a degraded NIC).  Wire latency ``tau`` is a fabric
    #: property and is never dilated.
    dilation: list[float] | None = None

    def __post_init__(self) -> None:
        m = self.machine
        if self.cores_per_pe < 1:
            raise ValueError("cores_per_pe must be >= 1")
        if self.cores_per_pe > m.cores_per_node:
            raise ValueError("a PE cannot span more cores than a node has")
        #: PEs co-located on one node.
        self.pes_per_node = max(1, m.cores_per_node // self.cores_per_pe)
        self.n_pes = m.nodes * self.pes_per_node
        frac = self.cores_per_pe / m.cores_per_node
        eff = 1.0
        if self.threaded and self.cores_per_pe > 1:
            eff = THREAD_EFFICIENCY_PER_DOUBLING ** math.log2(self.cores_per_pe)
        self.thread_efficiency = eff
        self.pe_ops = m.c_node * frac * eff
        self.pe_mem_bw = m.beta_mem * frac * eff
        self.pe_link_bw = m.beta_link * frac
        self.pe_disk_bw = m.beta_disk * frac
        # The price table, by ClockLedger kind (compute, memory, remote
        # PUT, co-located PUT): a charge of `amount` (ops or bytes)
        # takes fixed + amount / rate, before dilation.
        self._fixed = (0.0, 0.0, m.tau_inject, m.local_latency)
        self._rate = (self.pe_ops, self.pe_mem_bw, self.pe_link_bw, self.pe_mem_bw)
        if self.dilation is not None:
            self.set_dilation(self.dilation)

    # -- geometry ----------------------------------------------------

    def node_of(self, pe: int) -> int:
        return pe // self.pes_per_node

    def colocated(self, a: int, b: int) -> bool:
        return self.node_of(a) == self.node_of(b)

    @property
    def barrier_time(self) -> float:
        p = max(2, self.n_pes)
        return self.machine.tau * math.log2(p)

    # -- straggler dilation ------------------------------------------

    def set_dilation(self, factors: "list[float] | None") -> None:
        """Install (or clear) per-PE clock-dilation factors."""
        if factors is None:
            self.dilation = None
            return
        factors = [float(f) for f in factors]
        if len(factors) != self.n_pes:
            raise ValueError(
                f"dilation needs one factor per PE ({self.n_pes}), got {len(factors)}"
            )
        if any(f < 1.0 for f in factors):
            raise ValueError("dilation factors must be >= 1 (1 = healthy PE)")
        self.dilation = factors

    def _dilated(self, pe: PEStats, dt: float) -> float:
        if self.dilation is None:
            return dt
        return dt * self.dilation[pe.pe]

    # -- charging primitives -----------------------------------------

    def _charge(self, pe: PEStats, kind: int, amount: int | float) -> float:
        """Charge one price-table entry to *pe*: its counter, its clock
        and its trace span.  Returns the dt applied."""
        dt = self._dilated(pe, self._fixed[kind] + amount / self._rate[kind])
        counter = _COUNTER[kind]
        setattr(pe, counter, getattr(pe, counter) + int(amount))
        if kind == ClockLedger.PUT:
            pe.puts_issued += 1
        t0 = pe.clock
        pe.advance(dt)
        if self.tracer is not None and _SPAN[kind] is not None:
            self.tracer.record(pe.pe, t0, pe.clock, _SPAN[kind])
        return dt

    def charge_compute(self, pe: PEStats, ops: int | float) -> float:
        """Charge *ops* INT64 operations; returns the dt applied."""
        return self._charge(pe, ClockLedger.COMPUTE, ops)

    def charge_mem(self, pe: PEStats, nbytes: int | float) -> float:
        """Charge intranode memory traffic of *nbytes*."""
        return self._charge(pe, ClockLedger.MEMORY, nbytes)

    def charge_disk_write(self, pe: PEStats, nbytes: int, *, ops: int = 1) -> float:
        """Charge an out-of-core spill write of *nbytes* (β_disk).

        Disk traffic is priced like link traffic — a fixed per-I/O
        latency plus a bandwidth term — so ``dakc`` can report bytes
        spilled next to bytes sent in the same virtual-time currency.
        *ops* is the number of physical I/O operations the bytes
        arrived in (flushes); each pays the seek/syscall latency.
        """
        m = self.machine
        dt = self._dilated(pe, ops * m.disk_latency + nbytes / self.pe_disk_bw)
        pe.disk_bytes_written += int(nbytes)
        pe.disk_ops += int(ops)
        t0 = pe.clock
        pe.advance(dt)
        if self.tracer is not None:
            self.tracer.record(pe.pe, t0, pe.clock, "disk-write")
        return dt

    def charge_disk_read(self, pe: PEStats, nbytes: int) -> float:
        """Charge a pass-2 bin reread of *nbytes* (one disk op, β_disk)."""
        m = self.machine
        dt = self._dilated(pe, m.disk_latency + nbytes / self.pe_disk_bw)
        pe.disk_bytes_read += int(nbytes)
        pe.disk_ops += 1
        t0 = pe.clock
        pe.advance(dt)
        if self.tracer is not None:
            self.tracer.record(pe.pe, t0, pe.clock, "disk-read")
        return dt

    def charge_put(self, src: PEStats, dst_pe: int, nbytes: int) -> float:
        """Charge one PUT from ``src`` toward PE *dst_pe*.

        A remote PUT occupies the sender only for the injection
        overhead plus its NIC-bandwidth share (one-sided RDMA does not
        stall the source on the wire latency); the latency ``tau`` is
        added to the *arrival* time.  Co-located PUTs become memcpys
        (local latency + memory bandwidth) — the HClib-Actor shared-
        memory shortcut.  Returns the message's arrival time at the
        destination.
        """
        if self.colocated(src.pe, dst_pe):
            self._charge(src, ClockLedger.PUT_LOCAL, nbytes)
            return src.clock
        self._charge(src, ClockLedger.PUT, nbytes)
        return src.clock + self.machine.tau

    # -- queueing ----------------------------------------------------

    @staticmethod
    def busy_period(start_busy_until: float, jobs: list[tuple[float, float]]) -> float:
        """Single-server queue finish time.

        ``jobs`` are ``(arrival, service_time)`` pairs; the server is
        busy until *start_busy_until* before it touches the queue and
        serves lazily in arrival order (the Conveyors receive-side
        model: "goes through its received messages lazily").
        """
        t = start_busy_until
        for arrival, service in sorted(jobs, key=lambda j: j[0]):
            t = max(t, arrival) + service
        return t

    # -- batched charging ----------------------------------------------

    def ledger(self, pe: PEStats) -> "ClockLedger":
        """An empty :class:`ClockLedger` for one PE's next batch."""
        return ClockLedger(self, pe)


#: The PEStats counter and the trace span of each ClockLedger kind (a
#: co-located PUT records no span).
_COUNTER = ("compute_ops", "mem_bytes", "bytes_sent", "local_memcpy_bytes")
_SPAN = ("compute", "memory", "send", None)


class ClockLedger:
    """Every dt one batch adds to one PE's clock, applied in one pass.

    A batch is a sequence of items (packet groups).  The layers of a
    batch (aggregator, conveyor) add their entries out of order, each
    under the position :meth:`key` of an item and one of its slots;
    :meth:`apply` orders them by key (entries under one key keep the
    order they were added in), prices each entry from the cost model's
    price table, as ``charge_*`` does, and advances the clock by one
    running sum.  ``np.add.accumulate`` adds left to right, so the clock
    after every entry is bit-identical to the repeated ``+=`` of
    ``charge_*``.
    """

    #: Entry kinds: ops of compute; bytes of memory traffic, of a remote
    #: PUT, of a co-located PUT.
    COMPUTE, MEMORY, PUT, PUT_LOCAL = range(4)
    #: An item's slots, in the order they run: the caller's own charges
    #: (sort, packet handling), the L1 copy, the L0 flush's staging copy
    #: of the packets short of a C1 batch, the L0 PUT.
    CALLER, L1_COPY, L0_COPY, L0_PUT = range(4)

    __slots__ = ("cost", "pe", "_batches", "_singles", "_order_keys", "_clocks")

    def __init__(self, cost: CostModel, pe: PEStats) -> None:
        self.cost = cost
        self.pe = pe
        self._batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._singles: list[tuple[int, int, int]] = []

    @staticmethod
    def key(item, slot: int):
        """The position key of *item*'s *slot* (an int, or an array of
        items)."""
        return 4 * item + slot

    def add(self, kind, keys: np.ndarray, amounts: np.ndarray) -> None:
        """Entries at *keys* of *kind* (one, or one per key): ops for
        compute, bytes for the rest."""
        self._batch_singles()
        kinds = np.empty(len(keys), dtype=np.int64)
        kinds[:] = kind
        self._batches.append((np.asarray(keys), kinds, np.asarray(amounts)))

    def add_one(self, kind: int, key: int, amount: int) -> None:
        """One entry (:meth:`add` for a single key)."""
        self._singles.append((key, kind, amount))

    def _batch_singles(self) -> None:
        # Keeps the entries in the order they were added.
        if self._singles:
            single = np.array(self._singles, dtype=np.int64)
            self._batches.append((single[:, 0], single[:, 1], single[:, 2]))
            self._singles = []

    def apply(self) -> None:
        """Charge every entry in key order: counters, clock, spans."""
        cost, pe = self.cost, self.pe
        if not self._batches:
            # Entries added one at a time are charged one at a time.
            self._singles.sort(key=itemgetter(0))
            self._order_keys = [key for key, _, _ in self._singles]
            self._clocks = clocks = [pe.clock]
            for _, kind, amount in self._singles:
                cost._charge(pe, kind, amount)
                clocks.append(pe.clock)
            return
        self._batch_singles()
        keys, kinds, amounts = (np.concatenate(column) for column in zip(*self._batches))
        order = np.argsort(keys, kind="stable")
        keys, kinds, amounts = keys[order], kinds[order], amounts[order]
        dt = np.array(cost._fixed)[kinds] + amounts / np.array(cost._rate)[kinds]
        if cost.dilation is not None:
            dt *= cost.dilation[pe.pe]
        clocks = np.add.accumulate(np.concatenate(([pe.clock], dt)))
        for kind, counter in enumerate(_COUNTER):
            setattr(pe, counter, getattr(pe, counter) + int(amounts[kinds == kind].sum()))
        pe.puts_issued += int(np.count_nonzero(kinds == self.PUT))
        self._order_keys = keys.tolist()
        self._clocks = clocks.tolist()
        pe.clock = self._clocks[-1]
        if cost.tracer is not None:
            for i, kind in enumerate(kinds.tolist()):
                if _SPAN[kind] is not None:
                    cost.tracer.record(pe.pe, self._clocks[i], self._clocks[i + 1], _SPAN[kind])

    def clock_after(self, keys: list[int]) -> list[float]:
        """Clock once every applied entry keyed at or below each of *keys*
        ran."""
        return [self._clocks[bisect_right(self._order_keys, key)] for key in keys]
