"""The L0/L1 message-aggregation engine (Conveyors + HClib staging).

Re-implements the behaviour of the Conveyors library (Maley &
DeVinney) and the HClib-Actor staging layer on the simulated machine:

* every PE keeps one send buffer per *next hop* of the virtual
  topology (1D: per destination; 2D/3D: per row/column neighbour);
* application payloads arrive as :class:`PacketGroup`\\ s — one group
  represents ``n_packets`` consecutive wire packets to the same final
  destination (the L2 layer injects one group per flushed buffer);
* a batch of groups is staged in one pass (:meth:`Conveyor.inject_many`):
  per next hop the L0 fill and L1 count are cumsums, and the sender's
  clock advances through one :class:`~repro.runtime.cost.ClockLedger`;
* groups stage through the L1 layer (``C1`` packets per destination,
  charged as a memcpy into the conveyor buffer when it fills — the
  HClib-Actor behaviour of Section IV-B), then into the L0 buffer
  (``C0`` bytes); a full L0 buffer triggers an RDMA PUT to the next
  hop (charged latency + bandwidth, or a memcpy when co-located);
* 2D/3D packets carry a 32-bit final-destination header
  (:data:`~repro.runtime.topology.HEADER_BYTES`); relays store and
  forward, re-aggregating toward the final destination;
* receivers drain lazily: delivered groups carry their arrival time,
  and the algorithm charges receive processing through the cost
  model's busy-period queue at the phase boundary.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter

import numpy as np

from .cost import OPS_PER_PACKET, ClockLedger, CostModel
from .memory import L0_BUFFER_BYTES, MemoryTracker
from .stats import RunStats
from .topology import HEADER_BYTES, Topology

__all__ = ["PacketGroup", "Conveyor"]


@dataclass(slots=True)
class PacketGroup:
    """A run of wire packets sharing source, destination and kind.

    ``kmers``/``counts`` carry the semantic payload; ``n_packets`` and
    ``payload_bytes`` describe how the run appears on the wire (the L2
    layer decides the packing).  HEAVY groups carry explicit counts;
    NORMAL groups carry occurrences (implicit count 1 per element).
    """

    src: int
    dst: int
    kind: str  # "NORMAL" | "HEAVY"
    kmers: np.ndarray
    counts: np.ndarray | None
    n_packets: int
    payload_bytes: int
    #: Per-flow sequence number stamped by the reliability layer
    #: (:mod:`repro.fault.reliability`); -1 = untracked traffic.
    seq: int = -1
    #: Payload checksum stamped at injection; 0 = unchecked traffic.
    checksum: int = 0

    @property
    def n_elements(self) -> int:
        return int(self.kmers.size)


class _Routes(dict):
    """``dst -> (next hop, hop count)`` of ``route(src, dst)`` for one
    source PE, filled the first time *src* sends toward *dst*; a
    self-send's next hop is -1."""

    __slots__ = ("topology", "src")

    def __init__(self, topology: Topology, src: int) -> None:
        super().__init__()
        self.topology = topology
        self.src = src

    def __missing__(self, dst: int) -> tuple[int, int]:
        route = self.topology.route(self.src, dst)
        entry = self[dst] = (route[0] if route else -1, len(route))
        return entry


@dataclass(slots=True)
class _HopBuffer:
    """Send-side staging for one (PE, next hop) pair: L1 + L0."""

    groups: list = field(default_factory=list)
    bytes: int = 0
    packets_pending_l1: int = 0
    bytes_pending_l1: int = 0  # wire bytes of the L1-pending packets


class Conveyor:
    """Simulated Conveyors engine over a virtual topology."""

    def __init__(
        self,
        cost: CostModel,
        stats: RunStats,
        topology: Topology,
        memory: MemoryTracker | None = None,
        *,
        c0_bytes: int = L0_BUFFER_BYTES,
        c1_packets: int = 1024,
    ) -> None:
        if topology.p != cost.n_pes:
            raise ValueError(
                f"topology size {topology.p} != machine PEs {cost.n_pes}"
            )
        if c0_bytes < 8:
            raise ValueError("c0_bytes must hold at least one element")
        if c1_packets < 1:
            raise ValueError("c1_packets must be >= 1")
        self.cost = cost
        self.stats = stats
        self.topology = topology
        self.memory = memory
        self.c0_bytes = c0_bytes
        self.c1_packets = c1_packets
        self._routes = [_Routes(topology, pe) for pe in range(cost.n_pes)]
        self._buffers: list[dict[int, _HopBuffer]] = [dict() for _ in range(cost.n_pes)]
        self._staged_bytes: list[int] = [0] * cost.n_pes
        #: In-flight messages: (arrival_time, hop_pe, [groups]).
        self._in_flight: list[tuple[float, int, list[PacketGroup]]] = []
        #: Delivered groups per destination: (arrival_time, group).
        self.delivered: list[list[tuple[float, PacketGroup]]] = [
            [] for _ in range(cost.n_pes)
        ]
        #: Elements handed to :meth:`inject_many` by the application (relays
        #: and retransmissions are not re-counted) — one side of the
        #: packet-conservation ledger checked by :mod:`repro.dst`.
        self.injected_elements: int = 0
        #: Optional drain-order hook ``(arrival, seq, hop) -> key``.
        #: The drain heap pops messages by this key instead of strict
        #: arrival order; deterministic schedule fuzzing (repro.dst)
        #: uses it to explore adversarial delivery interleavings.
        #: Arrival timestamps of delivered groups are unaffected.
        self.order_hook = None

    # -- injection ----------------------------------------------------

    def group_wire_bytes(self, group: PacketGroup) -> int:
        """Bytes this group occupies on the wire, headers included."""
        if self.topology.needs_header:
            return group.payload_bytes + group.n_packets * HEADER_BYTES
        return group.payload_bytes

    def inject_many(
        self,
        src: int,
        groups: list[PacketGroup],
        ledger: ClockLedger | None = None,
    ) -> None:
        """Inject *groups*, in order, at PE *src* (application send).

        *ledger* carries the caller's own charges for the batch, group
        *i*'s under ``ledger.key(i, ledger.CALLER)``.
        """
        self.injected_elements += sum(g.kmers.size for g in groups)
        self._enqueue(src, groups, ledger)

    def _enqueue(
        self,
        from_pe: int,
        groups: list[PacketGroup],
        ledger: ClockLedger | None = None,
    ) -> None:
        """Stage *groups* at *from_pe*, in order, toward their next hops.

        The same as staging them one at a time, with Python running once
        per next hop, per L1 copy and per L0 flush (:meth:`_stage`).
        Group *i*'s charges go into the ledger after the caller's, under
        the group's ``L1_COPY``, ``L0_COPY`` and ``L0_PUT`` slots.  A
        self-send (Algorithm 4 routes self-owned k-mers through AsyncAdd
        too) is a local append, delivered at the clock it reaches.
        """
        pe_stats = self.stats.pe[from_pe]
        if ledger is None:
            ledger = self.cost.ledger(pe_stats)
        routes = self._routes[from_pe]
        hop = [routes[g.dst][0] for g in groups]
        n_packets = [g.n_packets for g in groups]
        wire = [g.payload_bytes for g in groups]
        if self.topology.needs_header:
            wire = [w + n * HEADER_BYTES for w, n in zip(wire, n_packets)]
            pe_stats.header_bytes += sum(n_packets) * HEADER_BYTES
        # Each next hop's groups, contiguous and in batch order (-1, the
        # self-sends, first); cw/cp are running wire bytes and packets.
        idx = sorted(range(len(hop)), key=hop.__getitem__)
        by_hop = sorted(hop)
        cw = list(accumulate([wire[i] for i in idx]))
        cp = list(accumulate([n_packets[i] for i in idx]))
        # The staged-bytes trajectory: +wire as group i is staged (step
        # 2i), -bytes as it fills its L0 buffer (step 2i + 1).
        steps = [0] * (2 * len(hop))
        steps[0::2] = wire
        events = []  # (group, ledger key its clock is read at, hop, payload, local)
        # In first-staged hop order, the buffers' insertion order, which
        # flush_pe keeps.
        for next_hop in dict.fromkeys(hop):
            lo = bisect_left(by_hop, next_hop)
            hi = bisect_right(by_hop, next_hop, lo)
            if next_hop < 0:
                for i in idx[lo:hi]:
                    steps[2 * i] = 0
                    events.append((i, ledger.key(i, ledger.CALLER), -1, groups[i], True))
                continue
            for i, message, nbytes, local in self._stage(
                    from_pe, next_hop, idx, groups, cw, cp, lo, hi, ledger):
                steps[2 * i + 1] = -nbytes
                events.append((i, ledger.key(i, ledger.L0_PUT), next_hop, message, local))
        if steps:
            staged = list(accumulate(steps, initial=self._staged_bytes[from_pe]))
            if self.memory is not None:
                self.memory.set_category_path(from_pe, "conveyor", staged[1:])
            self._staged_bytes[from_pe] = staged[-1]
        ledger.apply()
        if not events:
            return
        events.sort(key=itemgetter(0))
        # A self-send lands once its own charges ran; a PUT once it ran.
        clocks = ledger.clock_after([event[1] for event in events])
        tau = self.cost.machine.tau
        for (_, _, next_hop, payload, local), clock in zip(events, clocks):
            if next_hop < 0:
                self._deliver(from_pe, clock, payload)
            else:
                self._launch(from_pe, next_hop, payload, clock if local else clock + tau)

    def _stage(self, from_pe, next_hop, idx, groups, cw, cp, lo, hi, ledger):
        """Stage one hop's share of a batch; return its L0 flushes.

        The hop's groups are ``idx[lo:hi]``, in batch order; *cw*/*cp*
        are running sums of wire bytes and packets along *idx*.  From
        the state taken just before position ``pos``, group ``k``'s L0
        fill is ``bytes + cw[k] - cw[pos - 1]`` and its L1 count
        likewise, so the next L1 copy and the next L0 flush are each one
        bisection.  The L1 copy keeps its pro-rating: ``copied =
        bytes_pending * flushed // pending``, integer arithmetic, once
        per copy.
        """
        c0, c1 = self.c0_bytes, self.c1_packets
        local = self.cost.colocated(from_pe, next_hop)
        buffers = self._buffers[from_pe]
        buf = buffers.get(next_hop)
        if buf is None:
            buf = buffers[next_hop] = _HopBuffer()
        flushes = []
        pos = start = lo  # next position; first position in the L0 buffer
        w0 = cw[lo - 1] if lo else 0  # cw[pos - 1]
        p0 = cp[lo - 1] if lo else 0  # cp[pos - 1]
        while pos < hi:
            j = bisect_left(cw, c0 - buf.bytes + w0, pos, hi)  # next L0 flush
            k = bisect_left(cp, c1 - buf.packets_pending_l1 + p0, pos, hi)  # next L1 copy
            if k < hi and k <= j:
                # L1 staging: every C1 packets are memcpy'd into the
                # conveyor send buffer (HClib-Actor's extra buffering
                # layer), charged at memory bandwidth for the actual
                # wire bytes (payload + routing headers) of the flushed
                # packets, pro-rated over the pending run when a group
                # straddles the C1 boundary.
                pending = buf.packets_pending_l1 + cp[k] - p0
                bytes_pending = buf.bytes_pending_l1 + cw[k] - w0
                flushed = pending - pending % c1
                copied = bytes_pending * flushed // pending
                self.stats.pe[from_pe].l1_flushes += flushed // c1
                ledger.add_one(ledger.MEMORY, ledger.key(idx[k], ledger.L1_COPY), copied)
                buf.bytes += cw[k] - w0
                buf.packets_pending_l1 = pending % c1
                buf.bytes_pending_l1 = bytes_pending - copied
                pos, w0, p0 = k + 1, cw[k], cp[k]
                if k < j:
                    continue
                j = k
            elif j >= hi:
                break
            else:
                buf.bytes += cw[j] - w0
                buf.bytes_pending_l1 += cw[j] - w0
                pos, w0, p0 = j + 1, cw[j], cp[j]
            # L0 flush at j: packets still short of a full C1 batch are
            # staging-copied into the L0 buffer, then the PUT.
            i = idx[j]
            if buf.bytes_pending_l1:
                ledger.add_one(ledger.MEMORY, ledger.key(i, ledger.L0_COPY), buf.bytes_pending_l1)
            ledger.add_one(ledger.PUT_LOCAL if local else ledger.PUT,
                           ledger.key(i, ledger.L0_PUT), buf.bytes)
            self.stats.pe[from_pe].l0_flushes += 1
            flushes.append((i, buf.groups + [groups[g] for g in idx[start:pos]],
                            buf.bytes, local))
            buf = buffers[next_hop] = _HopBuffer()
            start = pos
        buf.groups += [groups[g] for g in idx[start:hi]]
        buf.bytes += cw[hi - 1] - w0
        buf.packets_pending_l1 += cp[hi - 1] - p0
        buf.bytes_pending_l1 += cw[hi - 1] - w0
        return flushes

    # -- flushing -----------------------------------------------------

    def _flush_hop(self, from_pe: int, next_hop: int) -> None:
        buf = self._buffers[from_pe].get(next_hop)
        if buf is None or not buf.groups:
            return
        pe_stats = self.stats.pe[from_pe]
        if buf.bytes_pending_l1:
            # Packets still short of a full C1 batch are staging-copied
            # into the L0 buffer at flush time (end-of-stream copy).
            self.cost.charge_mem(pe_stats, buf.bytes_pending_l1)
        nbytes = buf.bytes
        groups = buf.groups
        self._buffers[from_pe][next_hop] = _HopBuffer()
        self._staged_bytes[from_pe] -= nbytes
        if self.memory is not None:
            self.memory.set_category(from_pe, "conveyor", self._staged_bytes[from_pe])
        pe_stats.l0_flushes += 1
        arrival = self.cost.charge_put(pe_stats, next_hop, nbytes)
        self._launch(from_pe, next_hop, groups, arrival)

    def _launch(
        self,
        from_pe: int,
        next_hop: int,
        groups: list[PacketGroup],
        arrival: float,
    ) -> None:
        """Put one L0 message, already charged to *from_pe*, on the wire
        toward *next_hop*, to land at *arrival*.

        The single point where a message leaves a PE — overridden by
        :class:`repro.fault.injector.FaultyConveyor` to apply fault
        plans (drop/duplicate/delay/corrupt) per wire traversal.
        """
        self._in_flight.append((arrival, next_hop, groups))

    def flush_pe(self, pe: int) -> None:
        """Flush every non-empty buffer of one PE (end-of-stream)."""
        for next_hop in list(self._buffers[pe].keys()):
            self._flush_hop(pe, next_hop)

    def flush_all(self) -> None:
        """Flush all PEs' buffers."""
        for pe in range(self.cost.n_pes):
            self.flush_pe(pe)

    # -- delivery -----------------------------------------------------

    def drain(self) -> None:
        """Deliver all in-flight messages, relaying multi-hop traffic.

        Messages are processed in arrival order; groups that have not
        reached their final destination are re-aggregated at the relay
        and forwarded (charging the relay's clock for the handling),
        exactly the store-and-forward behaviour of 2D/3D Conveyors.
        """
        heap: list[tuple] = []
        seq = 0

        def absorb() -> None:
            nonlocal seq
            for arrival, hop, groups in self._in_flight:
                # Pop order follows (key, seq); seq is unique, so the
                # non-comparable tail entries are never compared.
                key = (arrival if self.order_hook is None
                       else self.order_hook(arrival, seq, hop))
                heapq.heappush(heap, (key, seq, arrival, hop, groups))
                seq += 1
            self._in_flight.clear()

        # Termination budget: every route() is hop-monotone (each hop
        # strictly shortens the remaining route), so a group arriving
        # at `hop` can cause at most len(route(hop, dst)) further
        # message launches — doubled per remaining hop to also cover
        # fault-injected duplicates (repro.fault).  A drain exceeding
        # this bound has a routing cycle, which the budget turns into
        # an immediate error instead of a ten-million-iteration hang.
        dup_factor = 2 ** self.topology.max_hops
        budget = len(self._in_flight) + dup_factor * sum(
            self._routes[hop][g.dst][1]
            for _, hop, groups in self._in_flight
            for g in groups
        )
        absorb()
        while heap:
            if budget <= 0:
                raise RuntimeError(
                    "conveyor drain exceeded the topology hop bound "
                    "(non-monotone route)"
                )
            budget -= 1
            _key, _, arrival, hop, groups = heapq.heappop(heap)
            relays = [g for g in groups if g.dst != hop]
            finals = [g for g in groups if g.dst == hop] if relays else groups
            for g in finals:
                self._deliver(hop, arrival, g)
            if relays:
                hop_stats = self.stats.pe[hop]
                # Relay handling: the hop PE parses headers and
                # re-buffers the packets toward their destinations.
                n_pkts = sum(g.n_packets for g in relays)
                nbytes = sum(self.group_wire_bytes(g) for g in relays)
                hop_stats.clock = max(hop_stats.clock, arrival)
                hop_stats.hops_forwarded += n_pkts
                self.cost.charge_compute(hop_stats, n_pkts * OPS_PER_PACKET)
                self.cost.charge_mem(hop_stats, nbytes)
                self._enqueue(hop, relays)
                self.flush_pe(hop)
                absorb()

    def _deliver(self, pe: int, arrival: float, group: PacketGroup) -> None:
        """Hand one group to its final destination.

        The single point where traffic becomes visible to the
        application — overridden by
        :class:`repro.fault.reliability.ReliableConveyor` for checksum
        verification and duplicate suppression.
        """
        self.delivered[pe].append((arrival, group))

    def finalize(self) -> None:
        """Flush everything and drain until quiescent."""
        self.flush_all()
        self.drain()
        # Flushing relays may have restocked buffers; repeat until
        # nothing is staged anywhere.
        while any(self._staged_bytes) or self._in_flight:
            self.flush_all()
            self.drain()

    # -- inspection ---------------------------------------------------

    def staged_bytes(self, pe: int) -> int:
        return self._staged_bytes[pe]

    def delivered_elements(self, pe: int) -> int:
        return sum(g.n_elements for _, g in self.delivered[pe])
