"""Reliable delivery over a faulty conveyor wire.

:class:`ReliableConveyor` layers an end-to-end reliability protocol on
top of :class:`~repro.fault.injector.FaultyConveyor` — the standard
recipe a PGAS runtime would deploy over an unreliable fabric:

* every application group is stamped with a per-flow ``(src, dst)``
  sequence number and a payload checksum at injection;
* the receiver verifies the checksum (a corrupted group is discarded —
  indistinguishable from a loss) and suppresses duplicates with a
  cumulative-ack window per flow;
* after the normal drain settles, receivers acknowledge what they
  hold; unacknowledged groups are retransmitted in timeout rounds with
  exponential backoff (``rto * 2**(round-1)``), every round re-rolling
  the wire's fault dice;
* acknowledgements are small out-of-band PUTs (:data:`ACK_BYTES`) on a
  reliable control channel — charged through the cost model but exempt
  from the fault plan, the usual assumption that the tiny control
  plane is protected by link-level retry.

All protocol work is priced on the machine: retransmitted groups pay
the full staging/PUT path again, acks pay a PUT each, and timeout
waits accumulate in ``RunStats.recovery_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..runtime.conveyors import Conveyor, PacketGroup
from .injector import FaultyConveyor

__all__ = [
    "ACK_BYTES",
    "DEFAULT_MAX_ROUNDS",
    "ReliabilityError",
    "ReliableConveyor",
    "group_checksum",
]

#: Wire size of one acknowledgement message (flow id + cumulative seq).
ACK_BYTES: int = 16

#: Retransmission rounds before the protocol declares the fabric dead.
DEFAULT_MAX_ROUNDS: int = 64


class ReliabilityError(RuntimeError):
    """Raised when traffic stays unacknowledged after ``max_rounds``
    retransmission rounds — the fabric is lossier than the protocol
    can mask."""


def group_checksum(group: PacketGroup) -> int:
    """XOR checksum over the group payload.

    A single flipped payload bit always changes the XOR, which is
    exactly the fault :class:`~repro.fault.models.FaultPlan` injects.
    """
    acc = np.uint64(group.kmers.size)
    if group.kmers.size:
        acc ^= np.bitwise_xor.reduce(group.kmers.astype(np.uint64, copy=False))
    if group.counts is not None and group.counts.size:
        acc ^= np.bitwise_xor.reduce(group.counts.astype(np.uint64, copy=False))
    return int(acc)


@dataclass(slots=True)
class _DedupWindow:
    """Receiver-side per-flow window: cumulative base + out-of-order set.

    ``base`` is the next expected sequence number — everything below it
    has been accepted; ``pending`` holds accepted seqs at or above
    ``base`` (arrivals reordered by delay jitter or relaying).
    """

    base: int = 0
    pending: set[int] = field(default_factory=set)

    def accept(self, seq: int) -> bool:
        """True if *seq* is new (accepted), False for a duplicate."""
        if seq < self.base or seq in self.pending:
            return False
        self.pending.add(seq)
        while self.base in self.pending:
            self.pending.discard(self.base)
            self.base += 1
        return True

    def has(self, seq: int) -> bool:
        return seq < self.base or seq in self.pending


class ReliableConveyor(FaultyConveyor):
    """Faulty conveyor with sequencing, dedup, acks and retransmit."""

    def __init__(self, *args, max_rounds: int = DEFAULT_MAX_ROUNDS,
                 **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        #: Retransmission timeout: 50x the wire latency, a comfortable
        #: margin over one round trip.
        self.rto = 50.0 * self.cost.machine.tau
        self.max_rounds = max_rounds
        self._next_seq: dict[tuple[int, int], int] = {}
        #: Sent-but-unacked groups per flow: {(src, dst): {seq: group}}.
        self._outstanding: dict[tuple[int, int], dict[int, PacketGroup]] = {}
        self._windows: dict[tuple[int, int], _DedupWindow] = {}
        self.checksum_failures: int = 0

    # -- send side ----------------------------------------------------

    def inject_many(self, src, groups, ledger=None) -> None:
        for group in groups:
            flow = (group.src, group.dst)
            seq = self._next_seq.get(flow, 0)
            self._next_seq[flow] = seq + 1
            group.seq = seq
            group.checksum = group_checksum(group)
            self._outstanding.setdefault(flow, {})[seq] = group
        super().inject_many(src, groups, ledger)

    # -- receive side -------------------------------------------------

    def _deliver(self, pe: int, arrival: float, group: PacketGroup) -> None:
        if group.seq < 0:  # untracked traffic (acks are not modelled here)
            super()._deliver(pe, arrival, group)
            return
        if group_checksum(group) != group.checksum:
            # Corrupted in flight: discard.  The sender's copy is
            # pristine, so the retransmission round repairs this.
            self.checksum_failures += 1
            return
        flow = (group.src, group.dst)
        window = self._windows.setdefault(flow, _DedupWindow())
        if not window.accept(group.seq):
            self.stats.pe[pe].dup_drops += 1
            return
        super()._deliver(pe, arrival, group)

    # -- acknowledgement / retransmission ------------------------------

    def _ack_round(self) -> None:
        """Receivers acknowledge everything accepted so far.

        One cumulative ack PUT per flow that clears at least one
        outstanding group; a self-flow is acked in place (the sender
        and receiver share a mailbox — no wire traffic).
        """
        for (src, dst), pend in self._outstanding.items():
            if not pend:
                continue
            window = self._windows.get((src, dst))
            if window is None:
                continue  # nothing from this flow has arrived yet
            acked = [seq for seq in pend if window.has(seq)]
            if not acked:
                continue
            if src != dst:
                dst_stats = self.stats.pe[dst]
                self.cost.charge_put(dst_stats, src, ACK_BYTES)
                dst_stats.acks_sent += 1
            for seq in acked:
                del pend[seq]

    def outstanding_groups(self) -> int:
        return sum(len(pend) for pend in self._outstanding.values())

    def _reliability_rounds(self) -> None:
        self._ack_round()
        round_no = 0
        while self.outstanding_groups():
            round_no += 1
            if round_no > self.max_rounds:
                raise ReliabilityError(
                    f"{self.outstanding_groups()} groups still unacknowledged "
                    f"after {self.max_rounds} retransmission rounds"
                )
            # Timeout with exponential backoff: each sender with unacked
            # traffic waits out the RTO before resending.
            backoff = self.rto * (2 ** (round_no - 1))
            senders = {src for (src, _), pend in self._outstanding.items() if pend}
            for src in sorted(senders):
                self.stats.pe[src].advance(backoff)
            self.stats.recovery_time += backoff
            for (src, _), pend in self._outstanding.items():
                if pend:
                    self.stats.pe[src].retransmits += len(pend)
                    self._enqueue(src, [pend[seq] for seq in sorted(pend)])
            # Push the retransmissions through the (still faulty) wire.
            Conveyor.finalize(self)
            self._ack_round()

    def finalize(self) -> None:
        super().finalize()
        self._reliability_rounds()
