"""Wire-level fault injection for the Conveyors engine.

:class:`FaultyConveyor` is a drop-in :class:`~repro.runtime.conveyors.
Conveyor` that applies a :class:`~repro.fault.models.FaultPlan` at the
single point where a message leaves a PE (``_launch``).  Faults are
drawn independently per packet group per wire traversal, so a group
relayed over a 3-hop route rolls the dice three times — exactly the
exposure a real multi-hop store-and-forward message has.

The sender is always charged for the PUT (a dropped message still
burned injection overhead and NIC bandwidth); only what arrives is
changed.  Corruption copies the payload before flipping a bit so the
sender's buffers stay pristine — a retransmission resends good data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..runtime.conveyors import Conveyor, PacketGroup
from .models import FaultPlan

__all__ = ["FaultStats", "FaultyConveyor"]


@dataclass(slots=True)
class FaultStats:
    """What the injector actually did to the wire traffic."""

    traversals: int = 0  # group wire-traversals examined
    dropped: int = 0
    duplicated: int = 0
    corrupted: int = 0
    delayed: int = 0  # traversals with extra arrival delay/jitter
    dropped_elements: int = 0  # payload elements lost to drops
    duplicated_elements: int = 0  # extra payload elements created by dups


def _corrupt_copy(group: PacketGroup, rng: np.random.Generator) -> PacketGroup:
    """A copy of *group* with one random payload bit flipped."""
    kmers = group.kmers.copy()
    if kmers.size:
        idx = int(rng.integers(kmers.size))
        bit = np.uint64(1) << np.uint64(int(rng.integers(64)))
        kmers[idx] = np.uint64(kmers[idx]) ^ bit
    return PacketGroup(
        src=group.src,
        dst=group.dst,
        kind=group.kind,
        kmers=kmers,
        counts=None if group.counts is None else group.counts.copy(),
        n_packets=group.n_packets,
        payload_bytes=group.payload_bytes,
        seq=group.seq,
        checksum=group.checksum,
    )


class FaultyConveyor(Conveyor):
    """Conveyor whose wire applies a seeded :class:`FaultPlan`."""

    def __init__(self, *args, plan: FaultPlan | None = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.plan = plan if plan is not None else FaultPlan()
        self._fault_rng = self.plan.rng()
        self.fault_stats = FaultStats()
        dilation = self.plan.dilation(self.cost.n_pes)
        if dilation is not None:
            self.cost.set_dilation(dilation)

    def _launch(
        self,
        from_pe: int,
        next_hop: int,
        groups: list[PacketGroup],
        arrival: float,
    ) -> None:
        if not self.plan.has_wire_faults:
            self._in_flight.append((arrival, next_hop, groups))
            return
        fs = self.fault_stats
        # Bucket surviving copies by their (possibly perturbed) arrival
        # time so each bucket lands as one message on the receive heap.
        buckets: dict[float, list[PacketGroup]] = {}
        for group in groups:
            fate = self.plan.fate(self._fault_rng)
            fs.traversals += 1
            if fate.drop:
                fs.dropped += 1
                fs.dropped_elements += group.n_elements
                continue
            if fate.corrupt:
                fs.corrupted += 1
                group = _corrupt_copy(group, self._fault_rng)
            when = arrival
            if fate.extra_delay:
                fs.delayed += 1
                when += fate.extra_delay
            buckets.setdefault(when, []).append(group)
            if fate.duplicate:
                fs.duplicated += 1
                fs.duplicated_elements += group.n_elements
                buckets.setdefault(when + self.plan.duplicate_lag, []).append(group)
        for when, bucket in buckets.items():
            self._in_flight.append((when, next_hop, bucket))
