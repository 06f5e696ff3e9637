"""Phase-boundary checkpoint/restart for the simulated counters.

At DAKC's inter-phase barrier every PE's Phase-1 result — the delivered
packet groups it will sort in Phase 2 — is the whole recoverable state
of the computation.  :class:`CheckpointStore` snapshots that state,
prices the snapshot traffic on the machine, and replays it into PEs
that suffer a transient crash.

Checkpoint I/O runs at :data:`CHECKPOINT_BW_FRACTION` of a PE's memory
bandwidth — node-local NVMe or a burst buffer, not the DRAM stream.
Restore time lands in ``RunStats.recovery_time``; snapshot time is
ordinary overhead on the PE clocks (it is paid even on clean runs).

:func:`apply_phase_crashes` is the failure half: it wipes the delivered
state of the plan's ``crash_pes``, charges the reboot, and — when a
store holds a snapshot — restores.  Without a store the wiped PEs
simply lose their k-mers, which the conservation check turns into a
:class:`~repro.core.dakc.DeliveryIntegrityError`.
"""

from __future__ import annotations

from ..runtime.conveyors import Conveyor
from ..runtime.cost import CostModel
from ..runtime.stats import RunStats
from .models import FaultPlan

__all__ = ["CHECKPOINT_BW_FRACTION", "CheckpointStore", "apply_phase_crashes"]

#: Checkpoint device bandwidth as a fraction of PE memory bandwidth.
CHECKPOINT_BW_FRACTION: float = 0.5


class CheckpointStore:
    """Holds one snapshot of recoverable per-PE state."""

    def __init__(self, cost: CostModel) -> None:
        self.cost = cost
        self.snapshots_taken = 0
        #: PEs replayed from the snapshot, one entry per restore.
        self.restored: list[int] = []
        self._delivered: list[list] | None = None

    def _charge(self, pe_stats, nbytes: int) -> float:
        """Charge checkpoint I/O of *nbytes* on one PE; returns the dt."""
        dt = self.cost._dilated(pe_stats, nbytes / (self.cost.pe_mem_bw * CHECKPOINT_BW_FRACTION))
        pe_stats.advance(dt)
        return dt

    def snapshot_delivered(self, conveyor: Conveyor, stats: RunStats) -> None:
        """Snapshot every PE's delivered groups (DAKC Phase-1 output)."""
        snap: list[list] = []
        for pe, queue in enumerate(conveyor.delivered):
            snap.append(list(queue))
            nbytes = sum(g.payload_bytes for _, g in queue)
            self._charge(stats.pe[pe], nbytes)
        self._delivered = snap
        self.snapshots_taken += 1

    def restore_delivered(
        self, conveyor: Conveyor, pes: tuple[int, ...] | list[int], stats: RunStats
    ) -> None:
        """Replay the snapshot into the (rebooted) *pes*."""
        if self._delivered is None:
            raise RuntimeError("no delivered-state checkpoint to restore from")
        for pe in pes:
            conveyor.delivered[pe][:] = self._delivered[pe]
            nbytes = sum(g.payload_bytes for _, g in self._delivered[pe])
            dt = self._charge(stats.pe[pe], nbytes)
            stats.recovery_time += dt
            self.restored.append(pe)


def apply_phase_crashes(
    plan: FaultPlan,
    conveyor: Conveyor,
    stats: RunStats,
    store: CheckpointStore | None = None,
) -> None:
    """Crash the plan's PEs at the phase boundary; restore if possible.

    A crashed PE loses its in-memory delivered groups and reboots after
    ``plan.crash_restart_time``.  With a *store* holding a snapshot the
    state is replayed and the run proceeds; without one the loss stands
    and DAKC's conservation check will reject the counts.
    """
    if not plan.crash_pes:
        return
    n_pes = conveyor.cost.n_pes
    if any(pe >= n_pes for pe in plan.crash_pes):
        raise ValueError(
            f"crash PE out of range for {n_pes} PEs: {plan.crash_pes}"
        )
    for pe in plan.crash_pes:
        pe_stats = stats.pe[pe]
        pe_stats.crashes += 1
        conveyor.delivered[pe].clear()
        pe_stats.advance(plan.crash_restart_time)
        stats.recovery_time += plan.crash_restart_time
    if store is not None:
        store.restore_delivered(conveyor, plan.crash_pes, stats)
