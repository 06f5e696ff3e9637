"""repro.fault: fault injection, reliable delivery, checkpoint/restart.

The paper's runtime assumes a reliable fabric (Conveyors over SHMEM).
This package drops that assumption and asks what it costs to earn it
back: :class:`FaultyConveyor` makes the simulated wire lossy under a
seeded :class:`FaultPlan`; :class:`ReliableConveyor` layers sequencing,
checksums, dedup and ack/retransmit on top; :class:`CheckpointStore`
adds phase-boundary snapshot/restart for transient PE crashes.
:func:`repro.dst.sim.run_runtime` wires a plan into ``dakc_count`` and
the DST invariants check the result against the serial oracle.

The contract: protected (reliable wire, checkpoint on a crash), counts
equal the serial oracle exactly.  Unprotected, DAKC's conservation
check catches lost and duplicated k-mers (dropped or duplicated
groups, crash-wiped state) with a
:class:`~repro.core.dakc.DeliveryIntegrityError`, but not corrupted
values: a flipped bit keeps the occurrence weight the check counts,
so a bare wire can return wrong counts without an error.  The
checksum that catches corruption belongs to the reliability layer.
"""

from .checkpoint import CHECKPOINT_BW_FRACTION, CheckpointStore, apply_phase_crashes
from .injector import FaultStats, FaultyConveyor
from .models import Fate, FaultPlan
from .reliability import (
    ACK_BYTES,
    DEFAULT_MAX_ROUNDS,
    ReliabilityError,
    ReliableConveyor,
    group_checksum,
)

__all__ = [
    "ACK_BYTES",
    "CHECKPOINT_BW_FRACTION",
    "CheckpointStore",
    "DEFAULT_MAX_ROUNDS",
    "Fate",
    "FaultPlan",
    "FaultStats",
    "FaultyConveyor",
    "ReliabilityError",
    "ReliableConveyor",
    "apply_phase_crashes",
    "group_checksum",
]
