"""repro.fault: fault injection, reliable delivery, checkpoint/restart.

The paper's runtime assumes a reliable fabric (Conveyors over SHMEM).
This package drops that assumption and asks what it costs to earn it
back: :class:`FaultyConveyor` makes the simulated wire lossy under a
seeded :class:`FaultPlan`; :class:`ReliableConveyor` layers sequencing,
checksums, dedup and ack/retransmit on top; :class:`CheckpointStore`
adds phase-boundary snapshot/restart for transient PE crashes; and
:func:`run_chaos` validates the whole stack against the serial oracle.
"""

from .chaos import ChaosOutcome, run_chaos
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
    "ChaosOutcome",
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
    "run_chaos",
]
