"""Chaos harness: run DAKC under a fault plan, validate against serial.

:func:`run_chaos` is the one-call entry point: it wires a
:class:`~repro.fault.models.FaultPlan` into ``dakc_count`` through the
conveyor factory and the inter-phase hook, optionally protected by the
reliability layer and a checkpoint store, and checks the produced
counts for exact multiset equality against the serial oracle.

The contract under test is sharp:

* **protected** runs must produce counts *exactly* equal to
  ``serial_count`` no matter what the plan injects (short of a fabric
  so lossy the protocol gives up with
  :class:`~repro.fault.reliability.ReliabilityError`);
* **unprotected** runs under a lossy plan must *fail loudly* — DAKC's
  conservation check raises
  :class:`~repro.core.dakc.DeliveryIntegrityError` rather than
  returning silently wrong counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dakc import DakcConfig, DeliveryIntegrityError, dakc_count
from ..core.result import KmerCounts
from ..core.seeds import spawn_seeds
from ..core.serial import serial_count
from ..runtime.cost import CostModel
from ..runtime.machine import MachineConfig
from .checkpoint import CheckpointStore, apply_phase_crashes
from .injector import FaultyConveyor
from .models import FaultPlan
from .reliability import DEFAULT_MAX_ROUNDS, ReliabilityError, ReliableConveyor

__all__ = ["ChaosOutcome", "run_chaos", "derive_plan_seeds"]


def derive_plan_seeds(seed: int, n: int) -> list[int]:
    """Independent per-plan fault seeds for a sweep rooted at *seed*.

    Thin wrapper over :func:`repro.core.seeds.spawn_seeds` so a sweep
    (the ``chaos-sweep`` xp target) does not hand-roll ``seed + i``
    offsets, which alias between adjacent root seeds.
    """
    return spawn_seeds(seed, n)


@dataclass(frozen=True)
class ChaosOutcome:
    """Result of one chaos run."""

    plan: FaultPlan
    protocol: str
    protected: bool
    ok: bool  # run completed (no integrity/reliability error)
    counts_match: bool  # exact multiset equality vs the serial oracle
    error: str | None = None
    sim_time: float = 0.0
    recovery_time: float = 0.0
    retransmits: int = 0
    dup_drops: int = 0
    acks_sent: int = 0
    checksum_failures: int = 0
    fault_summary: dict | None = None

    @property
    def passed(self) -> bool:
        """The run upheld its contract for its protection level.

        Protected: completed with exactly correct counts.  Unprotected:
        either the plan was benign and the counts are exact, or the
        faults were detected and the run was rejected.
        """
        if self.protected:
            return self.ok and self.counts_match
        if self.plan.benign:
            return self.ok and self.counts_match
        return not self.ok or self.counts_match


def run_chaos(
    reads,
    k: int,
    cost: CostModel | MachineConfig,
    plan: FaultPlan,
    *,
    config: DakcConfig | None = None,
    protect: bool = True,
    checkpoint: bool | None = None,
    rto: float | None = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    reference: KmerCounts | None = None,
) -> ChaosOutcome:
    """Run DAKC once under *plan* and validate the counts.

    ``protect`` enables the reliability layer (sequencing, dedup, acks,
    retransmission); ``checkpoint`` enables phase-boundary snapshots
    (default: on exactly when the plan crashes PEs and ``protect`` is
    set).  ``reference`` short-circuits the serial oracle when the
    caller already has it (several plans over one dataset).
    """
    if isinstance(cost, MachineConfig):
        cost = CostModel(cost)
    config = config or DakcConfig()
    if checkpoint is None:
        checkpoint = protect and bool(plan.crash_pes)
    store = CheckpointStore(cost) if checkpoint else None
    holder: dict[str, FaultyConveyor] = {}

    def factory(*args, **kwargs):
        if protect:
            conv = ReliableConveyor(
                *args, plan=plan, rto=rto, max_rounds=max_rounds, **kwargs
            )
        else:
            conv = FaultyConveyor(*args, plan=plan, **kwargs)
        holder["conveyor"] = conv
        return conv

    def hook(conveyor, stats):
        if store is not None:
            store.snapshot_delivered(conveyor, stats)
        apply_phase_crashes(plan, conveyor, stats, store)

    if reference is None:
        reference = serial_count(reads, k, canonical=config.canonical)

    try:
        counts, stats = dakc_count(
            reads, k, cost, config, conveyor_factory=factory, interphase_hook=hook
        )
    except (DeliveryIntegrityError, ReliabilityError) as exc:
        conv = holder.get("conveyor")
        return ChaosOutcome(
            plan=plan,
            protocol=config.protocol,
            protected=protect,
            ok=False,
            counts_match=False,
            error=f"{type(exc).__name__}: {exc}",
            fault_summary=conv.fault_stats.summary() if conv is not None else None,
        )
    finally:
        # The injector installs the plan's straggler dilation on the
        # shared cost model; clear it so the caller can reuse the model.
        cost.set_dilation(None)

    conv = holder["conveyor"]
    return ChaosOutcome(
        plan=plan,
        protocol=config.protocol,
        protected=protect,
        ok=True,
        counts_match=(counts == reference),
        sim_time=stats.sim_time,
        recovery_time=stats.recovery_time,
        retransmits=stats.total("retransmits"),
        dup_drops=stats.total("dup_drops"),
        acks_sent=stats.total("acks_sent"),
        checksum_failures=getattr(conv, "checksum_failures", 0),
        fault_summary=conv.fault_stats.summary(),
    )
