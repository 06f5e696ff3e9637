"""Schedules: one point each in the stack's nondeterminism space.

A :class:`Schedule` pins down everything a production run would leave
to chance — which faults fire, in what order messages pop off the
drain heap, how actor mailboxes interleave, where the LSM store
crashes, when cluster nodes churn.  Replaying the same schedule over
the same input is guaranteed to retrace the same trajectory, which is
what makes a fuzz-found failure a unit test instead of a war story.

The :class:`ScheduleFuzzer` sweeps that space deterministically: the
``i``-th schedule of a campaign is a pure function of ``(root seed,
i)`` via spawned child streams (:mod:`repro.core.seeds`), so two
machines running ``dakc dst run --seed 0`` explore identical
schedules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..cluster.script import MembershipEvent, sample_script, script_from_doc, script_to_doc
from ..core.seeds import spawn_seeds
from ..fault.models import FaultPlan
from ..lsm.crash import CRASH_POINTS

__all__ = ["Schedule", "ScheduleFuzzer"]


@dataclass(frozen=True, slots=True)
class Schedule:
    """Every knob one simulated trajectory depends on."""

    #: Root seed: input data, query streams and ring placement derive
    #: from it through spawned child streams.
    seed: int = 0
    #: DAKC execution mode ("fast" vectorised / "exact" actor loop).
    mode: str = "fast"
    #: Conveyors virtual topology (1D / 2D / 3D).
    protocol: str = "1D"
    #: Run the reliability layer over the (possibly faulty) wire.
    protect: bool = True
    #: Permutation stream for the conveyor drain heap (None = arrival
    #: order, the production behaviour).
    drain_seed: int | None = None
    #: Permutation streams for the actor runtime (exact mode only).
    mailbox_seed: int | None = None
    step_seed: int | None = None
    #: Permutation stream for out-of-core counting: the order in which
    #: the ceiling-sized slices are counted into scratch runs and so
    #: reach the merges (None = input order, the production behaviour).
    spill_seed: int | None = None
    #: Wire/straggler/PE-crash fault plan (None = healthy fabric).
    plan: FaultPlan | None = None
    #: LSM crash point to arm, and on which traversal it fires.
    crash_point: str | None = None
    crash_nth: int = 1
    #: Scripted cluster membership churn.
    membership: tuple[MembershipEvent, ...] = ()
    #: Burst overlay on the cluster query stream (plain floats so the
    #: JSON round-trip stays trivial; amplitude 1.0 / duration 0.0
    #: means no bursts — the production arrival process).
    burst_amplitude: float = 1.0
    burst_duration: float = 0.0
    burst_period: float = 0.5
    #: Multi-tenant scheduling knobs for the tenant layer: per-tenant
    #: DRR weights, per-tenant token-bucket rates (0.0 = unlimited;
    #: same length as the weights), and the scheduler quantum
    #: (0 = layer default).  Empty tuples mean the layer's canonical
    #: two-tenant default — the canary still exercises the scheduler.
    tenant_weights: tuple = ()
    tenant_rates: tuple = ()
    tenant_quantum: int = 0
    #: Autoscaler thresholds driven through the decision machine
    #: (0.0 = layer defaults).
    scaler_hot: float = 0.0
    scaler_cold: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("fast", "exact"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.crash_point is not None and self.crash_point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {self.crash_point!r}")
        if self.crash_nth < 1:
            raise ValueError("crash_nth must be >= 1")
        if self.burst_amplitude < 1.0:
            raise ValueError("burst_amplitude must be >= 1")
        if self.burst_period <= 0:
            raise ValueError("burst_period must be > 0")
        if not 0.0 <= self.burst_duration <= self.burst_period:
            raise ValueError("need 0 <= burst_duration <= burst_period")
        if any(w <= 0 for w in self.tenant_weights):
            raise ValueError("tenant weights must be > 0")
        if any(r < 0 for r in self.tenant_rates):
            raise ValueError("tenant rates must be >= 0")
        if self.tenant_rates and len(self.tenant_rates) != len(self.tenant_weights):
            raise ValueError("tenant_rates must match tenant_weights in length")
        if self.tenant_quantum < 0:
            raise ValueError("tenant_quantum must be >= 0")
        if self.scaler_hot < 0 or self.scaler_cold < 0:
            raise ValueError("scaler thresholds must be >= 0")
        if (self.scaler_hot or self.scaler_cold) and \
                self.scaler_hot <= self.scaler_cold:
            raise ValueError("scaler_hot must exceed scaler_cold")

    def burst(self):
        """The schedule's :class:`~repro.serve.workload.BurstSpec`,
        or ``None`` when the overlay is inactive."""
        if self.burst_amplitude <= 1.0 or self.burst_duration <= 0.0:
            return None
        from ..serve.workload import BurstSpec

        return BurstSpec(amplitude=self.burst_amplitude,
                         duration=self.burst_duration,
                         period=self.burst_period)

    # -- serialisation -------------------------------------------------

    def to_doc(self) -> dict:
        """JSON-friendly encoding (repro bundles, digests)."""
        return {
            "seed": self.seed,
            "mode": self.mode,
            "protocol": self.protocol,
            "protect": self.protect,
            "drain_seed": self.drain_seed,
            "mailbox_seed": self.mailbox_seed,
            "step_seed": self.step_seed,
            "spill_seed": self.spill_seed,
            "plan": None if self.plan is None else self.plan.to_doc(),
            "crash_point": self.crash_point,
            "crash_nth": self.crash_nth,
            "membership": script_to_doc(self.membership),
            "burst_amplitude": self.burst_amplitude,
            "burst_duration": self.burst_duration,
            "burst_period": self.burst_period,
            "tenant_weights": list(self.tenant_weights),
            "tenant_rates": list(self.tenant_rates),
            "tenant_quantum": self.tenant_quantum,
            "scaler_hot": self.scaler_hot,
            "scaler_cold": self.scaler_cold,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "Schedule":
        """Rebuild a schedule from :meth:`to_doc` output."""
        plan = doc.get("plan")
        return cls(
            seed=int(doc.get("seed", 0)),
            mode=str(doc.get("mode", "fast")),
            protocol=str(doc.get("protocol", "1D")),
            protect=bool(doc.get("protect", True)),
            drain_seed=doc.get("drain_seed"),
            mailbox_seed=doc.get("mailbox_seed"),
            step_seed=doc.get("step_seed"),
            spill_seed=doc.get("spill_seed"),
            plan=None if plan is None else FaultPlan.from_doc(plan),
            crash_point=doc.get("crash_point"),
            crash_nth=int(doc.get("crash_nth", 1)),
            membership=script_from_doc(doc.get("membership", [])),
            burst_amplitude=float(doc.get("burst_amplitude", 1.0)),
            burst_duration=float(doc.get("burst_duration", 0.0)),
            burst_period=float(doc.get("burst_period", 0.5)),
            tenant_weights=tuple(float(w)
                                 for w in doc.get("tenant_weights", [])),
            tenant_rates=tuple(float(r) for r in doc.get("tenant_rates", [])),
            tenant_quantum=int(doc.get("tenant_quantum", 0)),
            scaler_hot=float(doc.get("scaler_hot", 0.0)),
            scaler_cold=float(doc.get("scaler_cold", 0.0)),
        )

    def describe(self) -> str:
        parts = [f"seed={self.seed}", self.mode, self.protocol]
        if not self.protect:
            parts.append("bare")
        if self.drain_seed is not None:
            parts.append("drain-permuted")
        if self.mailbox_seed is not None or self.step_seed is not None:
            parts.append("actor-permuted")
        if self.spill_seed is not None:
            parts.append("spill-permuted")
        if self.plan is not None and not self.plan.benign:
            parts.append(self.plan.describe())
        if self.crash_point is not None:
            parts.append(f"crash@{self.crash_point}#{self.crash_nth}")
        if self.membership:
            parts.append("churn=" + ",".join(
                f"{e.kind}:{e.node}@{e.at}" for e in self.membership))
        if self.burst() is not None:
            parts.append(f"burst=x{self.burst_amplitude:.1f}"
                         f"/{self.burst_duration:.2f}s"
                         f"@{self.burst_period:.2f}s")
        if self.tenant_weights:
            spec = ":".join(f"{w:g}" for w in self.tenant_weights)
            parts.append(f"tenants={spec}@q{self.tenant_quantum or 'dflt'}")
        if self.scaler_hot:
            parts.append(f"scaler={self.scaler_hot:g}/{self.scaler_cold:g}")
        return " ".join(parts)


@dataclass(slots=True)
class ScheduleFuzzer:
    """Deterministic generator over the schedule space.

    ``schedules(n)`` yields the first *n* schedules of the campaign
    rooted at ``seed``; schedule ``i`` is drawn from the ``i``-th
    spawned child stream, so any prefix is stable under a larger
    budget and two campaigns with different roots never share a
    stream.  Schedule 0 is always the fault-free production ordering —
    a canary: if *it* violates an invariant the harness itself is
    broken.
    """

    seed: int = 0
    n_pes: int = 4
    n_nodes: int = 4
    rf: int = 2
    n_batches: int = 4
    modes: tuple[str, ...] = ("fast", "exact")
    protocols: tuple[str, ...] = ("1D", "2D")
    crash_points: tuple[str, ...] = field(default=CRASH_POINTS)

    def schedule(self, index: int) -> Schedule:
        """The ``index``-th schedule of this campaign (pure function)."""
        child = spawn_seeds(self.seed, index + 1)[index]
        if index == 0:
            return Schedule(seed=child)
        rng = np.random.default_rng(child)
        mode = str(rng.choice(self.modes))
        protocol = str(rng.choice(self.protocols))
        protect = bool(rng.random() < 0.7)
        plan = None
        if rng.random() < 0.6:
            plan = FaultPlan.sample(rng, n_pes=self.n_pes)
            if plan.benign:
                plan = None
        drain_seed = int(rng.integers(1 << 63)) if rng.random() < 0.6 else None
        mailbox_seed = step_seed = None
        if mode == "exact":
            if rng.random() < 0.6:
                mailbox_seed = int(rng.integers(1 << 63))
            if rng.random() < 0.6:
                step_seed = int(rng.integers(1 << 63))
        crash_point = None
        crash_nth = 1
        if rng.random() < 0.5:
            crash_point = str(rng.choice(self.crash_points))
            crash_nth = int(rng.integers(1, 3))
        membership = sample_script(rng, n_nodes=self.n_nodes, rf=self.rf,
                                   n_batches=self.n_batches)
        burst_amplitude, burst_duration, burst_period = 1.0, 0.0, 0.5
        if rng.random() < 0.35:
            burst_amplitude = float(rng.uniform(2.0, 8.0))
            burst_period = float(rng.uniform(0.1, 0.5))
            burst_duration = float(burst_period * rng.uniform(0.1, 0.6))
        spill_seed = int(rng.integers(1 << 63)) if rng.random() < 0.5 else None
        # Tenant-layer draws come last so every earlier field keeps its
        # historical value for a given (root, index) pair.
        tenant_weights: tuple = ()
        tenant_rates: tuple = ()
        tenant_quantum = 0
        if rng.random() < 0.45:
            n_tenants = int(rng.integers(2, 5))
            tenant_weights = tuple(
                round(float(rng.uniform(0.25, 4.0)), 3)
                for _ in range(n_tenants))
            tenant_rates = tuple(
                0.0 if rng.random() < 0.5
                else round(float(rng.uniform(8.0, 256.0)), 3)
                for _ in range(n_tenants))
            tenant_quantum = int(2 ** rng.integers(2, 7))
        scaler_hot = scaler_cold = 0.0
        if rng.random() < 0.4:
            scaler_cold = round(float(rng.uniform(10.0, 200.0)), 3)
            scaler_hot = round(scaler_cold * float(rng.uniform(2.0, 10.0)), 3)
        # PE crashes at the inter-phase barrier are drawn last, for the
        # same reason, and ride on the plan (a protected crash schedule
        # restores from a checkpoint, a bare one must fail loudly).
        if rng.random() < 0.25:
            n_crash = int(rng.integers(1, max(2, self.n_pes // 2 + 1)))
            crash_pes = tuple(sorted(int(p) for p in rng.choice(
                self.n_pes, size=n_crash, replace=False)))
            plan = replace(plan if plan is not None else FaultPlan(),
                           crash_pes=crash_pes)
        return Schedule(
            seed=child,
            mode=mode,
            protocol=protocol,
            protect=protect,
            drain_seed=drain_seed,
            mailbox_seed=mailbox_seed,
            step_seed=step_seed,
            spill_seed=spill_seed,
            plan=plan,
            crash_point=crash_point,
            crash_nth=crash_nth,
            membership=membership,
            burst_amplitude=burst_amplitude,
            burst_duration=burst_duration,
            burst_period=burst_period,
            tenant_weights=tenant_weights,
            tenant_rates=tenant_rates,
            tenant_quantum=tenant_quantum,
            scaler_hot=scaler_hot,
            scaler_cold=scaler_cold,
        )

    def schedules(self, n: int):
        """Yield the first *n* schedules of the campaign."""
        for i in range(n):
            yield self.schedule(i)
