"""Deterministic, seeded fault models for the virtual PGAS runtime.

A :class:`FaultPlan` is a declarative description of everything that
can go wrong on the simulated machine:

* **wire faults**, applied independently per packet-group per hop
  traversal: message drop, duplication, delivery delay, delivery
  reordering (arrival jitter) and payload corruption (a flipped bit in
  a k-mer word — the classic undetected-by-the-fabric soft error);
* **straggler PEs**: a clock-dilation factor applied to every cost
  charged on the listed PEs (thermal throttling, noisy neighbours, a
  degraded NIC);
* **transient PE crashes** at a phase boundary: the PE loses its
  in-memory receive state and reboots after ``crash_restart_time`` —
  survivable only with :mod:`repro.fault.checkpoint`.

Plans are frozen and seeded: the same plan replayed over the same
deterministic simulation produces the same fault sequence, which is
what makes fault regressions reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Fate", "FaultPlan"]


@dataclass(frozen=True, slots=True)
class Fate:
    """The outcome drawn for one packet-group on one wire traversal."""

    drop: bool = False
    duplicate: bool = False
    corrupt: bool = False
    extra_delay: float = 0.0

    @property
    def clean(self) -> bool:
        return not (self.drop or self.duplicate or self.corrupt or self.extra_delay)


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Seeded description of the faults to inject into one run."""

    seed: int = 0
    #: Per-traversal probability that a packet group is silently lost.
    drop_prob: float = 0.0
    #: Per-traversal probability that a packet group arrives twice.
    duplicate_prob: float = 0.0
    #: Extra arrival lag of the duplicate copy (seconds).
    duplicate_lag: float = 2e-5
    #: Per-traversal probability of a fixed delivery delay.
    delay_prob: float = 0.0
    delay_time: float = 1e-4
    #: Per-traversal probability of uniform arrival jitter — enough
    #: jitter reorders deliveries relative to send order.
    reorder_prob: float = 0.0
    reorder_jitter: float = 5e-5
    #: Per-traversal probability of a payload bit flip.
    corrupt_prob: float = 0.0
    #: Straggler PEs and their clock-dilation factor (>= 1).
    straggler_pes: tuple[int, ...] = ()
    straggler_factor: float = 1.0
    #: PEs that transiently crash at the inter-phase boundary.
    crash_pes: tuple[int, ...] = ()
    #: Reboot delay charged to a crashed PE (seconds).
    crash_restart_time: float = 1e-3

    def __post_init__(self) -> None:
        for name in ("drop_prob", "duplicate_prob", "delay_prob",
                     "reorder_prob", "corrupt_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        for name in ("duplicate_lag", "delay_time", "reorder_jitter",
                     "crash_restart_time"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.straggler_factor < 1.0:
            raise ValueError("straggler_factor must be >= 1 (1 = healthy)")
        if any(pe < 0 for pe in self.straggler_pes + self.crash_pes):
            raise ValueError("PE indices must be non-negative")

    # -- derived views ------------------------------------------------

    @property
    def has_wire_faults(self) -> bool:
        """True when any per-traversal fault can fire."""
        return (
            self.drop_prob > 0
            or self.duplicate_prob > 0
            or self.delay_prob > 0
            or self.reorder_prob > 0
            or self.corrupt_prob > 0
        )

    @property
    def benign(self) -> bool:
        """True when the plan injects nothing at all."""
        return (
            not self.has_wire_faults
            and not self.crash_pes
            and (not self.straggler_pes or self.straggler_factor == 1.0)
        )

    def rng(self) -> np.random.Generator:
        """The plan's deterministic fault stream."""
        return np.random.default_rng(self.seed)

    def to_doc(self) -> dict:
        """JSON-friendly plan description (repro bundles)."""
        from dataclasses import asdict

        doc = asdict(self)
        doc["straggler_pes"] = list(self.straggler_pes)
        doc["crash_pes"] = list(self.crash_pes)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_doc` output."""
        doc = dict(doc)
        doc["straggler_pes"] = tuple(int(p) for p in doc.get("straggler_pes", ()))
        doc["crash_pes"] = tuple(int(p) for p in doc.get("crash_pes", ()))
        return cls(**doc)

    def dilation(self, n_pes: int) -> list[float] | None:
        """Per-PE clock-dilation vector for :meth:`CostModel.set_dilation`."""
        if not self.straggler_pes or self.straggler_factor == 1.0:
            return None
        if any(pe >= n_pes for pe in self.straggler_pes):
            raise ValueError(
                f"straggler PE out of range for {n_pes} PEs: {self.straggler_pes}"
            )
        factors = [1.0] * n_pes
        for pe in self.straggler_pes:
            factors[pe] = self.straggler_factor
        return factors

    def fate(self, rng: np.random.Generator) -> Fate:
        """Draw one wire-traversal outcome from the fault stream.

        Four uniforms are always consumed (plus one more when jitter
        fires) so the stream stays aligned regardless of which faults
        are enabled.
        """
        if not self.has_wire_faults:
            return Fate()
        u = rng.uniform(size=4)
        extra = 0.0
        if u[2] < self.delay_prob:
            extra += self.delay_time
        if u[3] < self.reorder_prob:
            extra += float(rng.uniform(0.0, self.reorder_jitter))
        return Fate(
            drop=bool(u[0] < self.drop_prob),
            duplicate=bool(u[1] < self.duplicate_prob),
            corrupt=bool(rng.uniform() < self.corrupt_prob) if self.corrupt_prob else False,
            extra_delay=extra,
        )

    @classmethod
    def sample(cls, rng: np.random.Generator, *, n_pes: int = 0) -> "FaultPlan":
        """Compose a random plan from an external RNG stream.

        The schedule fuzzer's plan generator: every field — including
        the plan's own replay seed — is drawn from *rng*, so the plan
        is a pure function of the caller's seed stream and two fuzz
        campaigns with independent roots never share plans.  Each
        fault class is enabled with probability 1/2 and then drawn
        uniformly up to its bound (drop and duplicate 5%, delay 20%,
        reorder 30%, corrupt 2%); in a quarter of plans (when *n_pes*
        is given) a random minority of PEs straggle at 1.5-4x.
        """
        def draw(bound: float) -> float:
            return float(rng.uniform(0.0, bound)) if rng.random() < 0.5 else 0.0

        stragglers: tuple[int, ...] = ()
        factor = 1.0
        if n_pes > 1 and rng.random() < 0.25:
            n_slow = int(rng.integers(1, max(2, n_pes // 2)))
            stragglers = tuple(
                int(p) for p in rng.choice(n_pes, size=n_slow, replace=False)
            )
            factor = float(rng.uniform(1.5, 4.0))
        return cls(
            seed=int(rng.integers(1 << 63)),
            drop_prob=draw(0.05),
            duplicate_prob=draw(0.05),
            delay_prob=draw(0.2),
            reorder_prob=draw(0.3),
            corrupt_prob=draw(0.02),
            straggler_pes=stragglers,
            straggler_factor=factor,
        )

    def describe(self) -> str:
        """Compact human-readable label (DST schedule descriptions)."""
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:.2%}")
        if self.duplicate_prob:
            parts.append(f"dup={self.duplicate_prob:.2%}")
        if self.corrupt_prob:
            parts.append(f"corrupt={self.corrupt_prob:.2%}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob:.2%}")
        if self.reorder_prob:
            parts.append(f"reorder={self.reorder_prob:.2%}")
        if self.straggler_pes and self.straggler_factor > 1.0:
            parts.append(
                f"stragglers={list(self.straggler_pes)}x{self.straggler_factor:g}"
            )
        if self.crash_pes:
            parts.append(f"crash={list(self.crash_pes)}")
        return " ".join(parts) if parts else "fault-free"
