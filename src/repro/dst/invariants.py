"""Pluggable invariant checkers over simulated trajectories.

An :class:`Invariant` is a named predicate over one layer's observed
facts.  The :class:`Simulation` builds a plain-dict context per layer
(``runtime`` / ``lsm`` / ``cluster``) and asks the registry to check
it; each failed check becomes a :class:`Violation` carried on the
trajectory.  Keeping checkers data-driven (dict in, detail-string out)
means a test can register a bespoke invariant without touching the
simulator.

The default catalogue is the contract the stack already claims in
prose, made executable:

``serial-multiset``
    Whenever the delivery contract promises exactness (reliability
    layer on, or a fault-free wire), the counted multiset equals the
    serial oracle bit-for-bit.  The one error allowed is the
    reliability layer giving up (``ReliabilityError``) on a faulty wire.
``packet-conservation``
    Conveyor ledger balance at the inter-phase barrier (read before
    any crash wipes state): with reliable delivery (or no faults)
    every injected element is delivered exactly once; on a bare faulty
    wire ``delivered == injected - dropped + duplicated``.
``crash-recovery``
    A protected schedule that crashed PEs counts exactly, and each
    crashed PE shows one crash and one checkpoint restore.
``no-silent-loss``
    On an unprotected faulty schedule, a run whose owners hold a
    different occurrence weight than was generated (drops, duplicates,
    crash-wiped state) raised ``DeliveryIntegrityError``.  Corrupted
    values keep the weight, so a bare wire may miscount them silently:
    the checksum that catches them belongs to the reliability layer.
``monotone-acks``
    The reliability layer's cumulative-ack windows never move
    backwards.
``wal-recovery``
    Reopening a (possibly crashed) LSM store yields exactly the
    acknowledged batches — no lost ack, no resurrected torn write.
``cache-no-stale``
    A serving cache subscribed to the store never returns a
    pre-ingest count.
``ooc-exact``
    Out-of-core counting — whatever spill interleaving the schedule
    forces — produces the oracle multiset, both as the merged result
    and through the fused LSM store.
``spill-conservation``
    Pass 2 rereads exactly the bytes pass 1 spilled: no bin lost, none
    read twice.
``ring-rf``
    Every routing-table row names exactly RF distinct live-ring
    members.
``cluster-exact``
    Every query answered during membership churn matches the serial
    oracle.
``no-starvation``
    Under the DRR scheduler, every admitted (backlogged) tenant makes
    progress within its bounded number of grant turns — no service
    ever exceeds the ``ceil(chunk / (quantum * weight))`` bound, and
    no tenant goes unserved across a saturated window.
``fair-share``
    Over a saturated scheduling window, each tenant's served fraction
    stays within the DRR additive error (one quantum grant plus one
    maximum chunk, per tenant) of its weight share.
``quota-conservation``
    A token bucket never admits more work than its burst plus the
    refill earned by the elapsed virtual time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Violation", "Invariant", "InvariantRegistry", "default_registry"]


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach observed on a trajectory."""

    invariant: str
    layer: str
    detail: str

    def to_doc(self) -> dict:
        return {"invariant": self.invariant, "layer": self.layer,
                "detail": self.detail}

    @classmethod
    def from_doc(cls, doc: dict) -> "Violation":
        return cls(invariant=str(doc["invariant"]), layer=str(doc["layer"]),
                   detail=str(doc["detail"]))


@dataclass(frozen=True, slots=True)
class Invariant:
    """A named checker over one layer's observation dict.

    ``check(ctx)`` returns ``None`` when the invariant holds, or a
    human-readable detail string describing the breach.
    """

    name: str
    layer: str
    check: Callable[[dict], str | None]


@dataclass(slots=True)
class InvariantRegistry:
    """Checkers grouped by layer; extensible per-test."""

    _invariants: list[Invariant] = field(default_factory=list)

    def register(self, invariant: Invariant) -> None:
        if any(i.name == invariant.name for i in self._invariants):
            raise ValueError(f"invariant {invariant.name!r} already registered")
        self._invariants.append(invariant)

    def names(self) -> tuple[str, ...]:
        return tuple(i.name for i in self._invariants)

    def check(self, layer: str, ctx: dict) -> list[Violation]:
        """Run every checker registered for *layer* over *ctx*."""
        out: list[Violation] = []
        for inv in self._invariants:
            if inv.layer != layer:
                continue
            detail = inv.check(ctx)
            if detail is not None:
                out.append(Violation(inv.name, layer, detail))
        return out


# -- the default catalogue --------------------------------------------


def _loud_delivery_failure(ctx: dict) -> bool:
    return (ctx.get("error") or "").startswith("DeliveryIntegrityError")


def _serial_multiset(ctx: dict) -> str | None:
    if not ctx.get("expects_exact", False):
        return None
    error = ctx.get("error")
    if error is not None:
        if error.startswith("ReliabilityError") and ctx.get("wire_faults"):
            return None  # the protocol's loud give-up on a faulty wire
        return f"exact delivery was promised, but: {error}"
    if ctx.get("counts_match", True):
        return None
    return ("counted multiset != serial oracle "
            f"({ctx.get('n_distinct', '?')} distinct counted vs "
            f"{ctx.get('oracle_distinct', '?')} expected)")


def _packet_conservation(ctx: dict) -> str | None:
    if ctx.get("error") is not None and not _loud_delivery_failure(ctx):
        return None  # Phase 1 never finished: no ledger to balance
    injected = ctx.get("injected", 0)
    delivered = ctx.get("delivered", 0)
    if ctx.get("protect", True) or not ctx.get("faulty", False):
        expected = injected
        label = "reliable/clean wire"
    else:
        expected = injected - ctx.get("dropped", 0) + ctx.get("duplicated", 0)
        label = "bare faulty wire"
    if delivered == expected:
        return None
    return (f"{label}: delivered {delivered} elements, expected {expected} "
            f"(injected {injected}, dropped {ctx.get('dropped', 0)}, "
            f"duplicated {ctx.get('duplicated', 0)})")


def _crash_recovery(ctx: dict) -> str | None:
    crashed = ctx.get("crash_pes", [])
    if not crashed or not ctx.get("protect", True):
        return None
    error = ctx.get("error")
    if error is not None and not _loud_delivery_failure(ctx):
        return None  # the reliability layer gave up before the barrier
    if error is not None:
        return f"protected run lost crashed PEs {crashed}: {error}"
    if not ctx.get("counts_match", True):
        return (f"counted multiset != serial oracle after restoring PEs "
                f"{crashed}")
    crashes = sorted(ctx.get("crashed", []))
    restores = sorted(ctx.get("restored", []))
    if crashes == restores == crashed:
        return None
    return (f"PEs {crashed} should each crash and restore once; crashed "
            f"{crashes}, restored {restores}")


def _no_silent_loss(ctx: dict) -> str | None:
    if ctx.get("protect", True) or not ctx.get("faulty", False):
        return None
    generated, weight = ctx.get("generated"), ctx.get("weight")
    if generated is None or weight == generated or _loud_delivery_failure(ctx):
        return None
    return (f"bare wire left {weight} of {generated} k-mer occurrences at "
            "their owners and the run did not raise DeliveryIntegrityError")


def _monotone_acks(ctx: dict) -> str | None:
    regressions = ctx.get("ack_regressions", 0)
    if not regressions:
        return None
    return f"cumulative-ack window moved backwards {regressions} time(s)"


def _wal_recovery(ctx: dict) -> str | None:
    if ctx.get("recovered_match", True):
        return None
    return ctx.get("detail") or "reopened store != acknowledged-batch oracle"


def _cache_no_stale(ctx: dict) -> str | None:
    stale = ctx.get("stale_serves", 0)
    if not stale:
        return None
    return f"cache served {stale} pre-ingest count(s) after updates"


def _ooc_exact(ctx: dict) -> str | None:
    if ctx.get("error") is not None:
        return f"out-of-core count crashed: {ctx['error']}"
    if not ctx.get("counts_match", True):
        return ("out-of-core multiset != serial oracle "
                f"({ctx.get('n_distinct', '?')} distinct counted vs "
                f"{ctx.get('oracle_distinct', '?')} expected)")
    if not ctx.get("store_match", True):
        return "fused LSM store != serial oracle after out-of-core ingest"
    return None


def _spill_conservation(ctx: dict) -> str | None:
    if ctx.get("error") is not None:
        return None  # ooc-exact already reports the crash
    spilled = ctx.get("bytes_spilled", 0)
    reread = ctx.get("bytes_reread", 0)
    if spilled == reread:
        return None
    return f"spilled {spilled} bytes but pass 2 reread {reread}"


def _ring_rf(ctx: dict) -> str | None:
    if ctx.get("rf_ok", True):
        return None
    return ctx.get("rf_detail") or "routing table row without RF distinct owners"


def _cluster_exact(ctx: dict) -> str | None:
    if ctx.get("error") is not None:
        return f"membership script failed: {ctx['error']}"
    if ctx.get("answers_match", True):
        return None
    return (f"{ctx.get('mismatches', '?')} of {ctx.get('n_queries', '?')} "
            "answers differ from the serial oracle during churn")


def _no_starvation(ctx: dict) -> str | None:
    violations = ctx.get("starvation_violations", 0)
    if violations:
        return (f"{violations} service(s) waited more grant turns than "
                "the DRR bound allows")
    if not ctx.get("all_progressed", True):
        return "a backlogged tenant was never served in the saturated window"
    return None


def _fair_share(ctx: dict) -> str | None:
    error = ctx.get("share_error", 0.0)
    epsilon = ctx.get("epsilon", 1.0)
    if error <= epsilon:
        return None
    return (f"served share off weight share by {error:.4f} "
            f"(allowed {epsilon:.4f}) under saturation")


def _quota_conservation(ctx: dict) -> str | None:
    overdraft = ctx.get("quota_overdraft", 0)
    if not overdraft:
        return None
    return f"token bucket over-admitted at {overdraft} sample point(s)"


def default_registry() -> InvariantRegistry:
    """The stock invariant catalogue (one registry per simulation)."""
    registry = InvariantRegistry()
    registry.register(Invariant("serial-multiset", "runtime", _serial_multiset))
    registry.register(Invariant("packet-conservation", "runtime",
                                _packet_conservation))
    registry.register(Invariant("monotone-acks", "runtime", _monotone_acks))
    registry.register(Invariant("crash-recovery", "runtime", _crash_recovery))
    registry.register(Invariant("no-silent-loss", "runtime", _no_silent_loss))
    registry.register(Invariant("wal-recovery", "lsm", _wal_recovery))
    registry.register(Invariant("cache-no-stale", "lsm", _cache_no_stale))
    registry.register(Invariant("ooc-exact", "ooc", _ooc_exact))
    registry.register(Invariant("spill-conservation", "ooc",
                                _spill_conservation))
    registry.register(Invariant("ring-rf", "cluster", _ring_rf))
    registry.register(Invariant("cluster-exact", "cluster", _cluster_exact))
    registry.register(Invariant("no-starvation", "tenant", _no_starvation))
    registry.register(Invariant("fair-share", "tenant", _fair_share))
    registry.register(Invariant("quota-conservation", "tenant",
                                _quota_conservation))
    return registry
