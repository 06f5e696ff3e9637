"""Greedy delta debugging over failing (reads, schedule) triples.

A fuzz-found violation usually arrives wrapped in noise: dozens of
reads, a fault plan with five active fault classes, a membership
script, a crash point — most of it irrelevant.  :func:`shrink_failure`
minimises the repro while preserving the *same* invariant violation:

1. **reads** — classic ddmin over the read list (halves, then
   complements, recursing to finer granularity);
2. **schedule fields** — each nondeterminism source is nulled in turn
   (fault plan dropped, crash point disarmed, permutation seeds
   cleared, membership script emptied) and the simplification is kept
   whenever the violation survives;
3. **structure** — the surviving membership script and fault plan are
   element-wise minimised (drop events, zero fault classes).

Every candidate costs one simulation, so the shrinker is budgeted;
the result is the smallest failing triple found within the budget,
not a global minimum — the standard ddmin trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .schedule import Schedule
from .sim import Simulation, Trajectory

__all__ = ["ShrinkResult", "shrink_failure"]

#: Reruns one shrink may spend.
MAX_RUNS = 150


@dataclass(slots=True)
class ShrinkResult:
    """The minimised repro and the shrink accounting."""

    schedule: Schedule
    reads: list[np.ndarray]
    trajectory: Trajectory
    invariant: str
    runs: int
    reads_before: int
    reads_after: int


def _still_fails(sim: Simulation, schedule: Schedule,
                 reads: list[np.ndarray], invariant: str) -> Trajectory | None:
    """The trajectory if it reproduces *invariant*, else None."""
    trajectory = sim.run(schedule, reads=reads)
    if any(v.invariant == invariant for v in trajectory.violations):
        return trajectory
    return None


def _ddmin_reads(sim: Simulation, schedule: Schedule,
                 reads: list[np.ndarray], invariant: str,
                 budget: list[int]) -> tuple[list[np.ndarray], Trajectory | None]:
    """Zeller/Hildebrandt ddmin over the read list."""
    best: Trajectory | None = None
    n = 2
    while len(reads) >= 2 and budget[0] > 0:
        chunk = max(1, len(reads) // n)
        subsets = [reads[i:i + chunk] for i in range(0, len(reads), chunk)]
        reduced = False
        # Try each subset alone, then each complement.
        candidates = subsets + [
            [r for j, s in enumerate(subsets) for r in s if j != i]
            for i in range(len(subsets))
        ]
        for cand in candidates:
            if not cand or len(cand) >= len(reads) or budget[0] <= 0:
                continue
            budget[0] -= 1
            t = _still_fails(sim, schedule, cand, invariant)
            if t is not None:
                reads, best = cand, t
                n = max(2, len(subsets) - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(reads):
                break
            n = min(len(reads), 2 * n)
    return reads, best


def _simplify_schedule(sim: Simulation, schedule: Schedule,
                       reads: list[np.ndarray], invariant: str,
                       budget: list[int]) -> tuple[Schedule, Trajectory | None]:
    """Null each nondeterminism source; keep whatever still fails."""
    best: Trajectory | None = None
    simplifications: list[dict] = [
        {"plan": None},
        {"crash_point": None, "crash_nth": 1},
        {"membership": ()},
        {"drain_seed": None},
        {"spill_seed": None},
        {"protocol": "1D"},
        {"protect": True},
        {"tenant_weights": (), "tenant_rates": (), "tenant_quantum": 0},
        {"scaler_hot": 0.0, "scaler_cold": 0.0},
    ]
    for fields in simplifications:
        if budget[0] <= 0:
            break
        if all(getattr(schedule, k) == v for k, v in fields.items()):
            continue
        candidate = replace(schedule, **fields)
        budget[0] -= 1
        t = _still_fails(sim, candidate, reads, invariant)
        if t is not None:
            schedule, best = candidate, t
    # Element-wise: drop membership events one at a time.
    events = list(schedule.membership)
    i = 0
    while i < len(events) and budget[0] > 0:
        candidate = replace(schedule,
                            membership=tuple(events[:i] + events[i + 1:]))
        budget[0] -= 1
        t = _still_fails(sim, candidate, reads, invariant)
        if t is not None:
            events.pop(i)
            schedule, best = candidate, t
        else:
            i += 1
    # Element-wise: zero each active fault class of the plan.
    if schedule.plan is not None:
        plan = schedule.plan
        for field_name in ("drop_prob", "duplicate_prob", "delay_prob",
                           "reorder_prob", "corrupt_prob"):
            if budget[0] <= 0:
                break
            if getattr(plan, field_name) == 0.0:
                continue
            cand_plan = replace(plan, **{field_name: 0.0})
            candidate = replace(schedule, plan=cand_plan)
            budget[0] -= 1
            t = _still_fails(sim, candidate, reads, invariant)
            if t is not None:
                plan = cand_plan
                schedule, best = candidate, t
        if plan.straggler_pes and budget[0] > 0:
            candidate = replace(
                schedule, plan=replace(plan, straggler_pes=(),
                                       straggler_factor=1.0))
            budget[0] -= 1
            t = _still_fails(sim, candidate, reads, invariant)
            if t is not None:
                schedule, best = candidate, t
    return schedule, best


def shrink_failure(sim: Simulation, schedule: Schedule,
                   reads: list[np.ndarray]) -> ShrinkResult:
    """Minimise a failing ``(schedule, reads)`` pair in at most
    :data:`MAX_RUNS` reruns.

    The first violation of the original failure must survive every
    shrink step.  Raises ``ValueError`` if the pair does not fail to
    begin with.
    """
    trajectory = sim.run(schedule, reads=reads)
    if not trajectory.violations:
        raise ValueError("shrink_failure needs a failing (schedule, reads)")
    invariant = trajectory.violations[0].invariant

    budget = [MAX_RUNS]
    reads_before = len(reads)
    best = trajectory

    schedule, t = _simplify_schedule(sim, schedule, reads, invariant, budget)
    if t is not None:
        best = t
    reads, t = _ddmin_reads(sim, schedule, reads, invariant, budget)
    if t is not None:
        best = t
    # A second schedule pass: smaller inputs often unlock
    # simplifications the first pass could not keep.
    schedule, t = _simplify_schedule(sim, schedule, reads, invariant, budget)
    if t is not None:
        best = t

    return ShrinkResult(
        schedule=schedule,
        reads=reads,
        trajectory=best,
        invariant=invariant,
        runs=MAX_RUNS - budget[0],
        reads_before=reads_before,
        reads_after=len(reads),
    )
