"""Fuzz-campaign driver behind ``dakc dst run`` and the ``dst-sweep`` xp target.

:func:`dst_run` executes one campaign: generate ``budget`` schedules
from a root seed, run each through the :class:`Simulation`, verify the
determinism contract on a sample of them (same schedule twice must
digest identically), shrink every distinct failure and emit repro
bundles.  The ``dst-sweep`` target runs one campaign per root seed —
the cheap way to widen coverage without growing any one campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .bundle import ReproBundle, save_bundle
from .invariants import Violation
from .schedule import Schedule, ScheduleFuzzer
from .shrink import shrink_failure
from .sim import SimConfig, Simulation

__all__ = ["DstReport", "dst_run", "format_dst_report"]

#: Failures a campaign shrinks into repro bundles.
MAX_BUNDLES = 5


@dataclass(slots=True)
class DstReport:
    """Everything one campaign observed."""

    seed: int
    budget: int
    schedules_run: int = 0
    violations: list[tuple[Schedule, list[Violation]]] = field(
        default_factory=list)
    bundles: list[Path] = field(default_factory=list)
    determinism_checked: int = 0
    determinism_ok: bool = True
    digests: dict[int, str] = field(default_factory=dict)
    #: Schedules run per fault class (see :func:`_coverage`).
    coverage: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and self.determinism_ok

    def to_doc(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "violations": [
                {"schedule": s.to_doc(), "violations": [v.to_doc() for v in vs]}
                for s, vs in self.violations
            ],
            "bundles": [str(p) for p in self.bundles],
            "determinism_checked": self.determinism_checked,
            "determinism_ok": self.determinism_ok,
            "coverage": self.coverage,
            "ok": self.ok,
        }


def _coverage(schedule: Schedule) -> dict[str, bool]:
    """Which fault classes one schedule exercises."""
    plan = schedule.plan
    crash = plan is not None and bool(plan.crash_pes)
    return {
        "protected_crash": crash and schedule.protect,
        "unprotected_crash": crash and not schedule.protect,
        "wire_faults": plan is not None and plan.has_wire_faults,
        "unprotected": not schedule.protect,
    }


def dst_run(
    *,
    budget: int = 200,
    seed: int = 0,
    shrink: bool = True,
    out_dir: str | Path | None = None,
    determinism_every: int = 50,
) -> DstReport:
    """Run one fuzz campaign of *budget* schedules rooted at *seed*.

    Every ``determinism_every``-th schedule is executed twice and the
    digests compared — the cheap continuous audit that the simulation
    really is a pure function of its schedule.  Failures are shrunk
    (up to :data:`MAX_BUNDLES` of them) and written as repro bundles
    under *out_dir* when given.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    config = SimConfig()
    sim = Simulation(config)
    fuzzer = ScheduleFuzzer(seed=seed, n_pes=config.n_pes,
                            n_nodes=config.n_nodes, rf=config.rf)
    report = DstReport(seed=seed, budget=budget)
    shrunk = 0

    for i, schedule in enumerate(fuzzer.schedules(budget)):
        trajectory = sim.run(schedule)
        report.schedules_run += 1
        report.digests[i] = trajectory.digest
        for key, hit in _coverage(schedule).items():
            report.coverage[key] = report.coverage.get(key, 0) + hit
        if determinism_every and i % determinism_every == 0:
            report.determinism_checked += 1
            if sim.run(schedule).digest != trajectory.digest:
                report.determinism_ok = False
        if trajectory.violations:
            report.violations.append((schedule, list(trajectory.violations)))
            if shrink and shrunk < MAX_BUNDLES:
                shrunk += 1
                reads = sim.make_reads(schedule.seed)
                result = shrink_failure(sim, schedule, reads)
                bundle = ReproBundle.from_failure(
                    config, result.schedule, result.reads, result.trajectory)
                if out_dir is not None:
                    path = (Path(out_dir) /
                            f"dst-{seed}-{i:04d}-{result.invariant}.json")
                    report.bundles.append(save_bundle(bundle, path))
    return report


def format_dst_report(report: DstReport) -> str:
    """Render one campaign as a text summary."""
    lines = [
        f"dst campaign: seed={report.seed} budget={report.budget} "
        f"ran={report.schedules_run}",
        f"determinism: {report.determinism_checked} schedules replayed, "
        + ("digests identical" if report.determinism_ok
           else "DIGEST MISMATCH — simulation is not deterministic"),
        "coverage: " + " ".join(f"{key}={n}"
                                for key, n in report.coverage.items()),
    ]
    if not report.violations:
        lines.append("violations: none")
    else:
        lines.append(f"violations: {len(report.violations)} schedule(s)")
        for schedule, violations in report.violations[:10]:
            lines.append(f"  - {schedule.describe()}")
            for v in violations:
                lines.append(f"      [{v.layer}/{v.invariant}] {v.detail}")
        if len(report.violations) > 10:
            lines.append(f"  ... and {len(report.violations) - 10} more")
    for path in report.bundles:
        lines.append(f"bundle: {path}")
    lines.append(f"verdict: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
