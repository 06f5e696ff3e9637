"""The perf gate: current run vs ledger baseline, CI-enforceable.

Semantics: for every cell the two envelopes share, and every gated
metric they both measured, run :func:`repro.xp.stats.compare_samples`
in the metric's declared direction.  The gate FAILS (exit nonzero)
only on a *statistically significant* regression that also clears the
minimum-effect threshold — a noisy rerun cannot flip it — and never
fails on improvements, new cells, or new metrics.  A current run whose
correctness checks fail always gates red: a fast wrong answer is not
a baseline anyone should inherit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .stats import Comparison, compare_samples

__all__ = ["GateResult", "gate_envelopes"]


@dataclass
class GateResult:
    """Outcome of gating one current envelope against one baseline."""

    experiment: str
    baseline_sha: str
    current_sha: str
    comparisons: list[tuple[str, str, Comparison]] = field(
        default_factory=list)              # (cell_id, metric, verdict)
    missing_cells: list[str] = field(default_factory=list)
    failed_checks: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[tuple[str, str, Comparison]]:
        return [c for c in self.comparisons if c[2].regressed]

    @property
    def improvements(self) -> list[tuple[str, str, Comparison]]:
        return [c for c in self.comparisons if c[2].improved]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.failed_checks

    def to_doc(self) -> dict:
        return {
            "experiment": self.experiment,
            "baseline_sha": self.baseline_sha,
            "current_sha": self.current_sha,
            "ok": self.ok,
            "n_comparisons": len(self.comparisons),
            "missing_cells": self.missing_cells,
            "failed_checks": self.failed_checks,
            "regressions": [
                {"cell": cell, "metric": metric, **cmp.to_doc()}
                for cell, metric, cmp in self.regressions
            ],
            "improvements": [
                {"cell": cell, "metric": metric, **cmp.to_doc()}
                for cell, metric, cmp in self.improvements
            ],
        }


def _gated_metrics(envelope: dict) -> tuple[str, ...]:
    return tuple(envelope.get("spec", {}).get("gate_metrics", []) or ())


def gate_envelopes(
    baseline: dict,
    current: dict,
    *,
    alpha: float = 0.01,
    min_effect: float = 0.10,
) -> GateResult:
    """Judge *current* against *baseline* (both validated envelopes).

    The current spec's ``gate_metrics`` choose the metrics that gate
    (all shared metrics if empty).
    """
    if baseline["experiment"] != current["experiment"]:
        raise ValueError(
            f"experiment mismatch: baseline is "
            f"{baseline['experiment']!r}, current is "
            f"{current['experiment']!r}")
    gated = _gated_metrics(current)
    directions = {**baseline.get("directions", {}),
                  **current.get("directions", {})}
    result = GateResult(
        experiment=current["experiment"],
        baseline_sha=str(baseline.get("env", {}).get("git_sha", "unknown")),
        current_sha=str(current.get("env", {}).get("git_sha", "unknown")),
    )

    for cell in current["cells"]:
        for name, passed in cell.get("checks", {}).items():
            if not passed:
                result.failed_checks.append(
                    f"[{cell['cell_id'] or 'default'}] {name}")

    base_cells = {c["cell_id"]: c for c in baseline["cells"]}
    for cell in current["cells"]:
        base = base_cells.get(cell["cell_id"])
        if base is None:
            result.missing_cells.append(cell["cell_id"] or "default")
            continue
        for metric, samples in sorted(cell["metrics"].items()):
            if gated and metric not in gated:
                continue
            base_samples = base["metrics"].get(metric)
            if not base_samples:
                continue
            cmp = compare_samples(
                base_samples, samples,
                direction=directions.get(metric, "lower"),
                alpha=alpha, min_effect=min_effect,
            )
            result.comparisons.append((cell["cell_id"], metric, cmp))
    return result
