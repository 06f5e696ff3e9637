"""Human-readable rendering of envelopes, trajectories, and verdicts."""

from __future__ import annotations

from ..bench.claims import CLAIMS
from ..bench.tables import format_table
from .gate import GateResult
from .ledger import Ledger

__all__ = ["format_claims", "format_envelope", "format_gate", "format_trajectory"]


def _fmt(value: float) -> str:
    if value != value:
        return "-"
    if abs(value) >= 1000 or (0 < abs(value) < 0.01):
        return f"{value:.3g}"
    return f"{value:.3f}"


def format_envelope(envelope: dict) -> str:
    """One run as an aligned table: cell x metric with mean and CI."""
    env = envelope.get("env", {})
    head = (
        f"### {envelope['experiment']} "
        f"(target {envelope['target']}, "
        f"git {str(env.get('git_sha', 'unknown'))[:8]}"
        f"{'+dirty' if env.get('git_dirty') else ''}, "
        f"{env.get('timestamp', '?')})\n"
    )
    rows = []
    for cell in envelope["cells"]:
        for metric in sorted(cell["summary"]):
            s = cell["summary"][metric]
            lo, hi = s["ci95"]
            rows.append({
                "cell": cell["cell_id"] or "default",
                "metric": metric,
                "n": s["n"],
                "mean": _fmt(s["mean"]),
                "ci95": f"[{_fmt(lo)}, {_fmt(hi)}]",
                "median": _fmt(s["median"]),
            })
        for name, passed in sorted(cell["checks"].items()):
            rows.append({
                "cell": cell["cell_id"] or "default",
                "metric": f"check:{name}",
                "n": "",
                "mean": "ok" if passed else "FAILED",
                "ci95": "",
                "median": "",
            })
    status = "ok" if envelope.get("ok", True) else "CHECKS FAILED"
    return head + format_table(rows) + f"status: {status}\n"


def format_gate(result: GateResult) -> str:
    """The gate verdict, regressions first."""
    lines = [
        f"### gate: {result.experiment} "
        f"(baseline {result.baseline_sha[:8]} -> "
        f"current {result.current_sha[:8]})",
        f"# compared {len(result.comparisons)} cell-metrics; "
        f"{len(result.regressions)} regression(s), "
        f"{len(result.improvements)} improvement(s)",
    ]
    for label, items in (("REGRESSED", result.regressions),
                         ("improved", result.improvements)):
        for cell, metric, cmp in items:
            lines.append(
                f"  {label} [{cell or 'default'}] {metric}: "
                f"shift {cmp.shift:+.1%} ({cmp.direction} is better); "
                f"{cmp.reason}")
    for check in result.failed_checks:
        lines.append(f"  CHECK FAILED {check}")
    if result.missing_cells:
        lines.append(
            f"# new cells with no baseline (not gated): "
            f"{', '.join(result.missing_cells)}")
    lines.append(f"verdict: {'PASS' if result.ok else 'FAIL'}")
    return "\n".join(lines) + "\n"


def format_trajectory(ledger: Ledger, experiment: str) -> str:
    """The cross-PR history of one experiment, oldest first."""
    entries = ledger.entries(experiment)
    if not entries:
        return f"# no ledger entries for {experiment!r}\n"
    rows = []
    for path in entries:
        doc = ledger.load(path)
        env = doc.get("env", {})
        for cell in doc["cells"]:
            for metric in sorted(cell["summary"]):
                s = cell["summary"][metric]
                rows.append({
                    "entry": path.stem,
                    "git": str(env.get("git_sha", "unknown"))[:8],
                    "cell": cell["cell_id"] or "default",
                    "metric": metric,
                    "mean": _fmt(s["mean"]),
                    "n": s["n"],
                })
    return format_table(rows, title=f"ledger trajectory: {experiment}")


def format_claims(envelope: dict) -> str:
    """A ``paper`` run joined with the claims table, as the markdown
    block EXPERIMENTS.md commits: claim | paper | measured | holds."""
    cells = {cell["params"]["exp_id"]: cell for cell in envelope["cells"]}
    lines = ["| experiment | claim | paper | measured | holds |",
             "|---|---|---|---|---|"]
    for claim in CLAIMS:
        cell = cells.get(claim.exp_id, {"metrics": {}, "checks": {}})
        held = cell["checks"].get(claim.name)
        value = cell["metrics"].get(claim.value, [None])[0]
        if value is None:
            measured = "-"
        elif value == int(value):  # counts, byte sizes and flags print exactly
            measured = str(int(value))
        else:
            measured = _fmt(value)
        lines.append(
            f"| {claim.exp_id} | `{claim.name}` | {claim.paper} | {measured} | "
            f"{'not evaluated' if held is None else 'yes' if held else 'NO'} |")
    return "\n".join(lines) + "\n"
