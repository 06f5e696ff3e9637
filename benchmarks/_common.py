"""Shared helpers for the benchmark tree.

Every ``bench_*`` module regenerates one of the paper's tables or
figures through :mod:`repro.bench.experiments` and

* times the regeneration with pytest-benchmark under an explicit
  repetition policy (``rounds``/``warmup_rounds`` thread straight
  through to ``benchmark.pedantic``; the historical default is a
  single round — these are end-to-end experiment harnesses, not
  microkernels), and
* writes the rendered rows to ``benchmarks/results/<exp>.txt`` —
  stamped with the environment fingerprint and the repetition
  metadata — so the paper-vs-measured record in EXPERIMENTS.md can be
  refreshed from artefacts with provenance attached.

Only the paper's figures and tables (and the ablations/extensions
that regenerate through the same registry) live here.  Product
scenarios are recorded by ``dakc xp run benchmarks/xp/<name>.json``
into ``benchmarks/results/ledger/``; see docs/XP.md.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.bench.experiments import ExperimentResult, run_experiment
from repro.xp.env import fingerprint

RESULTS_DIR = Path(__file__).parent / "results"

_SPEEDUP_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?x?")


def _metadata_footer(policy: dict) -> str:
    """Provenance block appended to every written ``.txt`` artifact."""
    env = fingerprint()
    policy_line = " ".join(f"{k}={v}" for k, v in policy.items())
    return (
        "\n# --- provenance ---\n"
        f"# repetition policy: {policy_line}\n"
        f"# git: {env['git_sha']}{'+dirty' if env['git_dirty'] else ''}\n"
        f"# python {env['python']}  numpy {env['numpy']}  "
        f"scipy {env['scipy']}\n"
        f"# host: {env['platform']}  cpus={env['cpu_count']}\n"
        f"# timestamp: {env['timestamp']}\n"
    )


def run_and_record(
    benchmark,
    exp_id: str,
    *,
    rounds: int = 1,
    iterations: int = 1,
    warmup_rounds: int = 0,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment under pytest-benchmark and persist its output."""
    result = benchmark.pedantic(
        lambda: run_experiment(exp_id, **kwargs),
        rounds=rounds, iterations=iterations, warmup_rounds=warmup_rounds,
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    policy = {"rounds": rounds, "iterations": iterations,
              "warmup_rounds": warmup_rounds}
    (RESULTS_DIR / f"{exp_id}.txt").write_text(
        result.render() + _metadata_footer(policy))
    return result


def rows_of(result: ExperimentResult, table_index: int = 0):
    return result.tables[table_index][1]


def parse_speedup(cell: str) -> float:
    """'2.35x' -> 2.35; '-' -> nan; anything else is a loud error."""
    if not isinstance(cell, str):
        raise TypeError(
            f"speedup cell must be a string, got {type(cell).__name__}: "
            f"{cell!r}")
    text = cell.strip()
    if text == "-":
        return float("nan")
    if not _SPEEDUP_RE.fullmatch(text):
        raise ValueError(
            f"malformed speedup cell {cell!r} "
            f"(expected '<number>x', '<number>', or '-')")
    return float(text.rstrip("xX"))
