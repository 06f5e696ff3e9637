"""``repro.xp`` — declarative experiments, statistics, and perf gating.

The paper's claims are comparative ("asynchronous beats BSP", "comm
overlap cuts runtime"), and so is every extension claim this repo has
accumulated.  This subsystem is the one recorded pathway for the
product scenarios and for the paper's own tables and figures, and
makes the "measurably faster" discipline systematic:

* :mod:`repro.xp.spec`    — sweeps as *data*: a versioned
  :class:`ExperimentSpec` names a target callable, its parameter grid,
  seeds, and an explicit warmup/repetition policy (JSON).
* :mod:`repro.xp.targets` — the registry of runnable targets (one per
  product scenario: serve, LSM, out-of-core, cluster, tenant, trace,
  DST, count; ``paper`` for the source paper's tables and
  figures; plus a synthetic calibration target).
* :mod:`repro.xp.runner`  — expands the grid, spawns collision-free
  child seeds via :mod:`repro.core.seeds`, runs warmups + repetitions,
  and stamps an environment fingerprint into the result envelope.
* :mod:`repro.xp.stats`   — bootstrap confidence intervals,
  Mann-Whitney U shift detection, Cliff's delta, and a minimum-effect
  threshold so noise cannot flip a verdict.
* :mod:`repro.xp.ledger`  — the append-only, versioned result ledger
  under ``benchmarks/results/ledger/``, keyed by experiment id + git
  SHA, and its one validated loader.
* :mod:`repro.xp.gate`    — compares a fresh run against the ledger
  baseline and fails CI on a statistically significant regression.

CLI: ``dakc xp run|gate|report|list``.
"""

from __future__ import annotations

from .env import fingerprint
from .gate import GateResult, gate_envelopes
from .ledger import LEDGER_VERSION, Ledger, validate_envelope
from .report import format_claims, format_envelope, format_gate, format_trajectory
from .runner import run_spec
from .spec import (
    SPEC_VERSION,
    ExperimentSpec,
    RepetitionPolicy,
    SweepSpec,
    load_spec,
    save_spec,
)
from .stats import (
    Comparison,
    bootstrap_ci,
    cliffs_delta,
    compare_samples,
    mann_whitney_u,
    relative_shift,
)
from .targets import TARGETS, TargetOutcome, XpTarget, get_target

__all__ = [
    "SPEC_VERSION",
    "LEDGER_VERSION",
    "ExperimentSpec",
    "RepetitionPolicy",
    "SweepSpec",
    "load_spec",
    "save_spec",
    "TARGETS",
    "XpTarget",
    "TargetOutcome",
    "get_target",
    "fingerprint",
    "run_spec",
    "Comparison",
    "bootstrap_ci",
    "cliffs_delta",
    "compare_samples",
    "mann_whitney_u",
    "relative_shift",
    "Ledger",
    "validate_envelope",
    "GateResult",
    "gate_envelopes",
    "format_claims",
    "format_envelope",
    "format_gate",
    "format_trajectory",
]
