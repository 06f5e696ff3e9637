"""Grid expansion + execution: spec in, versioned result envelope out.

For each grid cell the runner derives a collision-free cell seed from
the spec's root seed (:func:`repro.core.seeds.spawn_seeds` — never
``seed + i``), spawns one child seed per warmup/repetition, runs the
target, and keeps per-repetition samples of every metric (plus the
runner's own wall-clock ``elapsed_s``).  Warmup repetitions execute
identically; their samples are discarded, their checks are not.

The envelope is self-describing: it embeds the spec, the environment
fingerprint, metric directions, raw samples, and bootstrap CIs — the
:mod:`repro.xp.ledger` appends it verbatim and the
:mod:`repro.xp.gate` needs nothing else to re-judge it later.
"""

from __future__ import annotations

import time

from ..core.seeds import spawn_seeds
from .env import fingerprint
from .ledger import LEDGER_VERSION
from .spec import ExperimentSpec
from .stats import bootstrap_ci
from .targets import get_target

__all__ = ["run_spec"]


def _summarize(samples: list[float], seed: int) -> dict:
    import numpy as np

    x = np.asarray(samples, dtype=float)
    lo, hi = bootstrap_ci(x, seed=seed)
    return {
        "n": int(x.size),
        "mean": float(x.mean()),
        "median": float(np.median(x)),
        "min": float(x.min()),
        "max": float(x.max()),
        "ci95": [lo, hi],
    }


def run_spec(spec: ExperimentSpec, *, progress=None) -> dict:
    """Execute every cell of *spec* and return the result envelope.

    *progress* (optional) is called with one line per cell/repetition
    milestone — the CLI passes ``print``.
    """
    target = get_target(spec.target)
    say = progress or (lambda msg: None)
    cells = spec.cells()
    for _, params in cells:  # a mistyped parameter is refused before anything runs
        target.merged(params)
    policy = spec.policy
    cell_seeds = spawn_seeds(spec.seed, len(cells))

    cell_docs = []
    ok = True
    for (cid, params), cell_seed in zip(cells, cell_seeds):
        rep_seeds = spawn_seeds(cell_seed, policy.warmup + policy.repetitions)
        metrics: dict[str, list[float]] = {}
        checks: dict[str, bool] = {}
        cost_names: set[str] = set()
        kept_seeds = []
        for rep, rep_seed in enumerate(rep_seeds):
            warm = rep < policy.warmup
            t0 = time.perf_counter()
            outcome = target.run({**params, "seed": rep_seed})
            elapsed = time.perf_counter() - t0
            # A wrong answer in a warmup is still a wrong answer: its
            # checks count, only its timings (and the wall-clock ratio
            # checks made of them) are discarded.
            kept = outcome.checks if warm else {**outcome.checks,
                                                **outcome.cost_checks}
            cost_names.update(outcome.cost_checks)
            for name, value in kept.items():
                checks[name] = checks.get(name, True) and bool(value)
            if warm:
                continue
            kept_seeds.append(rep_seed)
            samples = {"elapsed_s": elapsed, **outcome.metrics}
            for name, value in samples.items():
                metrics.setdefault(name, []).append(float(value))
        cell_ok = all(checks.values())
        ok = ok and cell_ok
        summary = {name: _summarize(vals, cell_seed)
                   for name, vals in metrics.items()}
        say(f"# cell [{cid or 'default'}]: "
            f"{policy.repetitions} reps (+{policy.warmup} warmup), "
            f"mean elapsed {summary['elapsed_s']['mean']:.3f}s, "
            f"checks {'ok' if cell_ok else 'FAILED'}")
        cell_docs.append({
            "cell_id": cid,
            "params": params,
            "seeds": kept_seeds,
            "metrics": metrics,
            "checks": checks,
            # which of the checks are wall-clock ratios, not answers
            "cost_checks": sorted(cost_names & set(checks)),
            "summary": summary,
        })

    directions = dict(target.directions)
    directions.setdefault("elapsed_s", "lower")
    return {
        "version": LEDGER_VERSION,
        "kind": "xp-run",
        "experiment": spec.experiment,
        "target": spec.target,
        "spec": spec.to_doc(),
        "env": fingerprint(),
        "directions": directions,
        "cells": cell_docs,
        "ok": ok,
    }
