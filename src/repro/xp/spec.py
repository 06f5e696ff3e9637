"""Declarative experiment configs: sweeps as data, not scripts.

An :class:`ExperimentSpec` is everything needed to reproduce a
measurement campaign: the *target* (a name in
:data:`repro.xp.targets.TARGETS`), fixed parameters, a
:class:`SweepSpec` parameter grid, a root seed, and an explicit
:class:`RepetitionPolicy` (warmups discarded, repetitions kept).  The
on-disk form is versioned JSON.

Design follows Cydonia's ``MTExperiments`` generator: configs are
plain data expanded into a cell list, so a sweep is diffable, and the
mubench replication's discipline: the repetition policy is part of the
config, not a flag someone forgets.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SPEC_VERSION",
    "RepetitionPolicy",
    "SweepSpec",
    "ExperimentSpec",
    "load_spec",
    "save_spec",
    "cell_id",
]

#: Bump when the on-disk spec schema changes incompatibly.
SPEC_VERSION = 1

_SCALAR = (str, int, float, bool)


@dataclass(frozen=True)
class RepetitionPolicy:
    """How many times each grid cell runs: warmups discarded, reps kept."""

    warmup: int = 1
    repetitions: int = 5

    def __post_init__(self):
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.repetitions < 1:
            raise ValueError(
                f"repetitions must be >= 1, got {self.repetitions}")

    def to_doc(self) -> dict:
        return {"warmup": self.warmup, "repetitions": self.repetitions}

    @classmethod
    def from_doc(cls, doc: dict) -> "RepetitionPolicy":
        unknown = set(doc) - {"warmup", "repetitions"}
        if unknown:
            raise ValueError(f"unknown policy keys: {sorted(unknown)}")
        return cls(int(doc.get("warmup", 1)), int(doc.get("repetitions", 5)))


@dataclass(frozen=True)
class SweepSpec:
    """The parameter grid: axis name -> tuple of values to sweep."""

    axes: tuple[tuple[str, tuple], ...] = ()

    @classmethod
    def from_doc(cls, doc: dict) -> "SweepSpec":
        axes = []
        for name, values in sorted(doc.items()):
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(
                    f"sweep axis {name!r} must be a non-empty list, "
                    f"got {values!r}")
            for v in values:
                if not isinstance(v, _SCALAR):
                    raise ValueError(
                        f"sweep axis {name!r} holds non-scalar value {v!r}")
            axes.append((name, tuple(values)))
        return cls(tuple(axes))

    def to_doc(self) -> dict:
        return {name: list(values) for name, values in self.axes}

    def cells(self) -> list[dict]:
        """Expand the grid into per-cell parameter dicts (stable order)."""
        if not self.axes:
            return [{}]
        names = [name for name, _ in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(v for _, v in self.axes))
        ]


def cell_id(params: dict) -> str:
    """Stable, human-readable id of one grid cell ('' for a 0-axis grid)."""
    return ",".join(f"{k}={params[k]}" for k in sorted(params))


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment: target + grid + seeds + policy."""

    experiment: str
    target: str
    fixed: dict = field(default_factory=dict)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    seed: int = 0
    policy: RepetitionPolicy = field(default_factory=RepetitionPolicy)
    #: Restrict gating to these metrics ('' = gate every shared metric).
    gate_metrics: tuple[str, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if not self.experiment:
            raise ValueError("experiment id must be non-empty")
        if not self.target:
            raise ValueError(f"spec {self.experiment!r} names no target")
        overlap = set(self.fixed) & {name for name, _ in self.sweep.axes}
        if overlap:
            raise ValueError(
                f"spec {self.experiment!r}: parameters both fixed and "
                f"swept: {sorted(overlap)}")
        for k, v in self.fixed.items():
            if not isinstance(v, _SCALAR):
                raise ValueError(
                    f"fixed parameter {k!r} holds non-scalar value {v!r}")

    # -- round trip ----------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "version": SPEC_VERSION,
            "experiment": self.experiment,
            "target": self.target,
            "fixed": dict(self.fixed),
            "sweep": self.sweep.to_doc(),
            "seed": self.seed,
            "policy": self.policy.to_doc(),
            "gate_metrics": list(self.gate_metrics),
            "notes": self.notes,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "ExperimentSpec":
        if not isinstance(doc, dict):
            raise ValueError(f"spec document must be a table, got {type(doc)}")
        version = doc.get("version")
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r} "
                f"(this build reads version {SPEC_VERSION})")
        known = {"version", "experiment", "target", "fixed", "sweep",
                 "seed", "policy", "gate_metrics", "notes"}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown spec keys: {sorted(unknown)}")
        return cls(
            experiment=str(doc.get("experiment", "")),
            target=str(doc.get("target", "")),
            fixed=dict(doc.get("fixed", {})),
            sweep=SweepSpec.from_doc(doc.get("sweep", {})),
            seed=int(doc.get("seed", 0)),
            policy=RepetitionPolicy.from_doc(doc.get("policy", {})),
            gate_metrics=tuple(doc.get("gate_metrics", [])),
            notes=str(doc.get("notes", "")),
        )

    # -- grid ----------------------------------------------------------

    def cells(self) -> list[tuple[str, dict]]:
        """(cell_id, merged params) per cell, fixed params included."""
        out = []
        for sweep_params in self.sweep.cells():
            out.append((cell_id(sweep_params),
                        {**self.fixed, **sweep_params}))
        return out


# ---------------------------------------------------------------------------
# I/O: versioned JSON
# ---------------------------------------------------------------------------


def _require_json(path: Path) -> None:
    if path.suffix != ".json":
        raise ValueError(
            f"{path}: unknown spec extension {path.suffix!r} (expected .json)")


def load_spec(path: str | Path) -> ExperimentSpec:
    """Load a spec from ``.json`` (validated, versioned)."""
    path = Path(path)
    _require_json(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return ExperimentSpec.from_doc(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_spec(spec: ExperimentSpec, path: str | Path) -> Path:
    """Write a spec as ``.json``."""
    path = Path(path)
    _require_json(path)
    path.write_text(json.dumps(spec.to_doc(), indent=2) + "\n")
    return path
