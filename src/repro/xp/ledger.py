"""The cross-PR benchmark ledger: append-only, versioned, validated.

Layout (default root ``benchmarks/results/ledger/``)::

    ledger/
      <experiment-id>/
        000001-3fb30b8a.json     # <seq>-<git sha8>.json, one envelope
        000002-5b1a6d92.json

Entries are never rewritten; the sequence number gives a total order
within one experiment and the SHA ties each entry to the code that
produced it.  :func:`validate_envelope` is the single loader every
consumer (gate, report, trajectory) goes through.  Two kinds of entry
exist: ``xp-run`` (written by :func:`repro.xp.runner.run_spec`) and the
six ``legacy-import`` n=1 entries, one per product scenario, kept as
the pre-ledger start of each trajectory.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

__all__ = [
    "LEDGER_VERSION",
    "DEFAULT_LEDGER_DIR",
    "Ledger",
    "validate_envelope",
]

#: Bump when the envelope schema changes incompatibly.
LEDGER_VERSION = 1

#: Where the ledger lives relative to the repo root.
DEFAULT_LEDGER_DIR = Path("benchmarks") / "results" / "ledger"

_ENTRY_RE = re.compile(r"^(\d{6})-([0-9a-f]{8}|unknown)\.json$")
_DIRECTIONS = ("lower", "higher")


def validate_envelope(doc: dict) -> dict:
    """Validate one result envelope; returns it or raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"envelope must be an object, got {type(doc)}")
    version = doc.get("version")
    if version != LEDGER_VERSION:
        raise ValueError(
            f"unsupported envelope version {version!r} "
            f"(this build reads version {LEDGER_VERSION})")
    for key in ("kind", "experiment", "target", "env", "directions",
                "cells"):
        if key not in doc:
            raise ValueError(f"envelope missing required key {key!r}")
    if not isinstance(doc["cells"], list) or not doc["cells"]:
        raise ValueError("envelope has no cells")
    for d in doc["directions"].values():
        if d not in _DIRECTIONS:
            raise ValueError(f"bad metric direction {d!r}")
    seen = set()
    for cell in doc["cells"]:
        for key in ("cell_id", "params", "metrics", "checks"):
            if key not in cell:
                raise ValueError(f"cell missing required key {key!r}")
        if cell["cell_id"] in seen:
            raise ValueError(f"duplicate cell id {cell['cell_id']!r}")
        seen.add(cell["cell_id"])
        for name, samples in cell["metrics"].items():
            if not isinstance(samples, list) or not samples:
                raise ValueError(
                    f"metric {name!r} of cell {cell['cell_id']!r} has no "
                    f"samples")
    return doc


class Ledger:
    """Append-only store of result envelopes under one root directory."""

    def __init__(self, root: str | Path = DEFAULT_LEDGER_DIR):
        self.root = Path(root)

    # -- write ---------------------------------------------------------

    def append(self, envelope: dict) -> Path:
        """Validate and persist one envelope; returns its path."""
        validate_envelope(envelope)
        exp_dir = self.root / envelope["experiment"]
        exp_dir.mkdir(parents=True, exist_ok=True)
        seq = 0
        for path in exp_dir.iterdir():
            m = _ENTRY_RE.match(path.name)
            if m:
                seq = max(seq, int(m.group(1)))
        sha = str(envelope.get("env", {}).get("git_sha", "unknown"))
        sha8 = sha[:8] if re.fullmatch(r"[0-9a-f]{7,40}", sha) else "unknown"
        path = exp_dir / f"{seq + 1:06d}-{sha8}.json"
        path.write_text(json.dumps(envelope, indent=2) + "\n")
        return path

    # -- read ----------------------------------------------------------

    def experiments(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.name for p in self.root.iterdir()
                      if p.is_dir() and any(_ENTRY_RE.match(e.name)
                                            for e in p.iterdir()))

    def entries(self, experiment: str) -> list[Path]:
        """Entry paths for one experiment, oldest first."""
        exp_dir = self.root / experiment
        if not exp_dir.is_dir():
            return []
        return sorted(p for p in exp_dir.iterdir()
                      if _ENTRY_RE.match(p.name))

    def load(self, path: str | Path) -> dict:
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        try:
            return validate_envelope(doc)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def latest(self, experiment: str) -> dict | None:
        """The newest envelope for *experiment*, or None."""
        entries = self.entries(experiment)
        return self.load(entries[-1]) if entries else None

    def baseline(self, experiment: str) -> dict | None:
        """The newest envelope whose correctness checks all passed."""
        for path in reversed(self.entries(experiment)):
            doc = self.load(path)
            if doc.get("ok", True):
                return doc
        return None
