"""Workload construction for the experiment harness.

Benchmarks must finish in seconds on one host core, so every experiment
runs a *scaled replica* of its paper dataset: genome shrunk by a
fidelity factor, coverage/read-length/skew preserved (see
:func:`repro.seq.datasets.materialize`).  This module centralises the
scaling policy so every figure uses the same rules:

* :func:`build_workload` — materialise a dataset at a k-mer budget;
* :func:`scaled_batch_size` — shrink the paper's BSP batch
  (``b ~ 1e9``) by the same factor as the dataset, preserving each
  experiment's superstep count;
* :func:`workload_cache` — memoises materialised workloads across
  benchmarks within a session.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ..seq.datasets import DatasetSpec, Workload, get_spec, materialize

__all__ = [
    "DEFAULT_BUDGET_KMERS",
    "PAPER_BATCH",
    "build_workload",
    "fidelity_for_budget",
    "scaled_batch_size",
]

#: Default number of k-mers a quick benchmark workload should contain.
DEFAULT_BUDGET_KMERS: int = 400_000

#: The paper's typical BSP batch size (Section III-B: "typical values
#: on current systems of ~1e9").
PAPER_BATCH: int = 1_000_000_000


def fidelity_for_budget(spec: DatasetSpec, k: int, budget_kmers: int) -> float:
    """Fidelity that materialises roughly *budget_kmers* k-mers.

    The k-mer count scales linearly with genome length (coverage is
    preserved), so fidelity = budget / full-scale k-mers, clamped to
    (0, 1].
    """
    full = spec.n_kmers(k)
    if full <= 0:
        return 1.0
    return max(min(budget_kmers / full, 1.0), 1e-12)


@lru_cache(maxsize=64)
def _cached(
    spec_key: str, k: int, budget_kmers: int, seed: int, coverage: float | None
) -> Workload:
    spec = get_spec(spec_key)
    fid = fidelity_for_budget(spec, k, budget_kmers)
    if coverage is not None:
        # A lower coverage needs a proportionally larger genome to hit
        # the same k-mer budget.
        fid = min(1.0, fid * spec.coverage / coverage)
    return materialize(spec, fidelity=fid, seed=seed, coverage=coverage)


def build_workload(
    spec: DatasetSpec | str,
    k: int,
    *,
    budget_kmers: int = DEFAULT_BUDGET_KMERS,
    seed: int = 0,
    coverage: float | None = None,
) -> Workload:
    """Materialise a scaled replica holding ~*budget_kmers* k-mers.

    *coverage* overrides the spec's sequencing depth (the genome grows
    to compensate, keeping the k-mer budget).
    """
    key = spec if isinstance(spec, str) else spec.key
    return _cached(key, k, budget_kmers, seed, coverage)


def scaled_batch_size(workload: Workload, k: int) -> int:
    """The BSP batch ``b`` scaled by the workload's shrink factor.

    Preserves ``supersteps = ceil(local_kmers / b)`` between the paper
    run and the replica, so the BSP baselines pay the same number of
    synchronisation rounds they paid at full scale.
    """
    full = workload.spec.n_kmers(k)
    scaled = workload.n_kmers(k)
    if full <= 0 or scaled <= 0:
        return PAPER_BATCH
    b = int(math.ceil(PAPER_BATCH * scaled / full))
    return max(1, b)
