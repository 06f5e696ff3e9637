"""Collision-free child-seed derivation for sweeps and simulations.

Ad-hoc ``seed + i`` offsets are a footgun: two sweeps started at
``seed=0`` and ``seed=1`` share all but one of their child streams, and
any component that *also* offsets internally collides with its
neighbours.  NumPy's :class:`~numpy.random.SeedSequence` solves this
properly — ``spawn()`` children are statistically independent no matter
how the roots relate — so every place that needs "one user seed, many
deterministic child RNGs" (the ``dst-sweep`` cost section's plan
seeds, the cluster bench's per-section streams, the :mod:`repro.dst`
trajectory streams) derives them here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_seeds"]

#: Child seeds fit the components that persist them as plain ints
#: (e.g. :class:`repro.fault.FaultPlan.seed`, JSON repro bundles).
_SEED_BITS = 63


def spawn_seeds(seed: int, n: int) -> list[int]:
    """Derive *n* independent integer child seeds from one root seed.

    Children come from ``SeedSequence(seed).spawn(n)``, so different
    roots (even adjacent ones) never produce overlapping child streams
    and the mapping is stable across processes and platforms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return [
        int(child.generate_state(2, np.uint64)[0] & ((1 << _SEED_BITS) - 1))
        for child in np.random.SeedSequence(seed).spawn(n)
    ]
