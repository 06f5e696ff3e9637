"""repro.dst — deterministic simulation testing for the whole stack.

FoundationDB-style testing discipline applied to the reproduction:
every source of nondeterminism in a test run — RNG streams, conveyor
drain order, fault plans (PE crashes included), out-of-core slice
order, LSM crash points, cluster membership timing — is owned by one seeded
:class:`Simulation`, making ``seed -> trajectory`` a pure function.
On top of that:

* :mod:`~repro.dst.schedule` — the :class:`Schedule` (one point in the
  nondeterminism space) and the :class:`ScheduleFuzzer` that sweeps
  drain permutations crossed with fault plans, crash-point
  products and membership scripts;
* :mod:`~repro.dst.invariants` — a pluggable registry of checkers
  (serial-oracle multiset equality, packet conservation, crash
  recovery, no silent loss, monotone acks, WAL-recovery exactness,
  cache staleness, ring ownership = RF, ...);
* :mod:`~repro.dst.sim` — the :class:`Simulation` that runs one
  schedule through the runtime, LSM and cluster layers and digests the
  logical outcome;
* :mod:`~repro.dst.shrink` — greedy delta debugging that minimises a
  failing ``(reads, config, schedule)`` triple;
* :mod:`~repro.dst.bundle` — replayable JSON repro bundles
  (``dakc dst replay <bundle>``);
* :mod:`~repro.dst.runner` — the fuzz campaign driver behind
  ``dakc dst run`` and the ``dst-sweep`` xp target.
"""
