"""Deterministic crash injection for the LSM store.

Crash-recovery code is only trustworthy if every window between two
durability points has a test that kills the process there.  A real
``kill -9`` harness is slow and flaky; instead the store calls
:meth:`CrashPoints.hit` at every named boundary (WAL append halves,
run-file publication, either side of the ``MANIFEST`` swap, ...) and a
test arms the one it wants.  An armed point raises
:class:`SimulatedCrash` *once* — the store object is then abandoned,
exactly like a dead process, and the test reopens the directory to
check recovery.  The same idiom as :mod:`repro.fault`'s seeded fault
plans: failures are injected deterministically, never sampled.

For schedule fuzzing (:mod:`repro.dst`) the registry doubles as an
enumeration API: :data:`CRASH_POINTS` is the full product space, every
traversal is counted in :attr:`CrashPoints.hit_counts`, and
``arm(name, nth=k)`` fires on the *k*-th future traversal of a point —
so a fuzzer can kill the store at the second flush as easily as the
first.
"""

from __future__ import annotations

__all__ = ["SimulatedCrash", "CrashPoints", "CRASH_POINTS", "UNACKED_POINTS"]

#: Every boundary the store announces, in ingest/flush/compact order.
CRASH_POINTS: tuple[str, ...] = (
    "wal.pre_append",        # nothing written: batch not acknowledged
    "wal.mid_append",        # torn record on disk: batch not acknowledged
    "wal.post_append",       # record durable, memtable not yet updated
    "flush.post_run_write",  # run file published, MANIFEST still old
    "flush.pre_manifest",    # ditto (tmp manifest may exist)
    "flush.post_manifest",   # MANIFEST swapped, WAL not yet reset
    "compact.post_run_write",  # merged run on disk, MANIFEST still old
    "compact.pre_manifest",
    "compact.post_manifest",   # MANIFEST swapped, victims not yet deleted
)

#: Crash points at which the in-flight ingest batch is *not* yet
#: acknowledged (durable): a crash there loses the batch by contract.
UNACKED_POINTS: frozenset[str] = frozenset({"wal.pre_append", "wal.mid_append"})


class SimulatedCrash(RuntimeError):
    """Raised at an armed crash point; the store must be abandoned."""


class CrashPoints:
    """Registry of armed crash points (one-shot each).

    ``arm(name)`` fires on the next traversal of *name*;
    ``arm(name, nth=k)`` skips ``k - 1`` traversals first.  Every
    traversal — armed or not — is tallied in :attr:`hit_counts`, so a
    completed run reports how often each window was crossed (the
    denominator a fuzzer needs to know its ``nth`` choices are live).
    """

    def __init__(self) -> None:
        self._armed: dict[str, int] = {}
        self.fired: list[str] = []
        self.hit_counts: dict[str, int] = {}

    def arm(self, name: str, *, nth: int = 1) -> None:
        if name not in CRASH_POINTS:
            raise ValueError(f"unknown crash point {name!r}")
        if nth < 1:
            raise ValueError("nth must be >= 1")
        self._armed[name] = nth

    def hit(self, name: str) -> None:
        """Announce reaching *name*; raises if a test armed it."""
        self.hit_counts[name] = self.hit_counts.get(name, 0) + 1
        remaining = self._armed.get(name)
        if remaining is None:
            return
        if remaining > 1:
            self._armed[name] = remaining - 1
            return
        del self._armed[name]
        self.fired.append(name)
        raise SimulatedCrash(name)
