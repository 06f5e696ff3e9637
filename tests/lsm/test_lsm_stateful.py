"""Stateful hypothesis model of LsmStore vs. the serial oracle.

The state machine drives one store through arbitrary interleavings of
ingest / flush / compact / lookup / crash-and-recover and checks after
every rule that the store's merged view equals ``serial_count`` over
every *acknowledged* batch.  Crashes use the store's own deterministic
crash points; whether the in-flight batch survives is decided by the
durability contract (:data:`repro.lsm.crash.UNACKED_POINTS`), not by
what the store happens to do — which is exactly what makes this a
model-based test rather than a change detector.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.serial import serial_count
from repro.lsm.crash import CRASH_POINTS, UNACKED_POINTS, CrashPoints, SimulatedCrash
from repro.lsm.store import LsmConfig, LsmStore
from repro.seq.encoding import encode_seq

K = 5

read_batches = st.lists(
    st.text(alphabet="ACGT", min_size=K, max_size=24), min_size=1, max_size=4
)


class LsmStoreMachine(RuleBasedStateMachine):
    """LsmStore under arbitrary op interleavings == the serial oracle."""

    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="lsm-stateful-"))
        # Tiny budgets so short runs still cross flush/compact windows.
        self.config = LsmConfig(memtable_bytes=512, max_runs=2, fan_in=2)
        self.store = LsmStore(self.dir, K, config=self.config,
                              crash=CrashPoints())
        self.acked: list[np.ndarray] = []

    # -- helpers -------------------------------------------------------

    def _oracle(self):
        return serial_count(self.acked, K) if self.acked else None

    def _check(self) -> None:
        oracle = self._oracle()
        snapshot = self.store.snapshot()
        if oracle is None:
            assert int(snapshot.n_distinct) == 0
        else:
            assert snapshot == oracle

    # -- rules ---------------------------------------------------------

    @rule(reads=read_batches)
    def ingest(self, reads: list[str]) -> None:
        encoded = [encode_seq(r) for r in reads]
        self.store.ingest(encoded)
        self.acked.extend(encoded)

    @rule()
    def flush(self) -> None:
        self.store.flush()

    @rule()
    def compact(self) -> None:
        self.store.compact()

    @rule(probe=st.integers(0, 1 << 62))
    def lookup(self, probe: int) -> None:
        """Point lookups agree with the oracle (hits and misses)."""
        oracle = self._oracle()
        if oracle is None or oracle.kmers.size == 0:
            return
        hit = oracle.kmers[probe % oracle.kmers.size]
        miss = np.uint64(probe) | np.uint64(1) << np.uint64(62)
        keys = np.asarray([hit, miss], dtype=np.uint64)
        got = self.store.get(keys)
        want = oracle.counts[np.searchsorted(oracle.kmers, hit)]
        assert int(got[0]) == int(want)
        if miss not in set(oracle.kmers.tolist()):
            assert int(got[1]) == 0

    @rule(point=st.sampled_from(CRASH_POINTS), nth=st.integers(1, 2),
          reads=read_batches)
    def crash_and_recover(self, point: str, nth: int,
                          reads: list[str]) -> None:
        """Kill the store at an armed boundary; recovery must be exact.

        The batch counts as acknowledged unless the crash fired before
        the WAL record became durable (``UNACKED_POINTS``).  An armed
        point whose window is never crossed simply doesn't fire — the
        batch then completed normally.
        """
        encoded = [encode_seq(r) for r in reads]
        self.store.crash.arm(point, nth=nth)
        try:
            self.store.ingest(encoded)
        except SimulatedCrash:
            fired = self.store.crash.fired[-1]
            if fired not in UNACKED_POINTS:
                self.acked.extend(encoded)
            # Abandon the dead process; reopen the directory.
            self.store.wal.close()
            self.store = LsmStore(self.dir, config=self.config,
                                  crash=CrashPoints())
        else:
            # The window was never crossed: reopen without the armed point.
            self.acked.extend(encoded)
            self.store.close()
            self.store = LsmStore(self.dir, config=self.config,
                                  crash=CrashPoints())

    @rule()
    def clean_restart(self) -> None:
        """Close/reopen must lose nothing (WAL replays the memtable)."""
        self.store.close()
        self.store = LsmStore(self.dir, config=self.config,
                              crash=CrashPoints())

    # -- invariant + teardown ------------------------------------------

    @invariant()
    def matches_oracle(self) -> None:
        self._check()

    def teardown(self) -> None:
        self.store.close()
        shutil.rmtree(self.dir, ignore_errors=True)


TestLsmStoreStateful = LsmStoreMachine.TestCase
TestLsmStoreStateful.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None)
