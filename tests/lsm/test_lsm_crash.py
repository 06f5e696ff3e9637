"""Crash-recovery matrix: kill the store at every boundary, reopen, compare.

Each parametrised case arms exactly one deterministic crash point
(:data:`repro.lsm.crash.CRASH_POINTS`), ingests until it fires, then
reopens the directory cold and requires the recovered snapshot to equal
the serial oracle over the *acknowledged* prefix exactly — acknowledged
meaning ``ingest`` returned.  The batch in flight when the WAL append
itself is interrupted (``wal.pre_append`` / ``wal.mid_append``) was
never acknowledged, so it must be absent; at every later point the WAL
record is complete and the batch must survive.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.serial import serial_count
from repro.lsm.crash import CRASH_POINTS, CrashPoints, SimulatedCrash
from repro.lsm.store import LsmConfig, LsmStore
from repro.ooc.count import ooc_count

K = 17
BATCH = 10

# Flush on every batch, compact constantly: every armed point is
# reachable within a few batches of arming.
CFG = LsmConfig(memtable_bytes=1, max_runs=3, fan_in=2)

# Points where the in-flight batch was NOT acknowledged (the WAL append
# itself was interrupted); everywhere else the append completed first.
_UNACKED = {"wal.pre_append", "wal.mid_append"}


@pytest.mark.parametrize("point", CRASH_POINTS)
def test_recovery_at_every_boundary(tmp_path, small_reads, point):
    path = tmp_path / "db"
    batches = [small_reads[i:i + BATCH]
               for i in range(0, small_reads.shape[0], BATCH)]

    crash = CrashPoints()
    store = LsmStore(path, K, config=CFG, crash=crash)
    acked = 0
    crashed_at = None
    for j, batch in enumerate(batches):
        if j == 5:
            crash.arm(point)
        try:
            store.ingest(batch)
            acked += batch.shape[0]
        except SimulatedCrash:
            crashed_at = j
            if point not in _UNACKED:
                acked += batch.shape[0]
            break
    assert crashed_at is not None, f"{point} never fired"
    assert crash.fired == [point]
    # Simulated kill: no close(), no cleanup — reopen the directory cold.

    with LsmStore(path, config=CFG) as recovered:
        want = serial_count(small_reads[:acked], K)
        assert recovered.snapshot() == want, point
        # The recovered store is fully live: ingest the rest (an
        # unacknowledged batch was lost, so the client retries it).
        resume = crashed_at if point in _UNACKED else crashed_at + 1
        for batch in batches[resume:]:
            recovered.ingest(batch)
        n_final = acked + sum(b.shape[0] for b in batches[resume:])
        assert recovered.snapshot() == serial_count(small_reads[:n_final], K)


#: The points a bulk load (``LsmStore.load_runs``) crosses: it publishes
#: its run through compaction's code.
LOAD_POINTS = [p for p in CRASH_POINTS if p.startswith("compact.")]


@pytest.mark.parametrize("point", LOAD_POINTS)
def test_recovery_during_a_bulk_load(tmp_path, small_reads, point):
    """An out-of-core count loaded into a store that also holds WAL'd
    batches, killed at each point the load crosses: before the MANIFEST
    swap the store recovers as it was, after it with the whole load."""
    path = tmp_path / "db"
    half = small_reads.shape[0] // 2
    crash = CrashPoints()
    store = LsmStore(path, K, config=LsmConfig(memtable_bytes=4096), crash=crash)
    for i in range(0, half, BATCH):
        store.ingest(small_reads[i:i + BATCH])   # runs and a WAL'd memtable
    runs_before, hits_before = store.n_runs, crash.hit_counts.get(point, 0)
    crash.arm(point)
    with pytest.raises(SimulatedCrash):
        ooc_count(small_reads[half:], K, n_bins=2, memory_bytes=2048,
                  workdir=tmp_path / "scratch", store=store, collect=False)
    assert crash.fired == [point]
    assert crash.hit_counts[point] == hits_before + 1   # the load's own traversal
    assert not list((tmp_path / "scratch").iterdir())    # scratch runs cleaned up

    loaded = point == "compact.post_manifest"
    with LsmStore(path, config=CFG) as recovered:
        assert recovered.n_runs == runs_before + loaded
        assert recovered.snapshot() == serial_count(
            small_reads if loaded else small_reads[:half], K), point
        if not loaded:   # the caller's reads are the durable copy: load again
            ooc_count(small_reads[half:], K, memory_bytes=2048, store=recovered)
        assert recovered.snapshot() == serial_count(small_reads, K)


def test_crash_points_are_one_shot(tmp_path, small_reads):
    """A fired point does not re-fire: retrying the ingest succeeds."""
    crash = CrashPoints()
    with LsmStore(tmp_path / "db", K, config=CFG, crash=crash) as store:
        store.ingest(small_reads[:10])
        crash.arm("wal.post_append")
        with pytest.raises(SimulatedCrash):
            store.ingest(small_reads[10:20])
        store.ingest(small_reads[10:20])  # retry succeeds


def test_unknown_point_rejected():
    with pytest.raises(ValueError):
        CrashPoints().arm("flush.nonsense")


def test_wal_that_lost_its_header_still_numbers_above_the_manifest(
        tmp_path, small_reads):
    """A zero-length ``wal.log`` (crash on a delayed-allocation
    filesystem; ``wal_sync`` is off by default) reopens as an empty log.
    Its numbering must resume above the MANIFEST's ``wal_applied_seq``,
    or the next acknowledged batch is skipped by the replay after it."""
    path = tmp_path / "db"
    batches = [small_reads[i:i + BATCH] for i in range(0, 4 * BATCH, BATCH)]
    with LsmStore(path, K, config=LsmConfig(memtable_bytes=1)) as store:
        for batch in batches[:3]:
            store.ingest(batch)      # flushed at once: applied seq = 3
    (path / "wal.log").write_bytes(b"")

    store = LsmStore(path)           # default budget: no flush from here on
    store.ingest(batches[3])         # acknowledged, lives only in the WAL
    assert store.wal.last_seq == 4
    store.wal.close()                # killed: no close(), no flush

    with LsmStore(path) as recovered:
        assert recovered.stats.replayed_batches == 1
        assert recovered.snapshot() == serial_count(small_reads[:4 * BATCH], K)
