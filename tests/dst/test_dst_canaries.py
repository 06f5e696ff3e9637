"""Mutation canaries: hand-seeded bugs the fuzz campaign must catch.

Each test monkeypatches one real bug into a different layer — a
conveyor that silently discards a PE's flushes, a ring whose
replica rows lose a distinct owner, a WAL that acknowledges appends
without writing the record, a record iterator that hands out torn
payloads, a checkpoint that never restores a crashed PE, a
conservation check that checks nothing — and asserts the default
invariant registry flags it, hunting from the campaign's first schedule
that has what the bug needs (an armed crash point, a PE crash).  The
companion test pins the other direction: on unmutated code the
campaign's first ten schedules are violation-free.  Together they are
the evidence the harness has teeth and the invariants are not change
detectors.
"""

from __future__ import annotations

from unittest.mock import patch

from repro.cluster.ring import HashRing
from repro.core import dakc
from repro.dst.schedule import ScheduleFuzzer
from repro.dst.sim import Simulation
from repro.fault.checkpoint import CheckpointStore
from repro.fileio import Framing
from repro.lsm.wal import WriteAheadLog, as_read_list
from repro.runtime.conveyors import Conveyor, _HopBuffer


def _hunt(budget: int, start: int = 0):
    """First violating (index, trajectory) under the seed-0 campaign,
    hunting from schedule *start*."""
    sim = Simulation()
    fuzzer = ScheduleFuzzer(seed=0)
    for i in range(start, budget):
        t = sim.run(fuzzer.schedule(i))
        if t.violations:
            return i, t
    return None, None


def _first(wanted, budget: int = 200) -> int:
    """Index of the seed-0 campaign's first schedule *wanted* accepts:
    a canary hunts from there, so a fuzzer that reorders its draws
    moves the hunt instead of emptying it."""
    return next(i for i, s in enumerate(ScheduleFuzzer(seed=0).schedules(budget))
                if wanted(s))


def _first_crash(protect: bool) -> int:
    """Index of the campaign's first PE-crash schedule at *protect*."""
    return _first(lambda s: s.protect == protect and s.plan is not None
                  and bool(s.plan.crash_pes))


def _first_crash_point(point: str) -> int:
    """Index of the campaign's first schedule armed at LSM crash *point*."""
    return _first(lambda s: s.crash_point == point)


def test_clean_head_is_violation_free():
    index, _ = _hunt(10)
    assert index is None


def test_canary_dropped_conveyor_flush_is_caught():
    """Bug: PE 1's staged buffers are discarded instead of launched."""
    orig_flush = Conveyor._flush_hop

    def buggy_flush(self, from_pe, next_hop):
        buf = self._buffers[from_pe].get(next_hop)
        if from_pe == 1 and buf is not None and buf.groups:
            self._staged_bytes[from_pe] -= buf.bytes
            self._buffers[from_pe][next_hop] = _HopBuffer()
            return
        orig_flush(self, from_pe, next_hop)

    # Needs no crash point: every schedule, the fault-free one first,
    # runs the conveyors.
    with patch.object(Conveyor, "_flush_hop", buggy_flush):
        index, trajectory = _hunt(200)
    assert index is not None
    names = {v.invariant for v in trajectory.violations}
    assert names & {"serial-multiset", "packet-conservation"}


def test_canary_ring_rf_off_by_one_is_caught():
    """Bug: one compiled table row repeats an owner (RF-1 real copies)."""
    orig_compile = HashRing._compile

    def buggy_compile(self):
        table = orig_compile(self)
        if table.rows.shape[1] > 1:
            table.rows[0, -1] = table.rows[0, 0]
        return table

    # Needs no crash point: every schedule compiles the ring.
    with patch.object(HashRing, "_compile", buggy_compile):
        index, trajectory = _hunt(200)
    assert index is not None
    assert any(v.invariant == "ring-rf" for v in trajectory.violations)


def test_canary_wal_skipped_record_is_caught():
    """Bug: the WAL acks an append without writing the record.

    Invisible on any path where every batch reaches a flush (a flush
    resets the WAL), so only crash schedules expose it: a crash right
    after an acknowledged append must find the record in the WAL.
    """

    def buggy_append(self, reads):
        as_read_list(reads)  # same validation, no bytes written
        self.crash.hit("wal.pre_append")
        seq = self.last_seq + 1
        self.crash.hit("wal.mid_append")
        self.last_seq = seq
        self.records += 1
        self.crash.hit("wal.post_append")
        return seq

    with patch.object(WriteAheadLog, "append", buggy_append):
        index, trajectory = _hunt(200, start=_first_crash_point("wal.post_append"))
    assert index is not None
    assert any(v.invariant == "wal-recovery" for v in trajectory.violations)


def test_canary_torn_record_handed_out_is_caught():
    """Bug: ``fileio``'s record iterator yields a short payload unchecked.

    Every framed file relies on that iterator to stop at a torn tail;
    the WAL is where a torn tail is routine.  The armed
    ``wal.mid_append`` crash leaves half a record, the lenient iterator
    lets recovery replay it, and a batch nobody acknowledged resurfaces.
    """

    def lenient_records(self, fh, path):
        pos = fh.tell()
        while True:
            head = fh.read(8)
            if len(head) < 8:
                return
            payload = fh.read(int.from_bytes(head[:4], "little"))
            pos += 8 + len(payload)
            yield payload, pos  # no length check, no CRC check

    with patch.object(Framing, "records", lenient_records):
        index, trajectory = _hunt(200, start=_first_crash_point("wal.mid_append"))
    assert index is not None
    assert trajectory.schedule.crash_point == "wal.mid_append"
    assert any(v.invariant == "wal-recovery" for v in trajectory.violations)


def test_canary_checkpoint_restore_skipped_is_caught():
    """Bug: a crashed PE reboots but its snapshot is never replayed."""

    def no_restore(self, conveyor, pes, stats):
        return None

    with patch.object(CheckpointStore, "restore_delivered", no_restore):
        index, trajectory = _hunt(200, start=_first_crash(protect=True))
    assert index is not None
    names = {v.invariant for v in trajectory.violations}
    assert names & {"crash-recovery", "serial-multiset"}


def test_canary_conservation_check_skipped_is_caught():
    """Bug: DAKC's delivery conservation check passes everything, so a
    bare wire that lost k-mers returns short counts without an error."""
    with patch.object(dakc, "_verify_conservation", lambda stats, conv: None):
        index, trajectory = _hunt(200, start=_first_crash(protect=False))
    assert index is not None
    assert any(v.invariant == "no-silent-loss"
               for v in trajectory.violations)
