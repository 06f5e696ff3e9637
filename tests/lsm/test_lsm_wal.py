"""Tests for the write-ahead log: framing, repair, replay, reset."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.fileio import FormatError
from repro.lsm.crash import CrashPoints, SimulatedCrash
from repro.lsm.wal import WAL, WriteAheadLog, as_read_list


def _batch(rng, n=5, lo=20, hi=60):
    return [rng.integers(0, 4, rng.integers(lo, hi)).astype(np.uint8)
            for _ in range(n)]


def _batches_equal(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


class TestAsReadList:
    def test_matrix_rows(self):
        m = np.arange(12, dtype=np.uint8).reshape(3, 4) % 4
        out = as_read_list(m)
        assert len(out) == 3
        assert np.array_equal(out[1], m[1])

    def test_single_read(self):
        out = as_read_list(np.array([0, 1, 2, 3], dtype=np.uint8))
        assert len(out) == 1 and out[0].size == 4

    def test_bad_ndim(self):
        with pytest.raises(ValueError):
            as_read_list(np.zeros((2, 2, 2), dtype=np.uint8))


class TestAppendReplay:
    def test_roundtrip(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        batches = [_batch(rng) for _ in range(4)]
        seqs = [wal.append(b) for b in batches]
        assert seqs == [1, 2, 3, 4]
        replayed = list(wal.replay())
        assert [s for s, _ in replayed] == seqs
        for (_, got), want in zip(replayed, batches):
            assert _batches_equal(got, want)
        wal.close()

    def test_replay_after_seq(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        for _ in range(5):
            wal.append(_batch(rng))
        assert [s for s, _ in wal.replay(after_seq=3)] == [4, 5]
        wal.close()

    def test_reopen_continues_sequence(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(_batch(rng))
        wal.append(_batch(rng))
        wal.close()
        wal2 = WriteAheadLog(path)
        assert wal2.last_seq == 2
        assert wal2.append(_batch(rng)) == 3
        assert wal2.records == 3
        wal2.close()


class TestDurabilityEdges:
    def test_torn_tail_truncated_on_open(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        good = _batch(rng)
        wal.append(good)
        wal.close()
        size_before = os.path.getsize(path)
        # A crash mid-append: half a record of garbage at the tail.
        with open(path, "ab") as fh:
            fh.write(b"\x07" * 11)
        wal2 = WriteAheadLog(path)
        assert wal2.last_seq == 1
        assert os.path.getsize(path) == size_before
        (seq, got), = list(wal2.replay())
        assert seq == 1 and _batches_equal(got, good)
        wal2.close()

    def test_corrupt_record_stops_replay(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(_batch(rng))
        wal.append(_batch(rng))
        wal.close()
        # Flip a payload byte of record 2; its CRC no longer matches.
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF
        path.write_bytes(bytes(data))
        wal2 = WriteAheadLog(path)
        assert wal2.last_seq == 1
        assert len(list(wal2.replay())) == 1
        wal2.close()

    def test_simulated_torn_append_not_replayed(self, tmp_path, rng):
        crash = CrashPoints()
        wal = WriteAheadLog(tmp_path / "wal.log", crash=crash)
        wal.append(_batch(rng))
        crash.arm("wal.mid_append")
        with pytest.raises(SimulatedCrash):
            wal.append(_batch(rng))
        wal.close()
        wal2 = WriteAheadLog(tmp_path / "wal.log")
        assert wal2.last_seq == 1
        assert len(list(wal2.replay())) == 1
        wal2.close()

    def test_header_only_and_empty_files(self, tmp_path):
        path = tmp_path / "wal.log"
        WriteAheadLog(path).close()
        assert WriteAheadLog(path).last_seq == 0
        # Crash before the header finished: opens as an empty log.
        path2 = tmp_path / "torn-header.log"
        path2.write_bytes(WAL.header(0)[:11])
        wal = WriteAheadLog(path2)
        assert wal.last_seq == 0 and wal.records == 0
        wal.close()

    def test_flipped_header_is_not_repaired_away(self, tmp_path, rng):
        """Only a *short* header means "crashed at creation"; a damaged
        one must not silently become an empty log."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append(_batch(rng))
        wal.close()
        data = bytearray(path.read_bytes())
        data[17] ^= 0x01   # a byte of base_seq
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="checksum"):
            WriteAheadLog(path)
        assert path.read_bytes() == bytes(data)


class TestReset:
    def test_reset_preserves_sequence_floor(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for _ in range(3):
            wal.append(_batch(rng))
        wal.reset(3)
        assert wal.last_seq == 3
        assert list(wal.replay()) == []
        assert wal.append(_batch(rng)) == 4
        wal.close()
        # The floor survives a reopen (it lives in the file header).
        wal2 = WriteAheadLog(path)
        assert wal2.last_seq == 4
        wal2.close()

    def test_reset_cannot_rewind(self, tmp_path, rng):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(_batch(rng))
        wal.append(_batch(rng))
        with pytest.raises(ValueError, match="rewind"):
            wal.reset(1)
        wal.close()
