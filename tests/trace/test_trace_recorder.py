"""Tests for the in-process trace recorder (the capture hot path)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.trace.format import TIER_STORE, TIER_T1, load_trace, save_trace
from repro.trace.recorder import TraceRecorder


class FakeClock:
    """Deterministic monotonic clock for timestamp assertions."""

    def __init__(self, step: float = 0.01):
        self.t = 100.0  # arbitrary epoch: recorder must rebase to zero
        self.step = step

    def __call__(self) -> float:
        now = self.t
        self.t += self.step
        return now


def store(keys) -> np.ndarray:
    """Every key answered by the store."""
    return np.full(len(keys), TIER_STORE, dtype=np.int8)


class TestRecordBatch:
    def test_batches_share_one_rebased_timestamp(self):
        rec = TraceRecorder(clock=FakeClock(step=0.5))
        rec.record_batch([1, 2, 3], store([1, 2, 3]))
        rec.record_batch([4, 5], store([4, 5]))
        trace = rec.snapshot()
        assert trace.n_records == 5
        # First batch stamps t=0 (rebased), second t=0.5.
        assert np.array_equal(trace.ts, [0.0, 0.0, 0.0, 0.5, 0.5])

    def test_explicit_tiers_and_stream(self):
        rec = TraceRecorder(clock=FakeClock())
        rec.record_batch([7, 8], [TIER_T1, TIER_STORE])
        trace = rec.snapshot()
        assert trace.tier_counts() == {"t1": 1, "store": 1}
        assert np.all(trace.streams == 0)  # the recorder writes one stream

    def test_empty_batch_is_a_noop(self):
        rec = TraceRecorder(clock=FakeClock())
        rec.record_batch(np.empty(0, np.uint64), np.empty(0, np.int8))
        assert rec.n_records == 0
        assert rec.snapshot().n_records == 0

    def test_tier_length_mismatch_rejected(self):
        rec = TraceRecorder(clock=FakeClock())
        with pytest.raises(ValueError, match="tiers"):
            rec.record_batch([1, 2, 3], [TIER_T1])

    def test_recorder_copies_caller_arrays(self):
        rec = TraceRecorder(clock=FakeClock())
        keys = np.array([1, 2, 3], dtype=np.uint64)
        rec.record_batch(keys, store(keys))
        keys[:] = 0  # mutate after the fact
        assert np.array_equal(rec.snapshot().keys, [1, 2, 3])


class TestSnapshotLifecycle:
    def test_many_batches_coalesce_without_loss(self):
        rec = TraceRecorder(clock=FakeClock(step=1e-4))
        n_batches = 2_000  # crosses the internal coalesce threshold
        for i in range(n_batches):
            rec.record_batch([i, i + 1], store([i, i + 1]))
        trace = rec.snapshot()
        assert trace.n_records == 2 * n_batches
        assert np.array_equal(trace.keys[:4], [0, 1, 1, 2])
        assert np.all(np.diff(trace.ts) >= 0)

    def test_recording_continues_after_snapshot(self):
        rec = TraceRecorder(clock=FakeClock())
        rec.record_batch([1], store([1]))
        first = rec.snapshot()
        rec.record_batch([2], store([2]))
        second = rec.snapshot()
        assert first.n_records == 1
        assert second.n_records == 2

    def test_clear_resets_count_and_epoch(self):
        clock = FakeClock(step=1.0)
        rec = TraceRecorder(clock=clock)
        rec.record_batch([1], store([1]))
        rec.clear()
        assert rec.n_records == 0
        rec.record_batch([2], store([2]))
        # Epoch rebased again: the post-clear trace starts at ts=0.
        assert rec.snapshot().ts[0] == 0.0

    def test_save_writes_loadable_trace_with_provenance(self, tmp_path,
                                                        same_records):
        rec = TraceRecorder(k=21, seed=7, source="unit", clock=FakeClock())
        rec.record_batch([1, 2, 3], store([1, 2, 3]))
        path = tmp_path / "rec.npz"
        returned = rec.snapshot()
        save_trace(path, returned)
        loaded = load_trace(path)
        assert same_records(loaded, returned)
        assert (loaded.k, loaded.seed, loaded.source) == (21, 7, "unit")
