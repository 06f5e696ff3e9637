"""Tests for streaming (out-of-core-style) counting."""

from __future__ import annotations

import pytest

from repro.apps import streaming
from repro.apps.streaming import (
    count_file_streaming,
    count_files_streaming,
    count_records_streaming,
)
from repro.core.serial import serial_count
from repro.seq.fastx import write_fastq
from repro.seq.readsim import reads_to_records


@pytest.fixture
def fastq(tmp_path, small_reads):
    path = tmp_path / "reads.fastq"
    write_fastq(path, reads_to_records(small_reads))
    return path


class TestStreaming:
    @pytest.mark.parametrize("batch", [1, 7, 50, 10_000])
    def test_batch_size_invariance(self, fastq, small_reads, batch, monkeypatch):
        """Any batching must produce the whole-file result exactly."""
        want = serial_count(small_reads, 17)
        monkeypatch.setattr(streaming, "BATCH_RECORDS", batch)
        got = count_file_streaming(fastq, 17)
        assert got == want

    def test_canonical(self, fastq, small_reads):
        want = serial_count(small_reads, 9, canonical=True)
        got = count_file_streaming(fastq, 9, canonical=True)
        assert got == want

    @pytest.mark.parametrize("batch", [30, 80, 100_000])
    def test_multiple_files(self, tmp_path, small_reads, batch, monkeypatch):
        """30 puts a batch across the file boundary, 80 ends one on it."""
        a, b = tmp_path / "a.fastq", tmp_path / "b.fastq"
        write_fastq(a, reads_to_records(small_reads[:80]))
        write_fastq(b, reads_to_records(small_reads[80:]))
        monkeypatch.setattr(streaming, "BATCH_RECORDS", batch)
        got = count_files_streaming([a, b], 17)
        assert got == serial_count(small_reads, 17)

    def test_empty_stream(self):
        got = count_records_streaming([], 17)
        assert got.n_distinct == 0

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            count_records_streaming([], 17, batch_records=0)
