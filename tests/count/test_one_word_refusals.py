"""k wider than one word: refused by every path that keeps one word per k-mer.

The kernel counts every k <= 64 (two words per k-mer above 32), so it
no longer refuses ``k > 32`` on its callers' behalf.  Each path below
keys, sorts, stores or ships one ``uint64`` per k-mer and must refuse
k = 33 and k = 64 itself, with the error it raised before the kernel
was widened — never count them silently wrong.  The in-memory ``fast``
count is the kernel: it answers exactly instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import ALGORITHMS, count_kmers
from repro.apps.store import DATABASE, dump_text, load_counts, load_text, save_counts
from repro.core.result import KmerCounts
from repro.core.serial import serial_count, serial_count_oracle
from repro.fileio import FormatError
from repro.lsm.store import LsmStore
from repro.ooc.count import ooc_count
from repro.seq.fastx import SeqRecord, write_fasta
from repro.seq.kmers import flatten_reads
from repro.seq.superkmers import split_superkmers_flat
from repro.serve.shards import ShardedStore


def _database_header(k, reads, tmp):
    path = tmp / "counts.kdb"
    path.write_bytes(DATABASE.header(k, 0, 0, False))
    load_counts(path)


def _text_dump(k, reads, tmp):
    path = tmp / "counts.tsv"
    path.write_text("A" * k + "\t3\n")
    load_text(path)


def _fasta(k, reads, tmp):
    path = tmp / "reads.fasta"
    write_fasta(path, [SeqRecord(f"r{i}", "".join("ACGT"[c] for c in r))
                       for i, r in enumerate(reads)])
    count_kmers(str(path), k, algorithm="fast")


def _wide(k, reads):
    return count_kmers(reads, k, algorithm="fast").counts


#: path -> (call, the error it raises at k)
PATHS = {
    **{f"count_kmers[{a}]": (
        lambda k, reads, tmp, a=a: count_kmers(reads, k, algorithm=a, machine="laptop",
                                               nodes=2), ValueError)
       for a in ALGORITHMS if a != "fast"},
    "count_kmers[fast]-file": (_fasta, ValueError),
    "serial_count": (lambda k, reads, tmp: serial_count(reads, k), ValueError),
    "LsmStore": (lambda k, reads, tmp: LsmStore(tmp / "store", k).ingest(reads), ValueError),
    "ooc_count": (lambda k, reads, tmp: ooc_count(reads, k, workdir=tmp), ValueError),
    "split_superkmers_flat": (
        lambda k, reads, tmp: split_superkmers_flat(*flatten_reads(reads), k, 7), ValueError),
    "ShardedStore": (
        lambda k, reads, tmp: ShardedStore.from_counts(_wide(k, reads), 4), ValueError),
    "save_counts": (
        lambda k, reads, tmp: save_counts(tmp / "c.kdb", _wide(k, reads)), ValueError),
    "dump_text": (
        lambda k, reads, tmp: dump_text(tmp / "c.tsv", _wide(k, reads)), ValueError),
    "database-header": (_database_header, FormatError),
    "text-dump": (_text_dump, FormatError),
}
MESSAGES = {ValueError: "k must be in \\[1, 32\\], got {k}",
            FormatError: "header says k={k}|line 1: malformed row"}


@pytest.mark.parametrize("k", [33, 64])
@pytest.mark.parametrize("path", sorted(PATHS) + ["count_kmers[fast]"])
def test_one_word_paths_refuse_wide_k(tiny_reads, tmp_path, path, k):
    reads = tiny_reads[:8]
    if path == "count_kmers[fast]":  # the kernel itself: exact two-word rows
        for layout in (reads, [r[:40 + i] for i, r in enumerate(reads)]):
            for canonical in (False, True):
                got = count_kmers(layout, k, algorithm="fast", canonical=canonical).counts
                assert got.kmers.shape == (got.n_distinct, 2)
                assert got == serial_count_oracle(layout, k, canonical=canonical)
        return
    call, error = PATHS[path]
    with pytest.raises(error, match=MESSAGES[error].format(k=k)):
        call(k, reads, tmp_path)
    assert not (tmp_path / "store").exists()


def test_a_wide_result_is_one_type():
    """No second result type: k > 32 is a `KmerCounts` of rows."""
    empty = KmerCounts.empty(41)
    assert empty.kmers.shape == (0, 2) and empty.n_distinct == 0
    assert KmerCounts.empty(31).kmers.shape == (0,)
    rows = np.array([[0, 7], [1, 0]], dtype=np.uint64)
    kc = KmerCounts(41, rows, np.array([2, 5]))
    assert kc.get(7) == 2 and kc.get(1 << 64) == 5 and kc.get(8) == 0
