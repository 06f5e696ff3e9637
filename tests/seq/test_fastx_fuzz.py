"""Differential fuzzer: the block parser against the reference reader.

``read_fastx_batches`` (binary blocks, whole-array checks) and
``read_fastx`` + ``encode_batch`` (one ``SeqRecord`` per record) state
the same rules twice.  On every file — well-formed, odd or hostile, cut
into blocks and batches of any size — they must return the same
``(codes, offsets)`` or raise the same :class:`FormatError`: same kind,
reason, record number and wording.  A hostile file never counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import streaming
from repro.apps.streaming import count_files_streaming, count_records_streaming
from repro.fileio import FormatError
from repro.seq import fastx
from repro.seq.encoding import encode_batch
from repro.seq.fastx import read_fastx, read_fastx_batches

BLOCK_SIZES = [1, 7, 64, 1 << 20]
BATCH_SIZES = [1, 2, 3, 1000]


def _outcome(fn):
    try:
        return fn()
    except FormatError as exc:
        return exc


def _reference(path):
    return encode_batch([r.seq for r in read_fastx(path)], validate=False)


def _blocks(path, batch_records):
    """All batches of the block parser, joined back into one."""
    batches = list(read_fastx_batches(path, batch_records=batch_records))
    assert all(offsets.size - 1 == batch_records for _, offsets in batches[:-1])
    assert all(1 <= offsets.size - 1 <= batch_records for _, offsets in batches[-1:])
    assert all(offsets[0] == 0 and offsets[-1] == codes.size for codes, offsets in batches)
    lengths = [np.diff(offsets) for _, offsets in batches]
    return (np.concatenate([codes for codes, _ in batches]),
            np.concatenate([[0], np.cumsum(np.concatenate(lengths))]))


def check(path, blob: bytes, monkeypatch, block_bytes: int, batch_records: int):
    """Write *blob*, read it both ways, compare; returns the shared outcome."""
    path.write_bytes(blob)
    monkeypatch.setattr(fastx, "BLOCK_BYTES", block_bytes)
    ref = _outcome(lambda: _reference(path))
    got = _outcome(lambda: _blocks(path, batch_records))
    if isinstance(ref, FormatError) or isinstance(got, FormatError):
        assert type(ref) is type(got) is FormatError, (ref, got)
        assert str(ref) == str(got)
        assert (ref.path, ref.kind, ref.reason) == (got.path, got.kind, got.reason)
        assert got.path == path and ("record" in str(got) or got.kind == "FASTA/FASTQ file")
    else:
        assert got[0].dtype == np.uint8 and got[1].dtype == np.int64
        assert np.array_equal(ref[0], got[0]) and np.array_equal(ref[1], got[1])
    return got


# -- seeded files ------------------------------------------------------

FASTQ = b"@r1 lane=1\nACGTACGTAC\n+\nIIIIIIIIII\n@r2\nTTGCA\n+r2\n#####\n@r3\nGATTACAGATTACA\n+\nFFFFFFFFFFFFFF\n"

WELL_FORMED = {
    "fastq": FASTQ,
    "fastq-crlf": FASTQ.replace(b"\n", b"\r\n"),
    "fastq-lowercase-and-N": b"@a\nacgtNNNNacgtnACGT\n+\nIIIIIIIIIIIIIIIII\n@b\nNNNN\n+\n!!!!\n",
    "fastq-blank-lines-between-records": b"\n\n@a\nACGT\n+\nIIII\n\n\r\n@b\nGG\n+\nII\n\n",
    "fastq-no-trailing-newline": FASTQ[:-1],
    "fastq-no-trailing-newline-crlf": FASTQ.replace(b"\n", b"\r\n")[:-2],
    "fastq-trailing-cr-only": FASTQ[:-1] + b"\r",
    "fastq-empty-read": b"@a\n\n+\n\n@b\nACGT\n+\nIIII\n",
    "fastq-quality-starts-with-at": b"@a\nACGT\n+\n@III\n@b\nAC\n+\n@@\n",
    "fastq-stray-cr-inside-a-read": b"@a\nAC\rGT\n+\nIIIII\n",
    "fastq-header-is-only-at": b"@\nAC\n+\nII\n@ \nGG\n+\nII\n",
    "fasta": b">s1 first\nACGTACGT\n>s2\nTTTT\n>s3\nG\n",
    "fasta-wrapped": b">chr1\nACGTAC\nGTACGT\nAC\n>chr2\nTTTTTT\nGG\n",
    "fasta-wrapped-crlf": b">chr1\r\nACGTAC\r\nGTACGT\r\n>chr2\r\nTT\r\n",
    "fasta-soft-masked": b">m\nACGTacgtnnnnACGT\nacgtACGT\n",
    "fasta-blank-lines": b"\n\r\n>a\nAC\n\nGT\n\n>b\n\nTT\n\n",
    "fasta-no-trailing-newline": b">a\nACGT\n>b\nGG",
    "fasta-ends-in-a-header": b">a\nACGT\n>b",
    "fasta-whitespace-in-sequence-lines": b">a\n  ACGT \t\nAC GT\n>b\n\x0bGG\x1c\n",
    "fasta-gt-inside-a-line": b">a desc > more\nAC>GT\n\r>x\nGG\n",
}

HOSTILE = {
    # name: (file, reason, record)
    "empty": (b"", "truncated", None),
    "only-blank-lines": (b"\n\r\n\n", "truncated", None),
    "neither-format": (b"hello world\nACGT\n", "foreign", None),
    "leading-space-before-marker": (b" >a\nACGT\n", "foreign", None),
    "binary": (bytes(range(256)) * 4, "foreign", None),
    "truncated-in-header": (FASTQ + b"@r4 la", "truncated", 4),
    "truncated-after-header": (FASTQ + b"@r4\n", "truncated", 4),
    "truncated-in-sequence": (FASTQ + b"@r4\nACG", "truncated", 4),
    "truncated-after-sequence": (FASTQ + b"@r4\nACGT\n", "truncated", 4),
    "missing-quality-line": (FASTQ + b"@r4\nACGT\n+\n", "truncated", 4),
    "truncated-in-quality": (FASTQ + b"@r4\nACGT\n+\nII", "truncated", 4),
    "quality-shorter": (b"@a\nACGT\n+\nII\n" + FASTQ, "corrupt", 1),
    "quality-longer": (FASTQ + b"@r4\nACGT\n+\nIIIIII", "corrupt", 4),
    "missing-quality-line-mid-file": (b"@a\nACGT\n+\n" + FASTQ, "corrupt", 1),
    "missing-separator": (FASTQ + b"@r4\nACGT\nIIII\nIIII\n", "corrupt", 4),
    "header-not-at": (FASTQ + b"r4\nACGT\n+\nIIII\n", "corrupt", 4),
    "blank-line-inside-a-record": (b"@a\nACGT\n\n+\nIIII\n", "corrupt", 1),
    "fasta-record-in-a-fastq": (FASTQ + b">s\nACGT\n", "corrupt", 4),
    "non-ascii-in-sequence": (FASTQ + b"@r4\nAC\xffT\n+\nIIII\n" + FASTQ, "corrupt", 4),
    "non-ascii-in-header": (b"@r\xc3\xa9\nACGT\n+\nIIII\n", "corrupt", 1),
    "non-ascii-in-quality": (FASTQ + b"@r4\nACGT\n+\nII\x80I\n", "corrupt", 4),
    "fasta-non-ascii-in-sequence": (b">a\nACGT\n>b\nAC\xffT\n>c\nGG\n", "corrupt", 2),
    "fasta-non-ascii-in-header": (b"\n>a\nACGT\n>b\xff\nACT\n", "corrupt", 2),
    "fasta-non-ascii-in-first-header": (b">\xffa\nACGT\n", "corrupt", 1),
}


@pytest.mark.parametrize("batch_records", BATCH_SIZES)
@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", WELL_FORMED)
def test_well_formed_files_read_alike(name, block_bytes, batch_records, tmp_path, monkeypatch):
    got = check(tmp_path / name, WELL_FORMED[name], monkeypatch, block_bytes, batch_records)
    assert not isinstance(got, FormatError), got


def test_what_the_odd_files_hold(tmp_path, monkeypatch):
    """The rules themselves, on the cases where they are easy to get wrong."""
    def reads(name):
        codes, offsets = check(tmp_path / "f", WELL_FORMED[name], monkeypatch, 7, 2)
        return [codes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]

    assert reads("fastq-crlf") == reads("fastq") == reads("fastq-trailing-cr-only")
    assert reads("fastq-empty-read") == [[], [0, 1, 2, 3]]
    assert reads("fastq-stray-cr-inside-a-read") == [[0, 1, 255, 2, 3]]
    assert reads("fasta-wrapped") == [[0, 1, 2, 3] * 3 + [0, 1], [3] * 6 + [2, 2]]
    assert reads("fasta-blank-lines") == [[0, 1, 2, 3], [3, 3]]
    assert reads("fasta-ends-in-a-header") == [[0, 1, 2, 3], []]
    assert reads("fasta-whitespace-in-sequence-lines") == [[0, 1, 2, 3] * 2, [2, 2]]
    assert reads("fasta-gt-inside-a-line") == [[0, 1, 255, 2, 3, 255, 255, 2, 2]]


@pytest.mark.parametrize("block_bytes", BLOCK_SIZES)
@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_files_are_refused_alike(name, block_bytes, tmp_path, monkeypatch):
    blob, reason, record = HOSTILE[name]
    got = check(tmp_path / name, blob, monkeypatch, block_bytes, 2)
    assert isinstance(got, FormatError), got
    assert got.reason == reason, str(got)
    assert record is None or f": record {record}: " in str(got)
    monkeypatch.setattr(streaming, "BATCH_RECORDS", 2)
    with pytest.raises(FormatError):    # neither counts it
        count_files_streaming([tmp_path / name], 3)
    with pytest.raises(FormatError):
        count_records_streaming(read_fastx(tmp_path / name), 3, batch_records=2)


@pytest.mark.parametrize("k", [1, 3, 12])     # 12: most reads are shorter than k
@pytest.mark.parametrize("name", WELL_FORMED)
def test_counts_agree(name, k, tmp_path, monkeypatch):
    path = tmp_path / name
    path.write_bytes(WELL_FORMED[name])
    monkeypatch.setattr(fastx, "BLOCK_BYTES", 16)
    monkeypatch.setattr(streaming, "BATCH_RECORDS", 2)
    assert (count_files_streaming([path], k)
            == count_records_streaming(read_fastx(path), k, batch_records=3))


def test_record_longer_than_a_block_and_batches_across_blocks(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    seqs = ["".join(rng.choice(list("ACGTN"), int(n))) for n in rng.integers(0, 400, 60)]
    fastq = "".join(f"@r{i}\n{s}\n+\n{'I' * len(s)}\n" for i, s in enumerate(seqs))
    fasta = "".join(f">r{i}\n" + "".join(s[j:j + 60] + "\n" for j in range(0, len(s), 60))
                    for i, s in enumerate(seqs))
    for blob in (fastq, fasta):
        for block_bytes in (5, 100, 1000):
            codes, offsets = check(tmp_path / "f", blob.encode(), monkeypatch, block_bytes, 7)
            assert np.array_equal(np.diff(offsets), [len(s) for s in seqs])


# -- generated files ---------------------------------------------------

_BASES = st.text(alphabet="ACGTacgtNn", max_size=30)
_EOL = st.sampled_from([b"\n", b"\r\n"])


@st.composite
def fastq_files(draw) -> bytes:
    eol = draw(_EOL)
    out = []
    for seq in draw(st.lists(_BASES, min_size=1, max_size=8)):
        out.append(draw(st.sampled_from([b"", b"", eol, eol + eol])))   # blank lines
        name = draw(st.text(alphabet="r12 @+>", max_size=6)).encode()
        qual = draw(st.text(alphabet="I#@+>!", min_size=len(seq), max_size=len(seq))).encode()
        out.append(b"@" + name + eol + seq.encode() + eol + b"+" + eol + qual + eol)
    blob = b"".join(out)
    # with or without the last EOL (an empty quality line needs its own)
    return blob[:len(blob) - draw(st.integers(0, len(eol) if seq else 0))]


@st.composite
def fasta_files(draw) -> bytes:
    eol = draw(_EOL)
    out = []
    for lines in draw(st.lists(st.lists(_BASES, max_size=4), min_size=1, max_size=6)):
        name = draw(st.text(alphabet="s12 >@", max_size=6)).encode()
        out.append(b">" + name + eol + b"".join(line.encode() + eol for line in lines))
    blob = b"".join(out)
    return blob[:len(blob) - draw(st.integers(0, len(eol)))]


@st.composite
def damaged(draw, files) -> bytes:
    """A generated file after up to three byte-level edits."""
    blob = bytearray(draw(files))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(["cut", "drop", "insert", "replace"]))
        byte = draw(st.sampled_from(list(b"\n\r@+>AN \t\x80\xff")))
        if edit == "cut":
            del blob[at:]
        elif edit == "drop":
            del blob[at:at + 1]
        elif edit == "insert":
            blob.insert(at, byte)
        elif at < len(blob):
            blob[at] = byte
    return bytes(blob)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "generated"


@given(blob=st.one_of(fastq_files(), fasta_files()),
       block_bytes=st.sampled_from(BLOCK_SIZES), batch_records=st.sampled_from(BATCH_SIZES))
def test_generated_files_read_alike(blob, block_bytes, batch_records, scratch_file):
    with pytest.MonkeyPatch.context() as monkeypatch:
        got = check(scratch_file, blob, monkeypatch, block_bytes, batch_records)
    assert not isinstance(got, FormatError), got


@given(blob=damaged(st.one_of(fastq_files(), fasta_files())),
       block_bytes=st.sampled_from(BLOCK_SIZES), batch_records=st.sampled_from(BATCH_SIZES))
def test_damaged_files_read_or_are_refused_alike(blob, block_bytes, batch_records, scratch_file):
    with pytest.MonkeyPatch.context() as monkeypatch:
        check(scratch_file, blob, monkeypatch, block_bytes, batch_records)
