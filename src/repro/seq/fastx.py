"""FASTA/FASTQ reading and writing: a reference reader and a block parser.

The paper's inputs are FASTQ files produced by the ART Illumina
simulator or downloaded from NCBI SRA ("In the input FASTA/Q files,
each DNA character is represented using an 8-bit ASCII character").
Two readers implement one set of rules (``docs/FORMATS.md``):

* :func:`read_fasta` / :func:`read_fastq` / :func:`read_fastx` stream
  one :class:`SeqRecord` per record — the readable reference, and the
  way to names and quality strings;
* :func:`read_fastx_batches` is what the counters use: binary blocks
  cut at record boundaries, one newline index per block, every rule
  one whole-array comparison, one ``bytes.translate`` to encode — no
  per-record Python, no ``str``.

A malformed file raises :class:`repro.fileio.FormatError` with the
path, the 1-based record and a reason: ``foreign`` (starts as neither
format), ``truncated`` (ends inside a record), ``corrupt`` (a record
breaks a rule).  The block parser hands the record it refuses to the
reference reader, which words the error: one wording, and
``tests/seq/test_fastx_fuzz.py`` holds the two readers to one verdict.
"""

from __future__ import annotations

import io
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from ..fileio import FormatError
from .alphabet import ASCII_TO_CODE
from .kmers import _cumsum0

__all__ = [
    "SeqRecord",
    "read_fasta",
    "read_fastq",
    "read_fastx",
    "read_fastx_batches",
    "write_fasta",
    "write_fastq",
    "sniff_format",
]

#: Bytes per binary read of the block parser; while a record is longer
#: than what is held, the next read doubles it.
BLOCK_BYTES = 1 << 20

_CODE_OF_BYTE = ASCII_TO_CODE.tobytes()
# ASCII whitespace as ``str.split`` sees it: dropped from FASTA sequence lines.
_FASTA_SPACE = b" \t\n\v\f\r\x1c\x1d\x1e\x1f"


@dataclass(frozen=True, slots=True)
class SeqRecord:
    """One sequence record: identifier, bases, optional quality string."""

    name: str
    seq: str
    qual: str | None = None

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.seq)


def _open_text(path: str | os.PathLike[str] | io.TextIOBase):
    """``(handle, whether to close it, its name in errors)``; a byte above
    127 decodes to a lone surrogate, so the record holding it can be named."""
    if isinstance(path, io.TextIOBase):
        return path, False, getattr(path, "name", "<stream>")
    fh = open(path, "rt", encoding="ascii", errors="surrogateescape", newline="\n")
    return fh, True, path


def _stream(path, records: Callable) -> Iterator[SeqRecord]:
    fh, should_close, label = _open_text(path)
    try:
        yield from records(fh, label)
    finally:
        if should_close:
            fh.close()


def _chomp(line: str) -> str:
    """*line* without its ending: one ``\\n`` and one ``\\r`` before it."""
    return line.removesuffix("\n").removesuffix("\r")


def _name(header: str) -> str:
    return (header[1:].split() or [""])[0]


def _fasta_records(fh: io.TextIOBase, label, n: int = 0) -> Iterator[SeqRecord]:
    """The records of *fh*, numbered in errors from ``n + 1``."""
    name: str | None = None
    chunks: list[str] = []
    for line in fh:
        line = _chomp(line)
        if not line:
            continue
        if line.startswith(">"):
            if name is not None:
                yield SeqRecord(name, "".join(chunks))
            n += 1
            name = _name(line)
            chunks = []
        elif name is None:
            raise FormatError(label, "FASTA file", "corrupt",
                              "record 1: FASTA file does not start with '>'")
        else:
            chunks.append("".join(line.split()))
        if not line.isascii():
            raise FormatError(label, "FASTA file", "corrupt", f"record {n}: non-ASCII byte")
    if name is not None:
        yield SeqRecord(name, "".join(chunks))


def read_fasta(path: str | os.PathLike[str] | io.TextIOBase) -> Iterator[SeqRecord]:
    """Stream records from a FASTA file (multi-line sequences allowed).

    Blank lines are skipped and whitespace inside a sequence line is
    dropped; every other character is a base (or an ambiguous one).
    """
    return _stream(path, _fasta_records)


def _fastq_records(fh: io.TextIOBase, label, n: int = 0) -> Iterator[SeqRecord]:
    """The records of *fh*, numbered in errors from ``n + 1``."""
    while header := fh.readline():
        header = _chomp(header)
        if not header:
            continue
        n += 1
        seq, plus, last = _chomp(fh.readline()), _chomp(fh.readline()), fh.readline()
        qual = _chomp(last)
        if not header.startswith("@"):
            fault = "corrupt", f"malformed FASTQ header: {header!r}"
        elif not last.endswith("\n") and (not last or len(qual) < len(seq)):
            # no fourth line, or one cut short (a whole one may lack its newline)
            fault = "truncated", "the file ends inside the record"
        elif not (header + seq + plus + qual).isascii():
            fault = "corrupt", "non-ASCII byte"
        elif not plus.startswith("+"):
            fault = "corrupt", f"malformed FASTQ separator: {plus!r}"
        elif len(qual) != len(seq):
            fault = "corrupt", f"quality length {len(qual)} != sequence length {len(seq)}"
        else:
            yield SeqRecord(_name(header), seq, qual)
            continue
        raise FormatError(label, "FASTQ file", fault[0], f"record {n}: {fault[1]}")


def read_fastq(path: str | os.PathLike[str] | io.TextIOBase) -> Iterator[SeqRecord]:
    """Stream records from a FASTQ file (4-line records).

    Blank lines are allowed between records, nowhere else.
    """
    return _stream(path, _fastq_records)


def sniff_format(path: str | os.PathLike[str]) -> str:
    """Guess 'fasta' or 'fastq' from the first character of the first non-blank line."""
    with _open_text(path)[0] as fh:
        for line in fh:
            line = _chomp(line)
            if line.startswith(">"):
                return "fasta"
            if line.startswith("@"):
                return "fastq"
            if line:
                raise FormatError(path, "FASTA/FASTQ file", "foreign",
                                  f"starts {line[:8]!r}, not with '>' or '@'")
    raise FormatError(path, "FASTA/FASTQ file", "truncated", "no record in the file")


def read_fastx(path: str | os.PathLike[str]) -> Iterator[SeqRecord]:
    """Read either FASTA or FASTQ, dispatching on content."""
    fmt = sniff_format(path)
    return read_fasta(path) if fmt == "fasta" else read_fastq(path)


# -- the block parser --------------------------------------------------


def _refuse(records: Callable, data: bytes, path, done: int):
    """Raise what the reference reader says of *data*, records *done* + 1 on."""
    list(records(io.StringIO(data.decode("ascii", "surrogateescape")), path, done))
    raise AssertionError(f"{path}: the block parser refused what the reference reads")


def _fasta_block(data: bytes, final: bool, path, done: int) -> tuple[bytes, np.ndarray, int]:
    """``(codes, lengths, bytes used)`` of the whole FASTA records in *data*.

    *data* starts at a header (after blank lines); a record is whole
    once the next header, or at *final* the end of the file, is seen.
    """
    cut = len(data) if final else data.rfind(b"\n>") + 1
    body = data[:cut].lstrip(b"\r\n")
    if not body.isascii():
        _refuse(_fasta_records, body, path, done)
    seqs = [rec.partition(b"\n")[2].translate(_CODE_OF_BYTE, _FASTA_SPACE)
            for rec in body[1:].split(b"\n>")] if body else []
    return b"".join(seqs), np.fromiter(map(len, seqs), np.int64, len(seqs)), cut


def _fastq_block(data: bytes, final: bool, path, done: int) -> tuple[bytes, np.ndarray, int]:
    """``(codes, lengths, bytes used)`` of the whole FASTQ records in *data*.

    *data* starts where a header is expected.  Every rule of
    :func:`_fastq_records` is one comparison over all records; the
    first record that breaks one goes to :func:`_refuse`.
    """
    raw = np.frombuffer(data + b"\n" if final and not data.endswith(b"\n") else data,
                        dtype=np.uint8)
    ends = np.flatnonzero(raw == 10)
    starts = np.concatenate(([0], ends + 1))[:-1]
    length = ends - starts
    length -= (length > 0) & (raw[ends - 1] == 13)            # \r\n
    # The lines of records: all but the blank ones met where a header is expected.
    keep = np.ones(ends.size, dtype=bool)
    skipped = 0
    for i in np.flatnonzero(length == 0).tolist():
        if (i - skipped) % 4 == 0:
            keep[i] = False
            skipped += 1
    rows = np.flatnonzero(keep)
    n = rows.size // 4
    head, seq, plus, qual = (rows[j:4 * n:4] for j in range(4))
    ok = ((raw[starts[head]] == 64) & (raw[starts[plus]] == 43)     # '@', '+'
          & (length[seq] == length[qual]))
    if not data.isascii():
        # the record ending first after the first such byte, if it is whole yet
        ok[np.searchsorted(ends[qual], np.argmax(raw > 127)):][:1] = False
    bad = n if ok.all() else int(np.argmin(ok))
    if bad < n or (final and rows.size % 4):
        record = rows[4 * bad:4 * bad + 4]      # fewer than four lines at the end of the file
        _refuse(_fastq_records, data[starts[record[0]]:ends[record[-1]] + 1], path, done + bad)
    first = starts[seq]
    codes = b"".join(map(data.__getitem__,
                         map(slice, first.tolist(), (first + length[seq]).tolist())))
    used = int(ends[rows[4 * n - 1]]) + 1 if n else 0
    return codes.translate(_CODE_OF_BYTE), length[seq], used


def _parse_blocks(path: str | os.PathLike[str]) -> Iterator[tuple[bytes, np.ndarray]]:
    """``(codes, lengths)`` of the records in each block of one file."""
    parse = _fasta_block if sniff_format(path) == "fasta" else _fastq_block
    done, carry = 0, b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(max(BLOCK_BYTES, len(carry)))
            data = carry + chunk
            codes, lengths, used = parse(data, not chunk, path, done)
            if lengths.size:
                yield codes, lengths
            if not chunk:
                return
            done += lengths.size
            carry = data[used:]


def read_fastx_batches(
    *paths: str | os.PathLike[str], batch_records: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Encoded ``(codes, offsets)`` batches of FASTA/FASTQ files.

    The records of *paths*, in order, *batch_records* at a time (the
    last batch holds the rest), each batch in the form of
    :func:`~repro.seq.encoding.encode_batch` ``(validate=False)``:
    read ``i`` is ``codes[offsets[i]:offsets[i + 1]]``, anything but
    ``ACGTacgt`` is :data:`~repro.seq.alphabet.INVALID_CODE`.
    """
    held: list[tuple[bytes, np.ndarray]] = []
    have = 0

    def joined() -> tuple[np.ndarray, np.ndarray]:
        codes, lengths = zip(*held)
        return np.frombuffer(b"".join(codes), dtype=np.uint8), _cumsum0(np.concatenate(lengths))

    for block in chain.from_iterable(map(_parse_blocks, paths)):
        held.append(block)
        have += block[1].size
        if have < batch_records:
            continue
        flat, offsets = joined()
        for lo in range(0, have - batch_records + 1, batch_records):
            hi = lo + batch_records
            yield flat[offsets[lo]:offsets[hi]], offsets[lo:hi + 1] - offsets[lo]
        held = [(flat[offsets[hi]:].tobytes(), np.diff(offsets[hi:]))]
        have -= hi
    if have:
        yield joined()


def write_fasta(
    path: str | os.PathLike[str] | io.TextIOBase,
    records: Iterable[SeqRecord],
    *,
    line_width: int = 0,
) -> int:
    """Write records as FASTA; returns the number of records written.

    ``line_width > 0`` wraps sequence lines at that width.
    """
    fh, should_close = (
        (path, False) if isinstance(path, io.TextIOBase) else (open(Path(path), "wt"), True)
    )
    n = 0
    try:
        for rec in records:
            fh.write(f">{rec.name}\n")
            if line_width and line_width > 0:
                for i in range(0, len(rec.seq), line_width):
                    fh.write(rec.seq[i : i + line_width] + "\n")
            else:
                fh.write(rec.seq + "\n")
            n += 1
    finally:
        if should_close:
            fh.close()
    return n


def write_fastq(
    path: str | os.PathLike[str] | io.TextIOBase,
    records: Iterable[SeqRecord],
) -> int:
    """Write records as FASTQ; records lacking quality get ``I`` (Q40)."""
    fh, should_close = (
        (path, False) if isinstance(path, io.TextIOBase) else (open(Path(path), "wt"), True)
    )
    n = 0
    try:
        for rec in records:
            qual = rec.qual if rec.qual is not None else "I" * len(rec.seq)
            if len(qual) != len(rec.seq):
                raise ValueError("quality length mismatch")
            fh.write(f"@{rec.name}\n{rec.seq}\n+\n{qual}\n")
            n += 1
    finally:
        if should_close:
            fh.close()
    return n
