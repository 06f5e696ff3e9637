"""Corruption matrix: every file format x every way a file goes bad.

One row per (format, damage): the six on-disk formats of
:mod:`repro.fileio` and the two input formats of
:mod:`repro.seq.fastx`.  The contract is identical for all eight: a
damaged file raises :class:`~repro.fileio.FormatError` naming the path
(a missing one stays ``FileNotFoundError``) — never another exception
type, never different content.  The deliberate exceptions are spelled
out in ``WAL_REPAIRS_TO`` and ``FASTA_READS_A_PREFIX``: the WAL
*repairs* a damaged tail (that is what a crash mid-append leaves) and
reopens as an empty log when not even its header was written; WAL and
MANIFEST are open-or-create, so "missing" is not an error for them;
and a FASTA record states no length, so a FASTA file cut short is a
shorter FASTA file.  A FASTX row reads the file with both readers (the
block parser and the reference) and requires one verdict of them.
A gzipped file is one more row: no reader inflates, each refuses it as
``foreign``.  Every refusal is checked for its reason (``REASON``).

The second half is the same contract as a property: flip any single
byte of a valid file; the load returns the original content or raises
``FormatError``.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.store import DATABASE, load_counts, save_counts
from repro.core.result import KmerCounts
from repro.fileio import BLOCK_KEYS, REASONS, FormatError, record
from repro.lsm import run as run_module
from repro.lsm.run import RUN, Run, write_run
from repro.lsm.store import MANIFEST_FORMAT, MANIFEST_NAME, LsmStore
from repro.lsm.wal import WAL, WriteAheadLog
from repro.ooc.format import BIN, append_chunk, pack_superkmers, read_bin_records
from repro.seq.encoding import decode_codes, encode_batch
from repro.seq.fastx import SeqRecord, read_fastx, read_fastx_batches, write_fasta, write_fastq
from repro.trace.format import (
    TIER_STORE,
    TIER_T1,
    TRACE_MAGIC,
    QueryTrace,
    load_trace,
    save_trace,
)

K = 9
RNG_SEED = 11


def _reads(rng, n=6):
    return [rng.integers(0, 4, int(rng.integers(20, 40))).astype(np.uint8)
            for _ in range(n)]


# -- one writer / loader / future-version forger per format -------------


def make_bin(dir: Path, framing=BIN) -> Path:
    rng = np.random.default_rng(RNG_SEED)
    path = dir / "bin-00003.skb"
    with open(path, "wb") as fh:
        fh.write(framing.header(K, 4, 3))
        for _ in range(3):
            append_chunk(fh, *pack_superkmers(_reads(rng)))
    return path


def load_bin(path: Path):
    header, chunks = read_bin_records(path)
    return header, [(lengths.tolist(), blob.tobytes()) for lengths, blob in chunks]


def make_wal(dir: Path, framing=WAL) -> Path:
    rng = np.random.default_rng(RNG_SEED)
    path = dir / "wal.log"
    wal = WriteAheadLog(path)
    for _ in range(3):
        wal.append(_reads(rng))
    wal.close()
    if framing is not WAL:
        blob = path.read_bytes()
        path.write_bytes(framing.header(0) + blob[len(WAL.header(0)):])
    return path


def load_wal(path: Path):
    wal = WriteAheadLog(path)
    try:
        return [(seq, [r.tobytes() for r in batch]) for seq, batch in wal.replay()]
    finally:
        wal.close()


def _run_arrays():
    rng = np.random.default_rng(RNG_SEED)
    keys = np.unique(rng.integers(0, 1 << 18, 600).astype(np.uint64))
    return keys, rng.integers(1, 50, keys.size).astype(np.int64)


def make_run(dir: Path, framing=RUN) -> Path:
    path = dir / "run-000001.run"
    keys, vals = _run_arrays()
    with mock.patch.object(run_module, "BLOCK_KEYS", 64):   # a 10-key index
        write_run(path, K, keys, vals)
    if framing is not RUN:
        blob = path.read_bytes()
        head = RUN.header(K, keys.size, 64, int(keys[0]), int(keys[-1]))
        path.write_bytes(framing.header(K, keys.size, 64, int(keys[0]),
                                        int(keys[-1])) + blob[len(head):])
    return path


def make_run_v2(dir: Path) -> Path:
    """What ``write_run`` wrote before version 3: no pad behind the index."""
    path = dir / "run-000001.run"
    keys, vals = _run_arrays()
    path.write_bytes(dataclasses.replace(RUN, version=2).header(
        K, keys.size, BLOCK_KEYS, int(keys[0]), int(keys[-1]))
        + record(keys[::BLOCK_KEYS].tobytes()) + keys.tobytes() + vals.tobytes())
    return path


def load_run(path: Path):
    run = Run(path)
    try:
        keys, vals = run.load()
        return (run.k, run.index_stride, run.fence_min, run.fence_max,
                run.index_keys.tolist(), keys.tolist(), vals.tolist())
    finally:
        run.close()


def make_manifest(dir: Path, version: int | None = None) -> Path:
    rng = np.random.default_rng(RNG_SEED)
    with LsmStore(dir / "store", K) as store:
        store.ingest(_reads(rng))
        store.flush()
    path = dir / "store" / MANIFEST_NAME
    if version is not None:
        path.write_text(json.dumps(dict(json.loads(path.read_text()),
                                        format=version)))
    return path


def load_manifest(path: Path):
    with LsmStore(path.parent) as store:
        return store.k, [r["name"] for r in store.describe()["runs"]], store.total


def _counts() -> KmerCounts:
    keys, vals = _run_arrays()
    return KmerCounts(K, keys, vals)


def make_database(dir: Path, framing=DATABASE, kc: KmerCounts | None = None) -> Path:
    path = dir / "counts.kdb"
    kc = kc or _counts()
    save_counts(path, kc, canonical=True)
    if framing is not DATABASE:
        blob = path.read_bytes()
        fields = (K, kc.n_distinct, -(-kc.n_distinct // BLOCK_KEYS), True)
        assert blob.startswith(DATABASE.header(*fields))
        path.write_bytes(framing.header(*fields) + blob[len(DATABASE.header(*fields)):])
    return path


def make_database_v1(dir: Path) -> Path:
    """What ``save_counts`` wrote before version 2: a deflated ``.npz``."""
    path = dir / "counts.npz"
    kc = _counts()
    np.savez_compressed(path, version=np.int64(1), k=np.int64(K),
                        canonical=np.bool_(True), kmers=kc.kmers, counts=kc.counts)
    return path


def load_database(path: Path):
    kc, canonical = load_counts(path)
    return kc.k, kc.kmers.tolist(), kc.counts.tolist(), canonical


def make_trace(dir: Path, version: int | None = None, n: int = 400) -> Path:
    rng = np.random.default_rng(RNG_SEED)
    path = dir / "trace.npz"
    trace = QueryTrace(
        ts=np.sort(rng.uniform(0.0, 1.0, n)),
        streams=rng.integers(0, 3, n).astype(np.int32),
        keys=rng.integers(0, 1 << 30, n).astype(np.uint64),
        tiers=rng.choice(np.array([TIER_T1, TIER_STORE], np.int8), n),
        k=K, seed=RNG_SEED, source="matrix", meta={"note": "fixture"})
    save_trace(path, trace)
    if version is not None:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = dict(json.loads(arrays["header"].tobytes()), version=version)
        assert header["magic"] == TRACE_MAGIC
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), np.uint8)
        np.savez_compressed(path, **arrays)
    return path


def load_trace_content(path: Path):
    t = load_trace(path)
    return (t.ts.tolist(), t.streams.tolist(), t.keys.tolist(), t.tiers.tolist(),
            t.k, t.seed, t.source, t.meta)


def _records():
    return [SeqRecord(f"r{i}", decode_codes(read)) for i, read in
            enumerate(_reads(np.random.default_rng(RNG_SEED)))]


def make_fastq(dir: Path) -> Path:
    path = dir / "reads.fastq"
    write_fastq(path, _records())
    return path


def make_fasta(dir: Path) -> Path:
    path = dir / "reads.fasta"
    write_fasta(path, _records(), line_width=16)
    return path


def load_fastx(path: Path):
    """The reads, as the block parser and the reference reader both see them."""
    def outcome(fn):
        try:
            codes, offsets = fn()
            return [codes[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
        except FormatError as exc:
            return exc

    blocks = outcome(lambda: next(read_fastx_batches(path, batch_records=1 << 30)))
    reference = outcome(lambda: encode_batch([r.seq for r in read_fastx(path)],
                                             validate=False))
    if isinstance(blocks, FormatError):
        assert str(blocks) == str(reference) and blocks.reason == reference.reason
        raise blocks
    assert blocks == reference
    return blocks


@dataclass(frozen=True)
class Format:
    make: Callable[[Path], Path]
    load: Callable[[Path], object]
    future: Callable[[Path], Path] | None   # a sound file claiming the next version
    header_cut: int                       # bytes kept by "truncated inside the header"
    flip_at: Callable[[bytes], int] | None   # offset of a checksummed payload byte


def _framed(make, framing):
    return lambda dir: make(dir, dataclasses.replace(framing, version=framing.version + 1))


FORMATS = {
    "bin": Format(make_bin, load_bin, _framed(make_bin, BIN), 10,
                  lambda blob: len(blob) - 1),
    "wal": Format(make_wal, load_wal, _framed(make_wal, WAL), 10,
                  lambda blob: len(blob) - 1),
    "run": Format(make_run, load_run, _framed(make_run, RUN), 10,
                  # first byte of the index record's payload
                  lambda blob: len(RUN.header(0, 0, 0, 0, 0)) + len(record()) + 1),
    "manifest": Format(make_manifest, load_manifest,
                       lambda dir: make_manifest(dir, MANIFEST_FORMAT + 1), 5, None),
    "database": Format(make_database, load_database, _framed(make_database, DATABASE),
                       10, lambda blob: len(blob) // 2),
    "trace": Format(make_trace, load_trace_content,
                    lambda dir: make_trace(dir, 2), 10,
                    lambda blob: len(blob) // 2),
    # plain text: no version to outgrow, no checksum to break
    "fastq": Format(make_fastq, load_fastx, None, 2, None),
    "fasta": Format(make_fasta, load_fastx, None, 2, None),
}
FASTX = {"fastq", "fasta"}
FRAMED = {"bin", "wal", "run", "database"}   # a repro.fileio.Framing header

DAMAGE = {
    "empty": lambda fmt, blob: b"",
    "truncated-half": lambda fmt, blob: blob[: len(blob) // 2],
    "truncated-in-header": lambda fmt, blob: blob[: fmt.header_cut],
    "random-bytes": lambda fmt, blob: np.random.default_rng(5).bytes(len(blob)),
    "flipped-payload-byte": lambda fmt, blob: _flip(blob, fmt.flip_at(blob)),
    "flipped-header-byte": lambda fmt, blob: _flip(blob, 16),   # first field byte
    "gzipped": lambda fmt, blob: gzip.compress(blob, mtime=0),
}
# The reason each damage is refused as.  A MANIFEST is JSON, which
# states no length: cut short, it is ``corrupt``.
REASON = {"empty": "truncated", "truncated-half": "truncated",
          "truncated-in-header": "truncated", "random-bytes": "foreign",
          "flipped-payload-byte": "corrupt", "flipped-header-byte": "corrupt",
          "gzipped": "foreign"}
MANIFEST_CUT = {"truncated-half", "truncated-in-header"}


def _flip(blob: bytes, at: int) -> bytes:
    return blob[:at] + bytes([blob[at] ^ 0x40]) + blob[at + 1:]


# What the WAL does instead of raising: the surviving prefix of its
# three batches.  Every other (format, damage) cell raises FormatError.
WAL_REPAIRS_TO = {
    "empty": 0,                  # not even a header: crashed at creation
    "truncated-in-header": 0,
    "truncated-half": 1,         # the cut falls inside the second record
    "flipped-payload-byte": 2,   # the last byte belongs to the tail record
}


# FASTA states no lengths: cut anywhere, what is left is a FASTA file.
FASTA_READS_A_PREFIX = {"truncated-half", "truncated-in-header"}


def _assert_refused(fmt: Format, path: Path, reason: str | None = None):
    with pytest.raises(FormatError) as exc:
        fmt.load(path)
    assert str(path) in str(exc.value)
    assert exc.value.path == path and exc.value.reason in REASONS
    if reason is not None:
        assert exc.value.reason == reason, str(exc.value)


def test_format_error_is_the_one_typed_error():
    assert issubclass(FormatError, ValueError)
    assert not issubclass(FormatError, OSError)   # FileNotFoundError stays apart


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("name", FORMATS)
def test_damaged_file(name, damage, tmp_path):
    fmt = FORMATS[name]
    if damage == "flipped-payload-byte" and fmt.flip_at is None:
        pytest.skip("the format carries no checksum (docs/FORMATS.md)")
    if damage == "flipped-header-byte" and name not in FRAMED:
        pytest.skip("the format has no framed header (docs/FORMATS.md)")
    path = fmt.make(tmp_path)
    original = fmt.load(path)
    path.write_bytes(DAMAGE[damage](fmt, path.read_bytes()))
    if name == "wal" and damage in WAL_REPAIRS_TO:
        assert fmt.load(path) == original[:WAL_REPAIRS_TO[damage]]
        assert fmt.load(path) == original[:WAL_REPAIRS_TO[damage]]  # and stays so
    elif name == "fasta" and damage in FASTA_READS_A_PREFIX:
        *whole, last = fmt.load(path)
        assert whole == original[:len(whole)]
        assert last == original[len(whole)][:len(last)] and len(whole) < len(original) - 1
    elif name == "manifest" and damage in MANIFEST_CUT:
        _assert_refused(fmt, path, "corrupt")
    else:
        _assert_refused(fmt, path, REASON[damage])


@pytest.mark.parametrize("at", [4, 9, 13, 17, 27], ids=[
    "magic", "version", "field-length", "base-seq", "crc"])
def test_wal_flipped_header_raises_instead_of_repairing(at, tmp_path):
    fmt = FORMATS["wal"]
    path = fmt.make(tmp_path)
    blob = _flip(path.read_bytes(), at)
    path.write_bytes(blob)
    _assert_refused(fmt, path)
    assert path.read_bytes() == blob


@pytest.mark.parametrize("other", FORMATS)
@pytest.mark.parametrize("name", FORMATS)
def test_another_formats_valid_file(name, other, tmp_path):
    if name == other or {name, other} == FASTX:
        pytest.skip("same format, or the two the FASTX readers tell apart themselves")
    fmt = FORMATS[name]
    path = fmt.make(tmp_path)
    (tmp_path / "other").mkdir()
    path.write_bytes(FORMATS[other].make(tmp_path / "other").read_bytes())
    _assert_refused(fmt, path, "foreign")


@pytest.mark.parametrize("name", FORMATS)
def test_future_version(name, tmp_path):
    fmt = FORMATS[name]
    if fmt.future is None:
        pytest.skip("the format carries no version (docs/FORMATS.md)")
    _assert_refused(fmt, fmt.future(tmp_path), "version")


@pytest.mark.parametrize("name", ["bin", "run", "database", "trace", "fastq", "fasta"])
def test_missing_file(name, tmp_path):
    fmt = FORMATS[name]
    path = fmt.make(tmp_path)
    path.unlink()
    with pytest.raises(FileNotFoundError):
        fmt.load(path)


def test_version_1_database_is_refused_by_version(tmp_path):
    """One read path: the deflated ``.npz`` of version 1 is named, not read."""
    _assert_refused(FORMATS["database"], make_database_v1(tmp_path), "version")


def test_version_2_run_is_refused_by_version(tmp_path):
    """A run whose sections sit at 4 mod 8 is named, not read unaligned."""
    _assert_refused(FORMATS["run"], make_run_v2(tmp_path), "version")


def test_format_2_store_is_refused_before_anything_is_swept(tmp_path):
    """MANIFEST ``format`` 2 means version-2 runs: the store is refused
    on open, and not one file of the directory is touched."""
    path = make_manifest(tmp_path, 2)
    (path.parent / "run-000099.run").write_bytes(b"an orphan the sweep would delete")
    listing = {p.name: p.read_bytes() for p in path.parent.iterdir()}
    _assert_refused(FORMATS["manifest"], path, "version")
    assert {p.name: p.read_bytes() for p in path.parent.iterdir()} == listing


@pytest.mark.parametrize("label", [1, 57], ids=["old-second-tier", "stray"])
def test_trace_foreign_tier_label_is_corrupt(label, tmp_path):
    """A tier column may only name the cache or the store: label 1 (what
    a second cache tier used to write) and any other int8 are refused."""
    path = make_trace(tmp_path)
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    arrays["tiers"][7] = label
    np.savez_compressed(path, **arrays)
    _assert_refused(FORMATS["trace"], path, "corrupt")


def test_database_cut_at_a_block_boundary_is_truncated(tmp_path):
    """Every record before the cut is whole and checks out; only the
    header's block count says the file is short."""
    rng = np.random.default_rng(RNG_SEED)
    keys = np.unique(rng.integers(0, 1 << (2 * K), 3 * BLOCK_KEYS).astype(np.uint64))
    assert 2 * BLOCK_KEYS < keys.size
    path = make_database(tmp_path, kc=KmerCounts(K, keys, np.ones(keys.size, np.int64)))
    with open(path, "rb") as fh:
        DATABASE.read_header(fh, path)
        ends = [end for _payload, end in DATABASE.records(fh, path)]
    assert len(ends) == 3
    blob = path.read_bytes()
    for end in (ends[1], ends[0], len(DATABASE.header(0, 0, 0, False))):
        path.write_bytes(blob[:end])
        _assert_refused(FORMATS["database"], path, "truncated")


def test_database_every_byte_is_under_a_checksum(tmp_path):
    """The mutation property below, exhaustively: flip each byte of a
    version-2 file in turn — the original content or ``FormatError``."""
    fmt = FORMATS["database"]
    path = fmt.make(tmp_path)
    original, blob = fmt.load(path), path.read_bytes()
    refused = 0
    for at in range(len(blob)):
        path.write_bytes(_flip(blob, at))
        try:
            assert fmt.load(path) == original
        except FormatError as exc:
            assert exc.path == path and exc.reason in REASONS
            refused += 1
    assert refused == len(blob)   # no byte of the layout is slack


def test_run_data_sections_are_sized_not_checksummed(tmp_path):
    """What docs/FORMATS.md states: a short data section is refused on
    open, a flipped data byte is not detected."""
    fmt = FORMATS["run"]
    path = fmt.make(tmp_path)
    original = fmt.load(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    _assert_refused(fmt, path, "truncated")
    path.write_bytes(blob + b"\0")
    _assert_refused(fmt, path, "corrupt")
    path.write_bytes(_flip(blob, len(blob) - 1))
    assert fmt.load(path) != original


@pytest.mark.parametrize("end,shift", [(0, -1), (0, 1), (-1, -1), (-1, 1)], ids=[
    "first-below-fence_min", "first-above-fence_min",
    "last-below-fence_max", "last-above-fence_max"])
def test_run_data_disagreeing_with_fences_is_corrupt(end, shift, tmp_path):
    """The keys section's first and last key must be the header's fences:
    a lookup cut to the fences then probes inside the mapped keys."""
    fmt = FORMATS["run"]
    path = fmt.make(tmp_path)
    run = Run(path)
    at = run._keys_at + 8 * (end % run.n_keys)
    run.close()
    blob = bytearray(path.read_bytes())
    key = int.from_bytes(blob[at:at + 8], "little") + shift
    blob[at:at + 8] = key.to_bytes(8, "little")
    path.write_bytes(bytes(blob))
    _assert_refused(fmt, path, "corrupt")


# -- the same contract as a property -----------------------------------


@pytest.fixture(scope="module")
def sound(tmp_path_factory):
    """name -> (path, valid bytes, content) for the checksummed formats."""
    out = {}
    for name in ("bin", "wal", "database", "trace"):
        path = FORMATS[name].make(tmp_path_factory.mktemp(name))
        out[name] = (path, path.read_bytes(), FORMATS[name].load(path))
    return out


@pytest.mark.parametrize("name", ["bin", "wal", "database", "trace"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_single_byte_mutation_is_detected_or_harmless(name, sound, data):
    path, blob, original = sound[name]
    at = data.draw(st.integers(0, len(blob) - 1), label="offset")
    mask = data.draw(st.integers(1, 255), label="xor")
    path.write_bytes(blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:])
    try:
        got = FORMATS[name].load(path)
    except FormatError as exc:
        assert str(path) in str(exc) and exc.reason in REASONS
        return
    if name == "wal":   # torn-tail repair: a prefix, never an altered batch
        assert got == original[:len(got)]
    else:
        assert got == original


def test_npz_member_crc_is_checked_even_when_the_damaged_header_parses(tmp_path):
    """``np.load`` stops at an array's last byte, so zipfile never reaches
    the CRC comparison: a flipped dtype in a member's npy header loads as
    different numbers.  ``load_npz`` reads the member to its end first."""
    path = make_trace(tmp_path, n=2000)   # members longer than zipfile's read-ahead
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    np.savez(path, **arrays)   # stored, so the npy headers are in the clear
    blob = path.read_bytes()
    at = blob.index(b"'<u8'") + 3
    path.write_bytes(blob[:at] + b"4" + blob[at + 1:])
    with np.load(path) as plain:
        assert plain["keys"].dtype == np.uint32   # silently wrong
    _assert_refused(FORMATS["trace"], path, "corrupt")
