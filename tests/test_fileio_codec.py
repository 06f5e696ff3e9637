"""The sorted-block codec of :mod:`repro.fileio`, as the count database uses it.

Round trip first: whatever strictly increasing ``uint64`` keys and
positive ``int64`` counts go in come back bit for bit, at every byte
width a block can narrow to and at the block-size edges.  Then the
files a checksum cannot catch — every record's CRC is right, the
content breaks a rule — each refused as ``corrupt``.
"""

from __future__ import annotations

import io
import struct
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.store import DATABASE, load_counts, save_counts
from repro.core.result import KmerCounts
from repro.fileio import BLOCK_KEYS, FormatError, read_sorted_blocks, record, sorted_blocks

U64_MAX = 2**64 - 1
SIZES = [0, 1, BLOCK_KEYS - 1, BLOCK_KEYS, BLOCK_KEYS + 1]
HEAD = struct.Struct("<QIBB")   # first_key, n, key_width, count_width


def arrays_of_width(n: int, key_width: int, count_width: int, seed: int, *,
                    end_at_max: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """*n* keys and counts whose widest delta / count needs exactly that many bytes."""
    rng = np.random.default_rng(seed)
    deltas = rng.integers(1, 256, max(n - 1, 0)).tolist()
    counts = rng.integers(1, 256, n).tolist()
    if deltas:
        at = int(rng.integers(len(deltas)))
        lo, hi = 1 << 8 * (key_width - 1), (1 << 8 * key_width) - 1
        deltas[at] = min(int(rng.integers(lo, hi, dtype=np.uint64, endpoint=True)),
                         U64_MAX - (sum(deltas) - deltas[at]))
    if counts:
        lo, hi = 1 << 8 * (count_width - 1), min((1 << 8 * count_width) - 1, 2**63 - 1)
        counts[int(rng.integers(n))] = int(rng.integers(lo, hi, dtype=np.uint64, endpoint=True))
    room = U64_MAX - sum(deltas)
    first = room if end_at_max else int(rng.integers(0, room, dtype=np.uint64, endpoint=True))
    keys = list(accumulate(deltas, initial=first))[:n]
    return np.array(keys, dtype=np.uint64), np.array(counts, dtype=np.int64)


def through_the_codec(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    blob = b"".join(sorted_blocks(keys, counts))
    return read_sorted_blocks(DATABASE, io.BytesIO(blob), "<memory>", n=keys.size,
                              n_blocks=-(-keys.size // BLOCK_KEYS), key_bits=64)


@pytest.mark.parametrize("n", SIZES)
@given(key_width=st.integers(1, 8), count_width=st.integers(1, 8),
       seed=st.integers(0, 2**32), end_at_max=st.booleans())
def test_round_trip(n, key_width, count_width, seed, end_at_max):
    keys, counts = arrays_of_width(n, key_width, count_width, seed, end_at_max=end_at_max)
    if end_at_max and n:
        assert int(keys[-1]) == U64_MAX
    got_keys, got_counts = through_the_codec(keys, counts)
    assert got_keys.dtype == np.uint64 and got_counts.dtype == np.int64
    assert np.array_equal(got_keys, keys) and np.array_equal(got_counts, counts)


@pytest.mark.parametrize("count_width", range(1, 9))
@pytest.mark.parametrize("key_width", range(1, 9))
def test_every_width_is_written_and_read(key_width, count_width):
    """Not left to the sampler: each of the 64 width pairs, and the
    block head says the bytes were really cut to it."""
    keys, counts = arrays_of_width(BLOCK_KEYS + 1, key_width, count_width,
                                   seed=8 * key_width + count_width)
    blob = b"".join(sorted_blocks(keys, counts))
    heads = [HEAD.unpack_from(payload) for payload, _end
             in DATABASE.records(io.BytesIO(blob), "<memory>")]
    assert [(first, n) for first, n, _kw, _cw in heads] == [
        (int(keys[0]), BLOCK_KEYS), (int(keys[-1]), 1)]
    assert heads[0][2] == key_width and max(cw for *_, cw in heads) == count_width
    assert len(blob) == 2 * (8 + HEAD.size) + (BLOCK_KEYS - 1) * key_width + sum(
        n * cw for _first, n, _kw, cw in heads)
    got_keys, got_counts = through_the_codec(keys, counts)
    assert np.array_equal(got_keys, keys) and np.array_equal(got_counts, counts)


def test_save_counts_round_trips_and_writes_the_path_it_is_given(tmp_path):
    keys, counts = arrays_of_width(BLOCK_KEYS + 1, 8, 5, seed=1, end_at_max=True)
    for name in ("counts", "counts.kdb", "counts.npz"):
        save_counts(tmp_path / name, KmerCounts(32, keys, counts), canonical=True)
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        loaded, canonical = load_counts(tmp_path / name)
        assert loaded == KmerCounts(32, keys, counts) and canonical is True
        (tmp_path / name).unlink()


# -- sound checksums, unsound content ----------------------------------

K = 9


def block(first: int, deltas: list[int], counts: list[int], *, key_width: int = 2,
          count_width: int = 1, n: int | None = None) -> bytes:
    return record(HEAD.pack(first, len(counts) if n is None else n, key_width, count_width),
                  b"".join(d.to_bytes(key_width, "little") for d in deltas),
                  b"".join(c.to_bytes(count_width, "little") for c in counts))


GOOD = [block(5, [1, 300], [1, 2, 3]), block(400, [7], [9, 9])]

UNSOUND = {
    "zero delta": (5, [block(5, [1, 0], [1, 2, 3]), GOOD[1]]),
    "deltas sum past 2^64": (5, [block(5, [1, 2**64 - 5], [1, 2, 3], key_width=8),
                                 GOOD[1]]),
    "block starts at its predecessor's last key": (
        5, [GOOD[0], block(306, [7], [9, 9])]),
    "block starts below its predecessor": (5, [GOOD[0], block(2, [7], [9, 9])]),
    "key wider than 2k bits": (5, [GOOD[0], block(400, [1 << 2 * K], [9, 9], key_width=3)]),
    "fewer keys than the header says": (6, GOOD),
    "more keys than the header says": (4, GOOD),
    "a block more than the header says": (5, [*GOOD, block(500, [], [1])]),
    "trailing bytes": (5, [*GOOD, b"\0"]),
    "count of zero": (5, [block(5, [1, 300], [1, 0, 3]), GOOD[1]]),
    "count with the sign bit": (5, [block(5, [1, 300], [1, 2, 2**63], count_width=8),
                                    GOOD[1]]),
    "empty block": (5, [GOOD[0], block(400, [], []), GOOD[1]]),
    "key width 0": (5, [block(5, [], [1, 2, 3], key_width=0), GOOD[1]]),
    "count width 9": (5, [block(5, [1, 300], [1, 2, 3], count_width=9), GOOD[1]]),
    "block shorter than it declares": (5, [block(5, [1, 300], [1, 2], n=3), GOOD[1]]),
    "block without a head": (5, [record(b"\1\2\3"), GOOD[1]]),
    "k of 0 in the header": (5, GOOD),
}


def write_database(path, n: int, parts: list[bytes], *, n_blocks: int = 2, k: int = K):
    path.write_bytes(DATABASE.header(k, n, n_blocks, False) + b"".join(parts))
    return path


def test_the_hand_built_file_is_what_save_counts_writes(tmp_path):
    kc = KmerCounts(K, np.array([5, 6, 306, 400, 407], np.uint64),
                    np.array([1, 2, 3, 9, 9], np.int64))
    assert load_counts(write_database(tmp_path / "a.kdb", 5, GOOD)) == (kc, False)
    save_counts(tmp_path / "b.kdb", kc)
    assert load_counts(tmp_path / "b.kdb") == (kc, False)


@pytest.mark.parametrize("case", UNSOUND)
def test_unsound_content_behind_sound_checksums_is_corrupt(case, tmp_path):
    n, parts = UNSOUND[case]
    path = write_database(tmp_path / "db.kdb", n, parts, k=0 if case.startswith("k of 0") else K)
    with pytest.raises(FormatError) as exc:
        load_counts(path)
    assert exc.value.reason == "corrupt" and exc.value.path == path, str(exc.value)


def test_a_header_counting_more_blocks_than_follow_is_truncated(tmp_path):
    path = write_database(tmp_path / "db.kdb", 5, GOOD, n_blocks=3)
    with pytest.raises(FormatError) as exc:
        load_counts(path)
    assert exc.value.reason == "truncated"
