"""Round-trip and edge-case tests for the count-database store."""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro.apps.store import (
    dump_text,
    load_counts,
    load_text,
    merge_sorted_counts,
    save_counts,
)
from repro.core.result import KmerCounts
from repro.core.serial import serial_count
from repro.fileio import FormatError
from repro.seq.kmers import kmer_to_str


@pytest.fixture(scope="module")
def db(small_reads):
    return serial_count(small_reads, 15)


class TestBinaryRoundTrip:
    def test_bit_exact(self, db, tmp_path):
        path = tmp_path / "db.kdb"
        save_counts(path, db, canonical=True)
        loaded, canonical = load_counts(path)
        assert canonical is True
        assert loaded == db
        assert loaded.kmers.dtype == np.uint64
        assert loaded.counts.dtype == np.int64

    def test_canonical_flag_default_false(self, db, tmp_path):
        path = tmp_path / "db.kdb"
        save_counts(path, db)
        _, canonical = load_counts(path)
        assert canonical is False

    def test_empty_database(self, tmp_path):
        path = tmp_path / "empty.kdb"
        save_counts(path, KmerCounts.empty(21))
        loaded, _ = load_counts(path)
        assert loaded.k == 21
        assert loaded.n_distinct == 0



class TestMergeSortedCounts:
    def _pairs(self, keys, vals):
        return (np.array(keys, dtype=np.uint64), np.array(vals, dtype=np.int64))

    def test_disjoint_and_overlapping(self):
        ka, va = self._pairs([1, 5, 9], [2, 3, 4])
        kb, vb = self._pairs([2, 5, 10], [10, 20, 30])
        keys, vals = merge_sorted_counts(ka, va, kb, vb)
        assert keys.tolist() == [1, 2, 5, 9, 10]
        assert vals.tolist() == [2, 10, 23, 4, 30]
        assert keys.dtype == np.uint64 and vals.dtype == np.int64

    def test_empty_sides(self):
        ka, va = self._pairs([3, 7], [1, 1])
        empty_k, empty_v = self._pairs([], [])
        for (xa, xv), (ya, yv) in [((ka, va), (empty_k, empty_v)),
                                   ((empty_k, empty_v), (ka, va))]:
            keys, vals = merge_sorted_counts(xa, xv, ya, yv)
            assert keys.tolist() == [3, 7]
            assert vals.tolist() == [1, 1]

    def test_matches_accumulate_weighted_oracle(self, rng):
        from repro.sort.accumulate import accumulate_weighted

        ka = np.unique(rng.integers(0, 1 << 40, 500).astype(np.uint64))
        kb = np.unique(rng.integers(0, 1 << 40, 700).astype(np.uint64))
        va = rng.integers(1, 50, ka.size).astype(np.int64)
        vb = rng.integers(1, 50, kb.size).astype(np.int64)
        keys, vals = merge_sorted_counts(ka, va, kb, vb)
        want_k, want_v = accumulate_weighted(
            np.concatenate([ka, kb]), np.concatenate([va, vb])
        )
        assert np.array_equal(keys, want_k)
        assert np.array_equal(vals, want_v)

    def test_unsorted_input_rejected(self):
        ka, va = self._pairs([5, 1], [1, 1])
        kb, vb = self._pairs([2], [1])
        with pytest.raises(ValueError, match="strictly increasing"):
            merge_sorted_counts(ka, va, kb, vb)
        # Duplicates within one side are equally invalid.
        kd, vd = self._pairs([2, 2], [1, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            merge_sorted_counts(kd, vd, ka[:1], va[:1])

    def test_misaligned_rejected(self):
        ka, va = self._pairs([1, 2], [1, 1])
        with pytest.raises(ValueError, match="aligned"):
            merge_sorted_counts(ka, va[:1], ka, va)


class TestTextRoundTrip:
    def test_plain_tsv(self, db, tmp_path):
        path = tmp_path / "db.tsv"
        n = dump_text(path, db)
        assert n == db.n_distinct
        assert load_text(path) == db

    def test_gzip_tsv(self, db, tmp_path):
        path = tmp_path / "db.tsv.gz"
        n = dump_text(path, db)
        assert n == db.n_distinct
        # Really gzip on disk, and much smaller than the plain dump.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert load_text(path) == db
        plain = tmp_path / "db.tsv"
        dump_text(plain, db)
        assert path.stat().st_size < plain.stat().st_size

    @pytest.mark.parametrize("name", ["e.tsv", "e.tsv.gz"])
    def test_empty_dump_keeps_its_k(self, tmp_path, name):
        path = tmp_path / name
        assert dump_text(path, KmerCounts.empty(13)) == 0
        back = load_text(path)
        assert back.k == 13 and back.n_distinct == 0

    def test_k_header_must_agree_with_the_rows(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("# k=5\nACGT\t1\n")
        with pytest.raises(FormatError, match="line 2: k-mer length 4 != 5"):
            load_text(path)
        path.write_text("# k=x\n")
        with pytest.raises(FormatError, match="line 1: malformed k header"):
            load_text(path)

    def test_gzip_matches_plain_content(self, db, tmp_path):
        gz, plain = tmp_path / "a.tsv.gz", tmp_path / "b.tsv"
        dump_text(gz, db)
        dump_text(plain, db)
        assert gzip.decompress(gz.read_bytes()).decode() == plain.read_text()

    def test_rows_are_jellyfish_style(self, db, tmp_path):
        path = tmp_path / "db.tsv"
        dump_text(path, db)
        first = path.read_text().splitlines()[0].split("\t")
        assert first[0] == kmer_to_str(int(db.kmers[0]), db.k)
        assert int(first[1]) == int(db.counts[0])

    def test_vectorised_dump_matches_scalar_decode(self, tmp_path):
        kc = KmerCounts.from_pairs(
            7,
            np.array([0, 1, 2**14 - 1, 12345], dtype=np.uint64),
            np.array([1, 2, 3, 4], dtype=np.int64),
        )
        path = tmp_path / "d.tsv"
        dump_text(path, kc)
        rows = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert rows == [kmer_to_str(int(km), 7) for km in kc.kmers]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.tsv"
        path.write_text("# header\n\nACGTA\t3\n")
        kc = load_text(path)
        assert kc.k == 5
        assert kc.n_distinct == 1


class TestTextErrors:
    def test_malformed_row_no_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ACGTA 3\n")
        with pytest.raises(ValueError, match="malformed row"):
            load_text(path)

    def test_malformed_row_bad_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ACGTA\tlots\n")
        with pytest.raises(ValueError, match="malformed row"):
            load_text(path)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ACGTA\t3\nACGTT\n")
        with pytest.raises(FormatError, match="line 2:") as exc:
            load_text(path)
        assert exc.value.reason == "corrupt" and exc.value.path == path

    def test_inconsistent_k(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("ACGTA\t3\nACGTAA\t2\n")
        with pytest.raises(ValueError, match="6 != 5"):
            load_text(path)

    def test_empty_dump_without_k(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty dump"):
            load_text(path)

    def test_every_refusal_is_a_typed_format_error(self, tmp_path):
        cases = {"ACGTA 3\n": ("corrupt", "line 1: malformed row"),
                 "ACGTA\t3\nACGTAA\t2\n": ("corrupt", "line 2: k-mer length 6 != 5"),
                 "ACGTN\t3\n": ("corrupt", "line 1: malformed row"),
                 "ACGT\u00c9\t3\n": ("corrupt", "after line 0"),
                 "": ("truncated", "empty dump")}
        for text, (reason, detail) in cases.items():
            path = tmp_path / "bad.tsv"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(FormatError, match=detail) as exc:
                load_text(path)
            assert (exc.value.reason, exc.value.kind, exc.value.path) == (
                reason, "k-mer text dump", path)

    def test_gzip_dump_cut_short_is_truncated(self, db, tmp_path):
        path = tmp_path / "db.tsv.gz"
        dump_text(path, db)
        blob = path.read_bytes()
        for cut in (len(blob) // 2, len(blob) - 4, 12, 1, 0):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError) as exc:
                load_text(path)
            assert exc.value.reason == "truncated", (cut, str(exc.value))
        path.write_bytes(b"ACGTA\t3\n")            # a plain dump under a .gz name
        with pytest.raises(FormatError) as exc:
            load_text(path)
        assert exc.value.reason == "foreign"
        at = len(blob) // 2
        path.write_bytes(blob[:at] + bytes([blob[at] ^ 0x40]) + blob[at + 1:])
        with pytest.raises(FormatError) as exc:
            load_text(path)
        assert exc.value.reason in ("corrupt", "truncated")
