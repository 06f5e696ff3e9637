"""Tests for the extended CLI commands (analyze, compare, timeline)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.store import dump_text, save_counts
from repro.cli import main
from repro.core.result import KmerCounts
from repro.core.serial import serial_count


@pytest.fixture
def db_paths(tmp_path, small_reads):
    kc_a = serial_count(small_reads[:150], 15)
    kc_b = serial_count(small_reads[50:], 15)
    a = tmp_path / "a.npz"
    b = tmp_path / "b.npz"
    save_counts(a, kc_a)
    save_counts(b, kc_b)
    return str(a), str(b)


class TestSave:
    def test_count_save_roundtrip(self, tmp_path, capsys):
        db = tmp_path / "out.npz"
        rc = main(["count", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--algorithm", "serial",
                   "--save", str(db)])
        assert rc == 0
        assert db.exists()
        assert "saved binary database" in capsys.readouterr().out

    def test_save_writes_the_named_path_and_readers_go_by_content(
            self, tmp_path, monkeypatch, capsys):
        """`--save counts` used to print "saved ... to counts" beside a
        file called counts.npz; and a database is one by its magic, so
        it needs no particular suffix to be analysed or compared."""
        monkeypatch.chdir(tmp_path)
        rc = main(["count", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--algorithm", "serial",
                   "--save", "counts", "--output", "counts.txt"])
        assert rc == 0
        assert "saved binary database to counts\n" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["counts", "counts.txt"]
        assert main(["analyze", "counts"]) == 0
        binary = capsys.readouterr().out.replace("counts ", "counts.txt ")
        assert main(["analyze", "counts.txt"]) == 0
        assert capsys.readouterr().out == binary
        assert main(["compare", "counts", "counts.txt"]) == 0
        assert "jaccard:            1.0000" in capsys.readouterr().out

    def test_version_1_database_is_named_as_such(self, tmp_path, capsys):
        old = tmp_path / "old.npz"
        np.savez_compressed(old, version=np.int64(1), k=np.int64(5), canonical=np.bool_(False),
                            kmers=np.array([1, 2], np.uint64), counts=np.array([1, 1], np.int64))
        assert main(["analyze", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: not a readable count database (version)"), err

    def test_count_output_gzip_tsv(self, tmp_path, capsys):
        """--output with a .gz path must write real gzip (via dump_text)."""
        from repro.apps.store import load_counts, load_text

        db = tmp_path / "out.npz"
        tsv = tmp_path / "out.tsv.gz"
        rc = main(["count", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--algorithm", "serial",
                   "--output", str(tsv), "--save", str(db)])
        assert rc == 0
        assert tsv.read_bytes()[:2] == b"\x1f\x8b"
        assert load_text(tsv) == load_counts(db)[0]


class TestAnalyze:
    def test_analyze_npz(self, db_paths, capsys):
        a, _ = db_paths
        assert main(["analyze", a]) == 0
        out = capsys.readouterr().out
        for field in ("error valley", "coverage peak", "est. genome size",
                      "solid threshold"):
            assert field in out

    def test_analyze_tsv(self, tmp_path, capsys):
        kc = KmerCounts.from_pairs(
            5, np.array([1, 2, 3], dtype=np.uint64), np.array([1, 20, 20], dtype=np.int64)
        )
        path = tmp_path / "d.tsv"
        dump_text(path, kc)
        assert main(["analyze", str(path)]) == 0
        assert "distinct k-mers:    3" in capsys.readouterr().out

    def test_analyze_missing_file(self, capsys):
        assert main(["analyze", "/no/such/file.npz"]) == 2


class TestCompare:
    def test_compare(self, db_paths, capsys):
        a, b = db_paths
        assert main(["compare", a, b]) == 0
        out = capsys.readouterr().out
        assert "jaccard:" in out
        assert "shared distinct:" in out
        # Overlapping read windows -> meaningful but partial sharing.
        jac = float(next(l for l in out.splitlines() if "jaccard" in l).split()[-1])
        assert 0.1 < jac < 1.0


class TestTimeline:
    def test_timeline_dakc(self, capsys):
        rc = main(["timeline", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--nodes", "2", "--width", "60"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 global syncs" in out
        assert "PE  0" in out and "PE  1" in out
        assert "|" in out  # barrier glyphs

    def test_timeline_bsp(self, capsys):
        rc = main(["timeline", "--dataset", "synthetic-20", "-k", "15",
                   "--budget", "30000", "--nodes", "2",
                   "--algorithm", "pakman*"])
        assert rc == 0
        assert "global syncs" in capsys.readouterr().out

    def test_timeline_unknown_algorithm(self, capsys):
        rc = main(["timeline", "--algorithm", "kmc3", "--budget", "30000"])
        assert rc == 2


class TestServeBench:
    """The serve scenario, run as `dakc xp run benchmarks/xp/serve.json`."""

    SMALL = ["dataset=synthetic-20", "k=15", "budget=30000", "n_queries=4000"]

    def test_serve_bench_reports_and_matches(self, run_scenario):
        run = run_scenario("serve", *self.SMALL)
        assert run.rc in (0, 1)  # 1: speedup_ge_5x needs the spec's size
        assert all(run.cell["checks"][name] for name in (
            "answers_match", "cache_absorbed_head", "batching_coalesced",
            "nothing_shed"))
        for line in ("check:answers_match", "speedup", "cache_hit_rate",
                     "served_p50_ms", "mean_batch_keys", "rejected"):
            assert line in run.out

    def test_serve_bench_json_snapshot(self, run_scenario):
        run = run_scenario("serve", *self.SMALL, seed=7)
        assert run.cell["checks"]["answers_match"] is True
        assert run.cell["params"]["n_queries"] == 4000
        metrics = run.cell["metrics"]
        assert metrics["served_p99_ms"][0] >= metrics["served_p50_ms"][0] > 0
        assert metrics["served_qps"][0] > 0 and metrics["rejected"] == [0.0]

    def test_serve_bench_from_database(self, db_paths, run_scenario):
        """`database=<file>` serves that table: same check set as the
        dataset run, and the workload is drawn from *its* spectrum."""
        a, _ = db_paths
        run = run_scenario("serve", f"database={a}", "n_queries=2000",
                           "n_shards=4", "cache_capacity=0")
        replica = run_scenario("serve", *self.SMALL)
        assert set(run.cell["checks"]) == set(replica.cell["checks"])
        assert run.cell["checks"]["answers_match"] is True
        assert run.cell["metrics"]["cache_hit_rate"] == [0.0]

    def test_serve_bench_missing_database(self, run_scenario):
        run = run_scenario("serve", "database=/no/such.npz", "n_queries=100")
        assert run.rc == 2 and "/no/such.npz" in run.err

    @pytest.mark.parametrize("removed", ["batch_size", "max_inflight",
                                         "workers_per_shard", "quantum_keys",
                                         "batch_window"])
    def test_removed_engine_setting_is_refused(self, run_scenario, removed):
        """A former engine knob is a constant now: setting it is an
        unknown parameter, refused before anything runs."""
        run = run_scenario("serve", f"{removed}=1")
        assert run.rc == 2 and run.cell is None
        assert f"unknown parameters ['{removed}']" in run.err
        assert "accepts [" in run.err and "'fair_scheduling'" in run.err


class TestTenantBench:
    """The tenant scenario, run as `dakc xp run benchmarks/xp/tenant.json`."""

    SMALL = ["budget=20000", "n_victim_groups=40", "victim_interval=0.002",
             "flooders=4", "flush_service_time=0.01"]
    #: The checks that do not depend on this host's timing at this size.
    EXACT = ["answers_match", "no_starvation", "share_error_lt_5pct",
             "autoscale_exact", "autoscale_split_and_merged"]

    def test_tenant_bench_reports_and_matches(self, run_scenario):
        run = run_scenario("tenant", *self.SMALL)
        assert run.rc in (0, 1)  # 1: a timing threshold missed at this size
        assert all(run.cell["checks"][name] for name in self.EXACT)
        for line in ("isolated_degradation", "fairness_share_error",
                     "check:autoscale_split_and_merged"):
            assert line in run.out

    def test_tenant_bench_json_document(self, run_scenario):
        metrics = run_scenario("tenant", *self.SMALL).cell["metrics"]
        for scenario in ("solo", "isolated", "unprotected"):
            assert metrics[f"{scenario}_p99_ms"][0] >= \
                metrics[f"{scenario}_p50_ms"][0] > 0


class TestCalibrate:
    def test_calibrate_quick(self, capsys):
        assert main(["calibrate", "--quick", "--cores", "2"]) == 0
        out = capsys.readouterr().out
        assert "INT64 throughput" in out
        assert "beta_mem" in out


class TestSweep:
    def test_sweep_table(self, capsys):
        rc = main(["sweep", "--dataset", "synthetic-20", "-k", "15",
                   "--nodes", "1,2", "--budget", "40000",
                   "--algorithms", "dakc,hysortk"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated kernel time" in out
        assert "dakc" in out and "hysortk" in out

    def test_sweep_plot(self, capsys):
        rc = main(["sweep", "--dataset", "synthetic-20", "-k", "15",
                   "--nodes", "1,4", "--budget", "40000",
                   "--algorithms", "dakc", "--plot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "log-log scaling" in out
        assert "(nodes)" in out

    def test_sweep_unknown_algorithm(self, capsys):
        rc = main(["sweep", "--algorithms", "quantum", "--nodes", "1",
                   "--budget", "40000"])
        assert rc == 2
