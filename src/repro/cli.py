"""Command-line interface: ``dakc`` / ``python -m repro``.

The verbs are the tools that produce or read an artefact:

* ``count``    — count k-mers in a FASTA/FASTQ file (or a generated
  dataset replica) with any algorithm and print a summary/spectrum.
* ``analyze`` / ``compare`` — spectrum analysis of one count database,
  set comparison of two.
* ``datasets`` — print Table V (the dataset inventory).
* ``model``    — evaluate the analytical model for a dataset/machine.
* ``bench``    — regenerate a paper table, figure, ablation or
  extension by id (``fig7``, ``table5``, ``ablation-sort``, ...), or ``all``.
* ``sweep`` / ``timeline`` / ``calibrate`` — a custom strong-scaling
  sweep, an ASCII Gantt of one simulated run, this host as a machine.
* ``simulate`` — generate a synthetic FASTQ replica to disk.
* ``ingest``   — durably append reads into an updatable LSM k-mer
  store (WAL + memtable + sorted runs).
* ``compact``  — merge an LSM store's runs down to the configured
  read-amplification bound.
* ``ooc-count`` — out-of-core count under a memory ceiling (slices -> runs -> merge).
* ``dst``      — deterministic simulation testing: ``run`` a fuzz
  campaign, ``replay`` a repro bundle.
* ``trace``    — query-trace tooling (repro.trace): ``record`` a served
  workload, ``profile`` the exact miss-ratio curve of its threshold-
  admission cache, ``sample`` it spatially/temporally, ``replay`` it
  bit-identically.
* ``xp``       — declarative experiments (repro.xp): ``run`` a spec's
  sweep under its warmup/repetition policy, ``gate`` it against the
  ledger baseline with Mann-Whitney + minimum-effect thresholds,
  ``report`` the cross-PR trajectory in the versioned ledger, ``list``
  the targets and their parameters.

A scenario (serve, cluster, tenant, dst sweep, lsm, ooc, trace, count)
is not a verb: it is run as ``dakc xp run
benchmarks/xp/<scenario>.json [--quick] [--no-ledger] [--set key=value]``
(``docs/XP.md``).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dakc",
        description="DAKC reproduction: distributed asynchronous k-mer counting "
        "on a simulated PGAS machine.",
    )
    parser.add_argument("--version", action="version", version=f"dakc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(group, name, handler, **kwargs) -> argparse.ArgumentParser:
        """A sub-parser of *group*, bound to the function that runs it."""
        p = group.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        return p

    p_count = verb(sub, "count", _cmd_count,
                   help="count k-mers in a FASTX file or dataset")
    _add_source_args(p_count, "--input", "FASTA/FASTQ file path", budget=400_000)
    p_count.add_argument("--algorithm", default="auto",
                         help="auto|fast|serial|dakc|bsp|pakman|pakman*|hysortk|"
                              "kmc3 (auto = vectorised fast path for --input, "
                              "dakc simulation for --dataset)")
    p_count.add_argument("--nodes", type=int, default=1, help="simulated node count")
    p_count.add_argument("--machine", default="phoenix-intel",
                         help="machine preset (phoenix-intel|phoenix-amd|laptop)")
    p_count.add_argument("--protocol", default="1D", help="Conveyors topology (DAKC)")
    p_count.add_argument("--canonical", action="store_true",
                         help="count canonical (strand-folded) k-mers")
    p_count.add_argument("--top", type=int, default=0,
                         help="print the N most frequent k-mers")
    p_count.add_argument("--spectrum", type=int, default=0,
                         help="print the k-mer spectrum up to this count")
    p_count.add_argument("--output", help="write counts as TSV to this path")
    p_count.add_argument("--save", help="write counts as a binary database (e.g. counts.kdb)")

    verb(sub, "datasets", _cmd_datasets, help="print Table V")

    p_model = verb(sub, "model", _cmd_model,
                   help="evaluate the analytical model (Sec. V)")
    p_model.add_argument("--dataset", default="synthetic-30")
    p_model.add_argument("-k", type=int, default=31)
    p_model.add_argument("--nodes", type=int, default=32)
    p_model.add_argument("--machine", default="phoenix-intel")

    p_bench = verb(sub, "bench", _cmd_bench, help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", help="experiment id (fig1..fig13, "
                         "table2..table5, ablation-*, ext-*) or 'all' or 'list'")
    p_bench.add_argument("--budget", type=int, default=None,
                         help="override the replica k-mer budget")
    p_bench.add_argument("--seed", type=int, default=None)

    p_sim = verb(sub, "simulate", _cmd_simulate, help="write a synthetic FASTQ replica")
    p_sim.add_argument("--dataset", default="synthetic-20")
    p_sim.add_argument("--fidelity", type=float, default=2**-10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", required=True, help="FASTQ output path")

    p_an = verb(sub, "analyze", _cmd_analyze,
                help="spectrum analysis of a count database")
    p_an.add_argument("database", help="database written by `count --save` or a .tsv[.gz] dump")
    p_an.add_argument("--max-count", type=int, default=1000)

    p_cmp = verb(sub, "compare", _cmd_compare, help="compare two count databases")
    p_cmp.add_argument("a", help="first database (binary or .tsv[.gz])")
    p_cmp.add_argument("b", help="second database (binary or .tsv[.gz])")

    p_sw = verb(sub, "sweep", _cmd_sweep, help="custom strong-scaling sweep")
    p_sw.add_argument("--dataset", default="synthetic-26")
    p_sw.add_argument("-k", type=int, default=31)
    p_sw.add_argument("--algorithms", default="dakc,pakman*,hysortk",
                      help="comma-separated algorithm list")
    p_sw.add_argument("--nodes", default="1,2,4,8,16",
                      help="comma-separated node counts")
    p_sw.add_argument("--budget", type=int, default=200_000)
    p_sw.add_argument("--plot", action="store_true", help="ASCII log-log chart")

    p_cal = verb(sub, "calibrate", _cmd_calibrate,
                 help="microbenchmark this host into a machine config")
    p_cal.add_argument("--cores", type=int, default=8,
                       help="core count to assume for node-level rates")
    p_cal.add_argument("--quick", action="store_true",
                       help="small measurement sizes (noisy, fast)")

    p_ing = verb(sub, "ingest", _cmd_ingest,
                 help="durably append reads into an updatable LSM k-mer store")
    p_ing.add_argument("--store", required=True,
                       help="store directory (created on first use)")
    _add_source_args(p_ing, "--input", "FASTA/FASTQ file to ingest")
    p_ing.add_argument("--seed", type=int, default=0,
                       help="replica seed when using --dataset")
    p_ing.add_argument("--batch-records", type=int, default=10_000,
                       help="reads per WAL record / ingest batch")
    p_ing.add_argument("--memtable-mb", type=float, default=8.0,
                       help="memtable byte budget before flushing a run")
    p_ing.add_argument("--max-runs", type=int, default=8,
                       help="run-count bound (read-amplification fan-in)")
    p_ing.add_argument("--canonical", action="store_true",
                       help="count canonical (strand-folded) k-mers")
    p_ing.add_argument("--no-compact", action="store_true",
                       help="skip inline compaction (compact later)")
    p_ing.add_argument("--flush", action="store_true",
                       help="flush the memtable to a run before exiting")

    p_cpt = verb(sub, "compact", _cmd_compact,
                 help="merge an LSM store's runs down to the configured bound")
    p_cpt.add_argument("--store", required=True, help="store directory")
    p_cpt.add_argument("--max-runs", type=int, default=8,
                       help="run-count bound to compact down to")
    p_cpt.add_argument("--fan-in", type=int, default=8,
                       help="runs merged per compaction step")
    p_cpt.add_argument("--flush", action="store_true",
                       help="flush the memtable to a run first")

    p_ooc = verb(sub, "ooc-count", _cmd_ooc_count,
                 help="out-of-core count under a hard memory ceiling: "
                      "slices -> sorted scratch runs -> one merge (repro.ooc)")
    _add_source_args(p_ooc, "--input", "FASTA/FASTQ file to count")
    p_ooc.add_argument("--n-bins", type=int, default=64,
                       help="most scratch runs on disk at once (the merge fan-in)")
    p_ooc.add_argument("--memory-mb", type=float, default=1.0,
                       help="hard memory ceiling: slices of half of it in bases "
                            "(and the fused store's memtable budget)")
    p_ooc.add_argument("--seed", type=int, default=0,
                       help="replica seed when using --dataset")
    p_ooc.add_argument("--canonical", action="store_true",
                       help="count canonical (strand-folded) k-mers")
    p_ooc.add_argument("--store", default=None,
                       help="load the count into this LSM store directory as one run")
    p_ooc.add_argument("--workdir", default=None,
                       help="scratch-run directory (default: private tempdir)")
    p_ooc.add_argument("--machine", default="laptop",
                       help="machine preset pricing the disk traffic "
                            "(phoenix-intel|phoenix-amd|laptop)")
    p_ooc.add_argument("--verify", action="store_true",
                       help="recount in memory and assert bit-identical "
                            "results (small inputs only)")
    p_ooc.add_argument("--json", default=None,
                       help="write the run report here")

    p_dst = sub.add_parser(
        "dst",
        help="deterministic simulation testing: fuzz schedules, replay "
             "repro bundles (repro.dst)",
    )
    dst_sub = p_dst.add_subparsers(dest="dst_command", required=True)
    p_dst_run = verb(dst_sub, "run", _cmd_dst_run,
                     help="fuzz one campaign of schedules and check invariants")
    p_dst_run.add_argument("--budget", type=int, default=200,
                           help="schedules to run")
    p_dst_run.add_argument("--seed", type=int, default=0,
                           help="campaign root seed")
    p_dst_run.add_argument("--out", default=None,
                           help="directory for shrunk repro bundles")
    p_dst_run.add_argument("--no-shrink", action="store_true",
                           help="report failures without minimising them")
    p_dst_run.add_argument("--json", default=None,
                           help="also write the campaign report as JSON here")
    p_dst_replay = verb(dst_sub, "replay", _cmd_dst_replay,
                        help="re-run a repro bundle and verify the violation")
    p_dst_replay.add_argument("bundle", help="path to a dst repro bundle")

    p_tr = sub.add_parser(
        "trace",
        help="query-trace capture, reuse-distance cache modelling, "
             "sampling, and deterministic replay (repro.trace)",
    )
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)

    p_tr_rec = verb(tr_sub, "record", _cmd_trace_record,
                    help="serve a Zipf(+burst) stream and record its trace")
    _add_source_args(p_tr_rec, "--database",
                     "count database (counts.kdb) or .tsv[.gz] dump to serve",
                     k=15, dataset="synthetic-20")
    p_tr_rec.add_argument("--queries", type=int, default=40_000)
    p_tr_rec.add_argument("--shards", type=int, default=8)
    p_tr_rec.add_argument("--zipf", type=float, default=1.1)
    p_tr_rec.add_argument("--miss-fraction", type=float, default=0.02)
    p_tr_rec.add_argument("--cache-capacity", type=int, default=4096,
                          help="cache slots (0 disables the cache)")
    p_tr_rec.add_argument("--cache-threshold", type=int, default=2)
    p_tr_rec.add_argument("--burst-amplitude", type=float, default=1.0,
                          help="rate multiplier inside bursts (1 = no bursts)")
    p_tr_rec.add_argument("--burst-duration", type=float, default=0.05,
                          help="seconds of burst per period")
    p_tr_rec.add_argument("--burst-period", type=float, default=0.5,
                          help="seconds from burst start to burst start")
    p_tr_rec.add_argument("--seed", type=int, default=0)
    p_tr_rec.add_argument("--out", required=True,
                          help="trace output path (.npz)")

    p_tr_prof = verb(tr_sub, "profile", _cmd_trace_profile,
                     help="exact miss-ratio curve of the trace's cache "
                     "(full simulation)")
    p_tr_prof.add_argument("trace", help="trace file written by `trace record`")
    p_tr_prof.add_argument("--capacities",
                           help="comma-separated cache capacities "
                           "(default: trace-bench's log-spaced grid)")
    p_tr_prof.add_argument("--json", help="write the profile document here")

    p_tr_rep = verb(tr_sub, "replay", _cmd_trace_replay,
                    help="replay a recorded trace through a fresh engine")
    p_tr_rep.add_argument("trace", help="trace file to replay")
    _add_source_args(p_tr_rep, "--database",
                     "count database (counts.kdb) or .tsv[.gz] dump to serve",
                     k=15, dataset="synthetic-20")
    p_tr_rep.add_argument("--shards", type=int, default=8)
    p_tr_rep.add_argument("--cache-capacity", type=int, default=4096)
    p_tr_rep.add_argument("--cache-threshold", type=int, default=2)
    p_tr_rep.add_argument("--tick", type=float, default=1e-3,
                          help="arrival-group granularity (seconds)")
    p_tr_rep.add_argument("--group-size", type=int, default=256,
                          help="max keys per replayed client batch")
    p_tr_rep.add_argument("--concurrency", type=int, default=8)
    p_tr_rep.add_argument("--json", help="write the replay document here")

    p_tr_smp = verb(tr_sub, "sample", _cmd_trace_sample,
                    help="spatially (SHARDS) or temporally sample a trace")
    p_tr_smp.add_argument("trace", help="trace file to sample")
    p_tr_smp.add_argument("--out", required=True,
                          help="sampled trace output path (.npz)")
    p_tr_smp.add_argument("--rate", type=float, default=None,
                          help="spatial (hash-filter) sampling rate in (0,1]")
    p_tr_smp.add_argument("--salt", type=int, default=0,
                          help="re-salt the spatial filter for an "
                          "independent sample")
    p_tr_smp.add_argument("--window", type=float, default=None,
                          help="temporal: keep this many seconds ...")
    p_tr_smp.add_argument("--every", type=float, default=None,
                          help="... out of every this many seconds")
    p_tr_smp.add_argument("--check", action="store_true",
                          help="spatial only: compare the miniature "
                          "simulations of the trace's cache over 4 pooled "
                          "samples with its exact curve; exit 1 past "
                          "the bound")

    p_xp = sub.add_parser(
        "xp",
        help="declarative experiments: seeded sweeps with repetition "
             "policy, bootstrap CIs, and statistical perf gating; how "
             "every scenario is run (repro.xp)",
    )
    xp_sub = p_xp.add_subparsers(dest="xp_command", required=True)

    p_xp_run = verb(xp_sub, "run", _cmd_xp_run,
                    help="run one spec's sweep and append the envelope to "
                         "the ledger")
    _add_xp_run_args(p_xp_run)
    p_xp_run.add_argument("--json", default=None,
                          help="also write the result envelope here")

    p_xp_gate = verb(xp_sub, "gate", _cmd_xp_gate,
                     help="run a spec (or load --current) and compare it "
                          "against the ledger baseline; exit 1 on a "
                          "significant regression")
    _add_xp_run_args(p_xp_gate)
    p_xp_gate.add_argument("--current", default=None,
                           help="gate this saved envelope instead of "
                                "running the spec")
    p_xp_gate.add_argument("--baseline", default=None,
                           help="explicit baseline envelope path "
                                "(default: newest passing ledger entry)")
    p_xp_gate.add_argument("--alpha", type=float, default=0.01,
                           help="Mann-Whitney significance level")
    p_xp_gate.add_argument("--min-effect", type=float, default=0.10,
                           help="minimum relative median shift that can "
                                "fail the gate")
    p_xp_gate.add_argument("--report-only", action="store_true",
                           help="print the verdict but always exit 0")
    p_xp_gate.add_argument("--json", default=None,
                           help="write the gate verdict document here")

    p_xp_rep = verb(xp_sub, "report", _cmd_xp_report,
                    help="print an experiment's cross-PR ledger trajectory")
    p_xp_rep.add_argument("experiment", nargs="?", default=None,
                          help="experiment id (default: list all)")
    p_xp_rep.add_argument("--ledger", default=None,
                          help="ledger directory (default "
                               "benchmarks/results/ledger)")

    p_xp_list = verb(xp_sub, "list", _cmd_xp_list,
                     help="list targets with their parameters and defaults, "
                          "spec files, and ledger experiments")
    p_xp_list.add_argument("--ledger", default=None)
    p_xp_list.add_argument("--specs", default="benchmarks/xp",
                           help="directory holding declarative specs")

    p_tl = verb(sub, "timeline", _cmd_timeline, help="ASCII Gantt of a simulated run")
    p_tl.add_argument("--dataset", default="synthetic-20")
    p_tl.add_argument("-k", type=int, default=31)
    p_tl.add_argument("--algorithm", default="dakc")
    p_tl.add_argument("--nodes", type=int, default=2)
    p_tl.add_argument("--budget", type=int, default=100_000)
    p_tl.add_argument("--width", type=int, default=100)
    p_tl.add_argument("--chrome", help="also write Chrome trace-event JSON "
                      "here (open in Perfetto / chrome://tracing)")

    return parser


def _add_source_args(parser, file_flag: str, file_help: str, *, k: int = 31,
                     budget: int = 100_000, dataset: str | None = None) -> None:
    """The ``<file> | --dataset``, ``-k``, ``--budget`` group of every verb
    that takes reads or a table; one of the two is required unless
    *dataset* names the replica used when neither is given."""
    src = parser.add_mutually_exclusive_group(required=dataset is None)
    src.add_argument(file_flag, help=file_help)
    src.add_argument("--dataset", default=dataset,
                     help="Table V dataset key (e.g. synthetic-24) to "
                          "generate as a replica instead")
    parser.add_argument("-k", type=int, default=k,
                        help=f"k-mer length (default {k})")
    parser.add_argument("--budget", type=int, default=budget,
                        help="replica k-mer budget when using --dataset")


def _add_xp_run_args(parser) -> None:
    """Flags shared by ``xp run`` and ``xp gate``."""
    parser.add_argument("spec", help="experiment spec (.json)")
    parser.add_argument("--ledger", default=None,
                        help="ledger directory (default "
                             "benchmarks/results/ledger)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append the result envelope")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the spec's root seed")
    parser.add_argument("--repetitions", type=int, default=None,
                        help="override the spec's repetition count")
    parser.add_argument("--warmup", type=int, default=None,
                        help="override the spec's warmup count")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="override one parameter of the target (a JSON "
                             "value, or a bare word for a string or path; "
                             "repeatable; `xp list` shows the keys)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shrink to 0 warmups / 2 "
                             "repetitions and skip the ledger append "
                             "(quick numbers never become baselines)")


def _write_json(path: str, doc, what: str, **dump) -> None:
    """Write *doc* to *path* (parent directories created) and say so."""
    import json
    from pathlib import Path

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(doc, indent=2, **dump) + "\n")
    print(f"# wrote {what} to {path}")


def _cmd_count(args) -> int:
    from .api import count_kmers
    from .bench.tables import format_time
    from .bench.workloads import build_workload
    from .seq.kmers import kmer_ints, kmer_to_str

    if args.dataset:
        workload = build_workload(args.dataset, args.k, budget_kmers=args.budget)
        reads = workload.reads
        source = f"{workload.spec.display} (replica, {workload.n_reads} reads)"
    else:
        reads = args.input
        source = args.input

    # "auto": real files get the vectorised fast path;
    # dataset replicas keep the simulated dakc run (the paper's view).
    algorithm = args.algorithm
    if algorithm == "auto":
        algorithm = "fast" if args.input else "dakc"

    run = count_kmers(
        reads,
        args.k,
        algorithm=algorithm,
        machine=args.machine,
        nodes=args.nodes,
        protocol=args.protocol,
        canonical=args.canonical,
    )
    kc = run.counts
    print(f"# source:        {source}")
    print(f"# algorithm:     {run.algorithm}  (k={args.k}, nodes={args.nodes})")
    print(f"# total k-mers:  {kc.total:,}")
    print(f"# distinct:      {kc.n_distinct:,}")
    print(f"# max count:     {kc.max_count:,}")
    if run.stats.sim_time:
        print(f"# simulated kernel time: {format_time(run.stats.sim_time)}")
        print(f"# global syncs: {run.stats.global_syncs}")
    if args.top:
        order = kc.counts.argsort()[::-1][: args.top]
        print(f"# top {args.top} k-mers:")
        for kmer, count in zip(kmer_ints(kc.kmers[order]), kc.counts[order].tolist()):
            print(f"{kmer_to_str(kmer, args.k)}\t{count}")
    if args.spectrum:
        spec = kc.spectrum(max_count=args.spectrum)
        print("# spectrum (count\t#distinct):")
        for c in range(1, len(spec)):
            print(f"{c}\t{int(spec[c])}")
    if args.output:
        from .apps.store import dump_text

        dump_text(args.output, kc)
        print(f"# wrote {kc.n_distinct} rows to {args.output}")
    if args.save:
        from .apps.store import save_counts

        save_counts(args.save, kc, canonical=args.canonical)
        print(f"# saved binary database to {args.save}")
    return 0


def _cmd_analyze(args) -> int:
    from .apps.spectrum import (
        estimate_error_rate,
        estimate_genome_size,
        solid_threshold,
        spectrum_features,
    )
    from .apps.store import load_database

    kc = load_database(args.database)
    feats = spectrum_features(kc, max_count=args.max_count)
    print(f"# database:           {args.database} (k={kc.k})")
    print(f"# distinct k-mers:    {kc.n_distinct:,}")
    print(f"# total occurrences:  {kc.total:,}")
    print(f"# error valley:       count = {feats.valley}")
    print(f"# coverage peak:      count = {feats.peak}")
    print(f"# error mass:         {feats.error_mass:,} occurrences")
    print(f"# signal mass:        {feats.signal_mass:,} occurrences")
    print(f"# solid threshold:    {solid_threshold(kc, max_count=args.max_count)}")
    print(f"# est. genome size:   {estimate_genome_size(kc, max_count=args.max_count):,} bp")
    print(f"# est. error rate:    {estimate_error_rate(kc, max_count=args.max_count):.4%}")
    return 0


def _cmd_compare(args) -> int:
    from .apps.setops import containment, intersect, jaccard, symmetric_difference
    from .apps.store import load_database

    a = load_database(args.a)
    b = load_database(args.b)
    shared = intersect(a, b)
    print(f"# A: {args.a}  ({a.n_distinct:,} distinct, k={a.k})")
    print(f"# B: {args.b}  ({b.n_distinct:,} distinct, k={b.k})")
    print(f"# shared distinct:    {shared.n_distinct:,}")
    print(f"# unique to either:   {symmetric_difference(a, b).n_distinct:,}")
    print(f"# jaccard:            {jaccard(a, b):.4f}")
    print(f"# containment(A in B): {containment(a, b):.4f}")
    print(f"# containment(B in A): {containment(b, a):.4f}")
    return 0


def _cmd_sweep(args) -> int:
    from .bench.harness import run_point
    from .bench.plots import scaling_chart
    from .bench.tables import format_time, print_table
    from .bench.workloads import build_workload

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    node_counts = [int(n) for n in args.nodes.split(",")]
    w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
    print(f"# sweep: {w.spec.display} replica ({w.n_kmers(args.k):,} k-mers), "
          f"k={args.k}")
    rows = []
    curves: dict[str, dict[int, float]] = {a: {} for a in algorithms}
    for nodes in node_counts:
        row = {"nodes": nodes}
        for algo in algorithms:
            pt = run_point(algo, w, args.k, nodes=nodes)
            row[algo] = "OOM" if pt.oom else format_time(pt.sim_time)
            if not pt.oom:
                curves[algo][nodes] = pt.sim_time
        rows.append(row)
    print_table(rows, title="simulated kernel time")
    if args.plot:
        print(scaling_chart(curves))
    return 0


def _cmd_calibrate(args) -> int:
    from .runtime.calibrate import calibrate_machine

    print("measuring host (this takes a few seconds)...")
    result = calibrate_machine(cores=args.cores, quick=args.quick)
    m = result.machine
    print(f"# INT64 throughput (1 thread): {result.int64_ops / 1e9:.2f} GOp/s")
    print(f"# streaming memory bandwidth:  {result.memory_bandwidth / 1e9:.2f} GB/s")
    print(f"# estimated LLC size:          {result.cache_bytes / 1e6:.1f} MB")
    print("# resulting machine (Table IV analog):")
    print(f"#   c_node    = {m.c_node / 1e9:.1f} GOp/s  ({args.cores} cores)")
    print(f"#   beta_mem  = {m.beta_mem / 1e9:.1f} GB/s")
    print(f"#   Z         = {m.cache_bytes / 1e6:.1f} MB, L = {m.line_bytes} B")
    print(f"#   beta_link = {m.beta_link / 1e9:.1f} GB/s (inherited; no NIC to measure)")
    print("use: MachineConfig from repro.runtime.calibrate.calibrate_machine()")
    return 0


def _cmd_timeline(args) -> int:
    from .api import count_kmers
    from .bench.workloads import build_workload
    from .runtime.cost import CostModel
    from .runtime.machine import phoenix_intel
    from .runtime.trace import Tracer, render_gantt, to_chrome_trace

    w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
    tracer = Tracer()
    machine = phoenix_intel(args.nodes)
    cost = CostModel(machine, cores_per_pe=machine.cores_per_node, tracer=tracer)
    if args.algorithm == "dakc":
        from .core.dakc import dakc_count

        _, stats = dakc_count(w.reads, args.k, cost)
    elif args.algorithm in ("bsp", "pakman*", "pakman"):
        from .core.bsp import BspConfig, bsp_count

        sort = "quicksort" if args.algorithm == "pakman" else "radix"
        _, stats = bsp_count(
            w.reads, args.k, cost,
            BspConfig(batch_size=max(1, w.n_kmers(args.k) // (args.nodes * 4)),
                      sort=sort),
        )
    else:
        raise ValueError(f"timeline supports dakc/bsp/pakman*, not {args.algorithm!r}")
    print(f"# {args.algorithm} on {w.spec.display} replica, {args.nodes} nodes, "
          f"{stats.global_syncs} global syncs, sim time {stats.sim_time:.3g}s")
    print(render_gantt(tracer, width=args.width))
    if args.chrome:
        with open(args.chrome, "w") as fh:
            fh.write(to_chrome_trace(tracer))
        print(f"# wrote Chrome trace ({len(tracer.spans)} spans) to {args.chrome}")
    return 0


def _iter_ingest_batches(args):
    """Yield read batches (a code matrix or 1-D code arrays) for `dakc ingest`."""
    if args.dataset:
        from .bench.workloads import build_workload

        reads = build_workload(args.dataset, args.k, budget_kmers=args.budget).reads
        for lo in range(0, reads.shape[0], args.batch_records):
            yield reads[lo:lo + args.batch_records]
        return
    import numpy as np

    from .seq.fastx import read_fastx_batches

    for codes, offsets in read_fastx_batches(args.input,
                                             batch_records=args.batch_records):
        yield np.split(codes, offsets[1:-1])


def _cmd_ingest(args) -> int:
    from .lsm import LsmConfig, LsmStore

    config = LsmConfig(
        memtable_bytes=int(args.memtable_mb * (1 << 20)),
        max_runs=args.max_runs,
        fan_in=args.max_runs,
        canonical=args.canonical,
        auto_compact=not args.no_compact,
    )
    with LsmStore(args.store, args.k, config=config) as store:
        n = 0
        for batch in _iter_ingest_batches(args):
            n += store.ingest(batch)
        if args.flush:
            store.flush()
            if not args.no_compact:
                store.compact()
        info = store.describe()
        print(f"# store:      {args.store}  (k={store.k}, "
              f"canonical={store.config.canonical})")
        print(f"# ingested:   {n:,} records "
              f"({store.stats.batches_ingested} WAL batches)")
        print(f"# memtable:   {info['memtable']['n_distinct']:,} distinct, "
              f"{info['memtable']['nbytes']:,} / "
              f"{info['memtable']['budget_bytes']:,} bytes")
        print(f"# runs:       {store.n_runs}  "
              f"({store.stats.flushes} flushes, "
              f"{store.stats.compactions} compactions this session)")
        for run in info["runs"]:
            print(f"#   {run['name']}: {run['n_keys']:,} keys, "
                  f"{run['nbytes']:,} bytes")
        print(f"# wal:        seq {info['wal']['last_seq']} "
              f"(applied {info['wal']['applied_seq']}), "
              f"{info['wal']['nbytes']:,} bytes")
        print(f"# total occurrences: {store.total:,}")
    return 0


def _cmd_ooc_count(args) -> int:
    from .api import load_reads, resolve_machine
    from .ooc import OocCountStats, ooc_count
    from .runtime.cost import CostModel
    from .runtime.stats import PEStats

    k = args.k
    if args.dataset:
        from .bench.workloads import build_workload

        w = build_workload(args.dataset, k, budget_kmers=args.budget,
                           seed=args.seed)
        reads = [w.reads[i] for i in range(w.reads.shape[0])]
        source = args.dataset
    else:
        reads = load_reads(args.input)
        source = args.input

    ceiling = int(args.memory_mb * (1 << 20))
    cost = CostModel(resolve_machine(args.machine, 1))
    pe = PEStats(0)
    stats = OocCountStats()

    store = None
    if args.store is not None:
        from .lsm import LsmConfig, LsmStore

        store = LsmStore(args.store, k, config=LsmConfig(
            memtable_bytes=ceiling, canonical=args.canonical))
    try:
        counts = ooc_count(
            reads, k, n_bins=args.n_bins, memory_bytes=ceiling,
            workdir=args.workdir, canonical=args.canonical, store=store,
            cost=cost, pe_stats=pe, stats=stats)
        store_doc = None if store is None else store.describe()
    finally:
        if store is not None:
            store.close()

    verified = None
    if args.verify:
        from .core.serial import serial_count

        verified = counts == serial_count(reads, k, canonical=args.canonical)

    m = cost.machine
    disk_time = (pe.disk_ops * m.disk_latency
                 + (pe.disk_bytes_written + pe.disk_bytes_read)
                 / cost.pe_disk_bw)
    print(f"# source:     {source}  ({stats.n_reads:,} reads, "
          f"{stats.n_kmers:,} k-mers, k={k})")
    print(f"# ceiling:    {ceiling:,} bytes ({stats.n_slices} slices)")
    print(f"# runs:       {stats.n_scratch_runs} scratch runs written, "
          f"{stats.n_merges} merges (fan-in {args.n_bins})")
    print(f"# disk:       {stats.bytes_spilled:,} B spilled, "
          f"{stats.bytes_reread:,} B reread "
          f"(beta_disk {m.beta_disk / 1e9:.1f} GB/s -> "
          f"{disk_time * 1e3:.3f} ms charged)")
    print(f"# result:     {counts.n_distinct:,} distinct, "
          f"{counts.total:,} occurrences")
    if store_doc is not None:
        print(f"# store:      {args.store}  "
              f"({store_doc['stats']['bulk_loads']} bulk loads, "
              f"{store_doc['stats']['flushes']} flushes, "
              f"{store_doc['stats']['compactions']} compactions, "
              f"{len(store_doc['runs'])} runs)")
    if verified is not None:
        print(f"# verify:     {'bit-identical to in-memory count' if verified else 'MISMATCH vs in-memory count'}")
    if args.json:
        doc = {
            "source": source, "k": k, "n_bins": args.n_bins,
            "ceiling_bytes": ceiling, "machine": args.machine,
            "spill": stats.to_doc(),
            "disk_time_s": disk_time,
            "n_distinct": counts.n_distinct, "total": counts.total,
            "store": store_doc, "verified": verified,
        }
        _write_json(args.json, doc, "run report")
    return 0 if verified in (None, True) else 1


def _cmd_compact(args) -> int:
    from .lsm import LsmConfig, LsmStore

    config = LsmConfig(max_runs=args.max_runs, fan_in=args.fan_in,
                       auto_compact=False)
    with LsmStore(args.store, config=config) as store:
        before = store.n_runs
        if args.flush:
            store.flush()
        merges = store.compact()
        print(f"# store:   {args.store}  (k={store.k})")
        print(f"# runs:    {before} -> {store.n_runs} "
              f"({merges} merges, {store.stats.runs_merged} runs rewritten)")
        for run in store.runs:
            print(f"#   {run.path.name}: {run.n_keys:,} keys, "
                  f"{run.nbytes:,} bytes")
    return 0


def _cmd_datasets(_args) -> int:
    from .bench.tables import print_table
    from .seq.datasets import table5_rows

    print_table(table5_rows(), title="Table V: Datasets Used in Experiments")
    return 0


def _cmd_model(args) -> int:
    from .api import resolve_machine
    from .bench.tables import format_time, print_table
    from .model.analytical import predict
    from .model.roofline import roofline_point
    from .seq.datasets import get_spec

    spec = get_spec(args.dataset)
    machine = resolve_machine(args.machine, args.nodes)
    pred = predict(spec.n_reads, spec.read_len, args.k, machine)
    rows = [
        {"phase": "1 (generate+reshuffle)",
         "compute": format_time(pred.phase1.t_comp),
         "intranode": format_time(pred.phase1.t_intra),
         "internode": format_time(pred.phase1.t_inter),
         "total(sum)": format_time(pred.phase1.total("sum"))},
        {"phase": "2 (sort+accumulate)",
         "compute": format_time(pred.phase2.t_comp),
         "intranode": format_time(pred.phase2.t_intra),
         "internode": format_time(pred.phase2.t_inter),
         "total(sum)": format_time(pred.phase2.total("sum"))},
    ]
    print_table(rows, title=f"Analytical model: {spec.display} @ {args.nodes} nodes")
    print(f"T_total (sum model): {format_time(pred.t_total('sum'))}")
    print(f"T_total (max model): {format_time(pred.t_total('max'))}")
    shares = pred.breakdown()
    print("Breakdown: " + ", ".join(f"{k} {100 * v:.1f}%" for k, v in shares.items()))
    roof = roofline_point(spec.n_reads, spec.read_len, args.k, machine)
    print(
        f"Operational intensity: {roof.intensity:.3f} iadd64/B "
        f"(machine balance {roof.machine_balance:.2f}) -> {roof.bound}-bound"
    )
    return 0


def _cmd_bench(args) -> int:
    from .bench.experiments import (
        experiment_parameters,
        list_experiments,
        run_experiment,
    )

    if args.experiment == "list":
        for exp in list_experiments():
            print(exp)
        return 0
    given = {name: value for name in ("budget", "seed")
             if (value := getattr(args, name)) is not None}
    if args.experiment != "all":
        # Exactly the body: `dakc bench fig7 > benchmarks/results/fig7.txt`
        # refreshes a committed record.
        sys.stdout.write(run_experiment(args.experiment, **given).render())
        return 0
    for exp_id in list_experiments():
        # Not every experiment has a budget or a seed (closed forms).
        accepted = experiment_parameters(exp_id)
        kwargs = {name: value for name, value in given.items() if name in accepted}
        print(run_experiment(exp_id, **kwargs).render())
    return 0


def _cmd_simulate(args) -> int:
    from .seq.datasets import materialize
    from .seq.fastx import write_fastq
    from .seq.readsim import reads_to_records

    w = materialize(args.dataset, fidelity=args.fidelity, seed=args.seed)
    n = write_fastq(args.output, reads_to_records(w.reads))
    print(f"wrote {n} reads ({w.read_len} bp, genome {w.genome_len} b) to {args.output}")
    return 0


def _cmd_dst_run(args) -> int:
    from .dst.runner import dst_run, format_dst_report

    report = dst_run(budget=args.budget, seed=args.seed,
                     shrink=not args.no_shrink, out_dir=args.out)
    print(format_dst_report(report))
    if args.json:
        _write_json(args.json, report.to_doc(), "campaign report", sort_keys=True)
    return 0 if report.ok else 1


def _cmd_dst_replay(args) -> int:
    from .dst.bundle import load_bundle, replay_bundle

    bundle = load_bundle(args.bundle)
    trajectory = replay_bundle(bundle)
    reproduced = (not bundle.invariant
                  or any(v.invariant == bundle.invariant
                         for v in trajectory.violations))
    same_digest = (not bundle.digest or trajectory.digest == bundle.digest)
    print(f"# schedule: {bundle.schedule.describe()}")
    print(f"# digest: {trajectory.digest}"
          + ("" if same_digest else f" (bundle recorded {bundle.digest})"))
    for v in trajectory.violations:
        print(f"[{v.layer}/{v.invariant}] {v.detail}")
    if not trajectory.violations:
        print("no violations: the recorded failure no longer reproduces")
    print(f"verdict: {'REPRODUCED' if reproduced and same_digest else 'CHANGED'}")
    return 0 if reproduced and same_digest else 1


def _database_or_replica(args):
    """Load ``--database``, else count the ``--dataset`` replica."""
    if args.database:
        from .apps.store import load_database

        return load_database(args.database), args.database
    from .bench.workloads import build_workload
    from .core.serial import serial_count

    w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
    return serial_count(w.reads, args.k), f"{w.spec.display} (replica)"


def _cmd_trace_record(args) -> int:
    import dataclasses

    from .serve import BurstSpec, run_serve_bench
    from .trace import TraceRecorder, save_trace

    kc, source = _database_or_replica(args)
    burst = None
    if args.burst_amplitude > 1.0:
        burst = BurstSpec(amplitude=args.burst_amplitude,
                          duration=args.burst_duration,
                          period=args.burst_period)
    recorder = TraceRecorder(k=kc.k, seed=args.seed,
                             source=f"trace record seed={args.seed}")
    result = run_serve_bench(
        kc, n_queries=args.queries, n_shards=args.shards,
        zipf_s=args.zipf, seed=args.seed,
        miss_fraction=args.miss_fraction,
        cache_capacity=args.cache_capacity,
        cache_threshold=args.cache_threshold,
        burst=burst, recorder=recorder,
    )
    trace = dataclasses.replace(recorder.snapshot(), meta={"cache": {
        "capacity": args.cache_capacity,
        "admit_threshold": args.cache_threshold}})
    save_trace(args.out, trace)
    tiers = trace.tier_counts()
    print(f"# database:  {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
    print(f"# recorded:  {trace.n_records:,} records over "
          f"{trace.duration:.3f} s  (answers match: "
          f"{result.answers_match})")
    print(f"# answered:  cache {tiers['t1']:,}  store {tiers['store']:,}")
    print(f"# wrote trace to {args.out}")
    return 0 if result.answers_match else 1


def _trace_admit_threshold(trace) -> int:
    """The admission threshold of the cache a trace was recorded
    through (``meta["cache"]``, written by ``trace record``); a trace
    without one is modelled at ``HotKeyCache``'s default of 1."""
    return int(trace.meta.get("cache", {}).get("admit_threshold", 1))


def _cmd_trace_profile(args) -> int:
    import numpy as np

    from .trace import load_trace, measured_miss_ratio_curve
    from .trace.bench import curve_capacities

    trace = load_trace(args.trace)
    d = trace.describe()
    caps = (np.array([int(c) for c in args.capacities.split(",")
                      if c.strip()], dtype=np.int64)
            if args.capacities else curve_capacities(d["n_distinct"]))
    threshold = _trace_admit_threshold(trace)
    miss = measured_miss_ratio_curve(trace.keys, caps,
                                     admit_threshold=threshold)
    doc = {"trace": d, "admit_threshold": threshold,
           "capacities": caps.tolist(), "miss_ratio": miss.tolist(),
           "hit_ratio": (1.0 - miss).tolist()}
    print(f"# trace:     {args.trace}  ({d['n_records']:,} records, "
          f"{d['n_distinct']:,} distinct keys, k={d['k']})")
    print(f"# cache:     HotKeyCache, admit_threshold={threshold}")
    print(f"# cold miss floor: {d['n_distinct'] / max(d['n_records'], 1):.1%}")
    print("# capacity   miss-ratio")
    for cap, ratio in zip(caps.tolist(), miss.tolist()):
        print(f"  {cap:>8}   {ratio:>10.4f}")
    if args.json:
        _write_json(args.json, doc, "profile document")
    return 0


def _cmd_trace_replay(args) -> int:
    from .serve import ShardedStore
    from .trace import load_trace, replay_trace

    trace = load_trace(args.trace)
    kc, source = _database_or_replica(args)
    store = ShardedStore.from_counts(kc, args.shards)
    result = replay_trace(
        trace, store, cache_capacity=args.cache_capacity,
        cache_threshold=args.cache_threshold, tick=args.tick,
        group_size=args.group_size, concurrency=args.concurrency,
    )
    snap = result.metrics.snapshot()
    print(f"# trace:     {args.trace}  ({trace.n_records:,} records)")
    print(f"# database:  {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
    print(f"# replayed:  {result.n_groups} arrival groups at "
          f"{snap['throughput_qps']:,.0f} qps")
    print(f"# cache hit rate: {snap['cache']['hit_rate']:.1%}")
    print(f"# answers bit-identical to scalar oracle: "
          f"{result.answers_match}")
    if args.json:
        _write_json(args.json, result.to_doc(), "replay document")
    if not result.answers_match:
        print("error: replayed answers diverged from the scalar oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_trace_sample(args) -> int:
    import numpy as np

    from .trace import load_trace, save_trace, spatial_sample, temporal_sample

    trace = load_trace(args.trace)
    if (args.rate is None) == (args.window is None):
        raise ValueError("pick one: --rate (spatial) or --window/--every "
                         "(temporal)")
    if args.check and args.rate is None:
        raise ValueError("--check needs --rate: a temporal sample has no "
                         "error bound")
    if args.rate is not None:
        sampled = spatial_sample(trace, args.rate, salt=args.salt)
        kind = f"spatial rate={args.rate} salt={args.salt}"
    else:
        if args.every is None:
            raise ValueError("--window needs --every")
        sampled = temporal_sample(trace, window=args.window, every=args.every)
        kind = f"temporal {args.window}s/{args.every}s"
    save_trace(args.out, sampled)
    kept = sampled.n_records / max(trace.n_records, 1)
    print(f"# sampled:   {kind}")
    print(f"# kept:      {sampled.n_records:,} / {trace.n_records:,} "
          f"records ({kept:.1%})")
    print(f"# wrote sampled trace to {args.out}")
    if not args.check:
        return 0
    from .trace import measured_miss_ratio_curve, pooled_miss_ratio_curve
    from .trace.bench import SAMPLE_ERROR_BOUND_PP, curve_capacities

    # trace-bench's model: four salts (0-3) pooled, as its default
    # sample_salts, on its capacity grid, at the recorded threshold.
    caps = curve_capacities(int(np.unique(trace.keys).size))
    threshold = _trace_admit_threshold(trace)
    full = measured_miss_ratio_curve(trace.keys, caps,
                                     admit_threshold=threshold)
    est = pooled_miss_ratio_curve(trace, args.rate, caps,
                                  admit_threshold=threshold)
    err = float(np.abs(est - full).max()) * 100
    ok = err <= SAMPLE_ERROR_BOUND_PP
    print(f"# miniature-vs-full miss-ratio error at admit_threshold="
          f"{threshold}: {err:.2f} pp "
          f"(bound {SAMPLE_ERROR_BOUND_PP:g} pp: "
          f"{'ok' if ok else 'FAILED'}; capacities {caps.tolist()})")
    return 0 if ok else 1


def _xp_load_spec(args):
    """Load the spec named by *args* and apply CLI overrides."""
    import dataclasses
    import json

    from .xp import RepetitionPolicy, load_spec

    spec = load_spec(args.spec)
    if args.quick:
        # Quick runs shrink the policy and never reach the ledger; an
        # explicit --repetitions/--warmup still wins below.
        spec = dataclasses.replace(spec, policy=RepetitionPolicy(
            warmup=0, repetitions=min(spec.policy.repetitions, 2)))
        args.no_ledger = True
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    if args.repetitions is not None or args.warmup is not None:
        policy = RepetitionPolicy(
            warmup=args.warmup if args.warmup is not None
            else spec.policy.warmup,
            repetitions=args.repetitions if args.repetitions is not None
            else spec.policy.repetitions,
        )
        spec = dataclasses.replace(spec, policy=policy)
    if args.overrides:
        fixed = dict(spec.fixed)
        for item in args.overrides:
            key, sep, raw = item.partition("=")
            if not sep:
                raise ValueError(f"--set needs KEY=VALUE, got {item!r}")
            try:
                fixed[key] = json.loads(raw)
            except json.JSONDecodeError:
                fixed[key] = raw  # a bare string (a path); the target checks its type
        spec = dataclasses.replace(spec, fixed=fixed)
    return spec


def _xp_ledger(args):
    from .xp import Ledger
    from .xp.ledger import DEFAULT_LEDGER_DIR

    return Ledger(args.ledger or DEFAULT_LEDGER_DIR)


def _cmd_xp_run(args) -> int:
    from .xp import format_envelope, run_spec

    envelope = run_spec(_xp_load_spec(args), progress=print)
    print(format_envelope(envelope))
    if not args.no_ledger:
        print(f"# ledger entry: {_xp_ledger(args).append(envelope)}")
    if args.json:
        _write_json(args.json, envelope, "envelope")
    if not envelope["ok"]:
        for cell in envelope["cells"]:
            for name, passed in sorted(cell["checks"].items()):
                if not passed:
                    kind = "cost" if name in cell["cost_checks"] else "answer"
                    print(f"error: {kind} check failed: {name} "
                          f"(cell {cell['cell_id'] or 'default'})", file=sys.stderr)
        return 1
    return 0


def _cmd_xp_gate(args) -> int:
    from .xp import format_gate, gate_envelopes, run_spec

    ledger = _xp_ledger(args)
    spec = _xp_load_spec(args)
    if args.current:
        envelope = ledger.load(args.current)
    else:
        envelope = run_spec(spec, progress=print)
    baseline = (ledger.load(args.baseline) if args.baseline
                else ledger.baseline(spec.experiment))
    if baseline is None:
        print(f"# no ledger baseline for {spec.experiment!r}; "
              f"recording this run as the first entry")
        if not args.no_ledger and not args.current:
            print(f"# ledger entry: {ledger.append(envelope)}")
        return 0
    result = gate_envelopes(baseline, envelope, alpha=args.alpha,
                            min_effect=args.min_effect)
    print(format_gate(result))
    if args.json:
        _write_json(args.json, result.to_doc(), "gate verdict")
    # A regressed run never silently becomes the next baseline.
    if not args.no_ledger and not args.current and (
            result.ok or args.report_only):
        print(f"# ledger entry: {ledger.append(envelope)}")
    if not result.ok and not args.report_only:
        print("error: statistically significant regression",
              file=sys.stderr)
        return 1
    return 0


def _cmd_xp_report(args) -> int:
    from .xp import format_claims, format_trajectory

    ledger = _xp_ledger(args)
    if args.experiment:
        print(format_trajectory(ledger, args.experiment))
        latest = ledger.latest(args.experiment)
        if latest and latest["target"] == "paper":
            print(format_claims(latest))
        return 0
    experiments = ledger.experiments()
    if not experiments:
        print(f"# empty ledger at {ledger.root}")
        return 0
    for exp in experiments:
        print(f"{exp}  ({len(ledger.entries(exp))} entries)")
    return 0


def _cmd_xp_list(args) -> int:
    import textwrap
    from pathlib import Path

    from .xp.targets import list_targets

    ledger = _xp_ledger(args)
    print("# targets, each with the parameters a spec or --set may name "
          "(and their defaults; every target also takes seed):")
    for target in list_targets():
        print(f"  {target.name:<20} {target.description}")
        print(textwrap.indent(textwrap.fill("  ".join(
            f"{key}={default!r}" for key, default in target.defaults().items()
            if key != "seed"), width=72), " " * 6))
    specs_dir = Path(args.specs)
    specs = sorted(specs_dir.glob("*.json")) if specs_dir.is_dir() else []
    print(f"# specs in {specs_dir}:")
    for path in specs:
        print(f"  {path}")
    if not specs:
        print("  (none)")
    print(f"# ledger experiments in {ledger.root}:")
    for exp in ledger.experiments() or ["(none)"]:
        print(f"  {exp}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
