"""Command-line interface: ``dakc`` / ``python -m repro``.

Subcommands:

* ``count``    — count k-mers in a FASTA/FASTQ file (or a generated
  dataset replica) with any algorithm and print a summary/spectrum.
* ``datasets`` — print Table V (the dataset inventory).
* ``model``    — evaluate the analytical model for a dataset/machine.
* ``bench``    — regenerate a paper table, figure, ablation or
  extension by id (``fig7``, ``table5``, ``ablation-sort``, ...), or ``all``.
* ``simulate`` — generate a synthetic FASTQ replica to disk.
* ``chaos``    — fault-injection campaign: DAKC on a lossy fabric with
  the reliability/checkpoint layer, validated against the serial oracle.
* ``serve-bench`` — query-serving benchmark: the sharded/batched/cached
  read path vs. naive per-query lookups on a Zipf workload (optionally
  over a live LSM store).
* ``cluster-bench`` — replicated serving-cluster benchmark: router
  overhead, hedged-request tail latency under a straggler, and the
  RF=2 chaos proof (node kill + live rebalance, bit-exact answers).
* ``tenant-bench`` — multi-tenant QoS benchmark: an antagonist floods
  the engine while a paced victim measures p99; quotas + DRR isolation
  on vs. unbounded off, plus the fairness and autoscaler proofs.
* ``ingest``   — durably append reads into an updatable LSM k-mer
  store (WAL + memtable + sorted runs).
* ``compact``  — merge an LSM store's runs down to the configured
  read-amplification bound.
* ``trace``    — query-trace tooling (repro.trace): ``record`` a served
  workload, ``profile`` its exact LRU miss-ratio curve, ``sample`` it
  spatially/temporally, ``replay`` it bit-identically.
* ``xp``       — declarative experiments (repro.xp): ``run`` a spec's
  sweep under its warmup/repetition policy, ``gate`` it against the
  ledger baseline with Mann-Whitney + minimum-effect thresholds,
  ``report`` the cross-PR trajectory in the versioned ledger.
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

    p_count = sub.add_parser("count", help="count k-mers in a FASTX file or dataset")
    src = p_count.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="FASTA/FASTQ file path")
    src.add_argument("--dataset", help="Table V dataset key (e.g. synthetic-24)")
    p_count.add_argument("-k", type=int, default=31, help="k-mer length (default 31)")
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
    p_count.add_argument("--budget", type=int, default=400_000,
                         help="replica k-mer budget when using --dataset")
    p_count.add_argument("--top", type=int, default=0,
                         help="print the N most frequent k-mers")
    p_count.add_argument("--spectrum", type=int, default=0,
                         help="print the k-mer spectrum up to this count")
    p_count.add_argument("--output", help="write counts as TSV to this path")
    p_count.add_argument("--save", help="write counts as a binary database (e.g. counts.kdb)")

    sub.add_parser("datasets", help="print Table V")

    p_model = sub.add_parser("model", help="evaluate the analytical model (Sec. V)")
    p_model.add_argument("--dataset", default="synthetic-30")
    p_model.add_argument("-k", type=int, default=31)
    p_model.add_argument("--nodes", type=int, default=32)
    p_model.add_argument("--machine", default="phoenix-intel")

    p_bench = sub.add_parser("bench", help="regenerate a paper table/figure")
    p_bench.add_argument("experiment", help="experiment id (fig1..fig13, "
                         "table2..table5, ablation-*, ext-*) or 'all' or 'list'")
    p_bench.add_argument("--budget", type=int, default=None,
                         help="override the replica k-mer budget")
    p_bench.add_argument("--seed", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="write a synthetic FASTQ replica")
    p_sim.add_argument("--dataset", default="synthetic-20")
    p_sim.add_argument("--fidelity", type=float, default=2**-10)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", required=True, help="FASTQ output path")

    p_an = sub.add_parser("analyze", help="spectrum analysis of a count database")
    p_an.add_argument("database", help="database written by `count --save` or a .tsv[.gz] dump")
    p_an.add_argument("--max-count", type=int, default=1000)

    p_cmp = sub.add_parser("compare", help="compare two count databases")
    p_cmp.add_argument("a", help="first database (binary or .tsv[.gz])")
    p_cmp.add_argument("b", help="second database (binary or .tsv[.gz])")

    p_sw = sub.add_parser("sweep", help="custom strong-scaling sweep")
    p_sw.add_argument("--dataset", default="synthetic-26")
    p_sw.add_argument("-k", type=int, default=31)
    p_sw.add_argument("--algorithms", default="dakc,pakman*,hysortk",
                      help="comma-separated algorithm list")
    p_sw.add_argument("--nodes", default="1,2,4,8,16",
                      help="comma-separated node counts")
    p_sw.add_argument("--budget", type=int, default=200_000)
    p_sw.add_argument("--plot", action="store_true", help="ASCII log-log chart")

    p_cal = sub.add_parser("calibrate",
                           help="microbenchmark this host into a machine config")
    p_cal.add_argument("--cores", type=int, default=8,
                       help="core count to assume for node-level rates")
    p_cal.add_argument("--quick", action="store_true",
                       help="small measurement sizes (noisy, fast)")

    p_chaos = sub.add_parser(
        "chaos",
        help="fault-injection campaign: DAKC under a lossy fabric, "
        "validated against the serial oracle",
    )
    p_chaos.add_argument("--dataset", default="synthetic-20",
                         help="Table V dataset key for the replica workload")
    p_chaos.add_argument("-k", type=int, default=31)
    p_chaos.add_argument("--nodes", type=int, default=2)
    p_chaos.add_argument("--machine", default="laptop",
                         help="machine preset (phoenix-intel|phoenix-amd|laptop)")
    p_chaos.add_argument("--protocol", default="1D",
                         help="Conveyors topology (1D|2D|3D)")
    p_chaos.add_argument("--budget", type=int, default=100_000,
                         help="replica k-mer budget")
    p_chaos.add_argument("--drop", default="0.01,0.05",
                         help="comma-separated drop probabilities to sweep")
    p_chaos.add_argument("--duplicate", type=float, default=0.01,
                         help="duplication probability")
    p_chaos.add_argument("--corrupt", type=float, default=0.005,
                         help="payload bit-flip probability")
    p_chaos.add_argument("--delay", type=float, default=0.0,
                         help="delivery delay probability")
    p_chaos.add_argument("--crash", default="",
                         help="comma-separated PE indices to crash at the "
                         "phase boundary (checkpoint/restart protects them)")
    p_chaos.add_argument("--straggler", default="",
                         help="comma-separated PE indices running slow")
    p_chaos.add_argument("--straggler-factor", type=float, default=2.0,
                         help="clock dilation of straggler PEs (>= 1)")
    p_chaos.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve-bench",
        help="query-serving benchmark: naive scalar lookups vs. the "
        "sharded/batched/cached engine on a Zipf workload",
    )
    serve_src = p_serve.add_mutually_exclusive_group()
    serve_src.add_argument("--database", help="count database (counts.kdb) to serve "
                           "(written by `count --save`)")
    serve_src.add_argument("--dataset", default="synthetic-20",
                           help="Table V dataset key to count and serve")
    serve_src.add_argument("--lsm-store", help="serve a live LSM store "
                           "directory (written by `dakc ingest`)")
    p_serve.add_argument("-k", type=int, default=15, help="k-mer length")
    p_serve.add_argument("--budget", type=int, default=100_000,
                         help="replica k-mer budget when using --dataset")
    p_serve.add_argument("--queries", type=int, default=40_000,
                         help="queries in the generated stream")
    p_serve.add_argument("--shards", type=int, default=8,
                         help="virtual shards (splitmix64-partitioned)")
    p_serve.add_argument("--zipf", type=float, default=1.1,
                         help="Zipf exponent of key popularity")
    p_serve.add_argument("--miss-fraction", type=float, default=0.02,
                         help="fraction of queries for absent keys")
    p_serve.add_argument("--batch-size", type=int, default=256,
                         help="micro-batch coalescing target (keys)")
    p_serve.add_argument("--batch-window", type=float, default=5e-4,
                         help="seconds a partial batch waits for company")
    p_serve.add_argument("--max-inflight", type=int, default=8192,
                         help="admission bound in keys (backpressure)")
    p_serve.add_argument("--cache-capacity", type=int, default=4096,
                         help="hot-key cache slots (0 disables the cache)")
    p_serve.add_argument("--cache-threshold", type=int, default=2,
                         help="sightings before a key earns a cache slot")
    p_serve.add_argument("--t2-capacity", type=int, default=0,
                         help="second cache tier slots (0 = single tier; "
                         "t2 hits charge a simulated device latency)")
    p_serve.add_argument("--group-size", type=int, default=256,
                         help="keys per client arrival group")
    p_serve.add_argument("--concurrency", type=int, default=8,
                         help="client groups kept in flight")
    _add_burst_args(p_serve)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--json", help="write the metrics snapshot here")
    p_serve.add_argument("--trace-out",
                         help="record the engine's query trace here (.npz)")

    p_ten = sub.add_parser(
        "tenant-bench",
        help="multi-tenant QoS benchmark: antagonist floods, victim "
        "measures p99 — quota/DRR isolation on vs. unbounded off",
    )
    ten_src = p_ten.add_mutually_exclusive_group()
    ten_src.add_argument("--database", help="count database (counts.kdb) to serve "
                         "(written by `count --save`)")
    ten_src.add_argument("--dataset", default="synthetic-20",
                         help="Table V dataset key to count and serve")
    p_ten.add_argument("-k", type=int, default=15, help="k-mer length")
    p_ten.add_argument("--budget", type=int, default=100_000,
                       help="replica k-mer budget when using --dataset")
    p_ten.add_argument("--victim-groups", type=int, default=400,
                       help="timed victim arrival groups")
    p_ten.add_argument("--victim-group", type=int, default=32,
                       help="keys per victim group")
    p_ten.add_argument("--victim-interval", type=float, default=15e-3,
                       help="seconds between victim arrivals (open loop)")
    p_ten.add_argument("--victim-slo-ms", type=float, default=100.0,
                       help="victim latency SLO target (ms)")
    p_ten.add_argument("--antag-batch", type=int, default=256,
                       help="keys per antagonist batch")
    p_ten.add_argument("--flooders", type=int, default=16,
                       help="concurrent antagonist flooder tasks")
    p_ten.add_argument("--antag-rate", type=float, default=32.0,
                       help="antagonist quota refill rate (keys/s) when "
                       "isolation is on")
    p_ten.add_argument("--shards", type=int, default=2,
                       help="engine shards")
    p_ten.add_argument("--zipf", type=float, default=1.1,
                       help="Zipf exponent of key popularity")
    p_ten.add_argument("--autoscale-nodes", type=int, default=3,
                       help="starting cluster size for the autoscaler demo")
    p_ten.add_argument("--quick", action="store_true",
                       help="smoke-test sizes (CI): fewer groups, shorter "
                       "flushes")
    p_ten.add_argument("--seed", type=int, default=0)
    p_ten.add_argument("--json", help="write the full result document here")

    p_cl = sub.add_parser(
        "cluster-bench",
        help="replicated serving cluster: router overhead, hedged "
        "tail latency under a straggler, and the RF=2 chaos proof",
    )
    cl_src = p_cl.add_mutually_exclusive_group()
    cl_src.add_argument("--database", help="count database (counts.kdb) to serve "
                        "(written by `count --save`)")
    cl_src.add_argument("--dataset", default="synthetic-20",
                        help="Table V dataset key to count and serve")
    p_cl.add_argument("-k", type=int, default=15, help="k-mer length")
    p_cl.add_argument("--budget", type=int, default=100_000,
                      help="replica k-mer budget when using --dataset")
    p_cl.add_argument("--cluster-nodes", type=int, default=6,
                      help="cluster members (each holds an rf/N slice)")
    p_cl.add_argument("--rf", type=int, default=2,
                      help="replication factor (copies of every key)")
    p_cl.add_argument("--vnodes", type=int, default=16,
                      help="virtual nodes (ring tokens) per member")
    p_cl.add_argument("--queries", type=int, default=30_000,
                      help="queries in the generated Zipf stream")
    p_cl.add_argument("--zipf", type=float, default=1.1,
                      help="Zipf exponent of key popularity")
    p_cl.add_argument("--miss-fraction", type=float, default=0.02,
                      help="fraction of queries for absent keys")
    p_cl.add_argument("--group-size", type=int, default=256,
                      help="keys per client batch")
    p_cl.add_argument("--concurrency", type=int, default=8,
                      help="client batches kept in flight")
    p_cl.add_argument("--service-time", type=float, default=2e-4,
                      help="simulated seconds per node batch lookup")
    p_cl.add_argument("--straggler-delay", type=float, default=2e-2,
                      help="dilated service time of the injected straggler")
    p_cl.add_argument("--chunk-keys", type=int, default=2048,
                      help="keys per rebalance copy chunk")
    p_cl.add_argument("--repeats", type=int, default=3,
                      help="best-of repeats for the overhead section")
    _add_burst_args(p_cl)
    p_cl.add_argument("--seed", type=int, default=0)
    p_cl.add_argument("--json", help="write the benchmark document here")
    p_cl.add_argument("--trace-out",
                      help="record the routed query trace here (.npz)")

    p_ing = sub.add_parser(
        "ingest",
        help="durably append reads into an updatable LSM k-mer store",
    )
    p_ing.add_argument("--store", required=True,
                       help="store directory (created on first use)")
    ing_src = p_ing.add_mutually_exclusive_group(required=True)
    ing_src.add_argument("--input", help="FASTA/FASTQ file to ingest")
    ing_src.add_argument("--dataset", help="Table V dataset key to ingest "
                         "as a generated replica")
    p_ing.add_argument("-k", type=int, default=31,
                       help="k-mer length (checked against the store)")
    p_ing.add_argument("--budget", type=int, default=100_000,
                       help="replica k-mer budget when using --dataset")
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

    p_cpt = sub.add_parser(
        "compact",
        help="merge an LSM store's runs down to the configured bound",
    )
    p_cpt.add_argument("--store", required=True, help="store directory")
    p_cpt.add_argument("--max-runs", type=int, default=8,
                       help="run-count bound to compact down to")
    p_cpt.add_argument("--fan-in", type=int, default=8,
                       help="runs merged per compaction step")
    p_cpt.add_argument("--flush", action="store_true",
                       help="flush the memtable to a run first")

    p_ooc = sub.add_parser(
        "ooc-count",
        help="two-pass out-of-core count under a hard memory ceiling "
             "(repro.ooc)",
    )
    ooc_src = p_ooc.add_mutually_exclusive_group(required=True)
    ooc_src.add_argument("--input", help="FASTA/FASTQ file to count")
    ooc_src.add_argument("--dataset", help="Table V dataset key to count "
                         "as a generated replica")
    p_ooc.add_argument("-k", type=int, default=31, help="k-mer length")
    p_ooc.add_argument("-w", type=int, default=None,
                       help="minimizer length (default min(k, 7))")
    p_ooc.add_argument("--n-bins", type=int, default=64,
                       help="minimizer-partitioned spill bins")
    p_ooc.add_argument("--memory-mb", type=float, default=1.0,
                       help="hard memory ceiling for pass-1 buffering "
                            "(and the fused store's memtable budget)")
    p_ooc.add_argument("--budget", type=int, default=100_000,
                       help="replica k-mer budget when using --dataset")
    p_ooc.add_argument("--seed", type=int, default=0,
                       help="replica seed when using --dataset")
    p_ooc.add_argument("--canonical", action="store_true",
                       help="count canonical (strand-folded) k-mers")
    p_ooc.add_argument("--store", default=None,
                       help="fuse counted bins into this LSM store directory")
    p_ooc.add_argument("--workdir", default=None,
                       help="spill-bin directory (default: private tempdir)")
    p_ooc.add_argument("--keep-bins", action="store_true",
                       help="leave spill bins on disk after pass 2")
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
    p_dst_run = dst_sub.add_parser(
        "run", help="fuzz one campaign of schedules and check invariants")
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
    p_dst_replay = dst_sub.add_parser(
        "replay", help="re-run a repro bundle and verify the violation")
    p_dst_replay.add_argument("bundle", help="path to a dst repro bundle")
    p_dst_sweep = dst_sub.add_parser(
        "sweep", help="one campaign per root seed")
    p_dst_sweep.add_argument("--seeds", default="0,1,2",
                             help="comma-separated campaign root seeds")
    p_dst_sweep.add_argument("--budget", type=int, default=100,
                             help="schedules per campaign")
    p_dst_sweep.add_argument("--out", default=None,
                             help="directory for shrunk repro bundles")

    p_tr = sub.add_parser(
        "trace",
        help="query-trace capture, reuse-distance cache modelling, "
             "sampling, and deterministic replay (repro.trace)",
    )
    tr_sub = p_tr.add_subparsers(dest="trace_command", required=True)

    p_tr_rec = tr_sub.add_parser(
        "record", help="serve a Zipf(+burst) stream and record its trace")
    tr_src = p_tr_rec.add_mutually_exclusive_group()
    tr_src.add_argument("--database", help="count database (counts.kdb) to serve")
    tr_src.add_argument("--dataset", default="synthetic-20",
                        help="Table V dataset key to count and serve")
    p_tr_rec.add_argument("-k", type=int, default=15, help="k-mer length")
    p_tr_rec.add_argument("--budget", type=int, default=100_000,
                          help="replica k-mer budget when using --dataset")
    p_tr_rec.add_argument("--queries", type=int, default=40_000)
    p_tr_rec.add_argument("--shards", type=int, default=8)
    p_tr_rec.add_argument("--zipf", type=float, default=1.1)
    p_tr_rec.add_argument("--miss-fraction", type=float, default=0.02)
    p_tr_rec.add_argument("--cache-capacity", type=int, default=4096,
                          help="t1 cache slots (0 disables the cache)")
    p_tr_rec.add_argument("--cache-threshold", type=int, default=2)
    p_tr_rec.add_argument("--t2-capacity", type=int, default=0,
                          help="second cache tier slots (0 = single tier)")
    _add_burst_args(p_tr_rec)
    p_tr_rec.add_argument("--seed", type=int, default=0)
    p_tr_rec.add_argument("--out", required=True,
                          help="trace output path (.npz)")

    p_tr_prof = tr_sub.add_parser(
        "profile", help="reuse-distance profile: exact LRU miss-ratio curve")
    p_tr_prof.add_argument("trace", help="trace file written by `trace record`")
    p_tr_prof.add_argument("--capacities",
                           help="comma-separated cache capacities "
                           "(default: log-spaced up to the working set)")
    p_tr_prof.add_argument("--measure", action="store_true",
                           help="also brute-force-simulate LRU at each "
                           "capacity and report the model error")
    p_tr_prof.add_argument("--json", help="write the profile document here")

    p_tr_rep = tr_sub.add_parser(
        "replay", help="replay a recorded trace through a fresh engine")
    p_tr_rep.add_argument("trace", help="trace file to replay")
    rep_src = p_tr_rep.add_mutually_exclusive_group()
    rep_src.add_argument("--database", help="count database (counts.kdb) to serve")
    rep_src.add_argument("--dataset", default="synthetic-20",
                         help="Table V dataset key to count and serve")
    p_tr_rep.add_argument("-k", type=int, default=15, help="k-mer length")
    p_tr_rep.add_argument("--budget", type=int, default=100_000,
                          help="replica k-mer budget when using --dataset")
    p_tr_rep.add_argument("--shards", type=int, default=8)
    p_tr_rep.add_argument("--cache-capacity", type=int, default=4096)
    p_tr_rep.add_argument("--cache-threshold", type=int, default=2)
    p_tr_rep.add_argument("--t2-capacity", type=int, default=0)
    p_tr_rep.add_argument("--tick", type=float, default=1e-3,
                          help="arrival-group granularity (seconds)")
    p_tr_rep.add_argument("--group-size", type=int, default=256,
                          help="max keys per replayed client batch")
    p_tr_rep.add_argument("--concurrency", type=int, default=8)
    p_tr_rep.add_argument("--json", help="write the replay document here")

    p_tr_smp = tr_sub.add_parser(
        "sample", help="spatially (SHARDS) or temporally sample a trace")
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
                          help="compare the sampled (rescaled) miss-ratio "
                          "curve against the full trace's exact curve")

    p_xp = sub.add_parser(
        "xp",
        help="declarative experiments: seeded sweeps with repetition "
             "policy, bootstrap CIs, and statistical perf gating "
             "(repro.xp)",
    )
    xp_sub = p_xp.add_subparsers(dest="xp_command", required=True)

    p_xp_run = xp_sub.add_parser(
        "run", help="run one spec's sweep and append the envelope to "
                    "the ledger")
    _add_xp_run_args(p_xp_run)
    p_xp_run.add_argument("--json", default=None,
                          help="also write the result envelope here")

    p_xp_gate = xp_sub.add_parser(
        "gate", help="run a spec (or load --current) and compare it "
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

    p_xp_rep = xp_sub.add_parser(
        "report", help="print an experiment's cross-PR ledger trajectory")
    p_xp_rep.add_argument("experiment", nargs="?", default=None,
                          help="experiment id (default: list all)")
    p_xp_rep.add_argument("--ledger", default=None,
                          help="ledger directory (default "
                               "benchmarks/results/ledger)")

    p_xp_list = xp_sub.add_parser(
        "list", help="list targets, spec files, and ledger experiments")
    p_xp_list.add_argument("--ledger", default=None)
    p_xp_list.add_argument("--specs", default="benchmarks/xp",
                           help="directory holding declarative specs")

    p_tl = sub.add_parser("timeline", help="ASCII Gantt of a simulated run")
    p_tl.add_argument("--dataset", default="synthetic-20")
    p_tl.add_argument("-k", type=int, default=31)
    p_tl.add_argument("--algorithm", default="dakc")
    p_tl.add_argument("--nodes", type=int, default=2)
    p_tl.add_argument("--budget", type=int, default=100_000)
    p_tl.add_argument("--width", type=int, default=100)
    p_tl.add_argument("--chrome", help="also write Chrome trace-event JSON "
                      "here (open in Perfetto / chrome://tracing)")

    return parser


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
                        help="override a fixed parameter (JSON value; "
                             "repeatable)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: shrink to 0 warmups / 2 "
                             "repetitions and skip the ledger append "
                             "(quick numbers never become baselines)")


def _add_burst_args(parser) -> None:
    """Burst-overlay flags shared by the workload-driving commands."""
    parser.add_argument("--burst-amplitude", type=float, default=1.0,
                        help="rate multiplier inside bursts (1 = no bursts)")
    parser.add_argument("--burst-duration", type=float, default=0.05,
                        help="seconds of burst per period")
    parser.add_argument("--burst-period", type=float, default=0.5,
                        help="seconds from burst start to burst start")


def _burst_from_args(args):
    """A BurstSpec from the shared flags, or None when amplitude <= 1."""
    if getattr(args, "burst_amplitude", 1.0) <= 1.0:
        return None
    from .serve import BurstSpec

    return BurstSpec(amplitude=args.burst_amplitude,
                     duration=args.burst_duration,
                     period=args.burst_period)


def _cmd_count(args) -> int:
    from .api import count_kmers
    from .bench.tables import format_time
    from .bench.workloads import build_workload
    from .seq.kmers import kmer_to_str

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
        for i in order:
            print(f"{kmer_to_str(int(kc.kmers[i]), args.k)}\t{int(kc.counts[i])}")
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


def _load_database(path: str):
    """A binary database, or — when its magic says it is none — a text dump."""
    from .apps.store import load_counts, load_text
    from .fileio import FormatError

    try:
        return load_counts(path)[0]
    except FormatError as exc:
        if exc.reason != "foreign":
            raise
    return load_text(path)


def _cmd_analyze(args) -> int:
    from .apps.spectrum import (
        estimate_error_rate,
        estimate_genome_size,
        solid_threshold,
        spectrum_features,
    )

    kc = _load_database(args.database)
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

    a = _load_database(args.a)
    b = _load_database(args.b)
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
        print(scaling_chart(curves, title="log-log scaling (lower is better)"))
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


def _cmd_chaos(args) -> int:
    from .api import resolve_machine
    from .bench.workloads import build_workload
    from .core.dakc import DakcConfig
    from .fault import FaultPlan, chaos_sweep, format_report
    from .fault.chaos import derive_plan_seeds
    from .runtime.cost import CostModel

    drops = [float(d) for d in args.drop.split(",") if d.strip()]
    crash = tuple(int(p) for p in args.crash.split(",") if p.strip())
    stragglers = tuple(int(p) for p in args.straggler.split(",") if p.strip())
    w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
    m = resolve_machine(args.machine, args.nodes)
    cost = CostModel(m, cores_per_pe=m.cores_per_node)
    config = DakcConfig(protocol=args.protocol)
    plan_seeds = derive_plan_seeds(args.seed, len(drops) + 1)
    plans = [FaultPlan(seed=plan_seeds[0])]  # fault-free baseline first
    plans += [
        FaultPlan(
            seed=plan_seeds[i],
            drop_prob=drop,
            duplicate_prob=args.duplicate,
            corrupt_prob=args.corrupt,
            delay_prob=args.delay,
            crash_pes=crash,
            straggler_pes=stragglers,
            straggler_factor=args.straggler_factor if stragglers else 1.0,
        )
        for i, drop in enumerate(drops, start=1)
    ]
    print(f"# chaos: {w.spec.display} replica ({w.n_kmers(args.k):,} k-mers), "
          f"k={args.k}, {args.protocol} protocol, {cost.n_pes} PEs")
    print("# every plan runs with the reliability layer (and checkpointing "
          "when PEs crash), then bare for fault-detection")
    outcomes = chaos_sweep(w.reads, args.k, cost, plans, config=config)
    print(format_report(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


def _iter_ingest_batches(args):
    """Yield read batches (lists of 1-D code arrays) for `dakc ingest`."""
    if args.dataset:
        from .bench.workloads import build_workload

        w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
        reads = w.reads
        for lo in range(0, reads.shape[0], args.batch_records):
            yield [reads[i] for i in range(lo, min(lo + args.batch_records,
                                                   reads.shape[0]))]
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
    import json as _json
    from pathlib import Path

    from .api import load_reads, resolve_machine
    from .ooc import OocStats, ooc_count
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
    stats = OocStats()

    store = None
    if args.store is not None:
        from .lsm import LsmConfig, LsmStore

        store = LsmStore(args.store, k, config=LsmConfig(
            memtable_bytes=ceiling, canonical=args.canonical))
    try:
        counts = ooc_count(
            reads, k, w=args.w, n_bins=args.n_bins, memory_bytes=ceiling,
            workdir=args.workdir, canonical=args.canonical, store=store,
            cost=cost, pe_stats=pe, stats=stats, keep_bins=args.keep_bins)
        store_doc = None
        if store is not None:
            store.flush()
            store.compact()
            store_doc = store.describe()
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
    print(f"# ceiling:    {ceiling:,} bytes "
          f"(peak buffered {stats.peak_buffered_bytes:,}, "
          f"{stats.n_ceiling_hits} ceiling hits)")
    print(f"# pass 1:     {stats.n_superkmers:,} super-k-mers into "
          f"{stats.n_bins_used} bins, {stats.n_flushes} flushes")
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
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json).write_text(_json.dumps(doc, indent=2) + "\n")
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


def _cmd_serve_bench(args) -> int:
    from contextlib import ExitStack

    from .serve import EngineConfig, run_serve_bench

    with ExitStack() as opened:  # the LSM store must close even if the bench raises
        lsm_view = None
        if args.lsm_store:
            from .lsm import LsmStore

            lsm = opened.enter_context(LsmStore(args.lsm_store))
            kc = lsm.snapshot()
            lsm_view = lsm.read_view(args.shards)
            source = f"{args.lsm_store} (live LSM store, {lsm.n_runs} runs)"
        else:
            kc, source = _database_or_replica(args)

        config = EngineConfig(
            batch_size=args.batch_size,
            batch_window=args.batch_window,
            max_inflight=args.max_inflight,
        )
        recorder = None
        if args.trace_out:
            from .trace import TraceRecorder

            recorder = TraceRecorder(k=kc.k, seed=args.seed,
                                     source=f"serve-bench seed={args.seed}")
        result = run_serve_bench(
            kc,
            n_queries=args.queries,
            n_shards=args.shards,
            zipf_s=args.zipf,
            seed=args.seed,
            miss_fraction=args.miss_fraction,
            config=config,
            cache_capacity=args.cache_capacity,
            cache_threshold=args.cache_threshold,
            t2_capacity=args.t2_capacity,
            group_size=args.group_size,
            concurrency=args.concurrency,
            store=lsm_view,
            burst=_burst_from_args(args),
            recorder=recorder,
        )
    naive, served = result.naive.snapshot(), result.served.snapshot()
    print(f"# database:   {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
    print(f"# workload:   {args.queries:,} queries, Zipf({args.zipf}), "
          f"seed {args.seed}, {args.miss_fraction:.0%} misses")
    print(f"# engine:     {args.shards} shards, batch<={args.batch_size}, "
          f"window {args.batch_window * 1e3:.2f} ms, "
          f"cache {args.cache_capacity} slots (admit>={args.cache_threshold})")
    print(f"# answers match: {result.answers_match}")
    for label, snap in (("naive", naive), ("served", served)):
        lat = snap["latency_ms"]
        print(f"# {label:>6}: {snap['throughput_qps']:>12,.0f} qps   "
              f"p50 {lat['p50']:.3f} ms   p99 {lat['p99']:.3f} ms")
    print(f"# cache hit rate: {served['cache']['hit_rate']:.1%}   "
          f"mean batch: {served['batching']['mean_batch_size']:.1f} keys   "
          f"rejected: {served['queue']['rejected']}")
    print(f"# speedup (served/naive): {result.speedup:.2f}x")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_doc(), fh, indent=2)
            fh.write("\n")
        print(f"# wrote metrics snapshot to {args.json}")
    if recorder is not None:
        trace = recorder.save(args.trace_out)
        print(f"# recorded {trace.n_records:,} trace records to "
              f"{args.trace_out}")
    if not result.answers_match:
        print("error: served answers diverged from the naive oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_tenant_bench(args) -> int:
    from .tenant import run_tenant_bench

    kc, source = _database_or_replica(args)

    kwargs = dict(
        n_victim_groups=args.victim_groups,
        victim_group=args.victim_group,
        victim_interval=args.victim_interval,
        antag_batch=args.antag_batch,
        flooders=args.flooders,
        antag_rate=args.antag_rate,
        n_shards=args.shards,
        zipf_s=args.zipf,
        seed=args.seed,
        victim_slo_ms=args.victim_slo_ms,
        autoscale_nodes=args.autoscale_nodes,
    )
    if args.quick:
        from .serve import EngineConfig

        kwargs.update(
            n_victim_groups=min(args.victim_groups, 120),
            victim_interval=min(args.victim_interval, 8e-3),
            flooders=min(args.flooders, 8),
            config=EngineConfig(
                batch_size=256, batch_window=1e-3, max_inflight=8192,
                flush_service_time=10e-3, flush_service_per_key=1e-5),
        )
    res = run_tenant_bench(kc, **kwargs)

    print(f"# database:   {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
    print(f"# victim:     {kwargs['n_victim_groups']} groups x "
          f"{args.victim_group} keys @ {kwargs['victim_interval'] * 1e3:.1f} ms "
          f"(SLO {args.victim_slo_ms:.0f} ms)")
    print(f"# antagonist: {kwargs['flooders']} flooders x {args.antag_batch} "
          f"keys, quota {args.antag_rate:g} keys/s when isolated")
    for label in ("solo", "isolated", "unprotected"):
        sc = getattr(res, label)
        print(f"# {label:>11}: p50 {sc['p50_ms']:8.2f} ms   "
              f"p99 {sc['p99_ms']:8.2f} ms   "
              f"rejected groups {sc['victim_rejected_groups']}")
    print(f"# victim p99 degradation: isolated "
          f"{res.isolated_degradation:+.1%}, unprotected "
          f"{res.unprotected_degradation:+.1%}")
    fair = res.fairness
    print(f"# DRR fairness: max share error {fair['max_share_error']:.4f}, "
          f"starvation violations {fair['starvation_violations']}")
    scale = res.autoscale
    actions = [d["action"] for d in scale["decisions"]
               if d["action"] != "hold"]
    print(f"# autoscaler: {' -> '.join(actions) or 'no action'}   "
          f"exact after split/merge: "
          f"{scale['exact_after_split']}/{scale['exact_after_merge']}")
    print(f"# answers match oracle: {res.answers_match}")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(res.to_doc(), fh, indent=2)
            fh.write("\n")
        print(f"# wrote result document to {args.json}")
    if not res.answers_match:
        print("error: served answers diverged from the scalar oracle",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_bench(args) -> int:
    from .cluster import run_cluster_bench

    kc, source = _database_or_replica(args)

    recorder = None
    if args.trace_out:
        from .trace import TraceRecorder

        recorder = TraceRecorder(k=kc.k, seed=args.seed,
                                 source=f"cluster-bench seed={args.seed}")
    doc = run_cluster_bench(
        kc,
        n_nodes=args.cluster_nodes,
        rf=args.rf,
        vnodes=args.vnodes,
        n_queries=args.queries,
        zipf_s=args.zipf,
        seed=args.seed,
        miss_fraction=args.miss_fraction,
        group_size=args.group_size,
        concurrency=args.concurrency,
        service_time=args.service_time,
        straggler_delay=args.straggler_delay,
        chunk_keys=args.chunk_keys,
        repeats=args.repeats,
        burst=_burst_from_args(args),
        recorder=recorder,
    )
    if recorder is not None:
        trace = recorder.save(args.trace_out)
        print(f"# recorded {trace.n_records:,} trace records to "
              f"{args.trace_out}")
    ov, hd, ch = doc["overhead"], doc["hedging"], doc["chaos"]
    print(f"# database:  {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
    print(f"# cluster:   {args.cluster_nodes} nodes, rf={args.rf}, "
          f"{args.vnodes} vnodes, seed {args.seed}")
    print(f"# workload:  {args.queries:,} queries, Zipf({args.zipf}), "
          f"{args.miss_fraction:.0%} misses")
    print(f"# overhead:  engine {ov['engine_qps']:,.0f} qps vs "
          f"router {ov['router_qps']:,.0f} qps "
          f"({ov['overhead_frac']:+.1%}; answers match: "
          f"{ov['answers_match']})")
    print(f"# hedging:   p99 {hd['unhedged']['p99_ms']:.2f} ms unhedged -> "
          f"{hd['hedged']['p99_ms']:.2f} ms hedged "
          f"({hd['p99_reduction']:.1%} cut; "
          f"{hd['hedged']['hedges_fired']} fired, "
          f"{hd['hedged']['hedges_won']} won)")
    reb = ch["rebalance"] or {}
    print(f"# chaos:     killed node {ch['killed_node']}, joined "
          f"{ch['joined_node']}, moved {reb.get('moved_keys', 0):,} keys "
          f"in {reb.get('chunks', 0)} chunks")
    print(f"# exactness: {ch['exact']}  (retries {ch['retries']}, "
          f"failovers {ch['failovers']})")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"# wrote benchmark document to {args.json}")
    if not (ov["answers_match"] and ch["answers_exact"]):
        print("error: cluster answers diverged from the serial oracle",
              file=sys.stderr)
        return 1
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


def _cmd_dst(args) -> int:
    from .dst import dst_run, dst_sweep, format_dst_report, load_bundle, replay_bundle

    if args.dst_command == "run":
        report = dst_run(budget=args.budget, seed=args.seed,
                         shrink=not args.no_shrink, out_dir=args.out)
        print(format_dst_report(report))
        if args.json:
            import json

            with open(args.json, "w") as fh:
                json.dump(report.to_doc(), fh, indent=2, sort_keys=True)
            print(f"# wrote campaign report to {args.json}")
        return 0 if report.ok else 1
    if args.dst_command == "replay":
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
    # sweep
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    reports = dst_sweep(seeds, budget=args.budget, out_dir=args.out)
    for report in reports:
        print(format_dst_report(report))
        print()
    return 0 if all(r.ok for r in reports) else 1


def _database_or_replica(args):
    """Load ``--database``, else count the ``--dataset`` replica."""
    if getattr(args, "database", None):
        from .apps.store import load_counts

        kc, _ = load_counts(args.database)
        return kc, args.database
    from .bench.workloads import build_workload
    from .core.serial import serial_count

    w = build_workload(args.dataset, args.k, budget_kmers=args.budget)
    return serial_count(w.reads, args.k), f"{w.spec.display} (replica)"


def _cmd_trace(args) -> int:
    import json

    import numpy as np

    from .trace import load_trace

    if args.trace_command == "record":
        from .serve import run_serve_bench
        from .trace import TraceRecorder

        kc, source = _database_or_replica(args)
        recorder = TraceRecorder(k=kc.k, seed=args.seed,
                                 source=f"trace record seed={args.seed}")
        result = run_serve_bench(
            kc, n_queries=args.queries, n_shards=args.shards,
            zipf_s=args.zipf, seed=args.seed,
            miss_fraction=args.miss_fraction,
            cache_capacity=args.cache_capacity,
            cache_threshold=args.cache_threshold,
            t2_capacity=args.t2_capacity,
            burst=_burst_from_args(args), recorder=recorder,
        )
        trace = recorder.save(args.out)
        tiers = trace.tier_counts()
        print(f"# database:  {source}  ({kc.n_distinct:,} distinct, k={kc.k})")
        print(f"# recorded:  {trace.n_records:,} records over "
              f"{trace.duration:.3f} s  (answers match: "
              f"{result.answers_match})")
        print(f"# tiers:     t1 {tiers['t1']:,}  t2 {tiers['t2']:,}  "
              f"store {tiers['store']:,}")
        print(f"# wrote trace to {args.out}")
        return 0 if result.answers_match else 1

    if args.trace_command == "profile":
        from .trace import profile_trace
        from .trace.replay import measured_miss_ratio_curve

        trace = load_trace(args.trace)
        caps = ([int(c) for c in args.capacities.split(",") if c.strip()]
                if args.capacities else None)
        profile = profile_trace(trace, caps)
        doc = {"trace": trace.describe(), **profile.to_doc()}
        d = doc["trace"]
        print(f"# trace:     {args.trace}  ({d['n_records']:,} records, "
              f"{d['n_distinct']:,} distinct keys, k={d['k']})")
        print(f"# cold miss floor: {d['n_distinct'] / max(d['n_records'], 1):.1%}")
        measured = None
        if args.measure:
            measured = measured_miss_ratio_curve(trace.keys,
                                                 profile.capacities)
            doc["measured_miss_ratio"] = measured.tolist()
            doc["model_error_pp"] = float(
                np.abs(np.asarray(doc["miss_ratio"]) - measured).max()) * 100
        header = "# capacity   predicted-miss"
        if measured is not None:
            header += "   measured-miss"
        print(header)
        for j, cap in enumerate(profile.capacities):
            line = f"  {int(cap):>8}   {doc['miss_ratio'][j]:>14.4f}"
            if measured is not None:
                line += f"   {measured[j]:>13.4f}"
            print(line)
        if measured is not None:
            print(f"# max model error: {doc['model_error_pp']:.3f} pp")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            print(f"# wrote profile document to {args.json}")
        return 0

    if args.trace_command == "replay":
        from .serve import ShardedStore
        from .trace import replay_trace

        trace = load_trace(args.trace)
        kc, source = _database_or_replica(args)
        store = ShardedStore.from_counts(kc, args.shards)
        result = replay_trace(
            trace, store, cache_capacity=args.cache_capacity,
            cache_threshold=args.cache_threshold,
            t2_capacity=args.t2_capacity, tick=args.tick,
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
            with open(args.json, "w") as fh:
                json.dump(result.to_doc(), fh, indent=2)
                fh.write("\n")
            print(f"# wrote replay document to {args.json}")
        if not result.answers_match:
            print("error: replayed answers diverged from the scalar oracle",
                  file=sys.stderr)
            return 1
        return 0

    # sample
    from .trace import save_trace, spatial_sample, temporal_sample

    trace = load_trace(args.trace)
    if (args.rate is None) == (args.window is None):
        raise ValueError("pick one: --rate (spatial) or --window/--every "
                         "(temporal)")
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
    if args.check:
        from .trace import measured_miss_ratio_curve, scaled_miss_ratio_curve
        from .trace.profiler import default_capacities

        caps = default_capacities(int(np.unique(trace.keys).size), points=8)
        full = measured_miss_ratio_curve(trace.keys, caps)
        est = scaled_miss_ratio_curve(sampled, caps)
        err = float(np.abs(est - full).max()) * 100
        print(f"# sampled-vs-full miss-ratio error: {err:.2f} pp "
              f"(capacities {caps.tolist()})")
    print(f"# wrote sampled trace to {args.out}")
    return 0


def _xp_load_spec(args):
    """Load the spec named by *args* and apply CLI overrides."""
    import dataclasses
    import json

    from .xp import RepetitionPolicy, load_spec

    spec = load_spec(args.spec)
    if getattr(args, "quick", False):
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
                fixed[key] = raw  # bare string
        spec = dataclasses.replace(spec, fixed=fixed)
    return spec


def _cmd_xp(args) -> int:
    import json

    from .xp import (
        Ledger,
        format_claims,
        format_envelope,
        format_gate,
        format_trajectory,
        gate_envelopes,
        run_spec,
    )
    from .xp.ledger import DEFAULT_LEDGER_DIR
    from .xp.targets import list_targets

    ledger = Ledger(args.ledger if getattr(args, "ledger", None)
                    else DEFAULT_LEDGER_DIR)

    if args.xp_command == "run":
        spec = _xp_load_spec(args)
        envelope = run_spec(spec, progress=print)
        print(format_envelope(envelope))
        if not args.no_ledger:
            print(f"# ledger entry: {ledger.append(envelope)}")
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(envelope, fh, indent=2)
                fh.write("\n")
            print(f"# wrote envelope to {args.json}")
        if not envelope["ok"]:
            print("error: correctness checks failed", file=sys.stderr)
            return 1
        return 0

    if args.xp_command == "gate":
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
            with open(args.json, "w") as fh:
                json.dump(result.to_doc(), fh, indent=2)
                fh.write("\n")
            print(f"# wrote gate verdict to {args.json}")
        # A regressed run never silently becomes the next baseline.
        if not args.no_ledger and not args.current and (
                result.ok or args.report_only):
            print(f"# ledger entry: {ledger.append(envelope)}")
        if not result.ok and not args.report_only:
            print("error: statistically significant regression",
                  file=sys.stderr)
            return 1
        return 0

    if args.xp_command == "report":
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

    # list
    print("# targets:")
    for target in list_targets():
        print(f"  {target.name:<20} {target.description}")
    from pathlib import Path

    specs_dir = Path(args.specs)
    specs = sorted(specs_dir.glob("*.json")) if specs_dir.is_dir() else []
    print(f"# specs in {specs_dir}:")
    for path in specs:
        print(f"  {path}")
    if not specs:
        print("  (none)")
    print(f"# ledger experiments in {ledger.root}:")
    for exp in ledger.experiments() or ["  (none)"]:
        print(f"  {exp}" if not exp.startswith("  ") else exp)
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "datasets": _cmd_datasets,
    "model": _cmd_model,
    "bench": _cmd_bench,
    "simulate": _cmd_simulate,
    "chaos": _cmd_chaos,
    "serve-bench": _cmd_serve_bench,
    "tenant-bench": _cmd_tenant_bench,
    "cluster-bench": _cmd_cluster_bench,
    "ingest": _cmd_ingest,
    "ooc-count": _cmd_ooc_count,
    "compact": _cmd_compact,
    "dst": _cmd_dst,
    "trace": _cmd_trace,
    "xp": _cmd_xp,
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "timeline": _cmd_timeline,
    "calibrate": _cmd_calibrate,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
