"""The four e2e workloads: set-up, timed measurement, traced replay.

Every workload calls only public ``repro`` functions and times them
from outside.  Sizes are for ``scale=1.0`` on a 2-core host; the smoke
test runs the same code at ``scale=0.02``.

Each workload provides three functions:

``setup(seed, scale, tmp)``
    builds every input from the seed and returns a state object;
``measure(state, seconds, ops, min_reps)``
    repeats the product path for *seconds* (after one untimed warm-up),
    checks every result against the oracle and returns a
    :class:`Measured` (a wrong result is a failed op; its time still
    counts, so a broken run reports numbers next to ``correct: false``);
``trace(state, spans, ops, mem_bw)``
    replays the same path once, stage by stage, recording a span per
    public call, and returns a :class:`Traced`; *mem_bw* is the copy
    bandwidth (bytes/s) measured in the same process.
"""

from __future__ import annotations

import asyncio
import inspect
import shutil
import time
import tracemalloc
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from harness import Ops, Spans, timed
from repro.api import count_kmers
from repro.apps.store import load_counts, merge_sorted_counts, save_counts
from repro.apps.streaming import count_records_streaming
from repro.bench.workloads import fidelity_for_budget
from repro.core.result import KmerCounts
from repro.lsm.store import LsmConfig, LsmStore
from repro.ooc import BinWriter, OocStats, count_bin, ooc_count
from repro.seq.datasets import get_spec, materialize
from repro.seq.encoding import encode_batch
from repro.seq.fastx import SeqRecord, read_fastx, write_fastq
from repro.seq.kmers import canonical_kmers, extract_kmers_from_reads
from repro.seq.superkmers import (
    DEFAULT_MINIMIZER_LEN,
    count_superkmer_batch,
    split_superkmers_batch,
    split_superkmers_flat,
)
from repro.serve import (
    EngineConfig,
    HotKeyCache,
    Overloaded,
    QueryEngine,
    ShardedStore,
    naive_serve,
    zipf_workload,
)


@dataclass
class Measured:
    """What one untraced measurement returns."""

    throughput_per_s: float
    op_p50_ms: float
    #: seconds of product calls in one repetition (median): the
    #: untraced side of ``trace.overhead_frac``
    wall_s: float
    n: int       # timed repetitions behind throughput_per_s
    n_ops: int   # latency samples behind op_p50_ms
    #: named phase numbers: ``name -> (value, unit, n samples)``
    phases: dict[str, tuple[float, str, int]] = field(default_factory=dict)


@dataclass
class Traced:
    """What one traced replay returns."""

    layers: dict[str, float]
    #: seconds of product calls inside the replay: the traced side of
    #: ``trace.overhead_frac`` (compare with :attr:`Measured.wall_s`)
    wall_s: float


def repeat_for(seconds: float, min_reps: int, body) -> None:
    """Call *body* until *seconds* have passed, at least *min_reps* times."""
    t_end = time.perf_counter() + seconds
    n = 0
    while n < min_reps or time.perf_counter() < t_end:
        body()
        n += 1


def replica(key: str, k: int, budget_kmers: int, seed: int) -> np.ndarray:
    """Encoded read matrix of a dataset replica holding ~*budget_kmers*.

    ``build_workload`` without its ``lru_cache``: set-up is repeated
    inside one process and must do the same work every time.
    """
    spec = get_spec(key)
    fid = fidelity_for_budget(spec, k, max(1, budget_kmers))
    return materialize(spec, fidelity=fid, seed=seed).reads


def oracle_counts(reads: np.ndarray, k: int, canonical: bool = False) -> KmerCounts:
    """The independent reference: plain extraction + ``np.unique``."""
    kmers = extract_kmers_from_reads(reads, k)
    if canonical:
        kmers = canonical_kmers(kmers, k)
    uniq, counts = np.unique(kmers, return_counts=True)
    return KmerCounts(k, uniq, counts)


def oracle_lookup(truth: KmerCounts, keys: np.ndarray) -> np.ndarray:
    """Counts of *keys* in *truth* (0 = absent), by binary search."""
    idx = np.minimum(np.searchsorted(truth.kmers, keys), truth.kmers.size - 1)
    return np.where(truth.kmers[idx] == keys, truth.counts[idx], 0)


def oracle_add(a: KmerCounts, b: KmerCounts) -> KmerCounts:
    uniq, inv = np.unique(np.concatenate([a.kmers, b.kmers]), return_inverse=True)
    total = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(total, inv, np.concatenate([a.counts, b.counts]))
    return KmerCounts(a.k, uniq, total)


# ---------------------------------------------------------------------
# count-fastq: FASTQ file -> count_kmers(fast) -> save_counts
# ---------------------------------------------------------------------

FASTQ_K = 21
#: 48k x 150 bp reads: one batch at the default ``batch_records`` (100k),
#: 7.2M bases, i.e. ~58 MB per uint64 pass of the split kernel.
FASTQ_BUDGET_KMERS = 6_240_000
BATCH_RECORDS = inspect.signature(
    count_records_streaming).parameters["batch_records"].default


def setup_count_fastq(seed: int, scale: float, tmp: Path):
    reads = replica("synthetic-24", FASTQ_K, int(FASTQ_BUDGET_KMERS * scale), seed)
    fastq = tmp / "reads.fastq"
    bases = np.frombuffer(b"ACGT", dtype=np.uint8)[reads]
    write_fastq(fastq, (SeqRecord(f"r{i}", row.tobytes().decode())
                        for i, row in enumerate(bases)))
    return SimpleNamespace(reads=reads, fastq=fastq, db=tmp / "counts.npz",
                           oracle=oracle_counts(reads, FASTQ_K))


def measure_count_fastq(st, seconds: float, ops: Ops, min_reps: int) -> Measured:
    times: list[float] = []

    def body() -> None:
        with ops.guard("count_kmers(fastq) + save_counts"):
            t0 = time.perf_counter()
            run = count_kmers(st.fastq, FASTQ_K, algorithm="fast")
            save_counts(st.db, run.counts)
            times.append(time.perf_counter() - t0)
            # checked and dropped here: memory must not grow with the
            # number of repetitions
            ops.check(run.counts == st.oracle, "count_kmers(fast) differs from oracle")

    body()          # warm-up: page cache, allocator, imports
    times.clear()
    repeat_for(seconds, min_reps, body)
    with ops.guard("load_counts"):
        ops.check(load_counts(st.db)[0] == st.oracle,
                  "saved database differs from oracle")
    rate = st.reads.shape[0] / median(times)
    return Measured(rate, median(times) * 1e3, median(times), len(times), len(times),
                    {"count_reads_per_s": (rate, "1/s", len(times))})


def trace_count_fastq(st, spans: Spans, ops: Ops, mem_bw: float) -> Traced:
    w = min(FASTQ_K, DEFAULT_MINIMIZER_LEN)
    merged = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64))
    tally = SimpleNamespace(records=0, bases=0, superkmers=0, kmers=0, batches=0)
    records = read_fastx(st.fastq)
    with spans.span("count-fastq"):
        while True:
            with spans.span("seq.fastx.parse"):
                batch = list(islice(records, BATCH_RECORDS))
            if not batch:
                break
            with spans.span("seq.encoding.encode"):
                flat, offsets = encode_batch([r.seq for r in batch], validate=False)
            with spans.span("seq.superkmers.split"):
                skb = split_superkmers_flat(flat, offsets, FASTQ_K, w)
            with spans.span("seq.superkmers.count"):
                keys, vals = count_superkmer_batch(skb)
            with spans.span("apps.store.merge"):
                merged = merge_sorted_counts(*merged, keys, vals)
            tally.records += len(batch)
            tally.bases += int(flat.size)
            tally.superkmers += skb.n_superkmers
            tally.kmers += skb.n_kmers
            tally.batches += 1
        counts = KmerCounts(FASTQ_K, *merged)
        with spans.span("apps.store.save"):
            save_counts(st.db, counts)

    with spans.span("seq.kmers.plain_count"):    # the baseline, timed once more
        oracle_counts(st.reads, FASTQ_K)
    ops.check(counts == st.oracle, "traced count differs from oracle")
    ops.check(load_counts(st.db)[0] == st.oracle, "traced database differs from oracle")

    parse_s = spans.total("seq.fastx.parse")
    split_s = spans.total("seq.superkmers.split")
    # Computed, not measured: the split kernel's k + w shifted-OR passes
    # each read 8+1+8+8 and write 8+8+8 bytes per base; its hash and
    # sliding-minimum passes are left out, so this is a lower bound.
    split_bytes = 49.0 * (FASTQ_K + w) * tally.bases
    return Traced({
        "seq.fastx.parse_s": parse_s,
        "seq.fastx.records": tally.records,
        "seq.fastx.mb_per_s": st.fastq.stat().st_size / 1e6 / parse_s,
        "seq.encoding.encode_s": spans.total("seq.encoding.encode"),
        "seq.encoding.bases": tally.bases,
        "seq.superkmers.split_s": split_s,
        "seq.superkmers.superkmers": tally.superkmers,
        "seq.superkmers.kmers": tally.kmers,
        "seq.superkmers.kmers_per_superkmer": tally.kmers / tally.superkmers,
        "seq.superkmers.count_s": spans.total("seq.superkmers.count"),
        "seq.superkmers.split_bw_frac": split_bytes / split_s / mem_bw,
        "apps.streaming.batches": tally.batches,
        "apps.store.merge_s": spans.total("apps.store.merge"),
        "apps.store.save_s": spans.total("apps.store.save"),
        "apps.store.db_bytes_per_kmer": st.db.stat().st_size / counts.n_distinct,
        "seq.kmers.plain_count_s": spans.total("seq.kmers.plain_count"),
    }, spans.total("count-fastq"))


# ---------------------------------------------------------------------
# skew-ooc-lsm: canonical in-memory count, ooc -> LSM, WAL ingest + gets
# ---------------------------------------------------------------------

SKEW_K = 31
SKEW_BUDGET_KMERS = 1_000_000
OOC_BINS = 32
INGEST_BATCHES = 10
GET_GROUP = 256
GETS_PER_INGEST = 40     # 10 x 40 x 256 = ~102k keys per repetition
PRESENT_FRACTION = 0.95


def setup_skew(seed: int, scale: float, tmp: Path):
    reads = replica("human", SKEW_K, int(SKEW_BUDGET_KMERS * scale), seed)
    oracle = oracle_counts(reads, SKEW_K, canonical=True)
    ceiling = max(1, reads.size // 16)
    rng = np.random.default_rng(seed)
    batch_reads = max(1, reads.shape[0] // 34)
    n_keys = GETS_PER_INGEST * GET_GROUP
    n_present = int(n_keys * PRESENT_FRACTION)
    truth, steps = oracle, []
    for i in range(INGEST_BATCHES):
        batch = reads[i * batch_reads:(i + 1) * batch_reads]
        truth = oracle_add(truth, oracle_counts(batch, SKEW_K, canonical=True))
        keys = np.concatenate([
            rng.choice(truth.kmers, n_present),
            rng.integers(0, 1 << (2 * SKEW_K), n_keys - n_present, dtype=np.uint64),
        ])
        rng.shuffle(keys)
        steps.append((batch, keys.reshape(-1, GET_GROUP),
                      oracle_lookup(truth, keys).reshape(-1, GET_GROUP)))
    # Flush policy in force: the memtable freezes into a run when it
    # holds `ceiling` bytes; more than 4 runs compact 4 at a time.
    config = LsmConfig(memtable_bytes=ceiling, max_runs=4, fan_in=4, canonical=True)
    return SimpleNamespace(reads=reads, oracle=oracle, truth=truth, steps=steps,
                           ceiling=ceiling, config=config, work=tmp / "skew",
                           ingested=sum(len(s[0]) for s in steps))


def measure_skew(st, seconds: float, ops: Ops, min_reps: int) -> Measured:
    n_reads = st.reads.shape[0]
    t_canon: list[float] = []
    t_ooc: list[float] = []
    t_ingest: list[float] = []
    t_get: list[float] = []
    get_batches: list[float] = []

    def load(store: LsmStore) -> None:
        ooc_count(st.reads, SKEW_K, n_bins=OOC_BINS, memory_bytes=st.ceiling,
                  workdir=st.work / "bins", canonical=True, store=store,
                  collect=False)
        store.flush()

    def body() -> None:
        with ops.guard("count_kmers(fast, canonical)"):
            run, dt = timed(count_kmers, st.reads, SKEW_K, algorithm="fast",
                            canonical=True)
            t_canon.append(dt)
            ops.check(run.counts == st.oracle, "canonical count differs from oracle")
        store = LsmStore(st.work / "lsm", SKEW_K, config=st.config)
        try:
            with ops.guard("ooc_count -> LsmStore"):
                t_ooc.append(timed(load, store)[1])
                ops.check(store.snapshot() == st.oracle,
                          "LSM snapshot after ooc load differs from oracle")
            with ops.guard("LsmStore.ingest / get"):
                ingest_s, lat = 0.0, []
                for batch, key_groups, expected in st.steps:
                    ingest_s += timed(store.ingest, batch)[1]
                    for keys, want in zip(key_groups, expected):
                        got, dt = timed(store.get, keys)
                        lat.append(dt)
                        ops.check(np.array_equal(got, want), "LsmStore.get wrong answer")
                t_ingest.append(ingest_s)
                t_get.append(sum(lat))
                get_batches.extend(lat)
                ops.check(store.snapshot() == st.truth,
                          "LSM snapshot after ingest differs from oracle")
        finally:
            store.close()
            shutil.rmtree(st.work)

    body()
    for sample in (t_canon, t_ooc, t_ingest, t_get, get_batches):
        sample.clear()
    repeat_for(seconds, min_reps, body)

    write_s = median(t_ooc) + median(t_ingest)
    return Measured(
        (n_reads + st.ingested) / write_s,
        median(get_batches) * 1e3,
        median(t_canon) + write_s + median(t_get),
        len(t_ooc), len(get_batches),
        {
            "canon_count_reads_per_s": (n_reads / median(t_canon), "1/s", len(t_canon)),
            "ooc_reads_per_s": (n_reads / median(t_ooc), "1/s", len(t_ooc)),
            "lsm_ingest_reads_per_s": (st.ingested / median(t_ingest), "1/s",
                                       len(t_ingest)),
            "lsm_get_keys_per_s": (GET_GROUP / median(get_batches), "1/s",
                                   len(get_batches)),
        })


def trace_skew(st, spans: Spans, ops: Ops, mem_bw: float) -> Traced:
    w = min(SKEW_K, 7)   # the default of ooc_count and count_kmers(fast)
    stats = OocStats()
    store = LsmStore(st.work / "lsm", SKEW_K, config=st.config)
    got_groups = []
    try:
        with spans.span("skew-ooc-lsm"):
            with spans.span("seq.superkmers.canon_split"):
                skb = split_superkmers_batch(st.reads, SKEW_K, w)
            with spans.span("seq.superkmers.canon_count"):
                canon = KmerCounts(SKEW_K, *count_superkmer_batch(skb, canonical=True))
            del skb
            with spans.span("ooc.spill"):
                writer = BinWriter(st.work / "bins", SKEW_K, w, OOC_BINS,
                                   ceiling_bytes=st.ceiling, stats=stats)
                writer.add_reads(st.reads)
                paths = writer.close()
            for path in paths:
                with spans.span("ooc.count_bin"):
                    uniq, counts = count_bin(path, k=SKEW_K, canonical=True, stats=stats)
                with spans.span("lsm.ingest_counts"):
                    store.ingest_counts(uniq, counts)
                path.unlink()
            with spans.span("lsm.final_flush"):
                store.flush()
            loaded = store.stats.snapshot()
            n_runs = store.n_runs
            disk_bytes = sum(r["nbytes"] for r in store.describe()["runs"])
            with spans.span("lsm.snapshot"):
                after_load = store.snapshot()
            for batch, key_groups, _ in st.steps:
                with spans.span("lsm.ingest"):
                    store.ingest(batch)
                for keys in key_groups:
                    with spans.span("lsm.get"):
                        got_groups.append(store.get(keys))
            with spans.span("lsm.snapshot"):
                after_ingest = store.snapshot()
        read_amp = store.stats.read_amplification
    finally:
        store.close()
        shutil.rmtree(st.work)

    ops.check(canon == st.oracle, "traced canonical count differs from oracle")
    ops.check(after_load == st.oracle, "traced LSM load differs from oracle")
    ops.check(after_ingest == st.truth, "traced LSM ingest differs from oracle")
    want = np.concatenate([s[2] for s in st.steps])
    ops.check(np.array_equal(np.stack(got_groups), want), "traced LsmStore.get wrong")

    # The ceiling measured, not accounted: allocation peak of a second
    # out-of-core pass (no store, nothing collected) over the ceiling.
    tracemalloc.start()
    try:
        ooc_count(st.reads, SKEW_K, n_bins=OOC_BINS, memory_bytes=st.ceiling,
                  workdir=st.work / "probe", canonical=True, collect=False)
        peak_alloc = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        shutil.rmtree(st.work, ignore_errors=True)

    return Traced({
        "seq.superkmers.canon_split_s": spans.total("seq.superkmers.canon_split"),
        "seq.superkmers.canon_count_s": spans.total("seq.superkmers.canon_count"),
        "ooc.spill.spill_s": spans.total("ooc.spill"),
        "ooc.spill.bytes_spilled": stats.bytes_spilled,
        "ooc.spill.flushes": stats.n_flushes,
        "ooc.spill.ceiling_hits": stats.n_ceiling_hits,
        "ooc.spill.peak_buffered_frac": stats.peak_buffered_bytes / st.ceiling,
        "ooc.count.count_bins_s": spans.total("ooc.count_bin"),
        "ooc.count.bytes_reread": stats.bytes_reread,
        "ooc.peak_alloc_frac": peak_alloc / st.ceiling,
        "lsm.ingest_counts_s": spans.total("lsm.ingest_counts"),
        "lsm.final_flush_s": spans.total("lsm.final_flush"),
        "lsm.flushes": loaded["flushes"],
        "lsm.compactions": loaded["compactions"],
        "lsm.runs_merged": loaded["runs_merged"],
        "lsm.n_runs": n_runs,
        "lsm.disk_bytes_per_kmer": disk_bytes / st.oracle.n_distinct,
        "lsm.ingest_s": spans.total("lsm.ingest"),
        "lsm.get_s": spans.total("lsm.get"),
        "lsm.read_amplification": read_amp,
        "lsm.snapshot_s": spans.total("lsm.snapshot"),
    # (the snapshots are verification reads, not part of the product path)
    }, spans.total("skew-ooc-lsm") - spans.total("lsm.snapshot"))


# ---------------------------------------------------------------------
# serve-zipf: closed-loop Zipf point queries through the engine
# ---------------------------------------------------------------------

SERVE_K = 21
SERVE_BUDGET_KMERS = 4_000_000    # ~430k distinct vs a 4096-slot cache
SERVE_QUERIES = 500_000           # per pass
SERVE_SHARDS = 8
SERVE_CLIENTS = 2                 # closed loop: slots on the engine's loop
SERVE_GROUP = 256
CACHE_SLOTS = 4096
NAIVE_QUERIES = 50_000


def setup_serve(seed: int, scale: float, tmp: Path):
    reads = replica("human", SERVE_K, int(SERVE_BUDGET_KMERS * scale), seed)
    counts = oracle_counts(reads, SERVE_K)
    stream = zipf_workload(counts, max(SERVE_GROUP, int(SERVE_QUERIES * scale)),
                           s=1.0, seed=seed, miss_fraction=0.05)
    groups = [stream.keys[i:i + SERVE_GROUP]
              for i in range(0, stream.keys.size, SERVE_GROUP)]
    return SimpleNamespace(counts=counts, stream=stream, groups=groups,
                           store=ShardedStore.from_counts(counts, SERVE_SHARDS),
                           want=[oracle_lookup(counts, g) for g in groups])


async def serve_pass(engine: QueryEngine, groups: list) -> tuple[list, list, float]:
    """One closed-loop pass: each client slot sends its next group only
    after the previous answer arrived.  Returns per-group answers
    (None = rejected), per-group ``(start, end)`` times and the wall."""
    answers = [None] * len(groups)
    stamps = [None] * len(groups)
    todo = iter(range(len(groups)))

    async def client() -> None:
        for i in todo:
            t0 = time.perf_counter()
            try:
                answers[i] = await engine.query_many(groups[i])
            except Overloaded:
                pass
            stamps[i] = (t0, time.perf_counter())

    t0 = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
    return answers, stamps, time.perf_counter() - t0


def check_answers(st, answers: list, ops: Ops) -> None:
    for got, want in zip(answers, st.want):
        ops.check(got is not None and np.array_equal(got, want),
                  "query group rejected or wrong")


def new_engine(st) -> tuple[QueryEngine, HotKeyCache]:
    cache = HotKeyCache(CACHE_SLOTS, admit_threshold=2)
    return QueryEngine(st.store, EngineConfig(), cache=cache), cache


def measure_serve(st, seconds: float, ops: Ops, min_reps: int) -> Measured:
    qps: list[float] = []
    latencies: list[float] = []

    async def drive() -> None:
        engine, _ = new_engine(st)
        async with engine:
            await serve_pass(engine, st.groups)    # warm-up fills the cache
            t_end = time.perf_counter() + seconds
            while len(qps) < min_reps or time.perf_counter() < t_end:
                answers, stamps, wall = await serve_pass(engine, st.groups)
                check_answers(st, answers, ops)    # outside the timed pass
                qps.append(st.stream.keys.size / wall)
                latencies.extend(end - start for start, end in stamps)

    with ops.guard("serve-zipf engine"):
        asyncio.run(drive())
    p50 = median(latencies) * 1e3
    return Measured(median(qps), p50, st.stream.keys.size / median(qps),
                    len(qps), len(latencies),
                    {"serve_qps": (median(qps), "1/s", len(qps)),
                     "serve_p50_ms": (p50, "ms", len(latencies))})


def trace_serve(st, spans: Spans, ops: Ops, mem_bw: float) -> Traced:
    n_keys = st.stream.keys.size
    observed = {}

    async def drive() -> None:
        engine, cache = new_engine(st)
        async with engine:
            await serve_pass(engine, st.groups)
            before = (cache.stats(), engine.metrics.snapshot())
            with spans.span("serve.engine.pass") as parent:
                answers, stamps, _ = await serve_pass(engine, st.groups)
            for start, end in stamps:   # the two client slots overlap in time
                spans.add("serve.engine.query_many", start, end, parent)
            observed.update(answers=answers, stamps=stamps, before=before,
                            after=(cache.stats(), engine.metrics.snapshot()))

    with spans.span("serve-zipf"):
        with spans.span("serve.shards.build"):
            ShardedStore.from_counts(st.counts, SERVE_SHARDS)
        with spans.span("serve.shards.direct_lookup"):
            direct = [st.store.lookup(g) for g in st.groups]
        with spans.span("serve.engine.naive"):
            naive, _ = naive_serve(st.store, st.stream.keys[:NAIVE_QUERIES])
        with ops.guard("traced serve-zipf engine"):
            asyncio.run(drive())

    for got, want in zip(direct, st.want):
        ops.check(np.array_equal(got, want), "ShardedStore.lookup wrong answer")
    ops.check(np.array_equal(naive, np.concatenate(st.want)[:naive.size]),
              "naive_serve wrong answer")
    check_answers(st, observed["answers"], ops)

    (cache0, eng0), (cache1, eng1) = observed["before"], observed["after"]
    batches = eng1["batching"]["batches"] - eng0["batching"]["batches"]
    batched = eng1["batching"]["batched_keys"] - eng0["batching"]["batched_keys"]
    hits = cache1["hits"] - cache0["hits"]
    misses = cache1["misses"] - cache0["misses"]
    lat = [end - start for start, end in observed["stamps"]]
    direct_s = spans.total("serve.shards.direct_lookup")
    engine_s = spans.total("serve.engine.pass")
    return Traced({
        "serve.shards.build_s": spans.total("serve.shards.build"),
        "serve.shards.direct_keys_per_s": n_keys / direct_s,
        "serve.engine.naive_qps": naive.size / spans.total("serve.engine.naive"),
        "serve.engine.overhead_frac": 1.0 - direct_s / engine_s,
        "serve.cache.hit_rate": hits / (hits + misses),
        "serve.cache.evictions": cache1["evictions"] - cache0["evictions"],
        "serve.engine.batches": batches,
        "serve.engine.mean_batch_keys": batched / batches if batches else 0.0,
        "serve.engine.queue_depth_max": eng1["queue"]["depth_max"],
        "serve.engine.rejected": eng1["queue"]["rejected"] - eng0["queue"]["rejected"],
        "serve.engine.p95_ms": float(np.percentile(lat, 95)) * 1e3,
        "serve.engine.p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "serve.workload.unique_fraction": st.stream.unique_fraction(),
    }, engine_s)


# ---------------------------------------------------------------------
# sim-dakc: the paper's algorithm and its BSP baseline, simulated
# ---------------------------------------------------------------------

SIM_K = 31
SIM_BUDGET_KMERS = 2_000_000
SIM_NODES = 16
SIM_MACHINE = "phoenix-intel"


def setup_sim(seed: int, scale: float, tmp: Path):
    reads = replica("human", SIM_K, int(SIM_BUDGET_KMERS * scale), seed)
    return SimpleNamespace(reads=reads, oracle=oracle_counts(reads, SIM_K))


def sim_dakc(reads):
    return count_kmers(reads, SIM_K, algorithm="dakc", protocol="2D",
                       machine=SIM_MACHINE, nodes=SIM_NODES)


def sim_bsp(reads):
    return count_kmers(reads, SIM_K, algorithm="pakman",
                       machine=SIM_MACHINE, nodes=SIM_NODES)


def model_outputs(run) -> tuple:
    """What the machine model computed; must repeat exactly."""
    s = run.stats
    return (s.sim_time, s.total_puts, s.total_bytes_sent, s.global_syncs,
            s.receive_imbalance(), s.total("heavy_pairs_sent"))


def measure_sim(st, seconds: float, ops: Ops, min_reps: int) -> Measured:
    t_dakc: list[float] = []
    t_bsp: list[float] = []
    model: list[tuple] = []      # the first repetition's model outputs

    def body() -> None:
        with ops.guard("count_kmers(dakc 2D) + count_kmers(pakman)"):
            dakc, dt_dakc = timed(sim_dakc, st.reads)
            bsp, dt_bsp = timed(sim_bsp, st.reads)
            t_dakc.append(dt_dakc)
            t_bsp.append(dt_bsp)
            outputs = (model_outputs(dakc), model_outputs(bsp))
            if not model:
                model.append(outputs)
            ops.check(dakc.counts == st.oracle and outputs[0] == model[0][0],
                      "dakc counts differ from oracle or model outputs drifted")
            ops.check(bsp.counts == st.oracle and outputs[1] == model[0][1],
                      "pakman counts differ from oracle or model outputs drifted")

    body()
    t_dakc.clear()
    t_bsp.clear()
    repeat_for(seconds, min_reps, body)

    n_kmers = st.oracle.total
    pair_s = median(t_dakc) + median(t_bsp)
    return Measured(
        2 * n_kmers / pair_s, median(t_dakc) * 1e3, pair_s, len(t_dakc), len(t_dakc),
        {"sim_dakc_kmers_per_s": (n_kmers / median(t_dakc), "1/s", len(t_dakc)),
         "sim_bsp_kmers_per_s": (n_kmers / median(t_bsp), "1/s", len(t_bsp))})


def trace_sim(st, spans: Spans, ops: Ops, mem_bw: float) -> Traced:
    with spans.span("sim-dakc"):
        with spans.span("core.dakc.count"):
            dakc = sim_dakc(st.reads)
        with spans.span("core.bsp.count"):
            bsp = sim_bsp(st.reads)
    ops.check(dakc.counts == st.oracle, "traced dakc counts differ from oracle")
    ops.check(bsp.counts == st.oracle, "traced pakman counts differ from oracle")
    return Traced({
        "runtime.dakc_sim_time_s": dakc.stats.sim_time,
        "runtime.bsp_sim_time_s": bsp.stats.sim_time,
        "runtime.dakc_puts": dakc.stats.total_puts,
        "runtime.dakc_bytes_sent": dakc.stats.total_bytes_sent,
        "runtime.dakc_global_syncs": dakc.stats.global_syncs,
        "runtime.dakc_receive_imbalance": dakc.stats.receive_imbalance(),
        "runtime.bsp_bytes_sent": bsp.stats.total_bytes_sent,
        "runtime.bsp_global_syncs": bsp.stats.global_syncs,
        "core.l2l3.heavy_pairs_sent": dakc.stats.total("heavy_pairs_sent"),
    }, spans.total("sim-dakc"))


class Workload(NamedTuple):
    setup: Callable[[int, float, Path], SimpleNamespace]
    measure: Callable[[SimpleNamespace, float, Ops, int], Measured]
    trace: Callable[[SimpleNamespace, Spans, Ops, float], Traced]


WORKLOADS = {
    "count-fastq": Workload(setup_count_fastq, measure_count_fastq, trace_count_fastq),
    "skew-ooc-lsm": Workload(setup_skew, measure_skew, trace_skew),
    "serve-zipf": Workload(setup_serve, measure_serve, trace_serve),
    "sim-dakc": Workload(setup_sim, measure_sim, trace_sim),
}

#: Per-layer metrics that are counts made by the program or outputs of
#: the machine model: they repeat bit for bit for one seed, so a change
#: in one is a change of behaviour, never a speed-up.
EXACT_METRICS = frozenset({
    "seq.fastx.records", "seq.encoding.bases", "seq.superkmers.superkmers",
    "seq.superkmers.kmers", "seq.superkmers.kmers_per_superkmer",
    "apps.streaming.batches",
    "ooc.spill.bytes_spilled", "ooc.spill.flushes", "ooc.spill.ceiling_hits",
    "ooc.spill.peak_buffered_frac", "ooc.count.bytes_reread",
    "lsm.flushes", "lsm.compactions", "lsm.runs_merged", "lsm.n_runs",
    "lsm.read_amplification", "serve.workload.unique_fraction",
    "runtime.dakc_sim_time_s", "runtime.bsp_sim_time_s", "runtime.dakc_puts",
    "runtime.dakc_bytes_sent", "runtime.dakc_global_syncs",
    "runtime.dakc_receive_imbalance", "runtime.bsp_bytes_sent",
    "runtime.bsp_global_syncs", "core.l2l3.heavy_pairs_sent",
})
