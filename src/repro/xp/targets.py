"""Runnable targets a declarative spec can name.

A target is a named callable taking one flat ``params`` dict (the
spec's fixed params + the cell's swept params + the repetition's
``seed``, over the target's declared defaults — an unknown key or a
value of the wrong type is refused) and returning a
:class:`TargetOutcome`: numeric *metrics* (each with a declared
better-direction, so the gate knows which way "worse" points) and
boolean *checks* (correctness claims — a run whose checks fail is
recorded but never usable as a baseline).

The seven product scenarios (serve, lsm, ooc, cluster, tenant, trace,
dst) are run and recorded only here: one target each, driven by
one spec under ``benchmarks/xp/`` (``dakc xp run``, ``--set key=value``
for a one-off) into the ledger.  Every acceptance claim
of a scenario is a named check with its threshold as a literal beside
it; the spec carries the one size the claim is stated at.  The paper's
own tables and figures are the ``paper`` target: one cell per
experiment id of :mod:`repro.bench.experiments`, checks from the one
claims table in :mod:`repro.bench.claims`.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from ..bench.claims import CLAIMS, evaluate

__all__ = ["TargetOutcome", "XpTarget", "TARGETS", "get_target",
           "list_targets"]


@dataclass(frozen=True)
class TargetOutcome:
    """What one repetition of a target measured."""

    metrics: dict = field(default_factory=dict)   # name -> float
    checks: dict = field(default_factory=dict)    # name -> bool
    #: Host wall-clock ratio checks (name -> bool): a warm-up's timings
    #: are discarded, so only kept repetitions count these.
    cost_checks: dict = field(default_factory=dict)


@dataclass(frozen=True)
class XpTarget:
    """A named, runnable experiment target."""

    name: str
    fn: Callable[[dict], TargetOutcome]   # takes defaults() merged with the spec's params
    directions: Mapping[str, str]   # metric -> 'lower' | 'higher'
    description: str
    #: The parameters the target accepts, with their defaults
    #: (``dakc xp list`` prints them; ``seed`` is always accepted).
    defaults: Callable[[], dict] = dict

    def merged(self, params: dict) -> dict:
        """Spec params over the defaults; an unknown key or a value of
        another type than its default's is a ``ValueError``."""
        defaults = self.defaults()
        unknown = set(params) - set(defaults) - {"seed"}
        if unknown:
            raise ValueError(
                f"unknown parameters {sorted(unknown)}; this target "
                f"accepts {sorted(set(defaults) - {'seed'})} (+ seed)")
        for key, value in params.items():
            default = defaults.get(key)
            if default is None:  # seed, or a key with no typed default
                continue
            want = (int, float) if type(default) is float else type(default)
            if not isinstance(value, want) or (
                    type(value) is bool) != (type(default) is bool):
                raise ValueError(f"{key}: expected {type(default).__name__}, "
                                 f"got {value!r}")
        return {"seed": 0, **defaults, **params}

    def run(self, params: dict) -> TargetOutcome:
        return self.fn(self.merged(params))


def _kwdefaults(fn, prefix: str = "") -> dict:
    """*fn*'s scalar keyword defaults as ``prefix + name`` spec keys.

    How a target that forwards spec params to *fn* learns which keys
    *fn* takes and what they default to, without restating either.
    """
    return {prefix + name: p.default
            for name, p in inspect.signature(fn).parameters.items()
            if p.default is not p.empty and p.default is not None}


@functools.lru_cache(maxsize=8)
def _counted(dataset: str, k: int, budget: int):
    """Workload + oracle counts, cached across repetitions."""
    from ..bench.workloads import build_workload
    from ..core.serial import serial_count

    w = build_workload(dataset, k, budget_kmers=budget)
    return w, serial_count(w.reads, k)


@contextmanager
def _table(p: dict):
    """The counted table a serving target runs over, taken out of *p*.

    ``database`` names what to serve: an LSM store directory (yielded
    open as the second value, closed on the way out), or a count
    database / text dump file; left empty, the ``dataset`` replica is
    counted at ``k`` and ``budget``.
    """
    database, dataset, k, budget = (
        p.pop(key) for key in ("database", "dataset", "k", "budget"))
    if not database:
        yield _counted(dataset, k, budget)[1], None
    elif Path(database).is_dir():
        from ..lsm import LsmStore

        with LsmStore(database) as lsm:
            yield lsm.snapshot(), lsm
    else:
        from ..apps.store import load_database

        yield load_database(database), None


# ---------------------------------------------------------------------------
# serve: the sharded/batched/cached read path vs the naive scalar loop
# ---------------------------------------------------------------------------

_SERVE_DATA = {"database": "", "dataset": "synthetic-24", "k": 21,
               "budget": 150_000}


def _serve_defaults() -> dict:
    from ..serve import EngineConfig, run_serve_bench

    return {**_SERVE_DATA, **_kwdefaults(run_serve_bench),
            **_kwdefaults(EngineConfig)}


def _serve_bench(p: dict) -> TargetOutcome:
    from ..serve import EngineConfig, run_serve_bench

    config = EngineConfig(**{key: p.pop(key)
                             for key in _kwdefaults(EngineConfig)})
    with _table(p) as (counts, lsm):
        # A live store is served through its merge-on-read view; its
        # snapshot still ranks the workload's key popularity.
        result = run_serve_bench(
            counts, config=config,
            store=lsm.read_view(p["n_shards"]) if lsm else None, **p)
    latency = result.served.snapshot()["latency_ms"]
    return TargetOutcome(
        metrics={
            "speedup": result.speedup,
            "served_qps": result.served.throughput_qps,
            "naive_qps": result.naive.throughput_qps,
            "cache_hit_rate": result.served.cache_hit_rate,
            "served_p99_ms": latency["p99"],
            "served_p50_ms": latency["p50"],
            "mean_batch_keys": result.served.mean_batch_size,
            "rejected": float(result.served.rejected),
        },
        checks={
            "answers_match": result.answers_match,
            # The stream is skewed and the cache absorbed its head.
            "cache_absorbed_head": result.served.cache_hit_rate > 0.3,
            # Batching coalesced (not one lookup per query).
            "batching_coalesced": result.served.mean_batch_size > 4.0,
            "nothing_shed": result.served.rejected == 0,
        },
        cost_checks={"speedup_ge_5x": result.speedup >= 5.0},
    )


# ---------------------------------------------------------------------------
# lsm: durable ingest, bounded read amplification, incremental delta
# ---------------------------------------------------------------------------

_LSM_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 150_000,
    "batch_records": 100, "memtable_kib": 8, "max_runs": 4, "fan_in": 4,
    "delta_fraction": 0.1,
}


def _median_get_us(store, groups) -> float:
    """Median microseconds of one ``store.get`` per row of *groups*."""
    times = []
    for keys in groups:
        t0 = time.perf_counter()
        store.get(keys)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def _lsm_bench(p: dict) -> TargetOutcome:
    import numpy as np

    from ..api import count_kmers
    from ..lsm import LsmConfig, LsmStore

    w, oracle = _counted(p["dataset"], p["k"], p["budget"])
    reads, k = w.reads, p["k"]
    step = p["batch_records"]
    batches = [reads[i:i + step] for i in range(0, reads.shape[0], step)]
    cut = int(reads.shape[0] * (1 - p["delta_fraction"])) or 1
    base = [reads[i:min(i + step, cut)] for i in range(0, cut, step)]
    delta = reads[cut:]
    config = LsmConfig(memtable_bytes=p["memtable_kib"] << 10,
                       max_runs=p["max_runs"], fan_in=p["fan_in"],
                       auto_compact=False)

    with tempfile.TemporaryDirectory(prefix="xp-lsm-") as tmp:
        tmp = Path(tmp)
        store = LsmStore(tmp / "db", k, config=config)
        t0 = time.perf_counter()
        n = 0
        for batch in batches:
            n += store.ingest(batch)
        store.flush()
        t_ingest = time.perf_counter() - t0
        sample = store.snapshot().kmers[:2048]
        groups = np.random.default_rng(p["seed"]).choice(sample, (64, 256))
        runs_before = store.n_runs
        store.stats.point_reads = store.stats.run_probes = 0
        store.get(sample)
        amp_before = store.stats.read_amplification
        get_us_before = _median_get_us(store, groups)
        store.compact()
        store.stats.point_reads = store.stats.run_probes = 0
        store.get(sample)
        amp_after = store.stats.read_amplification
        get_us_after = _median_get_us(store, groups)
        snapshot_exact = store.snapshot() == oracle
        store.close()

        inc = LsmStore(tmp / "inc", k,
                       config=LsmConfig(memtable_bytes=8 << 20,
                                        max_runs=p["max_runs"],
                                        fan_in=p["fan_in"],
                                        auto_compact=False))
        for batch in base:
            inc.ingest(batch)
        inc.flush()
        inc.compact()
        inc.ingest(delta)
        incremental_exact = inc.snapshot() == oracle   # serial_count(reads, k)
        t_incremental = t_rebuild = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            inc.ingest(delta)
            t_incremental = min(t_incremental, time.perf_counter() - t0)
            t0 = time.perf_counter()
            count_kmers(reads, k, algorithm="fast")   # ingest's own counter
            t_rebuild = min(t_rebuild, time.perf_counter() - t0)
        inc.close()

    return TargetOutcome(
        metrics={
            "ingest_records_per_s": n / t_ingest,
            "amp_before_compaction": amp_before,
            "amp_after_compaction": amp_after,
            "incremental_speedup": t_rebuild / t_incremental,
            "incremental_seconds": t_incremental,
            "get_p50_us_before_compaction": get_us_before,
            "get_p50_us_after_compaction": get_us_after,
        },
        checks={
            "snapshot_exact": bool(snapshot_exact),
            "incremental_exact": bool(incremental_exact),
            # A point read probes every resident run: amplification is
            # the run count before compaction, <= fan-in after.
            "amp_equals_runs_before": amp_before == runs_before,
            "runs_exceeded_fan_in": runs_before > p["fan_in"],
            "amp_bounded": amp_after <= p["fan_in"],
        },
        cost_checks={"incremental_ge_3x": t_rebuild / t_incremental >= 3.0},
    )


# ---------------------------------------------------------------------------
# ooc: out-of-core count (slices -> scratch runs -> one merge) under a
# hard memory ceiling
# ---------------------------------------------------------------------------

_OOC_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 200_000,
    "n_bins": 32, "overcommit": 16,
}


def _ooc_bench(p: dict) -> TargetOutcome:
    from ..core.serial import serial_count
    from ..lsm import LsmConfig, LsmStore
    from ..ooc import OocCountStats, ooc_count
    from ..runtime.cost import CostModel
    from ..runtime.machine import laptop
    from ..runtime.stats import PEStats

    w, _ = _counted(p["dataset"], p["k"], p["budget"])
    k = p["k"]
    reads = [w.reads[i] for i in range(w.reads.shape[0])]
    dataset_bytes = sum(r.size for r in reads)
    ceiling = max(4096, dataset_bytes // p["overcommit"])

    t0 = time.perf_counter()
    oracle = serial_count(reads, k)
    t_memory = time.perf_counter() - t0

    # Count-and-serve: the ceiling also sizes the fused store's
    # memtable, and disk traffic is priced on the laptop preset.
    stats, pe = OocCountStats(), PEStats(0)
    with tempfile.TemporaryDirectory(prefix="xp-ooc-") as tmp:
        store = LsmStore(Path(tmp) / "db", k,
                         config=LsmConfig(memtable_bytes=ceiling))
        t0 = time.perf_counter()
        counts = ooc_count(reads, k, n_bins=p["n_bins"],
                           memory_bytes=ceiling,
                           workdir=Path(tmp) / "scratch", store=store,
                           cost=CostModel(laptop()), pe_stats=pe,
                           stats=stats)
        t_ooc = time.perf_counter() - t0
        store_exact = store.snapshot() == oracle
        store_loads = store.stats.bulk_loads
        store.close()
    charged = pe.clock  # ooc_count charges this PE disk I/O only

    return TargetOutcome(
        metrics={
            "ooc_seconds": t_ooc,
            "in_memory_seconds": t_memory,
            "slowdown_vs_memory": t_ooc / t_memory,
            "bytes_spilled": float(stats.bytes_spilled),
            "overcommit": dataset_bytes / ceiling,
            "disk_charged_seconds": charged,
        },
        checks={
            "counts_exact": counts == oracle,
            "store_exact": bool(store_exact),
            "dataset_ge_10x_ceiling": dataset_bytes >= 10 * ceiling,
            # The ceiling really bit: it cut the input into several
            # slices, they reached disk as scratch runs, and every
            # scratch byte was read by exactly one merge.
            "ceiling_hit_twice": stats.n_slices >= 2,
            "spilled": stats.bytes_spilled > 0,
            "reread_matches_spill":
                stats.bytes_reread == stats.bytes_spilled,
            "disk_writes_charged":
                pe.disk_bytes_written == stats.bytes_spilled
                and charged > 0,
            # The store took the whole count as one load.
            "store_flushed": store_loads == 1,
        },
    )


# ---------------------------------------------------------------------------
# count: the streaming counter vs the per-read scalar baseline — the
# headline records/s trajectory of the repo
# ---------------------------------------------------------------------------

_COUNT_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 120_000,
    "batch_records": 100_000, "canonical": 0,
}


@functools.lru_cache(maxsize=8)
def _count_records(dataset: str, k: int, budget: int):
    """Workload decoded to SeqRecords (untimed setup), cached."""
    from ..seq.encoding import decode_codes
    from ..seq.fastx import SeqRecord

    w, oracle = _counted(dataset, k, budget)
    records = [SeqRecord(name=f"r{i}", seq=decode_codes(w.reads[i]))
               for i in range(w.reads.shape[0])]
    return records, oracle


def _count_bench(p: dict) -> TargetOutcome:
    from ..apps.store import load_counts, save_counts
    from ..apps.streaming import count_records_streaming
    from ..core.serial import serial_count
    from ..seq.encoding import encode_seq
    from ..seq.superkmers import DEFAULT_MINIMIZER_LEN, split_superkmers_batch

    k, canonical = p["k"], bool(p["canonical"])
    records, oracle = _count_records(p["dataset"], k, p["budget"])
    reads = _counted(p["dataset"], k, p["budget"])[0].reads
    if canonical:
        oracle = serial_count(reads, k, canonical=True)

    # Baseline: the per-read scalar path — encode one read at a time,
    # then Algorithm 1 with the in-tree hybrid sort.
    t0 = time.perf_counter()
    scalar = serial_count(
        [encode_seq(r.seq, validate=False) for r in records], k,
        canonical=canonical)
    t_scalar = time.perf_counter() - t0

    t0 = time.perf_counter()
    fast = count_records_streaming(
        records, k, batch_records=p["batch_records"], canonical=canonical)
    t_fast = time.perf_counter() - t0

    with tempfile.TemporaryDirectory(prefix="xp-count-") as tmp:
        db = Path(tmp) / "counts.kdb"
        t0 = time.perf_counter()
        save_counts(db, fast, canonical=canonical)
        t_save = time.perf_counter() - t0
        db_bytes = db.stat().st_size
        t0 = time.perf_counter()
        loaded = load_counts(db)
        t_load = time.perf_counter() - t0

    batch = split_superkmers_batch(reads, k, min(k, DEFAULT_MINIMIZER_LEN))
    wire = batch.wire_bytes()
    compression = (8.0 * batch.n_kmers / wire) if wire else 0.0

    n = len(records)
    return TargetOutcome(
        metrics={
            "fast_records_per_s": n / t_fast,
            "scalar_records_per_s": n / t_scalar,
            "speedup": t_scalar / t_fast,
            "superkmer_compression": compression,
            "save_s": t_save,
            "load_s": t_load,
            "db_bytes_per_kmer": db_bytes / max(1, fast.n_distinct),
        },
        checks={
            "fast_equals_scalar": fast == scalar,
            "fast_equals_serial_oracle": fast == oracle,
            "database_round_trips": loaded == (oracle, canonical),
        },
    )


# ---------------------------------------------------------------------------
# dst: deterministic-simulation fuzz campaign, cheap enough to run on
# every change
# ---------------------------------------------------------------------------

_DST_DEFAULTS = {"budget": 60, "n_seeds": 2}

#: The fault-tolerance cost section's fixed shape: DST's own universe
#: is too small to price the reliability layer (the protected/bare
#: ratio reads exactly 1.0 there), so it runs at a counting size.
_COST_DATASET, _COST_K, _COST_BUDGET, _COST_NODES = (
    "synthetic-24", 31, 200_000, 8)
_COST_HOSTILE = {"drop_prob": 0.02, "duplicate_prob": 0.02,
                 "corrupt_prob": 0.01, "crash_pes": (3,)}
_COST_PLANS = 3


def _fault_costs(seed: int) -> tuple[dict, dict]:
    """What the reliability layer and checkpoint restart cost, in
    simulated time: a clean plan bare and protected, then
    ``_COST_PLANS`` hostile plans (seeded from *seed*) protected —
    all through DST's :func:`~repro.dst.sim.run_runtime`."""
    from ..core.seeds import spawn_seeds
    from ..dst.schedule import Schedule
    from ..dst.sim import run_runtime
    from ..fault import FaultPlan
    from ..runtime.cost import CostModel
    from ..runtime.machine import phoenix_intel

    w, oracle = _counted(_COST_DATASET, _COST_K, _COST_BUDGET)

    def run(plan: FaultPlan, protect: bool):
        cost = CostModel(phoenix_intel(_COST_NODES), cores_per_pe=24)
        return run_runtime(Schedule(protocol="2D", protect=protect, plan=plan),
                           w.reads, _COST_K, cost)

    bare = run(FaultPlan(seed=seed), protect=False)
    clean = run(FaultPlan(seed=seed), protect=True)
    hostile = [run(FaultPlan(seed=s, **_COST_HOSTILE), protect=True)
               for s in spawn_seeds(seed, _COST_PLANS)]
    if not all(r.error is None and r.counts == oracle
               for r in (bare, clean, *hostile)):
        return {}, {"cost_runs_exact": False}  # no cost without exact counts
    overhead = clean.stats.sim_time / bare.stats.sim_time
    metrics = {
        "fault_free_overhead": overhead,
        "retransmits": float(sum(r.stats.total("retransmits")
                                 for r in hostile)),
        "mean_recovery_time":
            sum(r.stats.recovery_time for r in hostile) / len(hostile),
    }
    checks = {
        "cost_runs_exact": True,
        "overhead_lt_10pct": overhead < 1.10,
        "clean_needed_no_recovery":
            clean.stats.total("retransmits") == 0
            and clean.stats.recovery_time == 0.0,
        # Beyond the accounted recovery time (timeouts, reboot,
        # restore), masking faults costs a small multiple of the
        # clean kernel (retransmitted staging/PUT work).
        "hostile_time_bounded": all(
            r.stats.sim_time < 10.0 * bare.stats.sim_time
            + r.stats.recovery_time for r in hostile),
    }
    return metrics, checks


def _dst_sweep(p: dict) -> TargetOutcome:
    from ..core.seeds import spawn_seeds
    from ..dst.runner import dst_run

    seeds = spawn_seeds(p["seed"], p["n_seeds"])
    replay_every = 10  # schedules 0, 10, 20, ... run twice, digests compared
    t0 = time.perf_counter()
    reports = [dst_run(budget=p["budget"], seed=s, shrink=False,
                       determinism_every=replay_every) for s in seeds]
    elapsed = time.perf_counter() - t0
    schedules = sum(r.schedules_run for r in reports)
    fault_metrics, fault_checks = _fault_costs(p["seed"])
    return TargetOutcome(
        metrics={
            "schedules_per_s": schedules / elapsed if elapsed else 0.0,
            "schedules_run": float(schedules),
            "violations": float(sum(len(r.violations) for r in reports)),
            **fault_metrics,
        },
        checks={
            "no_violations": all(not r.violations for r in reports),
            "deterministic": all(r.determinism_ok for r in reports),
            "all_schedules_ran": schedules == len(seeds) * p["budget"],
            "determinism_sampled": all(
                r.determinism_checked
                == len(range(0, p["budget"], replay_every))
                for r in reports),
            "digests_distinct": all(
                len(set(r.digests.values())) == p["budget"]
                for r in reports),
            "crashes_covered": all(
                sum(r.coverage[key] for r in reports) > 0
                for key in ("protected_crash", "unprotected_crash")),
            **fault_checks,
        },
        cost_checks={"throughput_gt_10_per_s": schedules > 10.0 * elapsed},
    )


# ---------------------------------------------------------------------------
# cluster: replica-aware routing overhead, hedged tails, RF=2 chaos
# ---------------------------------------------------------------------------

_CLUSTER_DATA = {"database": "", "dataset": "synthetic-24", "k": 21,
                 "budget": 120_000}


def _cluster_defaults() -> dict:
    from ..cluster import run_cluster_bench

    return {**_CLUSTER_DATA, **_kwdefaults(run_cluster_bench)}


def _cluster_bench(p: dict) -> TargetOutcome:
    from ..cluster import run_cluster_bench

    with _table(p) as (counts, _):
        doc = run_cluster_bench(counts, **p)
    ov, hd, ch = doc["overhead"], doc["hedging"], doc["chaos"]
    hedged, unhedged = hd["hedged"], hd["unhedged"]
    return TargetOutcome(
        metrics={
            "router_overhead_frac": ov["overhead_frac"],
            "router_qps": ov["router_qps"],
            "engine_qps": ov["engine_qps"],
            "hedged_p99_reduction": hd["p99_reduction"],
            "hedged_p99_ms": hedged["p99_ms"],
            "unhedged_p99_ms": unhedged["p99_ms"],
            "hedged_qps": hedged["throughput_qps"],
            "retries": float(ch["retries"]),
            "failovers": float(ch["failovers"]),
            "moved_keys": float(ch["rebalance"]["moved_keys"]),
        },
        checks={
            "answers_match": ov["answers_match"],
            "hedging_answers_match":
                hedged["answers_match"] and unhedged["answers_match"],
            "hedges_fired": hedged["hedges_fired"] > 0,
            # One straggler node: hedging cuts the client-visible tail.
            "hedged_p99_lt_70pct":
                hedged["p99_ms"] < 0.70 * unhedged["p99_ms"],
            # RF=2: a node kill mid-load plus a join/leave rebalance
            # loses no answer and never exhausts a replica set.
            "chaos_answers_exact":
                ch["answers_exact"] and ch["lost_answers"] == 0,
            "no_failovers": ch["failovers"] == 0,
            "final_rf_ok": ch["final_rf_ok"],
            "rebalance_moved": ch["rebalance"]["moved_keys"] > 0,
        },
        # Fault-free, redundancy is nearly free.
        cost_checks={"overhead_lt_15pct": ov["overhead_frac"] < 0.15},
    )


# ---------------------------------------------------------------------------
# tenant: a flooding antagonist vs a paced victim, isolation on and off
# ---------------------------------------------------------------------------

_TENANT_DATA = {"database": "", "dataset": "synthetic-20", "k": 15,
                "budget": 100_000}


def _tenant_defaults() -> dict:
    from ..tenant.bench import bench_engine_config, run_tenant_bench

    return {**_TENANT_DATA, **_kwdefaults(run_tenant_bench),
            **asdict(bench_engine_config())}


def _tenant_bench(p: dict) -> TargetOutcome:
    from ..serve import EngineConfig
    from ..tenant.bench import bench_engine_config, run_tenant_bench

    config = EngineConfig(**{key: p.pop(key)
                             for key in asdict(bench_engine_config())})
    with _table(p) as (counts, _):
        res = run_tenant_bench(counts, config=config, **p)
    actions = [d["action"] for d in res.autoscale["decisions"]]
    return TargetOutcome(
        metrics={
            "isolated_degradation": res.isolated_degradation,
            "unprotected_degradation": res.unprotected_degradation,
            "fairness_share_error": res.fairness["max_share_error"],
            "solo_p99_ms": res.solo["p99_ms"],
            "isolated_p99_ms": res.isolated["p99_ms"],
            "unprotected_p99_ms": res.unprotected["p99_ms"],
            "solo_p50_ms": res.solo["p50_ms"],
            "isolated_p50_ms": res.isolated["p50_ms"],
            "unprotected_p50_ms": res.unprotected["p50_ms"],
        },
        checks={
            "answers_match": res.answers_match,
            # The DRR audit: shares converge to weights, nobody starves.
            "no_starvation": res.fairness["starvation_violations"] == 0,
            "share_error_lt_5pct": res.fairness["max_share_error"] < 0.05,
            # The autoscaler split and merged back without losing a key.
            "autoscale_exact": bool(res.autoscale["exact_after_split"]
                                    and res.autoscale["exact_after_merge"]),
            "autoscale_split_and_merged":
                "split" in actions and "merge" in actions,
            # The headline: behind quotas + DRR the flood costs the
            # victim < 10% p99; without them, a large multiple.
            "isolated_lt_10pct": res.isolated_degradation < 0.10,
            "unprotected_gt_50pct": res.unprotected_degradation > 0.50,
        },
    )


# ---------------------------------------------------------------------------
# trace: record -> miniature-simulation model -> replay
# ---------------------------------------------------------------------------

_TRACE_DATA = {"dataset": "synthetic-24", "k": 21, "budget": 120_000}


def _trace_defaults() -> dict:
    from ..serve import BurstSpec
    from ..trace import run_trace_bench

    return {**_TRACE_DATA, **_kwdefaults(run_trace_bench),
            **_kwdefaults(BurstSpec, "burst_")}


def _trace_bench(p: dict) -> TargetOutcome:
    from ..serve import BurstSpec
    from ..trace import run_trace_bench

    _, counts = _counted(p.pop("dataset"), p.pop("k"), p.pop("budget"))
    res = run_trace_bench(
        counts,
        burst=BurstSpec(**{key[len("burst_"):]: p.pop(key)
                           for key in _kwdefaults(BurstSpec, "burst_")}),
        **p)
    return TargetOutcome(
        metrics={
            "model_error_pp": res.model_error_pp,
            "cache_hit_rate": res.cache["hit_rate"],
        },
        checks={
            # Miniature caches over pooled samples track a full
            # simulation of the same cache at every capacity.
            "model_error_le_2pp": res.model_error_pp <= 2.0,
            "replay_bit_identical": res.replay_answers_match,
        },
    )


# ---------------------------------------------------------------------------
# paper: one table, figure, ablation or extension of the source paper at
# the size its record is stated at (the experiment's own defaults)
# ---------------------------------------------------------------------------


def _paper(p: dict) -> TargetOutcome:
    from ..bench.experiments import run_experiment

    # The simulated machine is deterministic and the record is stated at
    # each experiment's default seed, so the repetition seed is not used.
    values = run_experiment(p["exp_id"]).values
    return TargetOutcome(metrics=values, checks=evaluate(p["exp_id"], values))


# ---------------------------------------------------------------------------
# synthetic: a free, deterministic target for smoke tests and CI
# ---------------------------------------------------------------------------

_SYNTH_DEFAULTS = {"base": 1.0, "scale": 1.0, "noise": 0.02}


def _synthetic_latency(p: dict) -> TargetOutcome:
    """A pretend latency: base*scale with seeded lognormal-ish noise.

    Pure function of (params, seed) — identical spec runs reproduce
    identical samples, which is what makes the gate's "re-run of the
    baseline passes" guarantee testable without wall-clock luck.
    """
    import numpy as np

    rng = np.random.default_rng(p["seed"])
    value = p["base"] * p["scale"] * float(
        np.exp(p["noise"] * rng.standard_normal()))
    return TargetOutcome(metrics={"value": value}, checks={})


TARGETS: dict[str, XpTarget] = {
    t.name: t
    for t in (
        XpTarget(
            "serve-bench", _serve_bench,
            {"speedup": "higher", "served_qps": "higher",
             "naive_qps": "higher", "cache_hit_rate": "higher",
             "served_p99_ms": "lower", "served_p50_ms": "lower",
             "mean_batch_keys": "higher", "rejected": "lower"},
            "sharded/batched/cached read path vs naive scalar serving",
            _serve_defaults,
        ),
        XpTarget(
            "lsm-bench", _lsm_bench,
            {"ingest_records_per_s": "higher",
             "amp_before_compaction": "lower",
             "amp_after_compaction": "lower",
             "incremental_speedup": "higher",
             "incremental_seconds": "lower",
             "get_p50_us_before_compaction": "lower",
             "get_p50_us_after_compaction": "lower"},
            "LSM store: durable ingest, read amplification, 10% delta "
            "vs full recount",
            _LSM_DEFAULTS.copy,
        ),
        XpTarget(
            "ooc-bench", _ooc_bench,
            {"ooc_seconds": "lower", "in_memory_seconds": "lower",
             "slowdown_vs_memory": "lower", "bytes_spilled": "lower",
             "overcommit": "higher", "disk_charged_seconds": "lower"},
            "out-of-core count (slices -> scratch runs -> one merge) loaded "
            "into an LSM store under a hard memory ceiling",
            _OOC_DEFAULTS.copy,
        ),
        XpTarget(
            "count-bench", _count_bench,
            {"fast_records_per_s": "higher",
             "scalar_records_per_s": "higher",
             "speedup": "higher",
             "superkmer_compression": "higher",
             "save_s": "lower", "load_s": "lower",
             "db_bytes_per_kmer": "lower"},
            "streaming counter (flat window kernel) vs per-read "
            "encode_seq + serial_count, bit-identical counts, saved and "
            "loaded back",
            _COUNT_DEFAULTS.copy,
        ),
        XpTarget(
            "dst-sweep", _dst_sweep,
            {"schedules_per_s": "higher", "schedules_run": "higher",
             "violations": "lower", "fault_free_overhead": "lower",
             "retransmits": "lower", "mean_recovery_time": "lower"},
            "deterministic-simulation fuzz campaign over the invariant "
            "registry (PE crashes included), plus what fault tolerance "
            "costs at a counting size",
            _DST_DEFAULTS.copy,
        ),
        XpTarget(
            "cluster-bench", _cluster_bench,
            {"router_overhead_frac": "lower", "router_qps": "higher",
             "engine_qps": "higher", "hedged_p99_reduction": "higher",
             "hedged_p99_ms": "lower", "unhedged_p99_ms": "lower",
             "hedged_qps": "higher", "retries": "lower",
             "failovers": "lower", "moved_keys": "lower"},
            "replicated serving cluster: router overhead, hedged tail "
            "under a straggler, RF=2 kill + live rebalance",
            _cluster_defaults,
        ),
        XpTarget(
            "tenant-bench", _tenant_bench,
            {"isolated_degradation": "lower",
             "unprotected_degradation": "higher",
             "fairness_share_error": "lower", "solo_p99_ms": "lower",
             "isolated_p99_ms": "lower", "unprotected_p99_ms": "higher",
             "solo_p50_ms": "lower", "isolated_p50_ms": "lower",
             "unprotected_p50_ms": "higher"},
            "multi-tenant QoS: paced victim p99 under a flooding "
            "antagonist, quotas + DRR on vs off",
            _tenant_defaults,
        ),
        XpTarget(
            "trace-bench", _trace_bench,
            {"model_error_pp": "lower", "cache_hit_rate": "higher"},
            "query trace: miniature simulations of the serving cache vs "
            "a full one, bit-identical replay",
            _trace_defaults,
        ),
        XpTarget(
            "paper", _paper, {claim.value: claim.direction for claim in CLAIMS},
            "a table, figure, ablation or extension of the source paper "
            "(exp_id), its claims as checks",
            lambda: {"exp_id": None},
        ),
        XpTarget(
            "synthetic-latency", _synthetic_latency,
            {"value": "lower"},
            "deterministic pseudo-latency for smoke tests and CI",
            _SYNTH_DEFAULTS.copy,
        ),
    )
}


def get_target(name: str) -> XpTarget:
    try:
        return TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown target {name!r}; known: {', '.join(sorted(TARGETS))}"
        ) from None


def list_targets() -> list[XpTarget]:
    return [TARGETS[name] for name in sorted(TARGETS)]
