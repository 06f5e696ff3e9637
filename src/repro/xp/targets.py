"""Runnable targets a declarative spec can name.

A target is a named callable taking one flat ``params`` dict (the
spec's fixed params + the cell's swept params + the repetition's
``seed``) and returning a :class:`TargetOutcome`: numeric *metrics*
(each with a declared better-direction, so the gate knows which way
"worse" points) and boolean *checks* (correctness claims — a run whose
checks fail is recorded but never usable as a baseline).

The three extension benches ported here (serve, lsm, ooc) reuse the
exact production entry points their ``benchmarks/bench_extension_*``
files drive, so a declarative run measures the same code path as the
hand-rolled bench it replaces.
"""

from __future__ import annotations

import functools
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

__all__ = ["TargetOutcome", "XpTarget", "TARGETS", "get_target",
           "list_targets"]


@dataclass(frozen=True)
class TargetOutcome:
    """What one repetition of a target measured."""

    metrics: dict = field(default_factory=dict)   # name -> float
    checks: dict = field(default_factory=dict)    # name -> bool


@dataclass(frozen=True)
class XpTarget:
    """A named, runnable experiment target."""

    name: str
    fn: Callable[[dict], TargetOutcome]
    directions: Mapping[str, str]   # metric -> 'lower' | 'higher'
    description: str

    def run(self, params: dict) -> TargetOutcome:
        return self.fn(params)


def _params(params: dict, defaults: dict) -> dict:
    """Merge spec params over target defaults; reject unknown keys."""
    unknown = set(params) - set(defaults) - {"seed"}
    if unknown:
        raise ValueError(
            f"unknown parameters {sorted(unknown)}; "
            f"this target accepts {sorted(defaults)} (+ seed)")
    merged = dict(defaults)
    merged.update(params)
    return merged


@functools.lru_cache(maxsize=8)
def _counted(dataset: str, k: int, budget: int):
    """Workload + oracle counts, cached across repetitions."""
    from ..bench.workloads import build_workload
    from ..core.serial import serial_count

    w = build_workload(dataset, k, budget_kmers=budget)
    return w, serial_count(w.reads, k)


# ---------------------------------------------------------------------------
# serve: the sharded/batched/cached read path vs the naive scalar loop
# ---------------------------------------------------------------------------

_SERVE_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 40_000,
    "n_queries": 8_000, "n_shards": 8, "zipf_s": 1.1,
    "miss_fraction": 0.02, "cache_capacity": 4096, "cache_threshold": 2,
    "batch_size": 256, "batch_window": 5e-4, "group_size": 256,
    "concurrency": 8,
}


def _serve_bench(params: dict) -> TargetOutcome:
    from ..serve import EngineConfig, run_serve_bench

    p = _params(params, _SERVE_DEFAULTS)
    _, counts = _counted(p["dataset"], p["k"], p["budget"])
    result = run_serve_bench(
        counts,
        n_queries=p["n_queries"],
        n_shards=p["n_shards"],
        zipf_s=p["zipf_s"],
        seed=p.get("seed", 0),
        miss_fraction=p["miss_fraction"],
        config=EngineConfig(batch_size=p["batch_size"],
                            batch_window=p["batch_window"]),
        cache_capacity=p["cache_capacity"],
        cache_threshold=p["cache_threshold"],
        group_size=p["group_size"],
        concurrency=p["concurrency"],
    )
    return TargetOutcome(
        metrics={
            "speedup": result.speedup,
            "served_qps": result.served.throughput_qps,
            "naive_qps": result.naive.throughput_qps,
            "cache_hit_rate": result.served.cache_hit_rate,
            "served_p99_ms": result.served.snapshot()["latency_ms"]["p99"],
        },
        checks={"answers_match": result.answers_match},
    )


# ---------------------------------------------------------------------------
# lsm: durable ingest, bounded read amplification, incremental delta
# ---------------------------------------------------------------------------

_LSM_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 40_000,
    "batch_records": 50, "memtable_kib": 4, "max_runs": 4, "fan_in": 4,
    "delta_fraction": 0.1,
}


def _lsm_bench(params: dict) -> TargetOutcome:
    from ..core.serial import serial_count
    from ..lsm import LsmConfig, LsmStore

    p = _params(params, _LSM_DEFAULTS)
    w, oracle = _counted(p["dataset"], p["k"], p["budget"])
    reads, k = w.reads, p["k"]
    step = p["batch_records"]
    batches = [reads[i:i + step] for i in range(0, reads.shape[0], step)]
    cut = int(reads.shape[0] * (1 - p["delta_fraction"])) or 1
    base = [reads[i:min(i + step, cut)] for i in range(0, cut, step)]
    delta = [reads[cut:]]
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
        store.stats.point_reads = store.stats.run_probes = 0
        store.get(sample)
        amp_before = store.stats.read_amplification
        store.compact()
        store.stats.point_reads = store.stats.run_probes = 0
        store.get(sample)
        amp_after = store.stats.read_amplification
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
        for batch in delta:
            inc.ingest(batch)
        incremental_exact = inc.snapshot() == serial_count(reads, k)
        t_incremental = t_rebuild = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for batch in delta:
                inc.ingest(batch)
            t_incremental = min(t_incremental, time.perf_counter() - t0)
            t0 = time.perf_counter()
            serial_count(reads, k)
            t_rebuild = min(t_rebuild, time.perf_counter() - t0)
        inc.close()

    return TargetOutcome(
        metrics={
            "ingest_records_per_s": n / t_ingest,
            "amp_before_compaction": amp_before,
            "amp_after_compaction": amp_after,
            "incremental_speedup": t_rebuild / t_incremental,
            "incremental_seconds": t_incremental,
        },
        checks={
            "snapshot_exact": bool(snapshot_exact),
            "incremental_exact": bool(incremental_exact),
            "amp_bounded": amp_after <= p["fan_in"],
        },
    )


# ---------------------------------------------------------------------------
# ooc: two-pass out-of-core count under a hard memory ceiling
# ---------------------------------------------------------------------------

_OOC_DEFAULTS = {
    "dataset": "synthetic-24", "k": 21, "budget": 30_000,
    "n_bins": 32, "overcommit": 16,
}


def _ooc_bench(params: dict) -> TargetOutcome:
    from ..core.serial import serial_count
    from ..ooc import OocStats, ooc_count

    p = _params(params, _OOC_DEFAULTS)
    w, _ = _counted(p["dataset"], p["k"], p["budget"])
    k = p["k"]
    reads = [w.reads[i] for i in range(w.reads.shape[0])]
    dataset_bytes = sum(r.size for r in reads)
    ceiling = max(4096, dataset_bytes // p["overcommit"])

    t0 = time.perf_counter()
    oracle = serial_count(reads, k)
    t_memory = time.perf_counter() - t0

    stats = OocStats()
    with tempfile.TemporaryDirectory(prefix="xp-ooc-") as tmp:
        t0 = time.perf_counter()
        counts = ooc_count(reads, k, n_bins=p["n_bins"],
                           memory_bytes=ceiling,
                           workdir=Path(tmp) / "bins", stats=stats)
        t_ooc = time.perf_counter() - t0

    return TargetOutcome(
        metrics={
            "ooc_seconds": t_ooc,
            "in_memory_seconds": t_memory,
            "slowdown_vs_memory": t_ooc / t_memory,
            "bytes_spilled": float(stats.bytes_spilled),
            "overcommit": dataset_bytes / ceiling,
        },
        checks={
            "counts_exact": counts == oracle,
            "spilled": stats.bytes_spilled > 0,
            "reread_matches_spill":
                stats.bytes_reread == stats.bytes_spilled,
        },
    )


# ---------------------------------------------------------------------------
# count: the vectorised super-k-mer fast path vs the scalar streaming
# counter — the headline records/s trajectory of the repo
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


def _count_bench(params: dict) -> TargetOutcome:
    from ..apps.streaming import count_records_streaming
    from ..core.serial import serial_count
    from ..seq.encoding import encode_seq
    from ..seq.superkmers import DEFAULT_MINIMIZER_LEN, split_superkmers_batch

    p = _params(params, _COUNT_DEFAULTS)
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
        },
        checks={
            "fast_equals_scalar": fast == scalar,
            "fast_equals_serial_oracle": fast == oracle,
        },
    )


# ---------------------------------------------------------------------------
# chaos: fault-injected distributed counting stays exact (declarative
# port of the hand-rolled chaos sweep)
# ---------------------------------------------------------------------------

_CHAOS_DEFAULTS = {
    "dataset": "synthetic-20", "k": 15, "budget": 30_000,
    "nodes": 8, "n_plans": 3, "protocol": "2D",
    "drop_prob": 0.02, "duplicate_prob": 0.02, "corrupt_prob": 0.01,
    "crash_pe": 3,
}


def _chaos_sweep(params: dict) -> TargetOutcome:
    from ..core.dakc import DakcConfig
    from ..fault import FaultPlan
    from ..fault.chaos import derive_plan_seeds, run_chaos
    from ..runtime.cost import CostModel
    from ..runtime.machine import phoenix_intel

    p = _params(params, _CHAOS_DEFAULTS)
    w, _ = _counted(p["dataset"], p["k"], p["budget"])
    cost = lambda: CostModel(phoenix_intel(p["nodes"]), cores_per_pe=24)  # noqa: E731
    config = DakcConfig(protocol=p["protocol"])

    benign = run_chaos(w.reads, p["k"], cost(), FaultPlan(seed=p.get("seed", 0)),
                       config=config, protect=False)
    protected_clean = run_chaos(w.reads, p["k"], cost(),
                                FaultPlan(seed=p.get("seed", 0)),
                                config=config, protect=True)
    plans = [
        FaultPlan(seed=s, drop_prob=p["drop_prob"],
                  duplicate_prob=p["duplicate_prob"],
                  corrupt_prob=p["corrupt_prob"],
                  crash_pes=(p["crash_pe"],))
        for s in derive_plan_seeds(p.get("seed", 0), p["n_plans"])
    ]
    hostile = [run_chaos(w.reads, p["k"], cost(), plan,
                         config=config, protect=True)
               for plan in plans]

    overhead = (protected_clean.sim_time / benign.sim_time
                if benign.sim_time else float("inf"))
    return TargetOutcome(
        metrics={
            "fault_free_overhead": overhead,
            "retransmits": float(sum(o.retransmits for o in hostile)),
            "mean_recovery_time": (
                sum(o.recovery_time for o in hostile) / len(hostile)
                if hostile else 0.0),
        },
        checks={
            "benign_exact": benign.ok,
            "protected_clean_exact": protected_clean.ok,
            "hostile_all_exact": all(o.ok for o in hostile),
        },
    )


# ---------------------------------------------------------------------------
# dst: deterministic-simulation fuzz campaign (declarative port of the
# hand-rolled dst sweep)
# ---------------------------------------------------------------------------

_DST_DEFAULTS = {"budget": 60, "n_seeds": 2}


def _dst_sweep(params: dict) -> TargetOutcome:
    from ..core.seeds import spawn_seeds
    from ..dst.runner import dst_sweep

    p = _params(params, _DST_DEFAULTS)
    seeds = spawn_seeds(p.get("seed", 0), p["n_seeds"])
    t0 = time.perf_counter()
    reports = dst_sweep(seeds, budget=p["budget"], shrink=False)
    elapsed = time.perf_counter() - t0
    schedules = sum(r.schedules_run for r in reports)
    return TargetOutcome(
        metrics={
            "schedules_per_s": schedules / elapsed if elapsed else 0.0,
            "schedules_run": float(schedules),
            "violations": float(sum(len(r.violations) for r in reports)),
        },
        checks={
            "no_violations": all(not r.violations for r in reports),
            "deterministic": all(r.determinism_ok for r in reports),
        },
    )


# ---------------------------------------------------------------------------
# paper: any experiment of the fig/table registry, timed end to end
# ---------------------------------------------------------------------------

_PAPER_DEFAULTS = {"exp_id": "table2", "budget": 0, "exp_seed": 0}


def _paper_experiment(params: dict) -> TargetOutcome:
    from ..bench.experiments import run_experiment

    p = _params(params, _PAPER_DEFAULTS)
    kwargs = {"seed": p["exp_seed"]}
    if p["budget"]:
        kwargs["budget"] = p["budget"]
    result = run_experiment(p["exp_id"], **kwargs)
    return TargetOutcome(
        metrics={"n_tables": float(len(result.tables))},
        checks={"completed": bool(result.tables)},
    )


# ---------------------------------------------------------------------------
# synthetic: a free, deterministic target for smoke tests and CI
# ---------------------------------------------------------------------------

_SYNTH_DEFAULTS = {"base": 1.0, "scale": 1.0, "noise": 0.02}


def _synthetic_latency(params: dict) -> TargetOutcome:
    """A pretend latency: base*scale with seeded lognormal-ish noise.

    Pure function of (params, seed) — identical spec runs reproduce
    identical samples, which is what makes the gate's "re-run of the
    baseline passes" guarantee testable without wall-clock luck.
    """
    import numpy as np

    p = _params(params, _SYNTH_DEFAULTS)
    rng = np.random.default_rng(p.get("seed", 0))
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
             "served_p99_ms": "lower"},
            "sharded/batched/cached read path vs naive scalar serving",
        ),
        XpTarget(
            "lsm-bench", _lsm_bench,
            {"ingest_records_per_s": "higher",
             "amp_before_compaction": "lower",
             "amp_after_compaction": "lower",
             "incremental_speedup": "higher",
             "incremental_seconds": "lower"},
            "LSM store: durable ingest, read amplification, 10% delta "
            "vs full recount",
        ),
        XpTarget(
            "ooc-bench", _ooc_bench,
            {"ooc_seconds": "lower", "in_memory_seconds": "lower",
             "slowdown_vs_memory": "lower", "bytes_spilled": "lower",
             "overcommit": "higher"},
            "two-pass out-of-core count under a hard memory ceiling",
        ),
        XpTarget(
            "count-bench", _count_bench,
            {"fast_records_per_s": "higher",
             "scalar_records_per_s": "higher",
             "speedup": "higher",
             "superkmer_compression": "higher"},
            "vectorised super-k-mer fast path vs the scalar streaming "
            "counter, bit-identical counts",
        ),
        XpTarget(
            "chaos-sweep", _chaos_sweep,
            {"fault_free_overhead": "lower", "retransmits": "lower",
             "mean_recovery_time": "lower"},
            "fault-injected distributed counting stays exact under "
            "drop/dup/corrupt/crash plans",
        ),
        XpTarget(
            "dst-sweep", _dst_sweep,
            {"schedules_per_s": "higher", "schedules_run": "higher",
             "violations": "lower"},
            "deterministic-simulation fuzz campaign over the invariant "
            "registry",
        ),
        XpTarget(
            "paper-experiment", _paper_experiment,
            {"n_tables": "higher"},
            "any fig/table of the paper registry, timed end to end",
        ),
        XpTarget(
            "synthetic-latency", _synthetic_latency,
            {"value": "lower"},
            "deterministic pseudo-latency for smoke tests and CI",
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
