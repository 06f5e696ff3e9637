"""The cluster-bench experiment: overhead, hedging, and chaos proofs.

One seeded campaign, run by the ``cluster-bench`` xp target (``dakc
xp run benchmarks/xp/cluster.json`` → ledger ``cluster-bench``).
Three claims, each on the clock its kind needs (:mod:`repro.serve.clock`):

* **overhead** (cost, wall clock) — fault-free, the replica-aware
  router costs < 15% of throughput vs. the direct single-copy
  :class:`~repro.serve.engine.QueryEngine` on the same Zipf stream
  (redundancy is close to free when nothing is wrong);
* **hedging** (queueing, virtual time) — with one straggler node
  injected (:class:`~repro.fault.FaultPlan`-style clock dilation),
  hedged requests cut p99 latency vs. the same cluster with hedging
  off (the "tail at scale" claim, reproduced); node service times are
  the only time that passes, so both p99s are exact for a seed;
* **chaos exactness** (queueing, virtual time) — with RF=2, killing a
  node mid-load and then rebalancing (one join + one leave, evicting
  the corpse) loses zero answers: every issued query returns the
  bit-exact serial-oracle count, before, during, and after the data
  movement.

Workloads come from :func:`repro.serve.workload.zipf_workload` so the
popularity skew matches the serving benchmarks, streams are submitted
by the same :func:`~repro.serve.workload.drive_load` client, and the
oracle is :func:`~repro.core.result.probe_sorted` over the counted
database.  Answers are a pure function of the seed in every section,
and so are the hedging and chaos documents.
"""

from __future__ import annotations

import asyncio

import numpy as np

from ..core.result import KmerCounts, probe_sorted
from ..core.seeds import spawn_seeds
from ..serve.clock import run_virtual
from ..serve.engine import EngineConfig, QueryEngine
from ..serve.shards import ShardedStore
from ..serve.workload import drive_load, key_groups, zipf_workload
from .node import ClusterNode, RangeStore, build_cluster
from .rebalance import rebalance
from .router import ClusterRouter

__all__ = ["run_cluster_bench"]


def _bench_overhead(counts: KmerCounts, groups: list[np.ndarray],
                    oracle: np.ndarray, *,
                    n_nodes: int, rf: int, vnodes: int, seed: int,
                    concurrency: int, repeats: int) -> dict:
    """Fault-free: replica-aware router vs. direct QueryEngine."""
    store = ShardedStore.from_counts(counts, n_nodes)

    def engine_run():
        async def drive():
            async with QueryEngine(store, EngineConfig()) as engine:
                out, elapsed = await drive_load(engine, groups,
                                                concurrency=concurrency)
                return elapsed, out
        return asyncio.run(drive())

    def router_run():
        ring, nodes = build_cluster(counts, n_nodes, rf=rf, vnodes=vnodes,
                                    seed=seed)
        out, elapsed = asyncio.run(drive_load(
            ClusterRouter(ring, nodes), groups, concurrency=concurrency))
        return elapsed, out

    # Alternate the drives, best-of per side: a slow host window then
    # lands on both sides instead of skewing one.
    t_engine = t_router = float("inf")
    for _ in range(repeats):
        elapsed, engine_out = engine_run()
        t_engine = min(t_engine, elapsed)
        elapsed, router_out = router_run()
        t_router = min(t_router, elapsed)
    n = int(oracle.size)
    return {
        "n_queries": n,
        "answers_match": bool(np.array_equal(engine_out, oracle)
                              and np.array_equal(router_out, oracle)),
        "engine_seconds": t_engine,
        "router_seconds": t_router,
        "engine_qps": n / t_engine,
        "router_qps": n / t_router,
        "overhead_frac": t_router / t_engine - 1.0,
    }


def _bench_hedging(counts: KmerCounts, groups: list[np.ndarray],
                   oracle: np.ndarray, *,
                   n_nodes: int, rf: int, vnodes: int, seed: int,
                   concurrency: int, service_time: float,
                   straggler_delay: float) -> dict:
    """One straggler node: p99 with hedging on vs. off."""
    straggler = 0
    dilation = straggler_delay / service_time

    def run(hedging: bool) -> dict:
        ring, nodes = build_cluster(counts, n_nodes, rf=rf, vnodes=vnodes,
                                    seed=seed, service_time=service_time)
        nodes[straggler].degrade(dilation)
        router = ClusterRouter(ring, nodes, hedging=hedging)
        out, router.metrics.router.elapsed = run_virtual(
            drive_load(router, groups, concurrency=concurrency))
        hist = router.metrics.router.latency
        return {
            "answers_match": bool(np.array_equal(out, oracle)),
            "p50_ms": hist.quantile(0.50) * 1e3,
            "p95_ms": hist.quantile(0.95) * 1e3,
            "p99_ms": hist.quantile(0.99) * 1e3,
            "throughput_qps": router.metrics.router.throughput_qps,
            "hedges_fired": router.metrics.hedges_fired,
            "hedges_won": router.metrics.hedges_won,
            "retries": router.metrics.retries,
        }

    unhedged = run(hedging=False)
    hedged = run(hedging=True)
    return {
        "straggler_node": straggler,
        "straggler_delay_s": straggler_delay,
        "service_time_s": service_time,
        "unhedged": unhedged,
        "hedged": hedged,
        "p99_reduction": 1.0 - hedged["p99_ms"] / unhedged["p99_ms"]
        if unhedged["p99_ms"] > 0 else 0.0,
    }


def _bench_chaos(counts: KmerCounts, groups: list[np.ndarray],
                 oracle: np.ndarray, *,
                 n_nodes: int, rf: int, vnodes: int, seed: int,
                 service_time: float,
                 chunk_keys: int) -> dict:
    """RF=2 node kill mid-load + join/leave rebalance: zero lost answers."""
    ring, nodes = build_cluster(counts, n_nodes, rf=rf, vnodes=vnodes,
                                seed=seed, service_time=service_time)
    router = ClusterRouter(ring, nodes)
    victim = n_nodes - 1
    joiner = n_nodes  # fresh node id
    kill_at = max(1, len(groups) // 3)
    rebalance_at = max(kill_at + 1, (2 * len(groups)) // 3)

    async def sweep() -> np.ndarray:
        """Query the full database (chunked) — the exactness probe."""
        outs = []
        for lo in range(0, counts.kmers.size, 4096):
            outs.append(await router.query_many(counts.kmers[lo:lo + 4096]))
        return np.concatenate(outs) if outs else np.empty(0, dtype=np.int64)

    async def drive() -> dict:
        exact = {}
        exact["before_kill"] = bool(
            np.array_equal(await sweep(), counts.counts))
        answers = []
        reb_task = None
        during_exact = True
        for i, group in enumerate(groups):
            if i == kill_at:
                router.nodes[victim].kill()
            if i == rebalance_at:
                new_ring = router.ring.with_node(joiner).without_node(victim)
                router.add_node(ClusterNode(joiner, RangeStore.empty(),
                                            service_time=service_time))
                reb_task = asyncio.create_task(
                    rebalance(router, new_ring, chunk_keys=chunk_keys))
                # Probe exactness *during* the data movement.
                during_exact = bool(
                    np.array_equal(await sweep(), counts.counts))
            answers.append(await router.query_many(group))
        lost = int((np.concatenate(answers) != oracle).sum())
        exact["after_kill"] = lost == 0
        report = await reb_task if reb_task is not None else None
        exact["during_rebalance"] = during_exact
        exact["after_rebalance"] = bool(
            np.array_equal(await sweep(), counts.counts))
        router.remove_node(victim)
        return {"exact": exact, "lost_answers": lost,
                "rebalance": report.snapshot() if report else None}

    doc = run_virtual(drive())
    m = router.metrics
    replicas = router.ring.replicas_batch(counts.kmers)
    doc.update({
        "killed_node": victim,
        "joined_node": joiner,
        "rf": rf,
        "answers_exact": all(doc["exact"].values()),
        "retries": m.retries,
        "failovers": m.failovers,
        "hedges_fired": m.hedges_fired,
        "final_rf_ok": bool((np.sort(replicas, axis=1)[:, 1:]
                             != np.sort(replicas, axis=1)[:, :-1]).all()),
    })
    return doc


def run_cluster_bench(
    counts: KmerCounts,
    *,
    n_nodes: int = 6,
    rf: int = 2,
    vnodes: int = 16,
    n_queries: int = 30_000,
    zipf_s: float = 1.1,
    seed: int = 0,
    miss_fraction: float = 0.02,
    group_size: int = 256,
    concurrency: int = 8,
    service_time: float = 2e-4,
    straggler_delay: float = 2e-2,
    chunk_keys: int = 2048,
    repeats: int = 3,
) -> dict:
    """Run all three cluster-bench sections; returns one document each."""
    # The straggler is degraded by straggler_delay / service_time.
    if service_time <= 0:
        raise ValueError(f"service_time must be > 0, got {service_time}")
    if straggler_delay < service_time:
        raise ValueError(f"straggler_delay must be >= service_time "
                         f"({service_time}), got {straggler_delay}")
    # One root seed, independent child streams per section: the workload
    # draw and the three ring constructions must not alias (spawn(), not
    # ``seed + i`` arithmetic — see repro.core.seeds).
    workload_seed, overhead_seed, hedging_seed, chaos_seed = spawn_seeds(seed, 4)
    stream = zipf_workload(counts, n_queries, s=zipf_s, seed=workload_seed,
                           miss_fraction=miss_fraction)
    groups = key_groups(stream.keys, group_size)
    oracle = probe_sorted(counts.kmers, counts.counts, stream.keys)
    return {
        "overhead": _bench_overhead(
            counts, groups, oracle, n_nodes=n_nodes, rf=rf, vnodes=vnodes,
            seed=overhead_seed, concurrency=concurrency, repeats=repeats),
        "hedging": _bench_hedging(
            counts, groups, oracle, n_nodes=n_nodes, rf=rf, vnodes=vnodes,
            seed=hedging_seed, concurrency=concurrency,
            service_time=service_time, straggler_delay=straggler_delay),
        "chaos": _bench_chaos(
            counts, groups, oracle, n_nodes=n_nodes, rf=rf, vnodes=vnodes,
            seed=chaos_seed, service_time=service_time, chunk_keys=chunk_keys),
    }
