"""The seeded Simulation: one schedule in, one trajectory out.

Runs a schedule through the five stateful layers of the stack —

* **runtime**: ``dakc_count`` on the simulated machine under the
  schedule's fault plan (PE crashes included, restored from a
  checkpoint when protected), wire ordering and actor interleaving —
  through :func:`run_runtime`, which the ``dst-sweep`` target's cost
  section uses too;
* **lsm**: durable ingest of the same reads through an
  :class:`~repro.lsm.store.LsmStore` with the schedule's crash point
  armed, then a recovery reopen;
* **ooc**: the same reads counted out-of-core in the schedule's
  slice order, fused into a second LSM store;
* **cluster**: the counted database served through a replicated
  router, hedging on, while the schedule's membership script churns
  nodes — on the virtual-time loop of :mod:`repro.serve.clock`;
* **tenant**: the multi-tenant QoS machinery — the DRR fairness audit,
  token-bucket quotas, and the autoscaler decision machine — stepped
  on explicit timestamps under the schedule's tenant weights, rates,
  quantum, and scaler thresholds —

and checks the invariant registry against what each layer observed.
Everything a layer does is a pure function of ``(reads, SimConfig,
Schedule)``: RNG streams spawn from the schedule seed, nothing reads
the wall clock, and the trajectory digest covers only logical
outcomes (no timestamps, no paths).  Running the
same schedule twice must produce byte-identical digests — the
determinism contract ``dakc dst run`` verifies before trusting a
campaign.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cluster.script import run_membership_script
from ..core.dakc import DakcConfig, DeliveryIntegrityError, dakc_count
from ..core.result import KmerCounts, probe_sorted
from ..core.seeds import spawn_seeds
from ..core.serial import serial_count
from ..fault.checkpoint import CheckpointStore, apply_phase_crashes
from ..fault.injector import FaultyConveyor
from ..fault.reliability import (DEFAULT_MAX_ROUNDS, ReliabilityError,
                                 ReliableConveyor)
from ..lsm.crash import UNACKED_POINTS, CrashPoints, SimulatedCrash
from ..lsm.store import LsmConfig, LsmStore
from ..runtime.actor import ActorRuntime
from ..runtime.conveyors import Conveyor
from ..runtime.cost import CostModel
from ..runtime.machine import laptop
from ..runtime.stats import RunStats
from ..serve.cache import HotKeyCache
from .invariants import InvariantRegistry, Violation, default_registry
from .schedule import Schedule

__all__ = ["RuntimeRun", "SimConfig", "Trajectory", "Simulation",
           "run_runtime"]


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Workload and topology knobs of the simulated universe.

    Deliberately tiny: a schedule must run in tens of milliseconds so
    a 200-schedule budget finishes in CI, and small state spaces reach
    their corner cases (memtable flushes, compactions, relay traffic)
    with far fewer operations.
    """

    k: int = 9
    n_reads: int = 24
    read_len: int = 40
    # runtime layer
    nodes: int = 2
    cores_per_node: int = 2
    max_rounds: int = 8  # reliability retransmission budget
    # lsm layer
    n_batches: int = 4
    memtable_bytes: int = 2048  # tiny: forces flushes (and crash windows)
    max_runs: int = 2           # tiny: forces compactions
    cache_capacity: int = 16
    # ooc layer (its scratch-run fan-in is max_runs)
    ooc_ceiling: int = 512  # tiny: forces scratch runs and merges of them
    # cluster layer
    n_nodes: int = 4
    rf: int = 2
    vnodes: int = 8
    n_queries: int = 192
    group_size: int = 48
    miss_queries: int = 16

    @property
    def n_pes(self) -> int:
        return self.nodes * self.cores_per_node

    def to_doc(self) -> dict:
        return {
            "k": self.k, "n_reads": self.n_reads, "read_len": self.read_len,
            "nodes": self.nodes, "cores_per_node": self.cores_per_node,
            "max_rounds": self.max_rounds, "n_batches": self.n_batches,
            "memtable_bytes": self.memtable_bytes, "max_runs": self.max_runs,
            "cache_capacity": self.cache_capacity,
            "ooc_ceiling": self.ooc_ceiling,
            "n_nodes": self.n_nodes,
            "rf": self.rf, "vnodes": self.vnodes,
            "n_queries": self.n_queries, "group_size": self.group_size,
            "miss_queries": self.miss_queries,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SimConfig":
        return cls(**{k: int(v) for k, v in doc.items()})


@dataclass(slots=True)
class Trajectory:
    """What one schedule did, reduced to its logical outcome."""

    schedule: Schedule
    violations: list[Violation]
    events: dict
    digest: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_doc(self) -> dict:
        return {
            "schedule": self.schedule.to_doc(),
            "violations": [v.to_doc() for v in self.violations],
            "events": self.events,
            "digest": self.digest,
        }


def _digest(schedule: Schedule, events: dict) -> str:
    doc = {"schedule": schedule.to_doc(), "events": events}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _counts_fingerprint(counts) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(counts.kmers).tobytes())
    h.update(np.ascontiguousarray(counts.counts).tobytes())
    return h.hexdigest()[:16]


class _AckTracingConveyor(ReliableConveyor):
    """Reliable conveyor recording cumulative-ack window regressions.

    The monotone-acks invariant: a flow's dedup-window base may only
    advance.  Checked at the delivery point — the only place the base
    moves — so a regression is caught the moment it happens.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ack_regressions = 0
        self._high_base: dict[tuple[int, int], int] = {}

    def _deliver(self, pe, arrival, group) -> None:
        super()._deliver(pe, arrival, group)
        for flow, window in self._windows.items():
            high = self._high_base.get(flow, 0)
            if window.base < high:
                self.ack_regressions += 1
            else:
                self._high_base[flow] = window.base


def _delivered_weight(conveyor: Conveyor) -> int:
    """k-mer occurrences the owners hold (a HEAVY element stands for
    its count) — computed here, not borrowed from DAKC's own check."""
    weight = 0
    for queue in conveyor.delivered:
        for _, group in queue:
            weight += (int(group.counts.sum()) if group.kind == "HEAVY"
                       else group.kmers.size)
    return weight


@dataclass(slots=True)
class RuntimeRun:
    """One ``dakc_count`` under a schedule's wire, plan and checkpoint."""

    counts: KmerCounts | None  # None when the run raised
    stats: RunStats | None
    error: str | None
    conveyor: Conveyor
    #: What the inter-phase hook saw (empty when Phase 1 raised): the
    #: element ledger before any crash, the PEs crashed and restored,
    #: and the occurrences generated vs. held after the crashes.
    barrier: dict


def run_runtime(schedule: Schedule, reads, k: int, cost: CostModel, *,
                max_rounds: int = DEFAULT_MAX_ROUNDS) -> RuntimeRun:
    """Run ``dakc_count`` once under *schedule*'s runtime fields: the
    one place a :class:`~repro.fault.models.FaultPlan` meets the counter.

    The conveyor is reliable (ack-tracing) whenever the schedule is
    protected, faulty on a bare wire whose plan injects anything, plain
    otherwise.  At the inter-phase barrier the hook reads the element
    ledger, snapshots a protected crash schedule's delivered state and
    crashes the plan's PEs.  Delivery verification
    is on, as in the product; *cost*'s dilation is cleared afterwards.
    """
    plan = schedule.plan
    faulty = plan is not None and not plan.benign
    store = (CheckpointStore(cost)
             if schedule.protect and plan is not None
             and plan.crash_pes else None)
    holder: dict[str, Conveyor] = {}

    def conveyor_factory(*args, **kwargs):
        if schedule.protect:
            conv = _AckTracingConveyor(*args, plan=plan,
                                       max_rounds=max_rounds, **kwargs)
        elif faulty:
            conv = FaultyConveyor(*args, plan=plan, **kwargs)
        else:
            conv = Conveyor(*args, **kwargs)
        if schedule.drain_seed is not None:
            hook_rng = np.random.default_rng(schedule.drain_seed)
            conv.order_hook = (
                lambda arrival, seq, hop: float(hook_rng.random()))
        holder["conveyor"] = conv
        return conv

    runtime_factory = None
    if schedule.mode == "exact" and (schedule.step_seed is not None
                                     or schedule.mailbox_seed is not None):
        step_rng = np.random.default_rng(schedule.step_seed or 0)
        box_rng = np.random.default_rng(schedule.mailbox_seed or 0)
        step_order = None
        if schedule.step_seed is not None:
            def step_order(round_no, n_pes):
                return [int(p) for p in step_rng.permutation(n_pes)]
        mailbox_order = None
        if schedule.mailbox_seed is not None:
            def mailbox_order(pe, pending):
                order = box_rng.permutation(len(pending))
                return [pending[i] for i in order]

        def runtime_factory(cost, stats, conveyor):
            return ActorRuntime(cost, stats, conveyor,
                                step_order=step_order,
                                mailbox_order=mailbox_order)

    barrier: dict = {}

    def interphase_hook(conveyor, stats):
        fs = getattr(conveyor, "fault_stats", None)
        barrier.update(
            injected=conveyor.injected_elements,
            delivered=sum(conveyor.delivered_elements(pe)
                          for pe in range(cost.n_pes)),
            dropped=fs.dropped_elements if fs is not None else 0,
            duplicated=fs.duplicated_elements if fs is not None else 0,
        )
        if store is not None:
            store.snapshot_delivered(conveyor, stats)
        if plan is not None:
            apply_phase_crashes(plan, conveyor, stats, store)
        barrier.update(
            crashed=[pe for pe, s in enumerate(stats.pe)
                     for _ in range(s.crashes)],
            restored=list(store.restored) if store is not None else [],
            generated=stats.total_kmers,
            weight=_delivered_weight(conveyor),
        )

    counts = stats = error = None
    try:
        counts, stats = dakc_count(
            reads, k, cost,
            DakcConfig(protocol=schedule.protocol, mode=schedule.mode),
            conveyor_factory=conveyor_factory,
            runtime_factory=runtime_factory,
            interphase_hook=interphase_hook,
        )
    except (DeliveryIntegrityError, ReliabilityError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        cost.set_dilation(None)
    return RuntimeRun(counts, stats, error, holder["conveyor"], barrier)


class Simulation:
    """Deterministic ``(schedule, reads) -> trajectory`` machine."""

    def __init__(self, config: SimConfig | None = None,
                 registry: InvariantRegistry | None = None) -> None:
        self.config = config if config is not None else SimConfig()
        self.registry = registry if registry is not None else default_registry()

    # -- inputs --------------------------------------------------------

    def make_reads(self, seed: int) -> list[np.ndarray]:
        """The default read set for a schedule rooted at *seed*."""
        data_seed = spawn_seeds(seed, 1)[0]
        rng = np.random.default_rng(data_seed)
        return [
            rng.integers(0, 4, size=self.config.read_len).astype(np.uint8)
            for _ in range(self.config.n_reads)
        ]

    # -- layers --------------------------------------------------------

    def _run_runtime(self, schedule: Schedule, reads: list[np.ndarray],
                     reference) -> tuple[dict, dict]:
        cfg = self.config
        cost = CostModel(laptop(nodes=cfg.nodes, cores=cfg.cores_per_node))
        run = run_runtime(schedule, reads, cfg.k, cost,
                          max_rounds=cfg.max_rounds)
        plan = schedule.plan
        counts, barrier = run.counts, run.barrier
        ctx = {
            "error": run.error,
            "expects_exact": schedule.protect or plan is None or plan.benign,
            "counts_match": None if counts is None else counts == reference,
            "n_distinct": None if counts is None else int(counts.n_distinct),
            "oracle_distinct": int(reference.n_distinct),
            "protect": schedule.protect,
            "faulty": plan is not None and not plan.benign,
            "wire_faults": plan is not None and plan.has_wire_faults,
            "crash_pes": sorted(plan.crash_pes) if plan is not None else [],
            "ack_regressions": getattr(run.conveyor, "ack_regressions", 0),
            **barrier,
        }
        events = {
            "mode": schedule.mode,
            "protocol": schedule.protocol,
            "error": run.error,
            "counts": None if counts is None else _counts_fingerprint(counts),
            "sim_time": None if counts is None else run.stats.sim_time,
            **barrier,
            "checksum_failures": getattr(run.conveyor, "checksum_failures", 0),
        }
        return ctx, events

    def _run_lsm(self, schedule: Schedule, reads: list[np.ndarray],
                 reference, workdir: str | Path) -> tuple[dict, dict]:
        cfg = self.config
        lsm_cfg = LsmConfig(memtable_bytes=cfg.memtable_bytes,
                            max_runs=cfg.max_runs, fan_in=cfg.max_runs)
        crash = CrashPoints()
        if schedule.crash_point is not None:
            crash.arm(schedule.crash_point, nth=schedule.crash_nth)
        store_dir = Path(workdir) / "lsm"
        store = LsmStore(store_dir, cfg.k, config=lsm_cfg, crash=crash)
        cache = HotKeyCache(cfg.cache_capacity)
        store.subscribe(cache.invalidate_many)

        probe_rng = np.random.default_rng(spawn_seeds(schedule.seed, 2)[1])
        n_probe = min(8, int(reference.kmers.size))
        probe_keys = (probe_rng.choice(reference.kmers, size=n_probe,
                                       replace=False)
                      if n_probe else np.empty(0, dtype=np.uint64))
        probe_list = probe_keys.tolist()
        batches = [reads[i::cfg.n_batches] for i in range(cfg.n_batches)]
        batches = [b for b in batches if b]

        acked: list[np.ndarray] = []
        crashed_at = None
        stale_serves = 0
        for batch in batches:
            try:
                store.ingest(batch)
            except SimulatedCrash as exc:
                point = str(exc)
                crashed_at = point
                # The WAL append halves fire *before* the record is
                # durable — a crash there loses the batch by contract.
                # Everywhere else the batch is already on disk.
                if point not in UNACKED_POINTS:
                    acked.extend(batch)
                break
            acked.extend(batch)
            # Serve a few hot keys through the subscribed cache the way
            # the engine does (one bulk get, one bulk offer): any hit
            # must reflect every ingest so far.
            if n_probe:
                truth = store.get(probe_keys)
                cached = cache.get_many(probe_list)
                stale_serves += int(np.count_nonzero(
                    (cached >= 0) & (cached != truth)))
                cache.offer_many(probe_list, truth.tolist())

        if crashed_at is None:
            store.close()  # clean shutdown (memtable survives via WAL)
        else:
            store.wal.close()  # abandon the "process"; release the handle

        recovered = LsmStore(store_dir, config=lsm_cfg)
        snapshot = recovered.snapshot()
        recovered.close()
        if acked:
            oracle = serial_count(acked, cfg.k)
            match = snapshot == oracle
            detail = (f"recovered {int(snapshot.n_distinct)} distinct vs "
                      f"{int(oracle.n_distinct)} acknowledged"
                      if not match else None)
        else:
            match = int(snapshot.n_distinct) == 0
            detail = (None if match else
                      f"empty ack set but store holds "
                      f"{int(snapshot.n_distinct)} distinct keys")

        ctx = {"recovered_match": match, "detail": detail,
               "stale_serves": stale_serves}
        events = {
            "crash_point": schedule.crash_point,
            "crash_nth": schedule.crash_nth,
            "fired": list(crash.fired),
            "hit_counts": dict(sorted(crash.hit_counts.items())),
            "acked_reads": len(acked),
            "recovered": _counts_fingerprint(snapshot),
            "recovered_match": match,
            "stale_serves": stale_serves,
        }
        return ctx, events

    def _run_ooc(self, schedule: Schedule, reads: list[np.ndarray],
                 reference, workdir: str | Path) -> tuple[dict, dict]:
        """Out-of-core count the reads in the schedule's slice order.

        Both the merged result and the fused LSM store must equal the
        serial oracle whatever order the slice seed forces, and the
        merges must read exactly the scratch bytes the slices spilled.
        """
        cfg = self.config
        from ..ooc import OocCountStats, ooc_count, read_slices

        stats = OocCountStats()
        if schedule.spill_seed is not None:
            # The slice-order hook: ooc_count's own cut, shuffled.
            slices = [list(piece) for piece in
                      read_slices(reads, cfg.k, cfg.ooc_ceiling)]
            np.random.default_rng(schedule.spill_seed).shuffle(slices)
            reads = [read for piece in slices for read in piece]
        error = None
        counts = None
        snapshot = None
        try:
            store = LsmStore(Path(workdir) / "ooc", cfg.k,
                             config=LsmConfig(memtable_bytes=cfg.ooc_ceiling,
                                              max_runs=cfg.max_runs,
                                              fan_in=cfg.max_runs))
            try:
                counts = ooc_count(
                    reads, cfg.k, n_bins=cfg.max_runs,
                    memory_bytes=cfg.ooc_ceiling,
                    workdir=Path(workdir) / "ooc-scratch",
                    store=store, stats=stats)
                snapshot = store.snapshot()
            finally:
                store.close()
        except Exception as exc:  # any crash here is itself a violation
            error = f"{type(exc).__name__}: {exc}"

        ctx = {
            "error": error,
            "counts_match": None if counts is None else counts == reference,
            "store_match": None if snapshot is None else snapshot == reference,
            "oracle_distinct": int(reference.n_distinct),
            "n_distinct": None if counts is None else int(counts.n_distinct),
            "bytes_spilled": stats.bytes_spilled,
            "bytes_reread": stats.bytes_reread,
        }
        events = {
            "error": error,
            "spill_permuted": schedule.spill_seed is not None,
            "counts": None if counts is None else _counts_fingerprint(counts),
            "store": None if snapshot is None else _counts_fingerprint(snapshot),
            "spill": stats.to_doc(),
        }
        return ctx, events

    def _run_cluster(self, schedule: Schedule, reference) -> tuple[dict, dict]:
        cfg = self.config
        _, query_seed, ring_seed = spawn_seeds(schedule.seed, 3)
        burst = schedule.burst()
        groups = None
        if burst is not None:
            # Bursty stream: Zipf keys with the schedule's burst overlay
            # on a seed-derived (wall-clock-free) arrival timeline, cut
            # into arrival groups — membership events now interleave
            # with burst-sized batch swings instead of fixed chunks.
            from ..serve.workload import arrival_groups, zipf_workload

            rate = float(cfg.n_queries)  # stream spans ~1 simulated second
            stream = zipf_workload(
                reference, cfg.n_queries, s=1.1, seed=query_seed,
                rate_qps=rate,
                miss_fraction=cfg.miss_queries / max(cfg.n_queries, 1),
                burst=burst,
            )
            keys = stream.keys
            groups = arrival_groups(stream.keys, stream.arrivals,
                                    tick=cfg.group_size / rate)
        else:
            rng = np.random.default_rng(query_seed)
            n_hits = max(0, cfg.n_queries - cfg.miss_queries)
            keys = rng.choice(reference.kmers, size=n_hits)
            misses = rng.integers(0, 1 << 63, size=cfg.miss_queries,
                                  dtype=np.uint64)
            keys = np.concatenate([keys.astype(np.uint64), misses])
            rng.shuffle(keys)

        error = None
        answers = router = None
        try:
            answers, router = run_membership_script(
                reference, keys, schedule.membership,
                n_nodes=cfg.n_nodes, rf=cfg.rf, vnodes=cfg.vnodes,
                seed=ring_seed, group_size=cfg.group_size,
                groups=groups,
            )
        except Exception as exc:  # a legal script must never fail
            error = f"{type(exc).__name__}: {exc}"

        ctx: dict = {"error": error}
        events: dict = {
            "membership": [f"{e.kind}:{e.node}@{e.at}"
                           for e in schedule.membership],
            "error": error,
        }
        if burst is not None:
            events["burst"] = burst.to_doc()
            events["n_groups"] = len(groups)
        if error is None:
            oracle = probe_sorted(reference.kmers, reference.counts, keys)
            mismatches = int((answers != oracle).sum())
            table = router.ring.table()
            live = set(router.ring.node_ids)
            rf_ok = True
            rf_detail = None
            for i, row in enumerate(table.rows):
                owners = {int(n) for n in row}
                if len(owners) != cfg.rf or not owners <= live:
                    rf_ok = False
                    rf_detail = (f"token row {i} owners {sorted(owners)} "
                                 f"(rf={cfg.rf}, ring={sorted(live)})")
                    break
            ctx.update({
                "answers_match": mismatches == 0,
                "mismatches": mismatches,
                "n_queries": int(keys.size),
                "rf_ok": rf_ok,
                "rf_detail": rf_detail,
            })
            events.update({
                "ring": [int(n) for n in router.ring.node_ids],
                "mismatches": mismatches,
                "rf_ok": rf_ok,
            })
        return ctx, events

    def _run_tenant(self, schedule: Schedule) -> tuple[dict, dict]:
        """Drive the multi-tenant QoS machinery on explicit timestamps.

        Pure and synchronous: :func:`~repro.tenant.scheduler.drr_audit`
        drains one saturated DRR window, the token buckets are stepped
        on drawn timestamps, and the autoscaler decision machine is fed
        seeded synthetic load samples.  The `no-starvation` and
        `fair-share` invariants check the drained window; bucket
        admissions must never exceed ``burst + rate * elapsed``
        (`quota-conservation`).
        """
        from ..tenant.registry import TokenBucket
        from ..tenant.scheduler import drr_audit

        rng = np.random.default_rng(spawn_seeds(schedule.seed, 5)[4])
        weights = tuple(schedule.tenant_weights) or (1.0, 2.0)
        quantum = schedule.tenant_quantum or 16
        names = [f"t{i}" for i in range(len(weights))]
        wmap = dict(zip(names, weights))

        # Saturated window: backlog each tenant with 2x the keys it
        # could possibly be served before the lightest tenant reaches
        # its measurement target, so every tenant stays backlogged.
        cmax = 16
        per_unit = max(600, 40 * quantum)
        chunk_sizes = {}
        for name, w in wmap.items():
            sizes = chunk_sizes[name] = []
            remaining = int(2 * per_unit * w)
            while remaining > 0:
                n = min(int(rng.integers(1, cmax + 1)), remaining)
                sizes.append(n)
                remaining -= n
        lightest = min(wmap, key=wmap.get)
        audit = drr_audit(wmap, quantum, chunk_sizes,
                          int(per_unit * wmap[lightest]))
        served = audit["served_keys"]
        share_error = audit["max_share_error"]
        # DRR's additive service bound per tenant over the window is
        # one quantum grant plus one maximum chunk.
        epsilon = (len(wmap) * (quantum * max(weights) + cmax)
                   / sum(served.values()) + 0.03)

        # Token buckets on drawn timestamps: admissions can never exceed
        # the burst plus the refill earned by the elapsed time.
        rates = tuple(schedule.tenant_rates) or (0.0,) * len(weights)
        overdraft = 0
        quota_events = []
        for name, rate in zip(names, rates):
            if rate <= 0:
                continue
            burst = max(rate, float(cmax))
            bucket = TokenBucket(rate, burst)
            admitted = 0.0
            rejections = 0
            now = 0.0
            for _ in range(40):
                now += float(rng.uniform(0.0, 0.2))
                n = int(rng.integers(1, cmax + 1))
                if bucket.try_take(n, now) is None:
                    admitted += n
                else:
                    rejections += 1
                if admitted > burst + rate * now + 1e-9:
                    overdraft += 1
            quota_events.append({
                "tenant": name, "rate": rate,
                "admitted": int(admitted), "rejections": rejections,
                "elapsed": round(now, 6),
            })

        # Autoscaler decision machine under a hot spell then a cold
        # spell of synthetic per-node loads (digest coverage: the same
        # schedule must always produce the same decision sequence).
        from ..tenant.autoscaler import Autoscaler, AutoscalerConfig

        hot = schedule.scaler_hot or 1000.0
        cold = schedule.scaler_cold or 100.0
        scaler = Autoscaler(AutoscalerConfig(
            hot_load=hot, cold_load=cold, patience=2, cooldown=1,
            min_nodes=2, max_nodes=8))
        n_nodes = 3
        decisions = []
        for phase, level in (("hot", hot * 2), ("cold", cold / 2)):
            for _ in range(5):
                sample = {i: level * float(rng.uniform(0.8, 1.2))
                          for i in range(n_nodes)}
                decision = scaler.observe(sample)
                if decision.action != "hold":
                    n_nodes += 1 if decision.action == "split" else -1
                decisions.append(f"{phase}:{decision.action}")

        ctx = {
            "share_error": share_error,
            "epsilon": epsilon,
            "starvation_violations": audit["starvation_violations"],
            "all_progressed": all(n > 0 for n in served.values()),
            "quota_overdraft": overdraft,
        }
        events = {
            "weights": list(weights),
            "quantum": quantum,
            "served_keys": served,
            "share_error": share_error,
            "starvation_violations": audit["starvation_violations"],
            "quota": quota_events,
            "scaler": decisions,
            "n_nodes_final": n_nodes,
        }
        return ctx, events

    # -- the trajectory ------------------------------------------------

    def run(self, schedule: Schedule, reads: list[np.ndarray] | None = None,
            workdir: str | Path | None = None) -> Trajectory:
        """Execute one schedule; returns its digested trajectory."""
        if reads is None:
            reads = self.make_reads(schedule.seed)
        reference = serial_count(reads, self.config.k)

        violations: list[Violation] = []
        events: dict = {"config": self.config.to_doc()}

        runtime_ctx, events["runtime"] = self._run_runtime(
            schedule, reads, reference)
        violations += self.registry.check("runtime", runtime_ctx)

        if workdir is None:
            with tempfile.TemporaryDirectory(prefix="dakc-dst-") as tmp:
                lsm_ctx, events["lsm"] = self._run_lsm(
                    schedule, reads, reference, tmp)
                ooc_ctx, events["ooc"] = self._run_ooc(
                    schedule, reads, reference, tmp)
        else:
            lsm_ctx, events["lsm"] = self._run_lsm(
                schedule, reads, reference, workdir)
            ooc_ctx, events["ooc"] = self._run_ooc(
                schedule, reads, reference, workdir)
        violations += self.registry.check("lsm", lsm_ctx)
        violations += self.registry.check("ooc", ooc_ctx)

        cluster_ctx, events["cluster"] = self._run_cluster(schedule, reference)
        violations += self.registry.check("cluster", cluster_ctx)

        tenant_ctx, events["tenant"] = self._run_tenant(schedule)
        violations += self.registry.check("tenant", tenant_ctx)

        events["violations"] = [v.to_doc() for v in violations]
        return Trajectory(
            schedule=schedule,
            violations=violations,
            events=events,
            digest=_digest(schedule, events),
        )
