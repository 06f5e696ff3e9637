#!/usr/bin/env python3
"""End-to-end benchmark: count -> ooc/LSM -> serve -> simulated DAKC.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --workload serve-zipf --seed 3
    python3 benchmarks/e2e/run.py --workload count-fastq --trace 1 --out r.json

One workload runs in one process on one thread.  Without ``--workload``
each workload is run in a child process of its own, one after another.
Every metric is printed by name with its unit; the last line of a
workload's output is one JSON object ``{correct, attempted, failed,
metrics}`` holding the end-to-end metrics of ``BENCHMARK.json``
(``--trace 0``) or its per-layer metrics (``--trace 1``).  The exit
code is non-zero when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

# Set before numpy loads.  One thread; and no transparent-hugepage advice
# for numpy's large arrays: with it, identical repetitions of an
# allocation-heavy call are bimodal on a small VM (1.4 s or 2.9 s for one
# 52k-read batch, by whether huge pages happen to be free); without it
# they are slower and repeat within a few percent.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import Ops, Spans, peak_rss_mb, timed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from repro.runtime.calibrate import (  # noqa: E402
    estimate_cache_bytes,
    measure_int64_ops,
    measure_memory_bandwidth,
)
from repro.xp.env import fingerprint  # noqa: E402

#: Set-up is repeated (after the measurement; the extra results are
#: dropped) so that ``setup_s`` is a median, not one sample.
SETUP_REPS = 5
#: Fewest timed repetitions of a workload, however short ``--seconds``.
MIN_REPS = 3


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_untraced(wl, setup, seconds: float, ops: Ops):
    state, first = timed(setup)
    measured = wl.measure(state, seconds, ops, MIN_REPS)
    # Sampled here, so that it holds one set-up and the product path and
    # not what repeated set-ups leave behind in the allocator: that made
    # the same workload read 128 MB or 160 MB from one seed to the next.
    rss = peak_rss_mb()
    del state
    setup_times = [first] + [timed(setup)[1] for _ in range(SETUP_REPS - 1)]
    metrics = {
        "throughput_per_s": (measured.throughput_per_s, measured.n),
        "op_p50_ms": (measured.op_p50_ms, measured.n_ops),
        "peak_rss_mb": (rss, 1),
        "setup_s": (median(setup_times), len(setup_times)),
    }
    return metrics, measured.phases


def run_traced(name: str, wl, setup, ops: Ops, layer_names: list[str]):
    state = setup()
    mem_bw = measure_memory_bandwidth()
    int64_ops = measure_int64_ops()
    # One warm-up and one untraced repetition: the base of
    # trace.overhead_frac and the phase rates (n=1).
    measured = wl.measure(state, 0.0, ops, 1)
    spans = Spans(name)
    traced = wl.trace(state, spans, ops, mem_bw)

    layers = {
        **traced.layers,
        **{phase: value for phase, (value, _unit, _n) in measured.phases.items()},
        "runtime.calibrate.mem_bw_gbs": mem_bw / 1e9,
        "runtime.calibrate.int64_gops": int64_ops / 1e9,
        "trace.span_coverage": spans.leaf_coverage(name),
        "trace.overhead_frac": traced.wall_s / measured.wall_s - 1.0,
    }
    unknown = set(layers) - set(layer_names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A layer this workload never calls did no work: it reports 0
    # (in the result line; the table above it lists only busy layers).
    metrics = {n: (float(layers.get(n, 0.0)), 1) for n in layer_names}
    idle = set(layer_names) - set(layers)
    llc = estimate_cache_bytes()
    print(f"  host: LLC estimate {llc / 2**20:.1f} MiB, "
          f"copy bandwidth {mem_bw / 1e9:.2f} GB/s")
    return metrics, idle, spans


def run_workload(args) -> int:
    bench = load_benchmark()
    wl = WORKLOADS[args.workload]
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    ops = Ops()
    spans = None
    phases: dict = {}
    idle: set = set()
    print(f"== {args.workload}  seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale} nproc={os.cpu_count()}")

    with tempfile.TemporaryDirectory(prefix=".e2e-", dir=ROOT) as tmp:
        tempfile.tempdir = tmp   # library temp files stay inside too
        try:
            def setup():
                return wl.setup(args.seed, args.scale, Path(tmp))

            if args.trace:
                metrics, idle, spans = run_traced(args.workload, wl, setup, ops,
                                                  list(units))
            else:
                metrics, phases = run_untraced(wl, setup, args.seconds, ops)
        finally:
            tempfile.tempdir = None

    for name, (value, n) in metrics.items():
        if name not in idle:
            print(f"  {name:36s} = {value:<14.6g} {units[name]:6s} (n={n})")
    for name, (value, unit, n) in phases.items():
        print(f"  {name:36s} = {value:<14.6g} {unit:6s} (n={n}, not gated)")
    print(f"  ops_attempted = {ops.attempted}  ops_failed = {ops.failed}")

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _n) in metrics.items()},
    }
    if args.out:
        write_out(Path(args.out), args, result, phases, ops, spans)
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


def write_out(out: Path, args, result: dict, phases: dict, ops: Ops,
              spans: Spans | None) -> None:
    """Append this run to the JSON document at *out* (created if absent)."""
    doc = json.loads(out.read_text()) if out.exists() else {"runs": []}
    doc["runs"].append({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "nproc": os.cpu_count(),
        "env": fingerprint(str(ROOT)),
        **result,
        "phases": {name: {"value": value, "unit": unit, "n": n}
                   for name, (value, unit, n) in phases.items()},
        "failures": ops.notes,
    })
    out.write_text(json.dumps(doc, indent=1) + "\n")
    if spans is not None:
        trace_path = out.with_name(f"{out.stem}.{args.workload}.trace.json")
        trace_path.write_text(spans.to_chrome_trace())
        print(f"  chrome trace: {trace_path}")


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this workload in this process (default: all, "
                             "one child process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="every input is generated from it")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="how long the timed repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size multiplier (the smoke test uses 0.02)")
    parser.add_argument("--out", help="append the run to this JSON file")
    args = parser.parse_args(argv)

    if args.workload:
        return run_workload(args)
    worst = 0
    for w in bench["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        if args.out:
            cmd += ["--out", args.out]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
