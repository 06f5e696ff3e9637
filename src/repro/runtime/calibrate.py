"""Host calibration: build a MachineConfig from microbenchmarks.

The paper obtains its Table IV parameters (``C_node``, ``beta_mem``)
from microbenchmarks on Phoenix.  This module runs the analogous
measurements on the *host* so the simulator can be parameterised for
the machine it is running on (``dakc calibrate``):

* :func:`measure_int64_ops` — peak INT64 add throughput (NumPy add
  over a cache-resident array);
* :func:`measure_memory_bandwidth` — streaming copy bandwidth over an
  array far larger than any cache;
* :func:`estimate_cache_bytes` — last-level cache size from the knee
  of the size-vs-bandwidth curve;
* :func:`calibrate_machine` — package the measurements as a
  single-node :class:`~repro.runtime.machine.MachineConfig` (NIC
  parameters cannot be measured without a network and default to the
  Phoenix values).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .machine import MachineConfig, phoenix_intel

__all__ = [
    "measure_int64_ops",
    "measure_memory_bandwidth",
    "estimate_cache_bytes",
    "CalibrationResult",
    "calibrate_machine",
]


def _best_of(fn, repeats: int) -> float:
    """Minimum wall time of *repeats* invocations (noise floor)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_int64_ops(*, size: int = 1 << 20, repeats: int = 5) -> float:
    """Measured INT64 additions per second (single thread)."""
    a = np.arange(size, dtype=np.int64)
    b = np.ones(size, dtype=np.int64)
    out = np.empty_like(a)
    dt = _best_of(lambda: np.add(a, b, out=out), repeats)
    return size / dt


def measure_memory_bandwidth(*, size: int = 1 << 26, repeats: int = 3) -> float:
    """Measured streaming bandwidth in bytes/s (copy: read + write)."""
    src = np.zeros(size, dtype=np.uint8)
    dst = np.empty_like(src)
    dt = _best_of(lambda: np.copyto(dst, src), repeats)
    return 2 * size / dt  # bytes read + bytes written


def estimate_cache_bytes(
    *, sizes: list[int] | None = None, repeats: int = 3
) -> int:
    """Estimate LLC size from the bandwidth knee.

    Copies working sets of increasing size; the largest size whose
    effective bandwidth stays within 60% of the smallest-size
    bandwidth is taken as cache-resident.
    """
    sizes = sizes or [1 << s for s in range(14, 27)]
    bandwidths: list[tuple[int, float]] = []
    for size in sizes:
        src = np.zeros(size, dtype=np.uint8)
        dst = np.empty_like(src)
        dt = _best_of(lambda: np.copyto(dst, src), repeats)
        bandwidths.append((size, 2 * size / dt))
    fast = bandwidths[0][1]
    cache = sizes[0]
    for size, bw in bandwidths:
        if bw >= 0.6 * fast:
            cache = size
        else:
            break
    return cache


@dataclass(frozen=True, slots=True)
class CalibrationResult:
    """Measured host parameters plus the resulting machine config."""

    int64_ops: float
    memory_bandwidth: float
    cache_bytes: int
    machine: MachineConfig


def calibrate_machine(
    *,
    cores: int | None = None,
    quick: bool = False,
) -> CalibrationResult:
    """Measure the host and build a matching single-node machine.

    ``quick=True`` shrinks the measurement sizes (used by tests); the
    numbers are noisier but the structure is identical.  The measured
    single-thread rates are scaled by the assumed core count (the
    model's intranode-efficiency assumption), and network parameters
    are inherited from the Phoenix preset.
    """
    if quick:
        ops = measure_int64_ops(size=1 << 16, repeats=2)
        bw = measure_memory_bandwidth(size=1 << 22, repeats=2)
        cache = estimate_cache_bytes(sizes=[1 << 14, 1 << 18, 1 << 22], repeats=1)
    else:
        ops = measure_int64_ops()
        bw = measure_memory_bandwidth()
        cache = estimate_cache_bytes()
    cores = cores or 8
    reference = phoenix_intel(1)
    machine = MachineConfig(
        name="calibrated-host",
        nodes=1,
        sockets_per_node=1,
        cores_per_socket=cores,
        c_node=ops * cores,
        beta_mem=bw,  # streaming copy already saturates the socket
        beta_link=reference.beta_link,
        cache_bytes=cache,
        line_bytes=64,
        mem_bytes=reference.mem_bytes,
        tau=reference.tau,
    )
    return CalibrationResult(
        int64_ops=ops, memory_bandwidth=bw, cache_bytes=cache, machine=machine
    )
