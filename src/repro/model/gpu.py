"""GPU projection: would DAKC benefit from accelerators? (Section VII)

The paper closes with a quantitative argument: k-mer counting's
operational intensity (~0.12 iadd64/B) sits far below CPU balance
(~2.6) and further still below an H100's (~8.3), so the workload is
bandwidth-bound everywhere — a GPU helps only through its *memory
bandwidth*, and its compute units would idle even harder than the
CPU's.  This module turns that argument into a reusable projection:
given an accelerator's bandwidth/compute envelope, bound the speedup
of each phase via the analytical model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.machine import phoenix_intel
from .analytical import predict
from .roofline import operational_intensity

__all__ = ["Accelerator", "H100", "A100", "project_speedup", "GpuProjection"]


@dataclass(frozen=True, slots=True)
class Accelerator:
    """Bandwidth/compute envelope of an accelerator."""

    name: str
    mem_bw: float  # bytes/s (HBM)
    int64_ops: float  # INT64 ops/s

    @property
    def balance(self) -> float:
        return self.int64_ops / self.mem_bw


#: NVIDIA H100 SXM: ~3.35 TB/s HBM3, ~27.8 T INT64 add/s equivalent
#: (the paper quotes a balance of ~8.3 iadd64/B).
H100 = Accelerator("H100", mem_bw=3.35e12, int64_ops=27.8e12)

#: NVIDIA A100: ~2.0 TB/s HBM2e, ~9.7 T INT64 ops/s.
A100 = Accelerator("A100", mem_bw=2.0e12, int64_ops=9.7e12)


@dataclass(frozen=True, slots=True)
class GpuProjection:
    """Modelled outcome of offloading KC to an accelerator."""

    accelerator: str
    intranode_speedup: float  # bound from the bandwidth ratio
    total_speedup: float  # end-to-end, internode unchanged
    workload_intensity: float
    accelerator_balance: float
    compute_utilisation: float  # fraction of peak INT64 the GPU would reach

    @property
    def bandwidth_bound(self) -> bool:
        return self.workload_intensity < self.accelerator_balance


def project_speedup(
    n: int,
    m: int,
    k: int,
    accelerator: Accelerator = H100,
) -> GpuProjection:
    """Bound the speedup from replacing each node's CPU with a GPU, on
    32 Phoenix Intel nodes.

    The projection keeps internode communication fixed (the NIC does
    not change) and scales compute/intranode terms by the accelerator's
    envelope — exactly the reasoning of Section VII.
    """
    machine = phoenix_intel(32)
    pred = predict(n, m, k, machine)
    bw_ratio = accelerator.mem_bw / machine.beta_mem
    ops_ratio = accelerator.int64_ops / machine.c_node

    def scale_phase(phase):
        comp = phase.t_comp / ops_ratio
        intra = phase.t_intra / bw_ratio
        return max(comp, intra + phase.t_inter)

    cpu_total = pred.t_total("sum")
    gpu_total = scale_phase(pred.phase1) + scale_phase(pred.phase2)
    intensity = operational_intensity(n, m, k)
    return GpuProjection(
        accelerator=accelerator.name,
        intranode_speedup=bw_ratio,
        total_speedup=cpu_total / gpu_total if gpu_total > 0 else float("inf"),
        workload_intensity=intensity,
        accelerator_balance=accelerator.balance,
        compute_utilisation=min(1.0, intensity / accelerator.balance),
    )
