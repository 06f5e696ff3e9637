"""Public high-level API: one call to count k-mers with any algorithm.

:func:`count_kmers` is the front door a downstream user (or the
examples and benchmarks) should use: it normalises the input (strings,
encoded arrays, FASTA/FASTQ paths, :class:`~repro.seq.datasets.Workload`
objects), builds the simulated machine, dispatches to the requested
algorithm and returns the counts plus the run's measurements.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .baselines.hysortk import hysortk_count
from .baselines.kmc3 import kmc3_count
from .baselines.pakman import pakman_count, pakman_star_count
from .core.bsp import BspConfig, bsp_count
from .core.dakc import DakcConfig, dakc_count
from .core.minipart import minimizer_partitioned_count
from .core.sortedset import dakc_overlap_count
from .core.l2l3 import AggregationConfig
from .core.result import KmerCounts
from .core.serial import serial_count
from .runtime.cost import CostModel
from .runtime.machine import MachineConfig, laptop, phoenix_amd, phoenix_intel
from .runtime.stats import RunStats
from .seq.datasets import Workload
from .seq.encoding import encode_seq
from .seq.fastx import read_fastx_batches
from .seq.kmers import count_owned_kmers, extract_kmers_from_reads

__all__ = ["CountRun", "count_kmers", "ALGORITHMS", "resolve_machine", "load_reads"]

#: Algorithms accepted by :func:`count_kmers`.  The paper's five
#: (serial, dakc, pakman, pakman*, hysortk) plus the generic BSP
#: engine, the KMC3 shared-memory baseline, and the extensions:
#: ``dakc-overlap`` (barrier-free sorted-set variant, 2 global syncs),
#: ``minimizer`` (kmerind-style super-k-mer partitioning on the
#: simulated machine), and ``fast`` (the real vectorised window ->
#: sort -> accumulate kernel — no simulation, just the quickest way to
#: actual counts).
ALGORITHMS = (
    "serial",
    "fast",
    "dakc",
    "dakc-overlap",
    "minimizer",
    "bsp",
    "pakman",
    "pakman*",
    "hysortk",
    "kmc3",
)

_MACHINE_PRESETS = {
    "phoenix-intel": phoenix_intel,
    "phoenix-amd": phoenix_amd,
    "laptop": laptop,
}


@dataclass(frozen=True)
class CountRun:
    """Outcome of one counting run: the result and its measurements."""

    counts: KmerCounts
    stats: RunStats
    algorithm: str

    @property
    def sim_time(self) -> float:
        return self.stats.sim_time


def resolve_machine(
    machine: MachineConfig | str | None, nodes: int | None = None
) -> MachineConfig:
    """Build a machine from a config, preset name, or the default.

    ``machine`` may be a :class:`MachineConfig`, one of the preset
    names (``phoenix-intel``, ``phoenix-amd``, ``laptop``) or None
    (Phoenix Intel, the paper's Table IV machine).
    """
    if machine is None:
        m = phoenix_intel(nodes or 1)
    elif isinstance(machine, str):
        try:
            factory = _MACHINE_PRESETS[machine]
        except KeyError:
            known = ", ".join(sorted(_MACHINE_PRESETS))
            raise KeyError(f"unknown machine preset {machine!r}; known: {known}") from None
        m = factory(nodes or 1)
    else:
        m = machine if nodes is None else machine.with_nodes(nodes)
    return m


def load_reads(source) -> np.ndarray | list[np.ndarray]:
    """Normalise any supported read source to encoded arrays.

    Accepts: a 2-D ``uint8`` code matrix, a list of code arrays, a
    list of DNA strings, a :class:`Workload`, or a FASTA/FASTQ path.
    """
    if isinstance(source, Workload):
        return source.reads
    if isinstance(source, np.ndarray):
        if source.ndim != 2:
            raise ValueError("read array must be 2-D (rows = reads)")
        return source
    if isinstance(source, (str, os.PathLike)):
        if not Path(source).exists():
            raise FileNotFoundError(f"no such read file: {source}")
        ((codes, offsets),) = read_fastx_batches(source, batch_records=sys.maxsize)
        return np.split(codes, offsets[1:-1])
    if isinstance(source, (list, tuple)):
        out: list[np.ndarray] = []
        for r in source:
            if isinstance(r, str):
                out.append(encode_seq(r, validate=False))
            else:
                out.append(np.asarray(r, dtype=np.uint8))
        # Equal-length reads pack into a matrix for the fast extractors.
        if out and all(r.size == out[0].size for r in out):
            return np.vstack(out) if out[0].size else out
        return out
    raise TypeError(f"unsupported read source: {type(source).__name__}")


def count_kmers(
    reads,
    k: int,
    *,
    algorithm: str = "dakc",
    machine: MachineConfig | str | None = None,
    nodes: int | None = None,
    pe_granularity: str = "node",
    canonical: bool = False,
    batch_size: int | None = None,
    protocol: str = "1D",
    agg: AggregationConfig | None = None,
) -> CountRun:
    """Count k-mers of length *k* in *reads*.

    Parameters
    ----------
    reads:
        Any source accepted by :func:`load_reads`.
    k:
        k-mer length, 1..32 (else ``ValueError``).  ``"fast"`` on
        in-memory reads is the kernel and also counts 33..64 exactly, as
        ``[hi, lo]`` rows; on a file it streams one word per k-mer.
    algorithm:
        One of :data:`ALGORITHMS`.  ``"bsp"`` is the generic Algorithm 2
        engine; ``"pakman"``/``"pakman*"``/``"hysortk"`` are its
        paper-configured variants; ``"kmc3"`` is the shared-memory
        baseline; ``"serial"`` runs Algorithm 1 without the machine.
    machine, nodes:
        Simulated cluster (default: Phoenix Intel, Table IV).
    pe_granularity:
        ``"node"`` (one simulated PE per node — use for large node
        sweeps), ``"socket"``, or ``"core"`` (one PE per core — the
        paper's SHMEM deployment; keeps single-node runs faithful).
    canonical:
        Count canonical (strand-folded) k-mers.
    batch_size:
        BSP batch ``b`` (ignored by dakc/serial/kmc3).
    protocol, agg:
        DAKC knobs (Conveyors topology, aggregation config).

    Returns
    -------
    CountRun
        Counts plus run statistics; ``stats.sim_time`` is the modelled
        kernel time on the simulated machine.
    """
    algorithm = algorithm.lower()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}")

    if algorithm == "fast":
        from .apps.streaming import count_file_streaming

        if isinstance(reads, (str, os.PathLike)):
            if not Path(reads).exists():
                raise FileNotFoundError(f"no such read file: {reads}")
            counts = count_file_streaming(reads, k, canonical=canonical)
        else:
            kmers = extract_kmers_from_reads(load_reads(reads), k)
            counts = KmerCounts(
                k, *count_owned_kmers(kmers, k, canonical=canonical))
        return CountRun(counts, RunStats(n_pes=1), algorithm)

    data = load_reads(reads)
    m = resolve_machine(machine, nodes)

    if algorithm == "serial":
        counts = serial_count(data, k, canonical=canonical)
        stats = RunStats(n_pes=1)
        return CountRun(counts, stats, algorithm)

    if algorithm == "kmc3":
        counts, stats = kmc3_count(data, k, m, canonical=canonical)
        return CountRun(counts, stats, algorithm)

    cores_per_pe = {
        "node": m.cores_per_node,
        "socket": m.cores_per_socket,
        "core": 1,
    }.get(pe_granularity)
    if cores_per_pe is None:
        raise ValueError("pe_granularity must be 'node', 'socket' or 'core'")
    cost = CostModel(m, cores_per_pe=cores_per_pe)

    if algorithm in ("dakc", "dakc-overlap"):
        cfg = DakcConfig(
            protocol=protocol,
            agg=agg or AggregationConfig(),
            canonical=canonical,
        )
        if algorithm == "dakc-overlap":
            counts, stats = dakc_overlap_count(data, k, cost, cfg)
        else:
            counts, stats = dakc_count(data, k, cost, cfg)
    elif algorithm == "minimizer":
        counts, stats = minimizer_partitioned_count(data, k, cost,
                                                    canonical=canonical)
    elif algorithm == "bsp":
        counts, stats = bsp_count(
            data, k, cost, BspConfig(batch_size=batch_size, canonical=canonical)
        )
    elif algorithm in ("pakman", "pakman*"):
        if pe_granularity == "node":
            # PakMan is MPI-only: its faithful deployment is one rank
            # per core, which is exactly what the hybrid baselines and
            # DAKC's runtime avoid paying for.
            cost = CostModel(m, cores_per_pe=1)
        fn = pakman_count if algorithm == "pakman" else pakman_star_count
        counts, stats = fn(data, k, cost, batch_size=batch_size, canonical=canonical)
    else:  # hysortk
        if pe_granularity == "node":
            # HySortK's recommended deployment is one rank per socket;
            # the OpenMP team inside each rank pays thread-scaling loss.
            cost = CostModel(m, cores_per_pe=m.cores_per_socket, threaded=True)
        elif cost.cores_per_pe > 1:
            cost = CostModel(m, cores_per_pe=cost.cores_per_pe, threaded=True)
        counts, stats = hysortk_count(
            data, k, cost, batch_size=batch_size, canonical=canonical
        )
    return CountRun(counts, stats, algorithm)
