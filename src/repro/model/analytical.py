"""The paper's analytical model of k-mer counting (Section V).

Implements Eqs. 9-18 verbatim.  The model decomposes the workload into
two phases — (1) k-mer generation and reshuffling, (2) sorting and
accumulation — and prices each phase's computation, intranode traffic
(via optimal-replacement cache-miss counts) and internode traffic on a
node-level machine description (Table IV).

Model assumptions (Section V): perfectly balanced input/output, 100%
intranode parallel efficiency, cache-oblivious algorithms, a two-level
memory hierarchy with optimal line replacement, and worst-case
byte-at-a-time in-place radix sorting in Phase 2.

``P`` in these equations is the **node** count (the paper validates on
"8 nodes (192 cores)" with Table IV *node* parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.machine import MachineConfig
from ..seq.kmers import kmer_width_bits

__all__ = ["PhaseModel", "ModelPrediction", "predict", "cache_miss_model"]


@dataclass(frozen=True, slots=True)
class PhaseModel:
    """Predicted components of one phase (all times in seconds)."""

    t_comp: float
    t_intra: float
    t_inter: float
    misses: float  # predicted LLC misses per node

    @property
    def t_comm_sum(self) -> float:
        """Eq. 14: communication = intranode + internode."""
        return self.t_intra + self.t_inter

    @property
    def t_comm_max(self) -> float:
        """Eq. 15: communication = max(intranode, internode)."""
        return max(self.t_intra, self.t_inter)

    def total(self, comm_model: str = "sum") -> float:
        """Eq. 16/17: phase time = max(compute, communication)."""
        comm = self.t_comm_sum if comm_model == "sum" else self.t_comm_max
        return max(self.t_comp, comm)


@dataclass(frozen=True, slots=True)
class ModelPrediction:
    """Full prediction for one (workload, machine, k) triple."""

    n: int  # reads
    m: int  # bases per read
    k: int
    nodes: int
    phase1: PhaseModel
    phase2: PhaseModel

    @property
    def n_kmers(self) -> int:
        return self.n * max(0, self.m - self.k + 1)

    def t_total(self, comm_model: str = "sum") -> float:
        """Eq. 18: ``T_total = T1 + T2`` (barrier between phases)."""
        return self.phase1.total(comm_model) + self.phase2.total(comm_model)

    def breakdown(self, comm_model: str = "sum") -> dict[str, float]:
        """Fraction of total time in compute / intranode / internode.

        This is Fig. 5's pie: no computation/communication overlap is
        assumed, so the shares are of the *sum* of all components.
        """
        comp = self.phase1.t_comp + self.phase2.t_comp
        intra = self.phase1.t_intra + self.phase2.t_intra
        inter = self.phase1.t_inter + self.phase2.t_inter
        total = comp + intra + inter
        if total == 0:
            return {"compute": 0.0, "intranode": 0.0, "internode": 0.0}
        return {
            "compute": comp / total,
            "intranode": intra / total,
            "internode": inter / total,
        }


def cache_miss_model(
    n: int, m: int, k: int, nodes: int, line_bytes: int
) -> tuple[float, float]:
    """Predicted LLC misses per node for phases 1 and 2.

    Phase 1 (Section V, Phase 1): parsing the reads costs
    ``1 + mn/(P L)`` misses and storing the generated k-mers costs
    ``1 + n(m-k+1) * 2^ceil(log2 2k) / (8 P L)``.

    Phase 2 (Eq. 13's miss term): the store-side miss count repeated
    once per worst-case radix pass (``2^ceil(log2 2k) / 8`` passes).
    """
    width = kmer_width_bits(k)
    n_kmers = n * max(0, m - k + 1)
    parse = 1 + (m * n) / (nodes * line_bytes)
    store = 1 + (n_kmers * width) / (8 * nodes * line_bytes)
    passes = width / 8
    return parse + store, store * passes


def predict(
    n: int,
    m: int,
    k: int,
    machine: MachineConfig,
) -> ModelPrediction:
    """Evaluate the analytical model (Eqs. 9-18).

    Parameters mirror Table I: *n* reads of *m* bases, counting
    k-mers of length *k* on the ``machine.nodes`` nodes of *machine*.
    """
    p = machine.nodes
    width = kmer_width_bits(k)
    n_kmers = n * max(0, m - k + 1)
    line = machine.line_bytes

    # --- Phase 1 ---
    t_comp1 = n_kmers / (p * machine.c_node)  # Eq. 9
    misses_parse = 1 + (m * n) / (p * line)
    misses_store = 1 + (n_kmers * width) / (8 * p * line)
    t_intra1 = (misses_parse + misses_store) * line / machine.beta_mem  # Eq. 10
    t_inter1 = (n_kmers * width) / (4 * p * machine.beta_link)  # Eq. 11
    phase1 = PhaseModel(t_comp1, t_intra1, t_inter1, misses_parse + misses_store)

    # --- Phase 2 ---
    passes = width / 8
    t_comp2 = (n_kmers * width) / (8 * p * machine.c_node)  # Eq. 12
    misses2 = misses_store * passes
    t_intra2 = misses2 * line / machine.beta_mem  # Eq. 13
    phase2 = PhaseModel(t_comp2, t_intra2, 0.0, misses2)

    return ModelPrediction(n=n, m=m, k=k, nodes=p, phase1=phase1, phase2=phase2)
