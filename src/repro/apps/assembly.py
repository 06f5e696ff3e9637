"""De Bruijn graph construction and unitig assembly from k-mer counts.

The paper's headline motivation: k-mer counting consumes up to 77% of
a de novo assembly pipeline (PakMan) — because the *next* stage, the
de Bruijn graph, is built directly from the counted k-mers.  This
module implements that stage:

* :class:`DeBruijnGraph` — node-centric de Bruijn graph over a solid
  k-mer set, with vectorised successor/predecessor queries;
* :func:`assemble_unitigs` — maximal non-branching path compaction
  (the standard unitig algorithm: every assembler's first product);
* :func:`assembly_stats` / :func:`genome_recovery` — N50-style
  evaluation of the result.

Together with :mod:`repro.apps.spectrum` this closes the loop the
paper's introduction draws: count -> filter errors -> assemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.result import KmerCounts, probe_sorted
from ..seq.kmers import kmer_to_str

__all__ = [
    "DeBruijnGraph",
    "Unitig",
    "assemble_unitigs",
    "AssemblyStats",
    "assembly_stats",
    "genome_recovery",
]


@dataclass(frozen=True, slots=True)
class Unitig:
    """A maximal non-branching path, as a DNA string."""

    seq: str
    mean_coverage: float

    def __len__(self) -> int:
        return len(self.seq)


class DeBruijnGraph:
    """Node-centric de Bruijn graph over a set of counted k-mers.

    Nodes are the k-mers; an edge ``u -> v`` exists when ``v``'s k-1
    prefix equals ``u``'s k-1 suffix and both are present.  Adjacency
    is computed on demand with vectorised membership queries against
    the sorted key array (no materialised edge list).
    """

    def __init__(self, counts: KmerCounts) -> None:
        self.k = counts.k
        self.kmers = counts.kmers
        self.counts = counts.counts
        self._mask = np.uint64((1 << (2 * self.k)) - 1) if self.k < 32 else np.uint64(
            0xFFFFFFFFFFFFFFFF
        )

    @property
    def n_nodes(self) -> int:
        return int(self.kmers.size)

    def _contains(self, queries: np.ndarray) -> np.ndarray:
        return probe_sorted(self.kmers, self.counts, queries) > 0

    def successors_mask(self, kmers: np.ndarray) -> np.ndarray:
        """(n, 4) boolean: which base-extensions of each k-mer exist."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        out = np.empty((kmers.size, 4), dtype=bool)
        shifted = (kmers << np.uint64(2)) & self._mask
        for base in range(4):
            out[:, base] = self._contains(shifted | np.uint64(base))
        return out

    def predecessors_mask(self, kmers: np.ndarray) -> np.ndarray:
        """(n, 4) boolean: which base-prepends of each k-mer exist."""
        kmers = np.asarray(kmers, dtype=np.uint64)
        out = np.empty((kmers.size, 4), dtype=bool)
        shifted = kmers >> np.uint64(2)
        for base in range(4):
            cand = shifted | (np.uint64(base) << np.uint64(2 * (self.k - 1)))
            out[:, base] = self._contains(cand)
        return out


def assemble_unitigs(counts: KmerCounts) -> list[Unitig]:
    """Compact maximal non-branching paths into unitigs.

    Standard algorithm: a k-mer is a *path-internal* node iff it has
    in-degree 1 and out-degree 1 and its unique neighbours agree;
    unitigs start at non-internal nodes (or anywhere on isolated
    cycles) and extend while the next node is internal.
    """
    graph = DeBruijnGraph(counts)
    n = graph.n_nodes
    if n == 0:
        return []
    succ = graph.successors_mask(graph.kmers)
    pred = graph.predecessors_mask(graph.kmers)
    out_deg = succ.sum(axis=1)
    in_deg = pred.sum(axis=1)

    key_to_idx = {int(kmer): i for i, kmer in enumerate(graph.kmers.tolist())}
    mask = int(graph._mask)
    k = graph.k

    # A node is *absorbable* (path-internal) iff the edge into it is
    # simple: its in-degree is 1 and its unique predecessor has
    # out-degree 1 (the BCALM unitig condition).
    absorbable = np.zeros(n, dtype=bool)
    for i in range(n):
        if in_deg[i] != 1:
            continue
        base = int(np.argmax(pred[i]))
        pred_key = (int(graph.kmers[i]) >> 2) | (base << (2 * (k - 1)))
        j = key_to_idx.get(pred_key)
        if j is not None and out_deg[j] == 1:
            absorbable[i] = True

    visited = np.zeros(n, dtype=bool)
    unitigs: list[Unitig] = []

    def walk_from(start: int) -> None:
        idx = start
        visited[idx] = True
        seq = kmer_to_str(int(graph.kmers[idx]), k)
        covs = [int(graph.counts[idx])]
        while out_deg[idx] == 1:
            base = int(np.argmax(succ[idx]))
            nxt_key = ((int(graph.kmers[idx]) << 2) | base) & mask
            nxt = key_to_idx.get(nxt_key)
            if nxt is None or visited[nxt] or not absorbable[nxt]:
                break
            visited[nxt] = True
            seq += "ACGT"[base]
            covs.append(int(graph.counts[nxt]))
            idx = nxt
        unitigs.append(Unitig(seq, float(np.mean(covs))))

    # Pass 1: start at every non-absorbable node.
    for i in range(n):
        if not visited[i] and not absorbable[i]:
            walk_from(i)
    # Pass 2: whatever remains lies on isolated simple cycles.
    for i in range(n):
        if not visited[i]:
            walk_from(i)
    return unitigs


@dataclass(frozen=True, slots=True)
class AssemblyStats:
    """Contiguity metrics of an assembly."""

    n_unitigs: int
    total_length: int
    longest: int
    n50: int
    mean_coverage: float


def assembly_stats(unitigs: list[Unitig]) -> AssemblyStats:
    """N50-style summary of a unitig set."""
    if not unitigs:
        return AssemblyStats(0, 0, 0, 0, 0.0)
    lengths = sorted((len(u) for u in unitigs), reverse=True)
    total = sum(lengths)
    acc, n50 = 0, 0
    for length in lengths:
        acc += length
        if acc * 2 >= total:
            n50 = length
            break
    cov = float(np.mean([u.mean_coverage for u in unitigs]))
    return AssemblyStats(
        n_unitigs=len(unitigs),
        total_length=total,
        longest=lengths[0],
        n50=n50,
        mean_coverage=cov,
    )


def genome_recovery(unitigs: list[Unitig], genome: str, *, k: int) -> float:
    """Fraction of genome positions covered by exact unitig matches."""
    if not genome:
        return 0.0
    covered = np.zeros(len(genome), dtype=bool)
    for unitig in unitigs:
        if len(unitig.seq) < k:
            continue
        start = genome.find(unitig.seq)
        while start != -1:
            covered[start : start + len(unitig.seq)] = True
            start = genome.find(unitig.seq, start + 1)
    return float(covered.mean())
