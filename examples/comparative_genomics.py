#!/usr/bin/env python
"""Comparative genomics: strain comparison with k-mer databases.

The set-operation workload k-mer counters feed (kmc_tools' reason to
exist): two bacterial strains share a genomic backbone but each
carries private islands (acquired genes, plasmids).  Counting both
and comparing the databases reveals the relationship without any
alignment:

1. simulate two strains (80% shared backbone + strain-specific DNA);
2. count each strain's reads with DAKC on the simulated cluster;
3. persist the databases to disk and reload them;
4. measure similarity (Jaccard, containment) and extract the
   strain-specific (diagnostic) k-mers by set subtraction.

Run:  python examples/comparative_genomics.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro import count_kmers
from repro.apps.setops import containment, intersect, jaccard, subtract
from repro.apps.spectrum import solid_threshold
from repro.apps.store import load_counts, save_counts
from repro.seq import ReadSimConfig, simulate_reads, uniform_genome

K = 21
BACKBONE = 50_000
ISLAND = 12_000


def make_strains(seed: int = 17):
    rng = np.random.default_rng(seed)
    backbone = uniform_genome(BACKBONE, rng=rng)
    island_a = uniform_genome(ISLAND, rng=rng)
    island_b = uniform_genome(ISLAND, rng=rng)
    strain_a = np.concatenate((backbone, island_a))
    strain_b = np.concatenate((backbone, island_b))
    return strain_a, strain_b


def main() -> None:
    strain_a, strain_b = make_strains()
    reads = {}
    for name, genome, seed in (("A", strain_a, 1), ("B", strain_b, 2)):
        reads[name] = simulate_reads(
            genome, ReadSimConfig(read_len=150, coverage=25.0,
                                  error_rate=0.002, seed=seed)
        )
    print(f"two strains: {BACKBONE / 1000:.0f} kb shared backbone + "
          f"{ISLAND / 1000:.0f} kb private island each\n")

    # Count on the simulated cluster, filter errors, persist, reload.
    databases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("A", "B"):
            run = count_kmers(reads[name], K, algorithm="dakc", nodes=4)
            solid = run.counts.filter_min_count(solid_threshold(run.counts))
            path = Path(tmp) / f"strain_{name}.kdb"
            save_counts(path, solid)
            databases[name], _ = load_counts(path)
            print(f"strain {name}: {solid.n_distinct:,} solid {K}-mers "
                  f"(counted in {run.sim_time * 1e3:.2f} ms simulated, "
                  f"persisted + reloaded)")

    a, b = databases["A"], databases["B"]
    shared = intersect(a, b)
    only_a = subtract(a, b)
    only_b = subtract(b, a)
    print(f"\nshared distinct k-mers: {shared.n_distinct:,}")
    print(f"strain-A-specific:      {only_a.n_distinct:,}")
    print(f"strain-B-specific:      {only_b.n_distinct:,}")
    print(f"jaccard similarity:     {jaccard(a, b):.3f}")
    print(f"containment(A in B):    {containment(a, b):.3f}")

    # Sanity: the numbers should reflect the construction.
    expected_shared_fraction = BACKBONE / (BACKBONE + ISLAND)
    got = containment(a, b)
    print(f"\nexpected shared fraction ~{expected_shared_fraction:.2f}, "
          f"measured {got:.2f}")
    assert abs(got - expected_shared_fraction) < 0.08
    print("strain-specific k-mers are the alignment-free diagnostic "
          "markers comparative pipelines extract from count databases.")


if __name__ == "__main__":
    main()
