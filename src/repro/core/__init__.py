"""Core algorithms: serial (Alg. 1), BSP (Alg. 2), DAKC (Algs. 3-4).

What every simulated counter shares — opening, read split, parse and
closing of a run — is :mod:`repro.core.phases`; the one bucket split by
owner is :func:`repro.core.owner.by_owner`.

Extensions beyond the paper's evaluation (its Section VII future work):
128-bit k-mers (:func:`repro.core.dakc.dakc_count_big`, two kernel
words per k-mer) and the barrier-free sorted-set variant
(:mod:`repro.core.sortedset`).
"""
