"""Benchmark harness for the paper's record.

``workloads`` (scaled replicas), ``harness`` (one run point on the
simulated machine), ``tables``/``plots`` (rendering), ``experiments``
(one function per table, figure, ablation and extension) and ``claims``
(what each is expected to show).  Import the submodule you need.
"""
