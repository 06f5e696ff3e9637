"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.runtime.cost import CostModel
from repro.runtime.machine import laptop, phoenix_intel
from repro.seq.datasets import materialize
from repro.seq.genomes import RepeatSpec, repeat_genome, uniform_genome
from repro.seq.readsim import ReadSimConfig, simulate_reads

# Hypothesis effort tiers; select with HYPOTHESIS_PROFILE (default dev).
# All tiers disable deadlines — simulated-machine tests have cold-start
# costs that trip wall-clock deadlines without finding bugs.
_PROFILE_EXAMPLES = {"dev": 25, "ci": 100, "nightly": 1000}
for _name, _examples in _PROFILE_EXAMPLES.items():
    settings.register_profile(
        _name,
        max_examples=_examples,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
# Back-compat alias: the original single profile, same budget as dev.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
_ACTIVE_PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "dev")
settings.load_profile(_ACTIVE_PROFILE)


def pytest_report_header(config) -> list[str]:
    """Surface the active hypothesis tier in the pytest header."""
    current = settings()
    derandomize = getattr(current, "derandomize", False)
    seed = os.environ.get("HYPOTHESIS_SEED", "random")
    return [
        f"hypothesis profile: {_ACTIVE_PROFILE} "
        f"(max_examples={current.max_examples}, "
        f"derandomize={derandomize}, seed={seed})"
    ]


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_reads() -> np.ndarray:
    """~200 reads x 100 bp from a 5 kb uniform genome (deterministic)."""
    genome = uniform_genome(5_000, seed=7)
    cfg = ReadSimConfig(read_len=100, n_reads=200, error_rate=0.0, seed=7)
    return simulate_reads(genome, cfg)


@pytest.fixture(scope="session")
def tiny_reads() -> np.ndarray:
    """~30 reads x 60 bp — small enough for the per-element reference DAKC."""
    genome = uniform_genome(1_500, seed=9)
    cfg = ReadSimConfig(read_len=60, n_reads=30, error_rate=0.0, seed=9)
    return simulate_reads(genome, cfg)


@pytest.fixture(scope="session")
def heavy_reads() -> np.ndarray:
    """Reads from a repeat-laden genome (heavy-hitter k-mers)."""
    genome = repeat_genome(4_000, RepeatSpec(fraction=0.25, n_tracts=2),
                           rng=np.random.default_rng(11))
    cfg = ReadSimConfig(read_len=80, n_reads=300, error_rate=0.0, seed=11)
    return simulate_reads(genome, cfg)


@pytest.fixture(scope="session")
def small_workload():
    return materialize("synthetic-20", fidelity=2**-8, seed=3)


@pytest.fixture(scope="session")
def fastx_corpus(tmp_path_factory):
    """Seeded FASTA+FASTQ corpus exercising the counting edge cases.

    One FASTA lane with ~2% ambiguous ``N`` bases, mixed read lengths
    (including reads shorter than typical k), a homopolymer run and an
    AT microsatellite; one clean FASTQ lane for oracles that reject
    ambiguity.  Returns a dict with ``paths`` (both lanes, on disk),
    ``records`` (every SeqRecord in lane order) and ``clean_records``
    (the N-free FASTQ subset).
    """
    from repro.seq.fastx import SeqRecord, write_fasta, write_fastq

    rng = np.random.default_rng(20260809)
    bases = np.array(list("ACGT"))

    def draw(n: int, ambiguous: bool) -> str:
        s = bases[rng.integers(0, 4, size=n)].copy()
        if ambiguous:
            s[rng.random(n) < 0.02] = "N"
        return "".join(s)

    dirty = [draw(int(rng.integers(3, 130)), True) for _ in range(60)]
    dirty += ["A" * 80, "AT" * 40, "NNNN", "G"]
    clean = [draw(int(rng.integers(3, 130)), False) for _ in range(60)]
    clean += ["C" * 70, "ACG"]

    records = [SeqRecord(name=f"d{i}", seq=s) for i, s in enumerate(dirty)]
    clean_records = [SeqRecord(name=f"c{i}", seq=s) for i, s in enumerate(clean)]
    root = tmp_path_factory.mktemp("fastx_corpus")
    fasta, fastq = root / "lane1.fasta", root / "lane2.fastq"
    write_fasta(fasta, records, line_width=60)
    write_fastq(fastq, clean_records)
    return {
        "paths": [fasta, fastq],
        "records": records + clean_records,
        "clean_records": clean_records,
    }


@pytest.fixture
def laptop_cost() -> CostModel:
    """Fresh 2-node, 4-core-per-node machine (8 PEs)."""
    return CostModel(laptop(nodes=2, cores=4))


@pytest.fixture
def phoenix_cost() -> CostModel:
    """Phoenix Intel, 4 nodes, PE = node."""
    m = phoenix_intel(4)
    return CostModel(m, cores_per_pe=m.cores_per_node)


SPECS = Path(__file__).resolve().parents[1] / "benchmarks" / "xp"


@pytest.fixture
def run_scenario(tmp_path, capsys):
    """A shipped scenario through its one front door, once:
    ``dakc xp run benchmarks/xp/<scenario>.json --quick --set ...``.

    Returns ``rc``, ``out``/``err`` and — when the run got as far as an
    envelope — its one ``cell`` (``metrics``, ``checks``).
    """
    from repro.cli import main

    def run(scenario: str, *overrides: str, seed: int | None = None):
        envelope = tmp_path / f"{scenario}-envelope.json"
        envelope.unlink(missing_ok=True)  # never a previous run's cell
        argv = ["xp", "run", str(SPECS / f"{scenario}.json"), "--quick",
                "--repetitions", "1", "--json", str(envelope)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        for item in overrides:
            argv += ["--set", item]
        rc = main(argv)
        captured = capsys.readouterr()
        cell = (json.loads(envelope.read_text())["cells"][0]
                if envelope.exists() else None)
        return SimpleNamespace(rc=rc, out=captured.out, err=captured.err,
                               cell=cell)

    return run
