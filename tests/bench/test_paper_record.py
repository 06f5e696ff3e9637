"""The committed paper record is a check, not a souvenir.

``benchmarks/results/<id>.txt`` holds the rendered rows each
``benchmarks/bench_fig*.py`` wrote, followed by a provenance footer.
The simulated machine is deterministic, so regenerating a figure with
the same arguments must reproduce the body byte for byte — any change
to a model output shows up here as a diff against the paper record.

Tier-1 regenerates the sub-second figures; the three that take
seconds run in CI's ``paper-record`` job: ``python
tests/bench/test_paper_record.py``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import run_experiment

RESULTS = Path(__file__).parents[2] / "benchmarks" / "results"

#: Experiment id -> the arguments its ``benchmarks/bench_fig*.py`` passes.
FAST = {"fig4": {}, "fig5": {}, "fig6": {}, "fig11": {"budget": 200_000}}
SLOW = {
    "fig7": {"budget": 250_000, "node_counts": [1, 4, 16, 32]},
    "fig9": {},
    "fig12": {"budget": 250_000},
}


def check_record(exp_id: str, **kwargs) -> None:
    """Regenerate *exp_id* and compare with its committed body."""
    committed = (RESULTS / f"{exp_id}.txt").read_text()
    body = committed.split("\n# --- provenance ---")[0]
    assert run_experiment(exp_id, **kwargs).render() == body, exp_id


@pytest.mark.parametrize("exp_id", sorted(FAST))
def test_render_matches_committed_record(exp_id):
    check_record(exp_id, **FAST[exp_id])


if __name__ == "__main__":
    for exp_id, kwargs in SLOW.items():
        check_record(exp_id, **kwargs)
        print(f"{exp_id}: identical to benchmarks/results/{exp_id}.txt")
