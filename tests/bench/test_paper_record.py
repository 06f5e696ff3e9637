"""The committed paper record is a check, not a souvenir.

``benchmarks/results/<id>.txt`` holds the rendered rows of each paper
table and figure at the size its record is stated at — the defaults of
its function in ``repro.bench.experiments``.  The simulated machine is
deterministic, so regenerating a figure must reproduce the file byte
for byte — any change to a model output shows up here as a diff
against the paper record.  (Who ran it, where and when is in the
``paper`` ledger entry's ``env``; ``dakc bench <id> >
benchmarks/results/<id>.txt`` refreshes a body after an intended
change.)

Tier-1 regenerates the sub-second bodies; all 17 run in CI's
``paper-record`` job: ``python tests/bench/test_paper_record.py``.

The claims side of the record is the newest ``paper`` ledger entry
(``dakc xp run benchmarks/xp/paper.json``): every claim evaluated and
green there, and EXPERIMENTS.md's generated table rendered from it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.claims import CLAIMS, claims_for
from repro.bench.experiments import EXPERIMENTS, run_experiment
from repro.xp.ledger import Ledger
from repro.xp.report import format_claims

REPO = Path(__file__).parents[2]
RESULTS = REPO / "benchmarks" / "results"
RECORDED = sorted(path.stem for path in RESULTS.glob("*.txt"))
CLAIMS_BEGIN = "<!-- claims:begin (generated by `dakc xp report paper`; do not edit) -->\n"
CLAIMS_END = "<!-- claims:end -->"
#: The bodies too slow for tier-1 (1.4 s for fig13 to 18 s for fig8).
SLOW = {"fig1", "fig7", "fig8", "fig9", "fig10", "fig12", "fig13"}


def check_record(exp_id: str) -> None:
    """Regenerate *exp_id* and compare with its committed body."""
    assert run_experiment(exp_id).render() == (RESULTS / f"{exp_id}.txt").read_text(), exp_id


def test_every_table_and_figure_has_a_committed_body():
    assert RECORDED == sorted(
        [f"table{n}" for n in range(2, 6)] + [f"fig{n}" for n in range(1, 14)])


@pytest.mark.parametrize("exp_id", sorted(set(RECORDED) - SLOW))
def test_render_matches_committed_record(exp_id):
    check_record(exp_id)


def newest_paper_entry() -> dict:
    return Ledger(RESULTS / "ledger").latest("paper")


def test_every_claim_is_green_in_the_committed_ledger_entry():
    cells = {cell["params"]["exp_id"]: cell for cell in newest_paper_entry()["cells"]}
    assert set(cells) == set(EXPERIMENTS)
    verdicts = {(c.exp_id, c.name): cells[c.exp_id]["checks"].get(c.name) for c in CLAIMS}
    assert all(held is True for held in verdicts.values()), {
        claim: held for claim, held in verdicts.items() if held is not True}
    # Nothing is recorded that no claim is about, and nothing is checked
    # that the table does not state.
    for exp_id, cell in cells.items():
        claims = claims_for(exp_id)
        assert set(cell["metrics"]) - {"elapsed_s"} == {c.value for c in claims}
        assert set(cell["checks"]) == {c.name for c in claims}


def test_experiments_md_claims_table_is_the_newest_ledger_entry():
    text = (REPO / "EXPERIMENTS.md").read_text()
    block = text.split(CLAIMS_BEGIN)[1].split(CLAIMS_END)[0]
    assert block == format_claims(newest_paper_entry()), (
        "EXPERIMENTS.md is stale: paste the table `dakc xp report paper` "
        "ends with between the claims:begin/end markers")


if __name__ == "__main__":
    for exp_id in RECORDED:
        check_record(exp_id)
        print(f"{exp_id}: identical to benchmarks/results/{exp_id}.txt")
