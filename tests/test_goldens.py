import json

import pytest

from goldens import GOLDEN_PATH, cases, first_difference, run_case

GOLDENS = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
CASES = cases()


def test_goldens_cover_every_case():
    assert sorted(GOLDENS) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, monkeypatch):
    experiment, params = CASES[name]
    golden = GOLDENS[name]
    assert (golden["experiment"], golden["params"]) == (experiment, params)
    diff = first_difference(golden, run_case(experiment, params, monkeypatch))
    assert diff is None, f"{name}: {diff}"
