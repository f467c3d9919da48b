import json

import pytest

from goldens import (
    FLOAT_ATOL,
    GOLDEN_PATH,
    SIDECAR_DIR,
    cases,
    check,
    first_difference,
    run_case,
    sidecar_cases,
    sidecar_text,
)

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


@pytest.mark.parametrize("name", sorted(sidecar_cases()))
def test_circuit_sidecar_matches_its_snapshot_exactly(name):
    assert sidecar_text(*sidecar_cases()[name]) == (SIDECAR_DIR / name).read_text(encoding="utf-8")


def test_sidecar_snapshots_cover_every_case():
    assert sorted(path.name for path in SIDECAR_DIR.iterdir()) == sorted(sidecar_cases())


def test_check_prints_first_difference_and_float_drift(capsys):
    kept = {"experiment": "e", "params": {}, "columns": ["t"], "rows": [[0.5]],
            "counts": [[7, "XX", [1, 0, 0, 0]]], "report": None}
    drifted = json.loads(json.dumps(kept))
    drifted["rows"][0][0] += FLOAT_ATOL / 2
    assert check({"case": kept}, {"case": drifted}) == 0
    assert "case: ok; largest float drift 5e-08" in capsys.readouterr().out
    drifted["counts"][0][2] = [0, 1, 0, 0]
    assert check({"case": kept}, {"case": drifted}) == 1
    out = capsys.readouterr().out
    assert "case: counts[0]: got [7, 'XX', [0, 1, 0, 0]]" in out
    assert "1 mismatched ['case']" in out
    assert check({}, {"case": kept}) == 1
    assert "case: missing from the file" in capsys.readouterr().out
