"""Golden-output guard: fixed CLI runs must keep reproducing the pinned reports.

Each file under tests/golden/ is the report the listed command wrote. A
rerun must match it field by field: labels, bools and integers exactly, and
floats within 1e-9. Two kinds of field are looser. The solver work counts
(`iterations`, `evaluations`) are not compared, since they measure how a
result was reached, not the result. Values read off a maximum-likelihood
reconstruction get 1e-6: the solver certifies the likelihood to within its
duality gap, not the last digits of the state, which may differ on another
BLAS.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from parityqec.cli import main

GOLDEN = Path(__file__).parent / "golden"

SAMPLED = ["--seed", "42", "--shots", "1000"]
RUNS = {
    "table1.csv": ["table1"],
    "fig2.csv": ["fig2", *SAMPLED],
    "fig3.csv": ["fig3", *SAMPLED],
    "fig4.csv": ["fig4", "--exact"],
    "teleport.csv": ["teleport"],
    "calibration.json": ["calibrate"],
}

UNCOMPARED = {"iterations", "evaluations"}
FLOAT_ATOL = 1e-9
MLE_ATOL = 1e-6
MLE_FIELDS = {
    "fig2.csv": {"fidelity"},
    "fig3.csv": {"outcome_prob", "fidelity", "mean_abs_imag"},
    "fig4.csv": {"fidelity"},
}


def _typed(text: str):
    """A CSV field as the int, float or string it spells."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _assert_matches(where: str, got, want, atol: float) -> None:
    if isinstance(want, float):
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=atol), f"{where}: {got} vs {want}"
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(f"{where}[{i}]", g, w, atol)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_matches(f"{where}.{key}", got[key], want[key], atol)
    else:
        assert got == want, where


def _read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{key: _typed(value) for key, value in row.items()} for row in csv.DictReader(fh)]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_golden(name, tmp_path, capsys):
    assert main([*RUNS[name], "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    if name.endswith(".json"):
        got = json.loads((tmp_path / name).read_text())
        want = json.loads((GOLDEN / name).read_text())
        rows = [(got, want)]
    else:
        got_rows, want_rows = _read_csv(tmp_path / name), _read_csv(GOLDEN / name)
        assert len(got_rows) == len(want_rows)
        rows = list(zip(got_rows, want_rows))
    for i, (got, want) in enumerate(rows):
        assert sorted(got) == sorted(want)
        for key in want:
            if key in UNCOMPARED:
                continue
            atol = MLE_ATOL if key in MLE_FIELDS.get(name, ()) else FLOAT_ATOL
            _assert_matches(f"{name} row {i} {key}", got[key], want[key], atol)
