"""Replay the CLI commands recorded in tests/golden against cubicpoints.cli.main.

The files there are rewritten only by tests/golden/record.py.  Exit codes,
integers, strings and booleans must match exactly.  Point rows (the lists
under "xyz", "start" and "end", and the "witness" row) must match in order,
each within tau_match in the chordal metric.  Every other float must match
within 1e-9 relative, measured against max(1, |a|, |b|) so that a zero
stays comparable with roundoff.  Non-JSON output (CSV) must match byte for
byte.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from cubicpoints import DEFAULT_TOLERANCES
from cubicpoints.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))["cases"]
ROW_LISTS = ("xyz", "start", "end")
FLOAT_REL = 1e-9


def _resolve(argv: list[str]) -> list[str]:
    return [
        str(GOLDEN / a) if i and argv[i - 1] in ("--curve", "--path") else a
        for i, a in enumerate(argv)
    ]


def _row(row) -> np.ndarray:
    return np.array([complex(re, im) for re, im in row])


def _chordal(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(np.cross(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _compare_row(got, want, where: str) -> None:
    d = _chordal(_row(got), _row(want))
    assert d <= DEFAULT_TOLERANCES.tau_match, f"{where}: point moved by {d:.3g}"


def _compare(got, want, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            sub = f"{where}.{key}"
            if key in ROW_LISTS and want[key] is not None:
                assert len(got[key]) == len(want[key]), f"{sub}: row count differs"
                for i, (g, w) in enumerate(zip(got[key], want[key])):
                    _compare_row(g, w, f"{sub}[{i}]")
            elif key == "witness" and want[key] is not None and isinstance(want[key][0], list):
                _compare_row(got[key], want[key], sub)
            else:
                _compare(got[key], want[key], sub)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), f"{where}: {got!r} is not a float"
        scale = max(1.0, abs(got), abs(want))
        assert abs(got - want) <= FLOAT_REL * scale, f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_matches_golden(case, capsys):
    code = main(_resolve(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    want = (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
    try:
        want_obj = json.loads(want)
    except json.JSONDecodeError:
        assert out == want
        return
    _compare(json.loads(out), want_obj)
