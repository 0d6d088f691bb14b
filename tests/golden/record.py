"""Rewrite the golden CLI outputs in this directory.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py
    PYTHONPATH=src python tests/golden/record.py fermat_smooth track_hesse_loop

With no arguments it writes the input files (cubics and a path), one
``<case>.out`` file per command with the command's stdout, and
``cases.json``, which lists every case with its argv and exit code.  Given
case names, it re-runs only those cases against the input files already
here, rewrites their ``.out`` files and their exit codes in ``cases.json``,
and leaves every input file and every other case as it is.  In an argv, the
value after ``--curve`` or ``--path`` names a file in this directory.
tests/test_golden_cli.py replays the cases against ``cubicpoints.cli.main``;
no test runs this script, so the files only change when someone records
them on purpose.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from cubicpoints import CubicForm, ParameterPath, fermat_cubic, hesse_cubic, random_smooth_cubic
from cubicpoints.cli import main
from cubicpoints.serialize import canonical_dumps, cubic_to_obj, path_to_obj

HERE = Path(__file__).resolve().parent


def hesse_loop() -> ParameterPath:
    """Eight-leg loop of pencil members around the singular member lambda = -3."""
    lams = [-3.0 + np.exp(2j * np.pi * t) for t in np.linspace(0.0, 1.0, 9)]
    return ParameterPath([hesse_cubic(lam) for lam in lams], steps=8)


INPUTS = {
    "fermat.json": cubic_to_obj(fermat_cubic()),
    "random1001.json": cubic_to_obj(random_smooth_cubic(np.random.default_rng(1001))),
    "triangle.json": cubic_to_obj(CubicForm.from_coeffs({(1, 1, 1): 1.0})),
    "hesse_loop.json": path_to_obj(hesse_loop()),
}


def cases() -> list[tuple[str, list[str]]]:
    out = []
    for tag, curve in (("fermat", "fermat.json"), ("random1001", "random1001.json")):
        out += [
            (f"{tag}_inflections", ["inflections", "--curve", curve]),
            (f"{tag}_smooth", ["smooth", "--curve", curve]),
            (f"{tag}_hesse", ["hesse", "--curve", curve]),
            (f"{tag}_type3k_k2", ["type3k", "--curve", curve, "-k", "2"]),
            (f"{tag}_torsion_m6", ["torsion", "--curve", curve, "-m", "6"]),
        ]
    out += [
        ("triangle_smooth", ["smooth", "--curve", "triangle.json"]),
        ("sizes_2000_json", ["sizes", "--bound", "2000"]),
        ("sizes_2000_csv", ["--format", "csv", "sizes", "--bound", "2000"]),
        ("verdict_36", ["verdict", "36"]),
        ("verdict_45", ["verdict", "45"]),
        ("verdict_18", ["verdict", "18"]),
        ("counts", ["counts"]),
        ("j2", ["j2"]),
        ("track_hesse_loop", ["track", "--path", "hesse_loop.json"]),
    ]
    return out


def resolve(argv: list[str], directory: Path) -> list[str]:
    """Replace the file name after --curve or --path by its path in directory."""
    return [
        str(directory / a) if i and argv[i - 1] in ("--curve", "--path") else a
        for i, a in enumerate(argv)
    ]


def run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(resolve(argv, HERE))
    return code, buf.getvalue()


def record_case(case: dict) -> None:
    """Run one manifest entry, write its output file and set its exit code."""
    code, text = run(case["argv"])
    (HERE / f"{case['name']}.out").write_text(text, encoding="utf-8")
    case["exit"] = code


def record() -> None:
    for name, obj in INPUTS.items():
        (HERE / name).write_text(canonical_dumps(obj), encoding="utf-8")
    manifest = [{"name": name, "argv": argv} for name, argv in cases()]
    for case in manifest:
        record_case(case)
    (HERE / "cases.json").write_text(canonical_dumps({"cases": manifest}), encoding="utf-8")


def rerecord(names: list[str]) -> None:
    """Re-record the named cases of cases.json; inputs and other cases stay."""
    manifest = json.loads((HERE / "cases.json").read_text(encoding="utf-8"))["cases"]
    by_name = {case["name"]: case for case in manifest}
    unknown = sorted(set(names) - set(by_name))
    if unknown:
        raise SystemExit(f"unknown case names: {', '.join(unknown)}")
    for name in names:
        record_case(by_name[name])
    (HERE / "cases.json").write_text(canonical_dumps({"cases": manifest}), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:]:
        rerecord(sys.argv[1:])
    else:
        record()
