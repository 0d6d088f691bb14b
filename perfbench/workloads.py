"""The benchmark workloads: seeded inputs, the timed op, and its check.

Every op calls the package through module attributes (curve.inflection_points
rather than a name bound here), so the traced run sees each call.  Every
check compares the op's output with reference.py, never with another output
of the code path being timed; a wrong output raises CheckFailed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from cubicpoints import cli, curve, elliptic, monodromy, serialize, symmetry
from cubicpoints.curve import CubicForm


class CheckFailed(Exception):
    """An op returned an output that disagrees with the reference."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cubic(T: np.ndarray) -> CubicForm:
    return CubicForm.from_coeffs(ref.coeffs_from_tensor(T))


def _points(point_set) -> np.ndarray:
    return np.array([cp.array for cp in point_set])


def _random_curve(rng: np.random.Generator) -> dict:
    """A cubic with unit-disc coefficients, drawn as curve.random_smooth_cubic draws them.

    Such a cubic is generic, so smooth almost surely.  Its flexes have no
    closed form; the checks test what any flex set must satisfy.
    """
    T = ref.random_cubic_tensor(rng)
    return {"T": T, "f": _cubic(T)}


def _check_points(T: np.ndarray, pts: np.ndarray, count: int, what: str) -> float:
    _require(len(pts) == count, f"{what}: {len(pts)} points, expected {count}")
    res = float(ref.curve_residuals(T, pts).max())
    _require(res <= 1e-8, f"{what}: curve residual {res:.2e}")
    _require(ref.min_separation(pts) > ref.APART, f"{what}: repeated point")
    return res


def _check_flexes(T: np.ndarray, pts: np.ndarray, what: str) -> float:
    """Nine separated points on the curve and on its Hessian: the nine flexes."""
    res = _check_points(T, pts, 9, what)
    hres = float(ref.hessian_residuals(T, pts).max())
    _require(hres <= 1e-8, f"{what}: Hessian residual {hres:.2e}")
    return max(res, hres)


def _check_hesse_fit(T: np.ndarray, matrix, lam: complex) -> None:
    """The transform takes the curve to x^3 + y^3 + z^3 + lam xyz, up to scale."""
    got = ref.coeffs_from_tensor(ref.push_forward(T, np.asarray(matrix)))
    want = ref.coeffs_from_tensor(ref.hesse_tensor(lam))
    g = np.array([got[e] for e in ref.MONOMIALS])
    h = np.array([want[e] for e in ref.MONOMIALS])
    fit = np.linalg.norm(g - (np.vdot(h, g) / np.vdot(h, h)) * h) / np.linalg.norm(g)
    _require(fit <= 1e-6, f"transform misses the pencil member by {fit:.2e}")


# ---------------------------------------------------------------------------
# flex_census


def _flex_build(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[dict]:
    return [_random_curve(rng) for _ in range(4 if smoke else 240)]


def _flex_op(inp: dict, sample: Callable[[], None]) -> dict:
    f = inp["f"]
    flexes = curve.inflection_points(f)
    T, lam = symmetry.hesse_normalize(f)
    j = elliptic.make_chart(f, flexes[0].point).j_invariant()
    return {"flexes": _points(flexes), "matrix": T.matrix, "lam": lam, "j": j}


def _flex_check(inp: dict, out: dict) -> float:
    res = _check_flexes(inp["T"], out["flexes"], "flexes")
    _check_hesse_fit(inp["T"], out["matrix"], out["lam"])
    # the fit proves the curve is the pencil member lam, whose j has a closed form
    _require(ref.same_j(out["j"], ref.hesse_j(out["lam"])), "chart j-invariant is wrong")
    return res


def _flex_perturb(out: dict) -> dict:
    out["flexes"] = out["flexes"].copy()
    out["flexes"][0, 0] += 1e-3
    return out


# ---------------------------------------------------------------------------
# monodromy_loops


def _translation_waypoints() -> list[np.ndarray]:
    """Fermat cubic pulled back along (1 - t) I + t A, A cycling the coordinates."""
    A = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)
    out = []
    for t in np.linspace(0.0, 1.0, 9):
        M = (1.0 - t) * np.eye(3) + t * A
        out.append(ref.pull_back(ref.hesse_tensor(0.0), M / np.linalg.det(M) ** (1.0 / 3.0)))
    return out


def _pencil_waypoints() -> list[np.ndarray]:
    """Pencil members on the unit circle around the nodal member lam = -3."""
    return [ref.hesse_tensor(-3.0 + np.exp(2j * np.pi * t)) for t in np.linspace(0.0, 1.0, 9)]


def _loop(waypoints: list[np.ndarray], U: np.ndarray, steps: int) -> dict:
    """The loop moved into the frame U; every curve on it has the flexes U * base points."""
    Ts = [ref.push_forward(T, U) for T in waypoints]
    return {
        "T0": Ts[0],
        "flexes": ref.hesse_base_points() @ U.T,
        "path": monodromy.ParameterPath([_cubic(T) for T in Ts], steps=steps),
    }


def _monodromy_build(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[dict]:
    # One frame: a unitary change of coordinates leaves the tracking work as it
    # is, so more frames would add run time and no variety.
    steps = 8 if smoke else 24
    U = ref.random_unitary(rng)
    return [{"translation": _loop(_translation_waypoints(), U, steps),
             "pencil": _loop(_pencil_waypoints(), U, steps)}]


_LOOP_CYCLES = {"translation": (3, 3, 3), "pencil": (1,) * 9}


def _monodromy_op(inp: dict, sample: Callable[[], None]) -> dict:
    section = monodromy.canonical_section("inflections")
    out = {}
    for name in _LOOP_CYCLES:
        r = monodromy.track(inp[name]["path"], section)
        out[name] = {
            "start": _points(r.start),
            "end": _points(r.end),
            "cycle_type": r.permutation.cycle_type() if r.permutation else None,
        }
    return out


def _check_loop(loop: dict, r: dict, cycles: tuple, what: str) -> float:
    _require(tuple(r["cycle_type"] or ()) == cycles, f"{what} loop has cycle type {r['cycle_type']}")
    worst = 0.0
    for end in ("start", "end"):
        pts = np.asarray(r[end])
        worst = max(worst, _check_points(loop["T0"], pts, 9, f"{what} loop {end}"))
        _require(ref.same_set(pts, loop["flexes"]), f"{what} loop {end} misses the flexes")
    return worst


def _monodromy_check(inp: dict, out: dict) -> float:
    return max(_check_loop(inp[n], out[n], c, n) for n, c in _LOOP_CYCLES.items())


def _monodromy_perturb(out: dict) -> dict:
    out["pencil"]["cycle_type"] = (2, 1, 1, 1, 1, 1, 1, 1)
    return out


# ---------------------------------------------------------------------------
# cli_session

CLI_COMMANDS = ("inflections", "smooth", "hesse", "type3k", "torsion", "sizes", "verdict", "track")
# What the installed console script runs, minus the install.
_CLI_ENTRY = "import sys; from cubicpoints.cli import main; sys.exit(main())"


def _cli_build(rng: np.random.Generator, smoke: bool, workdir: Path) -> list[dict]:
    # Several curves per pass: one curve's cost varies with the curve by
    # about a quarter, and the median over a few evens that out across seeds.
    workdir.mkdir(parents=True, exist_ok=True)
    loop = _loop(_pencil_waypoints(), ref.random_unitary(rng), 4 if smoke else 8)
    loop_file = workdir / "loop.json"
    loop_file.write_text(serialize.canonical_dumps(serialize.path_to_obj(loop["path"])))
    bound = 2000 if smoke else 20000
    out = []
    for i in range(1 if smoke else 4):
        c = _random_curve(rng)
        curve_file = workdir / f"curve{i}.json"
        curve_file.write_text(serialize.canonical_dumps(serialize.cubic_to_obj(c["f"])))
        n = 9 * int(rng.integers(1, bound // 9 + 1))
        script = {
            "inflections": ["inflections", "--curve", str(curve_file)],
            "smooth": ["smooth", "--curve", str(curve_file)],
            "hesse": ["hesse", "--curve", str(curve_file)],
            "type3k": ["type3k", "--curve", str(curve_file), "-k", "2"],
            "torsion": ["torsion", "--curve", str(curve_file), "-m", "6"],
            "sizes": ["sizes", "--bound", str(bound)],
            "verdict": ["verdict", str(n)],
            "track": ["track", "--path", str(loop_file)],
        }
        out.append(dict(c, script=script, bound=bound, n=n, loop=loop, workdir=workdir, first={}))
    return out


def _run_child(argv: list[str], stderr: Path) -> tuple[int, bytes, float, int]:
    """One CLI call as its own process: exit code, stdout, wall seconds, peak RSS in KiB."""
    t0 = time.perf_counter()
    with open(stderr, "wb") as err, subprocess.Popen(
        [sys.executable, "-c", _CLI_ENTRY, *argv], stdout=subprocess.PIPE, stderr=err
    ) as p:
        stdout = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, stdout, time.perf_counter() - t0, usage.ru_maxrss


def _cli_op(inp: dict, sample: Callable[[], None]) -> dict:
    runs = {}
    for name, argv in inp["script"].items():
        runs[name] = _run_child(argv, inp["workdir"] / f"{name}.stderr")
        sample()
    return {"runs": runs, "rss_kb": max(r[3] for r in runs.values())}


def _cli_op_in_process(inp: dict, sample: Callable[[], None]) -> dict:
    runs = {}
    for name, argv in inp["script"].items():
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        runs[name] = (code, buf.getvalue().encode(), time.perf_counter() - t0, 0)
    return {"runs": runs, "rss_kb": 0}


def _xyz(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _cli_points(inp: dict, obj: dict, flex, count: int, m: int, proper: list[int],
                what: str) -> float:
    """m-torsion of the exact orders asked for.  Any flex serves as the identity:
    flexes differ by 3-torsion and 3 divides m, so the set does not depend on it."""
    pts = _xyz(obj["xyz"])
    res = _check_points(inp["T"], pts, count, what)
    exact = ref.exact_order_mask(inp["T"], flex, pts, m, proper)
    _require(bool(exact.all()), f"{what}: {int((~exact).sum())} points of the wrong order")
    return res


def _cli_smooth(inp: dict, obj: dict, flex) -> float:
    _require(obj["smooth"] is True and obj["witness"] is None, "smooth curve reported singular")
    _require(obj["margin"] > 0.0, "nonpositive smoothness margin")
    return 0.0


def _cli_hesse(inp: dict, obj: dict, flex) -> float:
    matrix = [[complex(*c) for c in row] for row in obj["transform"]]
    _check_hesse_fit(inp["T"], matrix, complex(*obj["lambda"]))
    return 0.0


def _size_reference(inp: dict) -> tuple[list[int], dict[int, list[int]]]:
    if "sizes" not in inp:
        inp["sizes"] = ref.size_table(inp["bound"])
    return inp["sizes"]


def _cli_sizes(inp: dict, obj: dict, flex) -> float:
    sizes, witnesses = _size_reference(inp)
    _require(obj["bound"] == inp["bound"] and obj["sizes"] == sizes, "realizable sizes differ")
    _require(obj["witnesses"] == {str(n): w for n, w in witnesses.items()}, "size witnesses differ")
    return 0.0


def _cli_verdict(inp: dict, obj: dict, flex) -> float:
    n = inp["n"]
    witness = _size_reference(inp)[1].get(n)
    status = "constructible" if witness else "open"
    _require(obj["n"] == n and obj["status"] == status and obj["witness"] == witness, f"verdict for {n}")
    return 0.0


def _cli_track(inp: dict, obj: dict, flex) -> float:
    _require(obj["closed"] is True, "loop file read back as an open path")
    r = {"cycle_type": tuple(obj["cycle_type"] or ()), "start": _xyz(obj["start"]), "end": _xyz(obj["end"])}
    return _check_loop(inp["loop"], r, _LOOP_CYCLES["pencil"], "pencil")


_CLI_CHECKS = {
    "smooth": _cli_smooth,
    "hesse": _cli_hesse,
    "type3k": lambda inp, obj, flex: _cli_points(inp, obj, flex, ref.layer_count(2), 6,
                                                 ref.proper_type_multiples(2), "type3k"),
    "torsion": lambda inp, obj, flex: _cli_points(inp, obj, flex, 36, 6, [], "torsion"),
    "sizes": _cli_sizes,
    "verdict": _cli_verdict,
    "track": _cli_track,
}


def _cli_check(inp: dict, out: dict) -> float:
    objs = {}
    for name, (code, stdout, _, _) in out["runs"].items():
        _require(code == 0, f"{name} exited with code {code}")
        first = inp["first"].setdefault(name, stdout)
        _require(stdout == first, f"{name} stdout changed between passes")
        objs[name] = json.loads(stdout)
    flexes = _xyz(objs.pop("inflections")["xyz"])
    worst = _check_flexes(inp["T"], flexes, "inflections")
    for name, obj in objs.items():
        worst = max(worst, _CLI_CHECKS[name](inp, obj, flexes[0]))
    return worst


def _cli_perturb(out: dict) -> dict:
    code, stdout, wall, rss = out["runs"]["verdict"]
    out["runs"]["verdict"] = (code, stdout.replace(b'"n": ', b'"n": 1'), wall, rss)
    return out


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[np.random.Generator, bool, Path], list]
    # op(input, sample): the op calls sample() at points where the benchmark
    # may time its calibration unit; only ops that wait on children need to
    op: Callable[[Any, Callable[[], None]], Any]
    check: Callable[[Any, Any], float]  # max residual; raises CheckFailed
    perturb: Callable[[Any], Any]  # corrupts an output, for the benchmark's self-test
    op_in_process: Callable[[Any, Callable[[], None]], Any] | None = None  # when op spawns processes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("flex_census", _flex_build, _flex_op, _flex_check, _flex_perturb),
        Workload("monodromy_loops", _monodromy_build, _monodromy_op, _monodromy_check,
                 _monodromy_perturb),
        Workload("cli_session", _cli_build, _cli_op, _cli_check, _cli_perturb, _cli_op_in_process),
    )
}
