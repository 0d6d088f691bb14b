"""JSON and CSV encodings for cubics, point lists, and parameter paths.

Complex numbers are stored as [re, im] pairs.  Monomials are keyed by the
three exponents concatenated, "300" for x^3 and so on.  canonical_dumps
(defined in sizes.py, which the integer CLI subcommands import without
numpy) fixes key order and indentation so that load/dump round trips are
byte identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .curve import _MONOMIALS, CubicForm
from .errors import InputError
from .numeric import ProjectivePoint, _point_row, normalize_point
from .sizes import canonical_dumps

if TYPE_CHECKING:
    from .monodromy import ParameterPath

__all__ = [
    "canonical_dumps",
    "cubic_to_obj",
    "cubic_from_obj",
    "points_to_obj",
    "points_from_obj",
    "points_to_csv",
    "path_to_obj",
    "path_from_obj",
]


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _from_pair(v, what: str) -> complex:
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise InputError(f"{what} must be a [re, im] pair of numbers")
    try:
        z = complex(float(v[0]), float(v[1]))
    except OverflowError:  # an integer too large for a float
        raise InputError(f"{what} must be finite") from None
    if not (np.isfinite(z.real) and np.isfinite(z.imag)):
        raise InputError(f"{what} must be finite")
    return z


def cubic_to_obj(f: CubicForm) -> dict:
    coeffs = {
        f"{i}{j}{k}": _pair(c) for (i, j, k), c in zip(_MONOMIALS, f.coeffs.tolist()) if c != 0
    }
    return {"coeffs": coeffs}


def cubic_from_obj(obj) -> CubicForm:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError('a cubic object needs a "coeffs" mapping')
    raw = obj["coeffs"]
    if not isinstance(raw, dict) or not raw:
        raise InputError('"coeffs" must be a nonempty mapping')
    coeffs: dict[tuple[int, int, int], complex] = {}
    for key, val in raw.items():
        if (
            not isinstance(key, str)
            or len(key) != 3
            or not key.isdigit()
        ):
            raise InputError(f"bad monomial key {key!r}: want three digits")
        i, j, k = (int(ch) for ch in key)
        if i + j + k != 3:
            raise InputError(f"monomial key {key!r} is not of total degree 3")
        coeffs[(i, j, k)] = _from_pair(val, f"coefficient {key!r}")
    return CubicForm.from_coeffs(coeffs)


def points_to_obj(points) -> dict:
    rows = []
    for p in points:
        rows.append([_pair(complex(c)) for c in _point_row(p)[0]])
    return {"xyz": rows}


def points_from_obj(obj) -> list[ProjectivePoint]:
    if not isinstance(obj, dict) or "xyz" not in obj:
        raise InputError('a points object needs an "xyz" list')
    rows = obj["xyz"]
    if not isinstance(rows, list):
        raise InputError('"xyz" must be a list of coordinate triples')
    out = []
    for idx, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise InputError(f"point {idx} must have exactly three coordinates")
        v = np.array([_from_pair(c, f"point {idx} coordinate") for c in row])
        if np.abs(v).max() == 0.0:
            raise InputError(f"point {idx} is the zero vector")
        out.append(normalize_point(v))
    return out


def points_to_csv(points) -> str:
    lines = ["x_re,x_im,y_re,y_im,z_re,z_im"]
    for p in points:
        v = _point_row(p)[0]
        lines.append(",".join(repr(float(x)) for c in v for x in (c.real, c.imag)))
    return "\n".join(lines) + "\n"


def path_to_obj(path: ParameterPath) -> dict:
    segs = []
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        segs.append({"from": cubic_to_obj(a), "to": cubic_to_obj(b)})
    return {"segments": segs, "steps": path.steps}


def path_from_obj(obj) -> ParameterPath:
    # monodromy loads the group law and the symmetries, which the point and
    # cubic codecs, and so the curve subcommands, do not need
    from .monodromy import ParameterPath, _meets

    if not isinstance(obj, dict) or "segments" not in obj:
        raise InputError('a path object needs a "segments" list')
    segs = obj["segments"]
    if not isinstance(segs, list) or not segs:
        raise InputError('"segments" must be a nonempty list')
    waypoints = []
    for idx, seg in enumerate(segs):
        if not isinstance(seg, dict) or "from" not in seg or "to" not in seg:
            raise InputError(f'segment {idx} needs "from" and "to" cubics')
        start = cubic_from_obj(seg["from"])
        end = cubic_from_obj(seg["to"])
        if not waypoints:
            waypoints.append(start)
        elif not _meets(waypoints[-1], start):
            raise InputError(f"segment {idx} does not start where segment {idx - 1} ends")
        waypoints.append(end)
    return ParameterPath(waypoints, obj.get("steps", 64))
