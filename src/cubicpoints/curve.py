"""Smooth plane cubics: evaluation, smoothness certification, inflections.

The projective plane is covered by the three coordinate charts (one
coordinate set to 1). Intersection problems are solved per chart by
eliminating one chart variable with a resultant, solving the resulting
univariate polynomial, polishing candidates with Newton on the full
system, then merging the charts' candidates by chordal distance. Points
at infinity of one chart are finite in another, so the union misses
nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InputError, NumericalError, SingularCurveError
from .numeric import (
    ProjectivePoint,
    UniPoly,
    _sylvester_dets,
    chordal_matrix,
    normalize_point,
    solve_univariate,
)
from .trivariate import TriPoly

__all__ = [
    "CubicForm",
    "CurvePoint",
    "PointSet",
    "SmoothnessReport",
    "fermat_cubic",
    "hesse_cubic",
    "smoothness",
    "inflection_points",
    "random_smooth_cubic",
    "random_points_on_curve",
    "polish_onto_curve",
    "line_curve_points",
]

_REL_TRIM = 1e-12


@dataclass(frozen=True)
class CubicForm:
    """Homogeneous cubic in three variables, considered up to scale."""

    poly: TriPoly
    label: str | None = None

    def __post_init__(self) -> None:
        if self.poly.degree != 3:
            raise InputError("a cubic form must be homogeneous of degree 3")
        if self.poly.is_zero():
            raise InputError("the zero polynomial does not define a curve")

    @classmethod
    def from_coeffs(cls, coeffs: dict[tuple[int, int, int], complex], label=None) -> "CubicForm":
        return cls(TriPoly(3, coeffs), label)

    @property
    def norm_inf(self) -> float:
        return self.poly.norm_inf()

    def evaluate(self, point) -> complex:
        v = point.array if isinstance(point, ProjectivePoint) else point
        return self.poly(v)

    def gradient(self, point) -> np.ndarray:
        v = point.array if isinstance(point, ProjectivePoint) else point
        return self.poly.gradient(v)

    def residual_at(self, point) -> float:
        """Relative curve residual at a normalized representative."""
        p = point if isinstance(point, ProjectivePoint) else normalize_point(point)
        return abs(self.evaluate(p)) / self.norm_inf

    def hessian(self) -> "CubicForm":
        """Determinant of the matrix of second partials (again a cubic)."""
        d = [[self.poly.partial(i).partial(j) for j in range(3)] for i in range(3)]
        det = (
            d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
            - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
            + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0])
        )
        return CubicForm(det, None)

    def __repr__(self) -> str:
        name = f" {self.label!r}" if self.label else ""
        return f"CubicForm({self.poly!r}{name})"


@dataclass(frozen=True)
class CurvePoint:
    """A projective point together with its relative curve residual."""

    point: ProjectivePoint
    residual: float

    @property
    def array(self) -> np.ndarray:
        return self.point.array


def _canonical_key(p: ProjectivePoint) -> tuple:
    return tuple(
        (round(c.real, 9) + 0.0, round(c.imag, 9) + 0.0) for c in p.coords
    )


class PointSet:
    """Ordered finite set of curve points with a matching tolerance."""

    def __init__(self, points: list[CurvePoint], tolerance: float) -> None:
        self.points = list(points)
        self.tolerance = float(tolerance)
        self._arr: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> CurvePoint:
        return self.points[i]

    @property
    def arrays(self) -> np.ndarray:
        if self._arr is None:
            self._arr = (
                np.stack([p.array for p in self.points])
                if self.points
                else np.zeros((0, 3), dtype=complex)
            )
        return self._arr

    def index_of(self, point) -> int | None:
        """Index of the member within tolerance of the given point, else None."""
        if not self.points:
            return None
        v = point.array if hasattr(point, "array") else np.asarray(point, dtype=complex)
        d = chordal_matrix(v.reshape(1, 3), self.arrays)[0]
        i = int(np.argmin(d))
        return i if d[i] <= self.tolerance else None

    def match(self, other: "PointSet") -> list[int] | None:
        """Bijection self index -> other index by nearest neighbor, or None."""
        if len(self) != len(other):
            return None
        if len(self) == 0:
            return []
        D = chordal_matrix(self.arrays, other.arrays)
        out = []
        for i in range(len(self)):
            j = int(np.argmin(D[i]))
            if D[i, j] > self.tolerance:
                return None
            out.append(j)
        return out if len(set(out)) == len(out) else None

    def setwise_equal(self, other: "PointSet") -> bool:
        return self.match(other) is not None

    def minus(self, other: "PointSet") -> "PointSet":
        """Members of self that match no member of other."""
        if len(other) == 0 or len(self) == 0:
            return PointSet(list(self.points), self.tolerance)
        D = chordal_matrix(self.arrays, other.arrays)
        keep = [p for i, p in enumerate(self.points) if D[i].min() > self.tolerance]
        return PointSet(keep, self.tolerance)

    def min_separation(self) -> float:
        if len(self) < 2:
            return float("inf")
        D = chordal_matrix(self.arrays, self.arrays)
        np.fill_diagonal(D, np.inf)
        return float(D.min())

    def sorted_canonical(self) -> "PointSet":
        return PointSet(
            sorted(self.points, key=lambda cp: _canonical_key(cp.point)), self.tolerance
        )


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    margin: float
    witness: ProjectivePoint | None


def fermat_cubic() -> CubicForm:
    return CubicForm.from_coeffs(
        {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}, label="fermat"
    )


def hesse_cubic(pencil: complex) -> CubicForm:
    """Member x^3 + y^3 + z^3 + pencil * xyz of the diagonal pencil."""
    coeffs = {(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0}
    if pencil != 0:
        coeffs[(1, 1, 1)] = complex(pencil)
    return CubicForm.from_coeffs(coeffs)


# ---------------------------------------------------------------------------
# bivariate helpers (dense grids C[a, b] = coefficient of u^a v^b)


def _grid_trim(C: np.ndarray) -> np.ndarray:
    top = np.abs(C).max() if C.size else 0.0
    if top == 0.0:
        return np.zeros((1, 1), dtype=complex)
    keep = np.abs(C) > _REL_TRIM * top
    rows = np.nonzero(keep.any(axis=1))[0]
    cols = np.nonzero(keep.any(axis=0))[0]
    out = C[: rows[-1] + 1, : cols[-1] + 1].copy()
    out[np.abs(out) <= _REL_TRIM * top] = 0.0
    return out


def _grid_is_zero(C: np.ndarray) -> bool:
    return bool(np.abs(C).max() == 0.0) if C.size else True


def _grid_eval(C: np.ndarray, u: complex, v: complex) -> complex:
    vu = u ** np.arange(C.shape[0])
    vv = v ** np.arange(C.shape[1])
    return complex(vu @ C @ vv)


def _stack_grids(grids: list[np.ndarray]) -> np.ndarray:
    """Zero-pad grids of mixed shape into one (k, rows, cols) array."""
    rows = max(g.shape[0] for g in grids)
    cols = max(g.shape[1] for g in grids)
    out = np.zeros((len(grids), rows, cols), dtype=complex)
    for i, g in enumerate(grids):
        out[i, : g.shape[0], : g.shape[1]] = g
    return out


def _grid_partial(C: np.ndarray, axis: int) -> np.ndarray:
    if C.shape[axis] == 1:
        return np.zeros((1, 1), dtype=complex)
    if axis == 0:
        mult = np.arange(1, C.shape[0]).reshape(-1, 1)
        return C[1:, :] * mult
    mult = np.arange(1, C.shape[1]).reshape(1, -1)
    return C[:, 1:] * mult


def _fiber_poly(C: np.ndarray, u: complex) -> UniPoly:
    """Specialize u; returns polynomial in v with relative trimming."""
    vu = u ** np.arange(C.shape[0])
    vec = vu @ C
    top = np.abs(vec).max()
    if top > 0.0:
        vec = np.where(np.abs(vec) > _REL_TRIM * top, vec, 0.0)
    return UniPoly(vec)


_SAMPLES = 32
_PHASE = 0.5


def _sampled_resultant(A: np.ndarray, B: np.ndarray) -> UniPoly | None:
    """Resultant of two bivariate grids with respect to v, as a polynomial in u.

    Evaluates the Sylvester determinant at 32 points on the unit circle
    and recovers coefficients by inverse FFT (the true degree here is at
    most 18). Returns None when the resultant is identically ~ zero,
    which signals a shared factor or degenerate pair.
    """
    pa = A.shape[1] - 1
    qb = B.shape[1] - 1
    if pa < 1 or qb < 1:
        raise InputError("sampled resultant needs v-degree >= 1 on both sides")
    ts = np.exp(1j * (2.0 * np.pi * np.arange(_SAMPLES) / _SAMPLES + _PHASE))
    powsA = ts[:, None] ** np.arange(A.shape[0])[None, :]
    powsB = ts[:, None] ** np.arange(B.shape[0])[None, :]
    va = powsA @ A
    vb = powsB @ B
    dets, scale = _sylvester_dets(va, vb)
    # dets[t] = sum_k c_k exp(i k phase) zeta^{t k}; the forward FFT over N
    # inverts that expansion (numpy's ifft flips the frequency sign).
    coeffs = np.fft.fft(dets) / _SAMPLES
    k = np.arange(_SAMPLES)
    coeffs = coeffs / np.exp(1j * _PHASE * k)
    top = np.abs(coeffs).max()
    if top == 0.0 or not np.isfinite(top):
        return None
    if top <= 1e-9 * scale:
        return None  # identically zero up to roundoff: shared factor
    coeffs = np.where(np.abs(coeffs) > 1e-11 * top, coeffs, 0.0)
    nz = np.nonzero(coeffs)[0]
    if nz.size == 0:
        return None
    deg = nz[-1]
    if deg >= _SAMPLES - 4:
        # aliasing guard; degrees here are bounded by 18 well below this
        raise NumericalError("sampled resultant degree hit the sampling bound")
    poly = UniPoly(coeffs[: deg + 1])
    if poly.degree == 0:
        return None if abs(poly.coeffs[0]) <= 1e-9 * max(1.0, top) else poly
    return poly


def _chart_point(chart_index: int, u: complex, v: complex) -> np.ndarray:
    coords = np.empty(3, dtype=complex)
    others = [i for i in range(3) if i != chart_index]
    coords[chart_index] = 1.0
    coords[others[0]] = u
    coords[others[1]] = v
    return coords


def _roots_simple(poly: UniPoly, tol: Tolerances) -> list[complex]:
    try:
        return [z for z, _ in solve_univariate(poly, tol)]
    except (InputError, NumericalError):
        return []


# ---------------------------------------------------------------------------
# smoothness


def _newton_system(
    funcs: list[np.ndarray], u: complex, v: complex, iters: int = 30
) -> tuple[complex, complex]:
    """Least-squares Newton for a list of bivariate grids, from (u, v).

    The system may be inconsistent (more equations than unknowns with no
    common zero); Gauss-Newton then stalls at a pseudo-solution, so the
    loop stops once the residual norm stops improving and returns the best
    iterate seen.
    """
    F = _stack_grids(funcs)
    Gu = _stack_grids([_grid_partial(C, 0) for C in funcs])
    Gv = _stack_grids([_grid_partial(C, 1) for C in funcs])
    nr, nc = F.shape[1], F.shape[2]

    def residuals(uu: complex, vv: complex) -> np.ndarray:
        pu = uu ** np.arange(nr)
        pv = vv ** np.arange(nc)
        return pu, pv, (F @ pv) @ pu

    best = np.inf
    bu, bv = u, v
    stalls = 0
    for _ in range(iters):
        pu, pv, vals = residuals(u, v)
        rn = float(np.linalg.norm(vals))
        if rn < 0.9 * best:
            stalls = 0
        else:
            stalls += 1
            if stalls >= 2:
                break
        if rn < best:
            best, bu, bv = rn, u, v
        ju = (Gu @ pv[: Gu.shape[2]]) @ pu[: Gu.shape[1]]
        jv = (Gv @ pv[: Gv.shape[2]]) @ pu[: Gv.shape[1]]
        J = np.stack([ju, jv], axis=1)
        step, *_ = np.linalg.lstsq(J, -vals, rcond=None)
        u += complex(step[0])
        v += complex(step[1])
        if np.abs(step).max() <= 1e-15 * max(1.0, abs(u), abs(v)):
            break
        if max(abs(u), abs(v)) > 1e8:
            return bu, bv
    _, _, vals = residuals(u, v)
    if float(np.linalg.norm(vals)) < best:
        return u, v
    return bu, bv


def _pair_candidates(
    A: np.ndarray, B: np.ndarray, third: np.ndarray, tol: Tolerances
) -> list[tuple[complex, complex]] | None:
    """Common-zero candidates of grids A and B; None when the pair degenerates."""
    va, vb = A.shape[1] - 1, B.shape[1] - 1
    cands: list[tuple[complex, complex]] = []
    if va >= 1 and vb >= 1:
        R = _sampled_resultant(A, B)
        if R is None or R.degree == 0:
            return None
        for u0 in _roots_simple(R, tol):
            fiber = _fiber_poly(A, u0)
            if fiber.degree == 0:
                fiber = _fiber_poly(B, u0)
            if fiber.degree == 0:
                fiber = _fiber_poly(third, u0)
            if fiber.degree == 0:
                cands.append((u0, 0.0))
                continue
            cands.extend((u0, v0) for v0 in _roots_simple(fiber, tol))
        return cands
    # one side free of v: its u-roots fix the fibers of the other
    if va == 0 and vb == 0:
        ua = UniPoly(A[:, 0]) if A.shape[0] > 1 else None
        ub = UniPoly(B[:, 0]) if B.shape[0] > 1 else None
        if ua is None or ub is None:
            return None
        scale_b = float(np.abs(B).max())
        for u0 in _roots_simple(ua, tol):
            if abs(_grid_eval(B, u0, 0.0)) > 1e-6 * scale_b * max(1.0, abs(u0)) ** 2:
                continue
            fiber = _fiber_poly(third, u0)
            if fiber.degree >= 1:
                cands.extend((u0, v0) for v0 in _roots_simple(fiber, tol))
            else:
                cands.append((u0, 0.0))
        return cands
    flat, curved = (B, A) if vb == 0 else (A, B)
    if flat.shape[0] == 1:
        return None  # nonzero constant, no common zeros through this pair
    for u0 in _roots_simple(UniPoly(flat[:, 0]), tol):
        fiber = _fiber_poly(curved, u0)
        if fiber.degree >= 1:
            cands.extend((u0, v0) for v0 in _roots_simple(fiber, tol))
        else:
            cands.append((u0, 0.0))
    return cands


_FALLBACK_LINES = [(0.37 + 0.21j, -0.62 + 0.55j), (-0.83 + 0.47j, 0.29 - 0.71j), (1.31 - 0.09j, 0.14 + 0.88j)]


def _grid_on_line(g: np.ndarray, alpha: complex, beta: complex) -> UniPoly:
    """Restriction u -> g(u, alpha * u + beta) as a univariate polynomial."""
    acc = np.zeros(g.shape[0] + g.shape[1] - 1, dtype=complex)
    vpow = np.array([1.0 + 0.0j])
    for b in range(g.shape[1]):
        for a in range(g.shape[0]):
            if g[a, b] != 0:
                acc[a : a + len(vpow)] += g[a, b] * vpow
        vpow = np.convolve(vpow, np.array([beta, alpha]))
    top = np.abs(acc).max()
    if top > 0.0:
        acc = np.where(np.abs(acc) > _REL_TRIM * top, acc, 0.0)
    return UniPoly(acc)


def smoothness(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> SmoothnessReport:
    """Certify smoothness by hunting the gradient system in all three charts.

    The margin is the smallest normalized gradient norm over all polished
    candidates where two partial derivatives vanish; a smooth cubic keeps
    it well above tau_singular, a singular one drives it to roundoff.
    """
    scale = f.norm_inf
    partials = [f.poly.partial(i) for i in range(3)]
    best_margin = np.inf
    best_witnesses: list[ProjectivePoint] = []
    for chart in range(3):
        grids = [_grid_trim(p.chart(chart)) for p in partials]
        nonzero = [g for g in grids if not _grid_is_zero(g)]
        if not nonzero:
            continue
        cands: list[tuple[complex, complex]] = []
        got_pair = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            A, B = grids[i], grids[j]
            if _grid_is_zero(A) or _grid_is_zero(B):
                continue
            third = grids[3 - i - j]
            pair = _pair_candidates(A, B, third, tol)
            if pair is not None:
                got_pair = True
                cands.extend(pair)
        if not got_pair:
            # positive-dimensional pairs everywhere: scan fixed lines
            for alpha, beta in _FALLBACK_LINES:
                for g in nonzero:
                    upoly = _grid_on_line(g, alpha, beta)
                    if upoly.degree < 1:
                        continue
                    for u0 in _roots_simple(upoly, tol):
                        cands.append((u0, alpha * u0 + beta))
        for u0, v0 in cands:
            if max(abs(u0), abs(v0)) > 1e7:
                continue
            P = normalize_point(_chart_point(chart, u0, v0))
            g = float(np.linalg.norm(f.gradient(P)) / scale)
            if g <= 1e-2:
                # only near-zero raw gradients need refining; every true
                # near-singularity appears among the raw candidates anyway
                u1, v1 = _newton_system(grids, u0, v0)
                if max(abs(u1), abs(v1)) > 1e7:
                    continue
                P = normalize_point(_chart_point(chart, u1, v1))
                g = float(np.linalg.norm(f.gradient(P)) / scale)
            if g < best_margin - 1e-15:
                best_margin = float(g)
                best_witnesses = [P]
            elif abs(g - best_margin) <= 1e-12 + 1e-6 * best_margin:
                best_witnesses.append(P)
    if not np.isfinite(best_margin):
        raise NumericalError("gradient elimination produced no candidates")
    if best_margin > tol.tau_singular:
        return SmoothnessReport(True, best_margin, None)
    witness = max(best_witnesses, key=_canonical_key)
    return SmoothnessReport(False, best_margin, witness)


def is_smooth(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    return smoothness(f, tol).smooth


def require_smooth(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> SmoothnessReport:
    rep = smoothness(f, tol)
    if not rep.smooth:
        raise SingularCurveError(f"curve is singular near {rep.witness}")
    return rep


# ---------------------------------------------------------------------------
# inflections


def polish_onto_curve(
    f: CubicForm, coords: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES, iters: int = 4
) -> CurvePoint:
    """Project a near-curve point onto the curve by complex Newton steps.

    Moves along the conjugate gradient direction, which keeps the step
    well conditioned for smooth curves.
    """
    v = np.asarray(coords, dtype=complex).copy()
    v = v / np.abs(v).max()
    for _ in range(iters):
        val = f.poly(v)
        grad = f.poly.gradient(v)
        d = np.conj(grad)
        denom = grad @ d
        if denom == 0:
            break
        v = v - (val / denom) * d
    P = normalize_point(v)
    return CurvePoint(P, f.residual_at(P))


def _newton_pair(
    F: np.ndarray, H: np.ndarray, u: complex, v: complex, iters: int = 30
) -> tuple[complex, complex] | None:
    grids = [F, H]
    grids += [_grid_partial(C, axis) for C in (F, H) for axis in (0, 1)]
    rows = np.arange(max(F.shape[0], H.shape[0]))
    cols = np.arange(max(F.shape[1], H.shape[1]))
    for _ in range(iters):
        # one pair of power vectors per step; each grid reads a prefix of
        # each, which gives the bits of _grid_eval
        vu, vv = u**rows, v**cols
        f, h, fu, fv, hu, hv = (
            complex(vu[: C.shape[0]] @ C @ vv[: C.shape[1]]) for C in grids
        )
        vals = np.array([f, h])
        J = np.array([[fu, fv], [hu, hv]])
        try:
            step = np.linalg.solve(J, -vals)
        except np.linalg.LinAlgError:
            return None
        u += complex(step[0])
        v += complex(step[1])
        if max(abs(u), abs(v)) > 1e7:
            return None
        if np.abs(step).max() <= 1e-15 * max(1.0, abs(u), abs(v)):
            break
    return u, v


def inflection_points(
    f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> PointSet:
    """The nine inflection points: intersection of the curve with its Hessian.

    Raises SingularCurveError on singular input and NumericalError if the
    chart union does not settle on exactly nine certified points.
    """
    require_smooth(f, tol)
    return _flexes_of_smooth(f, tol)


def _flexes_of_smooth(f: CubicForm, tol: Tolerances) -> PointSet:
    """inflection_points for a curve the caller has already certified smooth.

    On a singular curve the elimination does not settle on nine points and
    this raises NumericalError rather than SingularCurveError.
    """
    h = f.hessian()
    found: list[CurvePoint] = []
    hess_res: list[float] = []
    for chart in range(3):
        F = _grid_trim(f.poly.chart(chart))
        H = _grid_trim(h.poly.chart(chart))
        if _grid_is_zero(F) or _grid_is_zero(H):
            continue
        cands = _pair_candidates(F, H, F, tol)
        if cands is None:
            continue
        fs = float(np.abs(F).max())
        hs = float(np.abs(H).max())
        for u0, v0 in cands:
            box = max(1.0, abs(u0), abs(v0)) ** 3
            if abs(_grid_eval(H, u0, v0)) > 1e-2 * hs * box:
                continue
            polished = _newton_pair(F, H, u0, v0)
            if polished is None:
                continue
            u1, v1 = polished
            P = normalize_point(_chart_point(chart, u1, v1))
            rf = abs(f.evaluate(P)) / f.norm_inf
            rh = abs(h.evaluate(P)) / h.norm_inf
            if rf <= tol.tau_on_curve and rh <= tol.tau_on_curve:
                found.append(CurvePoint(P, rf))
                hess_res.append(max(rf, rh))
    # rank by the joint residual: a root of f alone can sit a hair off the
    # Hessian and would otherwise shadow a fully converged duplicate
    merged = _dedupe(found, tol.tau_match, ranks=hess_res)
    if len(merged) != 9:
        raise NumericalError(
            f"degenerate elimination: expected 9 inflections, settled on {len(merged)}"
        )
    return PointSet(merged, tol.tau_match).sorted_canonical()


def _dedupe(
    points: list[CurvePoint],
    tolerance: float,
    ranks: list[float] | None = None,
) -> list[CurvePoint]:
    """Greedy dedupe in rank order (the residual unless ranks are given).

    Walks the points best first and keeps each one that lies farther than
    tolerance from every point already kept.
    """
    if ranks is None:
        ranks = [cp.residual for cp in points]
    if not points:
        return []
    ranked = [points[i] for i in sorted(range(len(points)), key=ranks.__getitem__)]
    rows = np.stack([cp.array for cp in ranked])
    D = chordal_matrix(rows, rows)
    kept: list[int] = []
    for i in range(len(ranked)):
        if not kept or D[i, kept].min() > tolerance:
            kept.append(i)
    return [ranked[i] for i in kept]


# ---------------------------------------------------------------------------
# sampling helpers


def line_curve_points(
    f: CubicForm, p, q, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[CurvePoint]:
    """Intersection points of the line through p and q with the curve."""
    P = np.asarray(p, dtype=complex).reshape(3)
    Q = np.asarray(q, dtype=complex).reshape(3)
    coeffs = f.poly.restrict_to_line(P, Q)
    top = np.abs(coeffs).max()
    if top == 0.0:
        raise InputError("the line lies on the curve, which no smooth cubic allows")
    out: list[CurvePoint] = []
    trimmed = np.where(np.abs(coeffs) > _REL_TRIM * top, coeffs, 0.0)
    poly = UniPoly(trimmed)
    if poly.degree < len(coeffs) - 1:
        out.append(polish_onto_curve(f, Q, tol))
    if poly.degree >= 1:
        for t0, _ in solve_univariate(poly, tol):
            out.append(polish_onto_curve(f, P + t0 * Q, tol))
    return _dedupe(out, tol.tau_match)


def _unit_disc(rng: np.random.Generator, n: int) -> np.ndarray:
    out = np.empty(n, dtype=complex)
    have = 0
    while have < n:
        cand = rng.uniform(-1, 1, size=(2, n - have))
        z = cand[0] + 1j * cand[1]
        z = z[np.abs(z) <= 1.0]
        out[have : have + len(z)] = z
        have += len(z)
    return out


_MONOMIALS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]


def random_smooth_cubic(
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOLERANCES,
    min_margin: float = 1e-3,
) -> CubicForm:
    """Cubic with unit-disc coefficients, rejection sampled for smoothness."""
    for _ in range(200):
        c = _unit_disc(rng, 10)
        f = CubicForm.from_coeffs({m: c[i] for i, m in enumerate(_MONOMIALS)})
        rep = smoothness(f, tol)
        if rep.smooth and rep.margin >= min_margin:
            return f
    raise NumericalError("rejection sampling failed to produce a smooth cubic")


def random_points_on_curve(
    f: CubicForm,
    n: int,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[CurvePoint]:
    """Sample curve points by intersecting with random lines."""
    out: list[CurvePoint] = []
    while len(out) < n:
        p = _unit_disc(rng, 3)
        q = _unit_disc(rng, 3)
        try:
            pts = line_curve_points(f, p, q, tol)
        except (InputError, NumericalError):
            continue
        good = [cp for cp in pts if cp.residual <= tol.tau_on_curve]
        if not good:
            continue
        out.append(good[int(rng.integers(len(good)))])
    return out
