"""Group structure on a smooth plane cubic with a chosen inflection as identity.

The chord-tangent law is computed directly on the plane model through the
polarization identity

    f(sP + tQ) = s^3 f(P) + s^2 t grad_f(P).Q + s t^2 grad_f(Q).P + t^3 f(Q),

so a chord's third intersection needs no elimination.  The law works on
stacks of points, row by row (_third_rows); a single group operation is its
one-row case.  Torsion points are labelled points of the period lattice
of a Weierstrass chart, certified against the group law itself: one
double-and-add ladder multiplies all m^2 of them by m at once.  The chart
is a closed form on the curve's Hesse normal form
(symmetry._hesse_normal_form, through hesse_normalize), kept for the last
curve as its flexes are.  The layer counts 9 J_2(k) and the sizes they
realize are integer arithmetic and live in sizes.py; jordan_totient_2,
constructible_sizes and size_witness are imported from there, and _integer
checks every order and multiplier.  Points come in through the size check
numeric._point_row, and numeric._normalize_rows rejects a non-finite one.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .curve import (
    _HESSE_BASE,
    _SCALE_FLOOR,
    CubicForm,
    CurvePoint,
    PointSet,
    _curve_points,
    _forms_at,
    _hessian_of_smooth,
    _polish_rows,
    _settle,
    _tensors,
    polish_onto_curve,
)
from .errors import InputError, NumericalError
from .numeric import (
    ProjectivePoint,
    UniPoly,
    _normalize_rows,
    _point_row,
    chordal_matrix,
    solve_univariate,
)
from .sizes import _integer, constructible_sizes, jordan_totient_2, size_witness
from .symmetry import _CYCLE, _SCALE, ProjectiveTransform, act_on_point, hesse_normalize

__all__ = [
    "EllipticChart",
    "make_chart",
    "third_intersection",
    "torsion_points",
    "points_of_type",
    "jordan_totient_2",
    "constructible_sizes",
    "size_witness",
    "translation_certificate",
]

# A point this far off the curve (relative residual) is another point, not roundoff.
_ON_CURVE_GATE = 1e-3
# A third intersection this small against its terms is cancellation, not a point.
_CHORD_CANCEL = 1e-10
# A discriminant this small against its terms belongs to a singular curve.
_DISCRIMINANT_CANCEL = 1e-12
# The identity may miss the Hessian by this many tau_on_curve: H rounds a triple product.
_FLEX_SLACK = 1e2
# A model misfit this large means the chart went wrong.
_REDUCTION_CHECK = 1e-6
# Largest torsion order served; the labels of (Z/m)^2 grow as m^2.
_MAX_TORSION_ORDER = 12
# Cap on the steps of the AGM and of the SL2(Z) reduction; both converge in far fewer.
_STEP_CAP = 64
# The AGM stops once its two means agree to this relative distance.
_AGM_CLOSE = 4.0 * float(np.finfo(float).eps)
# Terms of the q-series: with |q| <= exp(-pi sqrt 3) the tail is below 1e-18, E6 included.
_Q_TERMS = 10
# g2 and g3 this far from -4a and -4b (against the weights 4 and 6 of the scale) condemn the periods.
_LATTICE_CHECK = 1e-8


def _on_curve_rows(f: CubicForm, T: np.ndarray, X, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """Rows of X gated onto f, T's first cubic (InputError), then settled from the gate's evaluation (NumericalError)."""
    X = _normalize_rows(np.asarray(X))
    first = _forms_at(T, X)
    if not (np.abs(first[0][:, 0]) <= _ON_CURVE_GATE * f.norm_inf).all():
        raise InputError("point is not on the curve")
    X, V, G = _settle(T, X, first)
    if not (np.abs(V[:, 0]) <= tol.tau_on_curve * f.norm_inf).all():
        raise NumericalError("could not polish the point onto the curve")
    return X, V, G


def _third_rows(f: CubicForm, P, Q, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the third point in which the line through P and Q meets the cubic.

    P and Q are (n, 3) stacks; every check applies to each row, and one
    failing row raises for the stack. Each input row is gated and polished
    onto the curve. Rows within tau_match of each other use the tangent at
    P, spanned by P and g x conj(P) for the gradient g at P: g annihilates
    it, and it is Hermitian-orthogonal to P, with length |g| |P| because
    g . P = 3 f(P) = 0 (Euler). Rows that are distinct but closer than ten
    times tau_match are rejected as an ill-conditioned chord. The output
    rows are polished onto the curve, each scaled to a largest coordinate 1, and come with f's values there.
    """
    T = f._tensor[None]
    P, _, gP = _on_curve_rows(f, T, P, tol)
    Q = _on_curve_rows(f, T, Q, tol)[0]
    d = np.linalg.norm(np.cross(P, Q), axis=1) / (np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1))
    if ((d > tol.tau_match) & (d <= 10.0 * tol.tau_match)).any():
        raise NumericalError("chord through nearly coincident points is ill conditioned")
    tangent = d <= tol.tau_match
    tdir = np.cross(gP[:, 0], np.conj(P))
    tdir /= np.maximum(np.linalg.norm(tdir, axis=1), _SCALE_FLOOR)[:, None]
    D = np.where(tangent[:, None], tdir, Q)
    vD, gD = _forms_at(T, D)
    # f(sP + tD) = s^2 t g(P).D + s t^2 g(D).P + t^3 f(D) when f(P) = 0; a chord
    # has f(D) = 0 and a tangent g(P).D = 0, so the third root is (s : t) = (a : -b).
    gDP = (gD[:, 0] * P).sum(axis=1)
    a = np.where(tangent, vD[:, 0], gDP)
    b = np.where(tangent, gDP, (gP[:, 0] * D).sum(axis=1))
    R = a[:, None] * P - b[:, None] * D
    scale = np.maximum(np.abs(a), np.abs(b)) * np.maximum(np.abs(P).max(axis=1), np.abs(D).max(axis=1))
    if (np.abs(R).max(axis=1) <= _CHORD_CANCEL * np.maximum(scale, _SCALE_FLOOR)).any():
        raise NumericalError("third intersection is numerically indeterminate")
    R, V, _ = _settle(T, R)
    if not (np.abs(V[:, 0]) <= tol.tau_on_curve * f.norm_inf).all():
        raise NumericalError("third intersection failed to settle on the curve")
    return R, V[:, 0]


def third_intersection(
    f: CubicForm, p, q, tol: Tolerances = DEFAULT_TOLERANCES
) -> CurvePoint:
    """Third point in which the line through p and q meets the cubic.

    Coincident inputs (within tau_match) use the tangent line; inputs that
    are distinct but closer than ten times tau_match are rejected as an
    ill-conditioned chord. The one-row case of _third_rows.
    """
    return _curve_points(f, *_third_rows(f, _point_row(p), _point_row(q), tol))[0]


# ---------------------------------------------------------------------------
# Weierstrass chart


def _hesse_weierstrass(lam: complex) -> tuple[np.ndarray, complex, complex]:
    """W, a and b with F(W x) = 4 c^2 (x^3 + y^3 + z^3 + lam xyz), c = 4 + 4 lam^3 / 27.

    F = y^2 z - x^3 - a x z^2 - b z^3 is the Weierstrass model of the pencil
    member lam (Artebani and Dolgachev, "The Hesse pencil of plane cubic
    curves"), and W sends its base point (1 : -1 : 0) to (0 : 1 : 0). det W
    = -6 c^2, so W is singular exactly on the singular members lam^3 = -27.
    """
    c = 4.0 + 4.0 * lam**3 / 27.0
    W = np.array([[-(lam**2) / 3.0, -(lam**2) / 3.0, -4.0 - lam**3 / 27.0], [c, -c, 0.0], [3.0, 3.0, -lam]])
    a = -lam * (lam**3 - 216.0) / 243.0
    b = 2.0 * (lam**2 + 6.0 * lam - 18.0) * (lam**4 - 6.0 * lam**3 + 54.0 * lam**2 + 108.0 * lam + 324.0) / 19683.0
    return W, a, b


class EllipticChart:
    """A smooth cubic with a marked inflection, carrying the group structure.

    to_w sends the curve into short Weierstrass form y^2 z = x^3 + a x z^2
    + b z^3 with the identity at (0:1:0); the period lattice and the
    torsion points are computed there, while group operations stay on the
    original plane model.
    """

    def __init__(
        self,
        curve: CubicForm,
        identity: ProjectivePoint,
        a: complex,
        b: complex,
        to_w: ProjectiveTransform,
        tol: Tolerances,
    ) -> None:
        self.curve = curve
        self.identity = identity
        self.a = complex(a)
        self.b = complex(b)
        self.to_w = to_w
        self.from_w = to_w.inverse()
        self.tol = tol

    def __repr__(self) -> str:
        return f"EllipticChart(a={self.a:.6g}, b={self.b:.6g}, O={self.identity})"

    def weierstrass_form(self) -> CubicForm:
        return CubicForm.from_coeffs(
            {(0, 2, 1): 1.0, (3, 0, 0): -1.0, (1, 0, 2): -self.a, (0, 0, 3): -self.b}
        )

    def j_invariant(self) -> complex:
        num = 4.0 * self.a**3
        den = num + 27.0 * self.b**2
        scale = max(abs(num), abs(27.0 * self.b**2))
        if abs(den) <= _DISCRIMINANT_CANCEL * max(scale, _SCALE_FLOOR):
            raise NumericalError("vanishing discriminant: the curve is singular")
        return complex(1728.0 * num / den)

    def to_weierstrass(self, p) -> ProjectivePoint:
        return act_on_point(self.to_w, p)

    def from_weierstrass(self, p) -> ProjectivePoint:
        return act_on_point(self.from_w, p)

    # -- group law ---------------------------------------------------------

    def negate(self, p) -> CurvePoint:
        return third_intersection(self.curve, self.identity, p, self.tol)

    def add(self, p, q) -> CurvePoint:
        return _curve_points(self.curve, *self._add_rows(_point_row(p), _point_row(q)))[0]

    def multiply(self, m: int, p) -> CurvePoint:
        m = _integer(m, "the multiplier", least=None)
        if m == 0:
            return polish_onto_curve(self.curve, self.identity.array)
        return _curve_points(self.curve, *self._multiply_rows(m, _point_row(p)))[0]

    def _negate_rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        O = np.broadcast_to(self.identity.array, X.shape)
        return _third_rows(self.curve, O, X, self.tol)

    def _add_rows(self, P: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._negate_rows(_third_rows(self.curve, P, Q, self.tol)[0])

    def _multiply_rows(self, m: int, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """m times each row of X (m != 0), and f there, as _third_rows returns them: one ladder for the stack."""
        X, V, _ = _on_curve_rows(self.curve, self.curve._tensor[None], X, self.tol)
        addend, result = (X, V[:, 0]), None
        mm = abs(m)
        while mm:
            if mm & 1:
                result = addend if result is None else self._add_rows(result[0], addend[0])
            mm >>= 1
            if mm:
                addend = self._add_rows(addend[0], addend[0])
        return result if m > 0 else self._negate_rows(result[0])


# _TO_FIRST_BASE[k], a product of the Fermat translation generators, carries base point k to base point 0.
_TO_FIRST_BASE = tuple(
    np.linalg.matrix_power(_SCALE, k % 3) @ np.linalg.matrix_power(_CYCLE, -(k // 3) % 3) for k in range(9)
)


def make_chart(
    f: CubicForm, identity, tol: Tolerances = DEFAULT_TOLERANCES
) -> EllipticChart:
    """Build the group chart for a smooth cubic with an inflection as identity.

    hesse_normalize's T takes f into the Hesse pencil, where the identity
    lands on a base point k; the translation _TO_FIRST_BASE[k] carries it
    to (1 : -1 : 0), and the closed form W(lam) of _hesse_weierstrass takes
    the curve to y^2 z = x^3 + a x z^2 + b z^3 with the identity at
    (0:1:0). A final scale normalizes max(|a|^(1/4), |b|^(1/6)) to 1.
    SingularCurveError on a singular curve, a cone included, before the
    identity is read (gated and settled: one evaluation at a flex already
    at the rounding floor, where f and its Hessian are evaluated together);
    InputError unless the identity is an inflection.
    """
    T, lam = hesse_normalize(f, tol)
    h = _hessian_of_smooth(f)
    X, V, _ = _on_curve_rows(f, _tensors(np.stack([f.coeffs, h.coeffs])), _point_row(identity), tol)
    if abs(V[0, 1]) / h.norm_inf > _FLEX_SLACK * tol.tau_on_curve:
        raise InputError("the identity must be an inflection point of the curve")
    P = ProjectivePoint(tuple(X[0].tolist()))
    k = int(chordal_matrix(T.matrix @ P.array, _HESSE_BASE).argmin())
    W, a, b = _hesse_weierstrass(lam)
    u = max(abs(a) ** 0.25, abs(b) ** (1.0 / 6.0))
    to_w = ProjectiveTransform(np.diag([u**-2, u**-3, 1.0]) @ W @ _TO_FIRST_BASE[k] @ T.matrix)
    chart = EllipticChart(f, P, a / u**4, b / u**6, to_w, tol)
    if f.compose_linear(chart.from_w.matrix).proportionality_residual(chart.weierstrass_form()) > _REDUCTION_CHECK:
        raise NumericalError("Weierstrass reduction failed the invariant check")
    # the chordal distance is scale-invariant, so the raw image needs no normalizing
    if chordal_matrix(to_w.matrix @ P.array, (0.0, 1.0, 0.0))[0, 0] > tol.tau_match:
        raise NumericalError("identity did not land at the point at infinity")
    return chart


# ---------------------------------------------------------------------------
# torsion from the period lattice


def _agm(a: complex, b: complex) -> complex:
    """Complex arithmetic-geometric mean, taking at each step the square root nearer the mean."""
    for _ in range(_STEP_CAP):
        if abs(a - b) <= _AGM_CLOSE * abs(a):
            break
        a, b = (a + b) / 2, cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return a


def _periods(chart: EllipticChart) -> tuple[complex, complex, np.ndarray]:
    """A period w1, the reduced tau = w2 / w1 of the lattice of y^2 = x^3 + a x + b, and q^1..q^_Q_TERMS.

    Cremona and Thongjunthug's complex AGM: with the roots e1, e2, e3 in the
    solver's order, w1 = pi / M(sqrt(e1 - e3), sqrt(e1 - e2)) and
    w2 = i pi / M(sqrt(e1 - e3), sqrt(e2 - e3)), the last two square roots
    taken on the side of the first. SL2(Z) then moves tau into the
    fundamental domain, so |q| <= exp(-pi sqrt 3). The basis is checked
    against g2 = -4a and g3 = -4b through the Eisenstein series E4 and E6.
    """
    roots = [z for z, _ in solve_univariate(UniPoly([chart.b, chart.a, 0.0, 1.0]), chart.tol)]
    if len(roots) != 3:
        raise NumericalError("the Weierstrass cubic has a repeated root")
    e1, e2, e3 = roots
    a, b, c = cmath.sqrt(e1 - e3), cmath.sqrt(e1 - e2), cmath.sqrt(e2 - e3)
    b = -b if abs(a - b) > abs(a + b) else b
    c = -c if abs(a - c) > abs(a + c) else c
    w1, w2 = cmath.pi / _agm(a, b), 1j * cmath.pi / _agm(a, c)
    w2 = w2 if (w2 / w1).imag > 0 else -w2
    for _ in range(_STEP_CAP):
        w2 -= round((w2 / w1).real) * w1
        if abs(w2 / w1) >= 1.0:
            break
        w1, w2 = w2, -w1
    tau = w2 / w1
    n = np.arange(1, _Q_TERMS + 1)
    qn = np.exp(2j * np.pi * tau) ** n
    lam = qn / (1.0 - qn)
    s = 2.0 * np.pi / w1
    g2 = s**4 * (1.0 + 240.0 * (n**3 * lam).sum()) / 12.0
    g3 = s**6 * (1.0 - 504.0 * (n**5 * lam).sum()) / 216.0
    u = max(abs(chart.a) ** 0.25, abs(chart.b) ** (1.0 / 6.0))
    if not (abs(g2 + 4.0 * chart.a) <= _LATTICE_CHECK * u**4 and abs(g3 + 4.0 * chart.b) <= _LATTICE_CHECK * u**6):
        raise NumericalError("the period lattice failed the g2, g3 check")
    return w1, tau, qn


def _labels(m: int) -> list[tuple[int, int]]:
    """The labels (i, j) of (Z/m)^2 centred in (-m/2, m/2], the order limit checked before any is built."""
    if m > _MAX_TORSION_ORDER:
        raise InputError(f"torsion order {m} exceeds the limit {_MAX_TORSION_ORDER}")
    r = range(-((m - 1) // 2), m // 2 + 1)
    return [(i, j) for i in r for j in r]


def _lattice_rows(chart: EllipticChart, m: int, labels: list[tuple[int, int]]) -> np.ndarray:
    """Weierstrass rows (x : y : 1) of the points with the given labels, (0 : 1 : 0) for (0, 0).

    The point with label (i, j) is x = P(z), y = P'(z) / 2 at
    z = (i w1 + j w2) / m, by the q-series of the Weierstrass function P in
    w = exp(2 pi i z / w1) (Silverman, Advanced Topics, Thm I.6.2). Since y
    comes from P' and not from a square root, labels add as the points do.
    """
    w1, tau, qn = _periods(chart)
    L = np.array(labels, dtype=float).reshape(-1, 2)
    rest = (L % m != 0).any(axis=1)
    w = np.exp(2j * np.pi * (L[rest, 0] + L[rest, 1] * tau) / m)[:, None]
    # the sums run over n in Z: q^n w for n >= 0, then q^|n| / w, whose P' terms change sign
    v = np.concatenate([w, qn * w, qn / w], axis=1)
    sign = np.concatenate([np.ones(_Q_TERMS + 1), -np.ones(_Q_TERMS)])
    k = 2j * np.pi / w1
    x = k**2 * (1.0 / 12.0 + (v / (1.0 - v) ** 2).sum(axis=1) - 2.0 * (qn / (1.0 - qn) ** 2).sum())
    y = k**3 / 2.0 * (sign * v * (1.0 + v) / (1.0 - v) ** 3).sum(axis=1)
    rows = np.tile(np.array([0.0, 1.0, 0.0], dtype=complex), (len(L), 1))
    rows[rest] = np.stack([x, y, np.ones_like(x)], axis=1)
    return rows


def _lattice_points(chart: EllipticChart, m: int, labels: list[tuple[int, int]], certify: bool) -> PointSet:
    """The labelled points of order dividing m, settled on the curve and checked, in canonical order.

    Every point must settle within tau_on_curve and the set must be
    separated by more than 2 tau_match. Certification multiplies the whole
    stack by m in one double-and-add ladder of the plane chord law and
    demands the identity within tau_match for every row.
    """
    tol = chart.tol
    found = PointSet(_polish_rows(chart.curve, _lattice_rows(chart, m, labels) @ chart.from_w.matrix.T), tol.tau_match)
    if not all(cp.residual <= tol.tau_on_curve for cp in found):
        raise NumericalError("a lattice point failed to settle on the curve")
    if found.min_separation() <= 2.0 * tol.tau_match:
        raise NumericalError(f"the {len(found)} lattice points of order dividing {m} are not distinct")
    if certify:
        back = chart._multiply_rows(m, found.arrays)[0]
        if not (chordal_matrix(chart.identity, back) <= tol.tau_match).all():
            raise NumericalError("a candidate torsion point failed the group-law check")
    return found.sorted_canonical()


def torsion_points(
    chart: EllipticChart, m: int, certify: bool = True
) -> PointSet:
    """All points P with m P = O: the m^2 lattice points of _lattice_points, every label of (Z/m)^2."""
    m = _integer(m, "the torsion order")
    return _lattice_points(chart, m, _labels(m), certify)


def points_of_type(
    chart: EllipticChart, k: int, certify: bool = True
) -> PointSet:
    """Points of type 3k: killed by 3k but by no smaller multiple 3d, d | k.

    Those are the labels (i, j) of (Z/3k)^2 with gcd(i, j, k) = 1, nine
    times the second Jordan totient of k; _lattice_points gives them in one
    evaluation.
    """
    k = _integer(k, "the type index")
    return _lattice_points(chart, 3 * k, [(i, j) for i, j in _labels(3 * k) if math.gcd(i, j, k) == 1], certify)


def translation_certificate(
    chart: EllipticChart,
    T: ProjectiveTransform,
    samples: list[CurvePoint],
) -> float:
    """Spread of T(P) - P (group subtraction) over the sample points.

    An automorphism acting as a group translation makes this difference a
    constant point, so the returned max chordal deviation from the first
    sample's difference is ~0 exactly for translations.
    """
    if not samples:
        raise InputError("at least one sample point is required")
    X = np.concatenate([_point_row(cp) for cp in samples])
    diffs = chart._add_rows(X @ T.matrix.T, chart._negate_rows(X)[0])[0]
    return float(chordal_matrix(diffs[0], diffs).max())
