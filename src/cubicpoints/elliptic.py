"""Group structure on a smooth plane cubic with a chosen inflection as identity.

The chord-tangent law is computed directly on the plane model through the
polarization identity

    f(sP + tQ) = s^3 f(P) + s^2 t grad_f(P).Q + s t^2 grad_f(Q).P + t^3 f(Q),

so a chord's third intersection needs no elimination.  The law works on
stacks of points, row by row (_third_rows); a single group operation is its
one-row case.  Torsion is found in a Weierstrass chart via division
polynomials and mapped back, then certified against the group law itself:
one double-and-add ladder multiplies all m^2 candidates by m at once.  The layer counts 9 J_2(k) and the sizes they
realize are integer arithmetic and live in sizes.py; jordan_totient_2,
constructible_sizes and size_witness are imported from there.
"""

from __future__ import annotations

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .curve import (
    _SCALE_FLOOR,
    CubicForm,
    CurvePoint,
    PointSet,
    _curve_point,
    _dedupe,
    _forms_at,
    _polish_rows,
    _settle,
    _unit_rows,
    polish_onto_curve,
)
from .errors import InputError, NumericalError
from .numeric import (
    ProjectivePoint,
    UniPoly,
    _point_array,
    chordal_distance,
    chordal_matrix,
    normalize_point,
    solve_univariate,
)
from .sizes import constructible_sizes, jordan_totient_2, size_witness
from .symmetry import ProjectiveTransform, act_on_point

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
# Below this |n . n| / |n|^2 the tangent line is nearly isotropic (see make_chart).
_ISOTROPIC = 1e-3
# A frame determinant or leading Weierstrass coefficient this small is degenerate.
_FRAME_DEGENERATE = 1e-8
# A leftover cross term or model misfit this large means the reduction went wrong.
_REDUCTION_CHECK = 1e-6


def _coords(p) -> np.ndarray:
    v = _point_array(p).reshape(3)
    if not np.isfinite(v).all():
        raise InputError("point coordinates must be finite")
    return v


def _on_curve_rows(f: CubicForm, T: np.ndarray, X, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Every row of X gated onto f (InputError) and settled there (NumericalError): the rows and their gradients."""
    X = _unit_rows(np.asarray(X))
    if not (np.abs(_forms_at(T, X)[0]) <= _ON_CURVE_GATE * f.norm_inf).all():
        raise InputError("point is not on the curve")
    X, V, G = _settle(T, X)
    if not (np.abs(V) <= tol.tau_on_curve * f.norm_inf).all():
        raise NumericalError("could not polish the point onto the curve")
    return X, G


def _third_rows(f: CubicForm, P, Q, tol: Tolerances) -> np.ndarray:
    """Row by row, the third point in which the line through P and Q meets the cubic.

    P and Q are (n, 3) stacks; every check applies to each row, and one
    failing row raises for the stack. Each input row is gated and polished
    onto the curve. Rows within tau_match of each other use the tangent at
    P, spanned by P and g x conj(P) for the gradient g at P: g annihilates
    it, and it is Hermitian-orthogonal to P, with length |g| |P| because
    g . P = 3 f(P) = 0 (Euler). Rows that are distinct but closer than ten
    times tau_match are rejected as an ill-conditioned chord. The output
    rows are polished onto the curve, each scaled to a largest coordinate 1.
    """
    T = f._tensor()[None]
    P, gP = _on_curve_rows(f, T, P, tol)
    Q, _ = _on_curve_rows(f, T, Q, tol)
    d = np.linalg.norm(np.cross(P, Q), axis=1) / (np.linalg.norm(P, axis=1) * np.linalg.norm(Q, axis=1))
    if ((d > tol.tau_match) & (d <= 10.0 * tol.tau_match)).any():
        raise NumericalError("chord through nearly coincident points is ill conditioned")
    tangent = d <= tol.tau_match
    tdir = np.cross(gP, np.conj(P))
    tdir /= np.maximum(np.linalg.norm(tdir, axis=1), _SCALE_FLOOR)[:, None]
    D = np.where(tangent[:, None], tdir, Q)
    vD, gD = _forms_at(T, D)
    # f(sP + tD) = s^2 t g(P).D + s t^2 g(D).P + t^3 f(D) when f(P) = 0; a chord
    # has f(D) = 0 and a tangent g(P).D = 0, so the third root is (s : t) = (a : -b).
    gDP = (gD[:, 0] * P).sum(axis=1)
    a = np.where(tangent, vD[:, 0], gDP)
    b = np.where(tangent, gDP, (gP * D).sum(axis=1))
    R = a[:, None] * P - b[:, None] * D
    scale = np.maximum(np.abs(a), np.abs(b)) * np.maximum(np.abs(P).max(axis=1), np.abs(D).max(axis=1))
    if (np.abs(R).max(axis=1) <= _CHORD_CANCEL * np.maximum(scale, _SCALE_FLOOR)).any():
        raise NumericalError("third intersection is numerically indeterminate")
    R, V, _ = _settle(T, R)
    if not (np.abs(V) <= tol.tau_on_curve * f.norm_inf).all():
        raise NumericalError("third intersection failed to settle on the curve")
    return R


def third_intersection(
    f: CubicForm, p, q, tol: Tolerances = DEFAULT_TOLERANCES
) -> CurvePoint:
    """Third point in which the line through p and q meets the cubic.

    Coincident inputs (within tau_match) use the tangent line; inputs that
    are distinct but closer than ten times tau_match are rejected as an
    ill-conditioned chord. The one-row case of _third_rows.
    """
    return _curve_point(f, _third_rows(f, _coords(p)[None], _coords(q)[None], tol)[0])


# ---------------------------------------------------------------------------
# Weierstrass chart


def _shift_matrix(d: complex, e: complex) -> np.ndarray:
    return np.array([[1, 0, 0], [d, 1, e], [0, 0, 1]], dtype=complex)


class EllipticChart:
    """A smooth cubic with a marked inflection, carrying the group structure.

    to_w sends the curve into short Weierstrass form y^2 z = x^3 + a x z^2
    + b z^3 with the identity at (0:1:0); arithmetic that benefits from
    that shape (torsion hunting) happens there, while single group
    operations stay on the original plane model.
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
        return act_on_point(self.to_w, _coords(p))

    def from_weierstrass(self, p) -> ProjectivePoint:
        return act_on_point(self.from_w, _coords(p))

    # -- group law ---------------------------------------------------------

    def negate(self, p) -> CurvePoint:
        return third_intersection(self.curve, self.identity, p, self.tol)

    def add(self, p, q) -> CurvePoint:
        return _curve_point(self.curve, self._add_rows(_coords(p)[None], _coords(q)[None])[0])

    def multiply(self, m: int, p) -> CurvePoint:
        if not isinstance(m, (int, np.integer)):
            raise InputError("the multiplier must be an integer")
        if m == 0:
            return polish_onto_curve(self.curve, self.identity.array, self.tol)
        return _curve_point(self.curve, self._multiply_rows(int(m), _coords(p)[None])[0])

    def _negate_rows(self, X: np.ndarray) -> np.ndarray:
        O = np.broadcast_to(self.identity.array, X.shape)
        return _third_rows(self.curve, O, X, self.tol)

    def _add_rows(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        return self._negate_rows(_third_rows(self.curve, P, Q, self.tol))

    def _multiply_rows(self, m: int, X: np.ndarray) -> np.ndarray:
        """m times each row of X (m != 0): one double-and-add ladder for the whole stack."""
        addend, _ = _on_curve_rows(self.curve, self.curve._tensor()[None], X, self.tol)
        result = None
        mm = abs(m)
        while mm:
            if mm & 1:
                result = addend if result is None else self._add_rows(result, addend)
            mm >>= 1
            if mm:
                addend = self._add_rows(addend, addend)
        return result if m > 0 else self._negate_rows(result)


def make_chart(
    f: CubicForm, identity, tol: Tolerances = DEFAULT_TOLERANCES
) -> EllipticChart:
    """Build the group chart for a smooth cubic with an inflection as identity.

    The transform is assembled in four moves: send the identity to (0:1:0)
    with its tangent to the line z = 0, shear away the cross terms in y,
    translate away the x^2 z term, and rescale so the model reads
    y^2 z = x^3 + a x z^2 + b z^3 with max(|a|, |b|) normalized to 1 when
    nonzero.
    """
    X, G = _on_curve_rows(f, f._tensor()[None], _coords(identity)[None], tol)
    P = normalize_point(X[0])
    if f.hessian().residual_at(P) > _FLEX_SLACK * tol.tau_on_curve:
        raise InputError("the identity must be an inflection point of the curve")
    O, n = P.array, G[0]
    nn = float(np.linalg.norm(n))
    if nn == 0.0:
        raise InputError("singular point cannot serve as the identity")
    # The first row vanishes at O. n x O moves smoothly with the identity, so
    # roundoff in a zero coordinate of O cannot flip the sign of b; its frame
    # has |det| >= |n . n| / |n|^2 and degenerates when the tangent line is
    # isotropic. There the row O x conj(n) takes over, with |det| = 1.
    r = np.cross(n, O) if abs(n @ n) > _ISOTROPIC * nn * nn else np.cross(O, np.conj(n))
    M1 = np.stack([r / np.linalg.norm(r), np.conj(O) / np.linalg.norm(O), n / nn])
    if abs(np.linalg.det(M1)) <= _FRAME_DEGENERATE:
        raise NumericalError("frame at the identity is numerically degenerate")
    g1 = f.compose_linear(np.linalg.inv(M1))
    top = g1.norm_inf
    for key in ((0, 3, 0), (1, 2, 0), (2, 1, 0)):
        if abs(g1.coeff(*key)) > _REDUCTION_CHECK * top:
            raise NumericalError(
                "the marked point does not behave like an inflection"
            )
    c = g1.coeff(0, 2, 1)
    a3 = g1.coeff(3, 0, 0)
    if abs(c) <= _FRAME_DEGENERATE * top or abs(a3) <= _FRAME_DEGENERATE * top:
        raise NumericalError("degenerate tangent frame at the identity")
    d = g1.coeff(1, 1, 1)
    e = g1.coeff(0, 1, 2)
    T2 = _shift_matrix(d / (2.0 * c), e / (2.0 * c))
    g2 = g1.compose_linear(np.linalg.inv(T2))
    a2 = g2.coeff(2, 0, 1)
    s = a2 / (3.0 * a3)
    T3 = np.array([[1, 0, s], [0, 1, 0], [0, 0, 1]], dtype=complex)
    g3 = g2.compose_linear(np.linalg.inv(T3))
    a1 = g3.coeff(1, 0, 2)
    a0 = g3.coeff(0, 0, 3)
    q = np.sqrt(-a3 / c)
    T4 = np.diag([1.0, 1.0 / q, 1.0]).astype(complex)
    A = a1 / a3
    B = a0 / a3
    u = max(abs(A) ** 0.25, abs(B) ** (1.0 / 6.0))
    if u > 0.0:
        T5 = np.diag([1.0 / u**2, 1.0 / u**3, 1.0]).astype(complex)
        A = A / u**4
        B = B / u**6
    else:
        T5 = np.eye(3, dtype=complex)
    W = ProjectiveTransform(T5 @ T4 @ T3 @ T2 @ M1)
    chart = EllipticChart(f, P, A, B, W, tol)
    model = chart.weierstrass_form()
    pushed = f.compose_linear(W.inverse().matrix)
    if pushed.proportionality_residual(model) > _REDUCTION_CHECK:
        raise NumericalError("Weierstrass reduction failed the invariant check")
    if chordal_distance(chart.to_weierstrass(P), np.array([0, 1, 0])) > tol.tau_match:
        raise NumericalError("identity did not land at the point at infinity")
    return chart


# ---------------------------------------------------------------------------
# torsion via division polynomials


def _division_polys(m: int, A: complex, B: complex) -> dict[int, UniPoly]:
    """Division polynomials in x only, with the odd/even parity folded in.

    With R = x^3 + A x + B, entry k here equals the classical psi_k for odd
    k and psi_k / y for even k; the recurrences below are the classical
    ones after substituting y^2 = R.
    """
    R = UniPoly([B, A, 0.0, 1.0])
    R2 = R * R
    f: dict[int, UniPoly] = {
        0: UniPoly([0.0]),
        1: UniPoly([1.0]),
        2: UniPoly([2.0]),
        3: UniPoly([-(A**2), 12.0 * B, 6.0 * A, 0.0, 3.0]),
        4: UniPoly(
            [
                4.0 * (-8.0 * B**2 - A**3),
                4.0 * (-4.0 * A * B),
                4.0 * (-5.0 * A**2),
                4.0 * 20.0 * B,
                4.0 * 5.0 * A,
                0.0,
                4.0,
            ]
        ),
    }
    for k in range(5, m + 1):
        if k % 2:
            j = (k - 1) // 2
            if j % 2 == 0:
                f[k] = R2 * f[j + 2] * f[j] * f[j] * f[j] - f[j - 1] * f[j + 1] * f[j + 1] * f[j + 1]
            else:
                f[k] = f[j + 2] * f[j] * f[j] * f[j] - R2 * f[j - 1] * f[j + 1] * f[j + 1] * f[j + 1]
        else:
            j = k // 2
            f[k] = 0.5 * (f[j] * (f[j + 2] * f[j - 1] * f[j - 1] - f[j - 2] * f[j + 1] * f[j + 1]))
        expected = (k * k - 1) // 2 if k % 2 else (k * k - 4) // 2
        if f[k].degree != expected:
            raise NumericalError(
                f"division polynomial {k} lost its leading coefficient"
            )
    return f


def torsion_points(
    chart: EllipticChart, m: int, certify: bool = True
) -> PointSet:
    """All points P with m P = O, as a PointSet of exactly m^2 points.

    Certification multiplies the whole stack of found points by m in one
    double-and-add ladder of the plane chord law and demands the identity
    within tau_match for every row.
    """
    tol = chart.tol
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InputError("the torsion order must be a positive integer")
    if m > tol.max_torsion_order:
        raise InputError(
            f"torsion order {m} exceeds the configured limit "
            f"{tol.max_torsion_order}"
        )
    ident = polish_onto_curve(chart.curve, chart.identity.array, tol)
    found: list[CurvePoint] = [ident]
    if m > 1:
        A, B = chart.a, chart.b
        R = UniPoly([B, A, 0.0, 1.0])
        rows = [[x, 0.0, 1.0] for x, _ in solve_univariate(R, tol)] if m % 2 == 0 else []
        if m > 2:
            for x, _ in solve_univariate(_division_polys(m, A, B)[m], tol):
                y = np.sqrt(complex(R(x)))
                rows += [[x, y, 1.0], [x, -y, 1.0]]
        back = np.array(rows, dtype=complex) @ chart.from_w.matrix.T
        found += [cp for cp in _polish_rows(chart.curve, back) if cp.residual <= tol.tau_on_curve]
    dedup = _dedupe(found, tol.tau_match)
    if len(dedup) != m * m:
        raise NumericalError(
            f"expected {m * m} points of order dividing {m}, found {len(dedup)}"
        )
    if certify:
        back = chart._multiply_rows(int(m), np.stack([cp.array for cp in dedup]))
        if not (chordal_matrix(chart.identity, back) <= tol.tau_match).all():
            raise NumericalError("a candidate torsion point failed the group-law check")
    return PointSet(dedup, tol.tau_match).sorted_canonical()


def _divisors(k: int) -> list[int]:
    return [d for d in range(1, k + 1) if k % d == 0]


def points_of_type(
    chart: EllipticChart, k: int, certify: bool = True
) -> PointSet:
    """Points of type 3k: killed by 3k but by no smaller multiple 3d, d | k.

    Their count is nine times the second Jordan totient of k; anything else
    raises NumericalError.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InputError("the type index must be a positive integer")
    out = torsion_points(chart, 3 * int(k), certify=certify)
    for d in _divisors(int(k))[:-1]:
        out = out.minus(torsion_points(chart, 3 * d, certify=False))
    expected = 9 * jordan_totient_2(int(k))
    if len(out) != expected:
        raise NumericalError(
            f"type-{3 * k} count came out as {len(out)}, expected {expected}"
        )
    return out.sorted_canonical()


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
    X = np.stack([_coords(cp) for cp in samples])
    diffs = chart._add_rows(X @ T.matrix.T, chart._negate_rows(X))
    return float(chordal_matrix(diffs[0], diffs).max())
