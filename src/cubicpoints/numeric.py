"""Numeric kernel: univariate polynomials, roots, projective metric.

Every higher-level computation (intersection, torsion, tracking) bottoms
out here, so the routines certify their own output: roots are Newton
polished and rejected unless the relative residual clears tau_root, and
projective points carry a canonical normalized representative.

The solver works on Python lists: the package solves polynomials of
degree at most 4, too small for numpy's per-call overhead to pay off.
Only the companion matrix, the one np.roots builds, goes to numpy for its
eigenvalues. Clustering is a loop over pairs, and a cluster's mean goes
through numpy only when it has more than one member. Each derivative a
solve needs is taken once, as polyder forms it. Newton and the residual
check evaluate by one Horner loop on Python complex numbers, in the order
np.polynomial.polynomial.polyval uses, and Newton divides in
np.complex128. Newton stops at the rounding floor: once a step of a few
ulps fails to halve the one before, with 40 steps as a backstop. The residual bound takes max|coeff| once per solve.
Roots, multiplicities and error messages have the same bits as np.roots,
vectorized clustering and polyval would give. The one exception is abs
in the pair loop: numpy's vectorized abs and Python's hypot can differ
in the last bit, so a pair whose distance lies within one ulp of the
cluster radius could be judged differently.

Conventions:
- polynomial coefficients are stored lowest degree first;
- the projective metric is the chordal one, sqrt(1 - |<P,Q>|^2 / (|P|^2 |Q|^2)),
  evaluated as |P x Q| / (|P| |Q|) so that nearby points keep full accuracy.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InputError, NumericalError

__all__ = [
    "UniPoly",
    "ProjectivePoint",
    "solve_univariate",
    "chordal_distance",
    "chordal_matrix",
    "normalize_point",
]

# Slack (in units of machine epsilon) for the max-modulus pivot search in
# _normalize_rows; keeps renormalization bitwise idempotent on exact ties.
_PIVOT_SLACK = 4.0 * float(np.finfo(float).eps)
# The smallest normal float: dividing by a subnormal pivot can overflow, so a
# vector whose largest modulus is below this has no finite representative.
_TINY = float(np.finfo(float).tiny)

# Newton stops after a step below this, relative to max(1, |z|): under one
# ulp, so the step left z as it was.
_STEP_DONE = 1e-16
# A step this small, relative to max(1, |z|), that fails to halve the one
# before is roundoff in the Horner sums (a few ulps): Newton stops there.
_ROUNDING_FLOOR = 16.0 * float(np.finfo(float).eps)
# The backstop on Newton steps, for a polish that never settles.
_NEWTON_CAP = 40

# Cross products by index: component p of a x b is entry p of a[_CROSS_A] b[_CROSS_B]
# minus entry 3 + p, that is a[p + 1] b[p + 2] - a[p + 2] b[p + 1] (indices mod 3).
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])


class UniPoly:
    """Univariate polynomial over the complex numbers, lowest degree first.

    Trailing (highest-degree) coefficients that are exactly zero are
    trimmed on construction, so lead() is nonzero unless the polynomial
    is identically zero, which is stored as the single coefficient 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise InputError("coefficients must form a nonempty 1-d sequence")
        if not np.isfinite(c).all():
            raise InputError("non-finite polynomial coefficient")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1] * 0
        self.coeffs = c

    @classmethod
    def from_roots(cls, roots, lead: complex = 1.0) -> "UniPoly":
        c = np.atleast_1d(np.asarray([lead], dtype=complex))
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0], dtype=complex))
        return cls(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def lead(self) -> complex:
        return complex(self.coeffs[-1])

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coeffs)

    def derivative(self) -> "UniPoly":
        if self.degree == 0:
            return UniPoly([0.0])
        return UniPoly(np.polynomial.polynomial.polyder(self.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


class ProjectivePoint(NamedTuple):
    """Point of the complex projective plane, stored normalized.

    The representative has its max-modulus coordinate equal to 1 (lowest
    index wins ties). Equality of the record is equality of the coords
    tuples (representation equality); geometric identity is
    chordal_distance below a tolerance.
    """

    coords: tuple[complex, complex, complex]

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __repr__(self) -> str:
        x, y, z = self.coords
        return f"({x:.6g} : {y:.6g} : {z:.6g})"


def _point_array(point) -> np.ndarray:
    """The coordinates of a point: the .array of a ProjectivePoint or CurvePoint, else the input, as complex."""
    return np.asarray(point.array if hasattr(point, "array") else point, dtype=complex)


def _point_row(point) -> np.ndarray:
    """One point's coordinates as a (1, 3) row: the size check of every single-point entry."""
    a = _point_array(point)
    if a.size != 3:
        raise InputError("projective point needs exactly 3 coordinates")
    return a.reshape(1, 3)


def normalize_point(v) -> ProjectivePoint:
    """Canonical representative: max-modulus coordinate rescaled to exactly 1.

    The one-row case of _normalize_rows, which holds the rule. Raises
    InputError unless v has exactly three coordinates.
    """
    return ProjectivePoint(tuple(_normalize_rows(_point_row(v))[0].tolist()))


def _normalize_rows(X: np.ndarray) -> np.ndarray:
    """Every row of an (n, 3) stack divided by its max-modulus coordinate, which becomes exactly 1.

    Ties go to the lowest coordinate index; the comparison carries a few
    ulps of slack (_PIVOT_SLACK) so the map is idempotent even on exact
    modulus ties. Raises InputError on a non-finite row, on a zero row and
    on a row whose largest modulus is subnormal, where the division could
    overflow; a stack with a bad row raises for the whole stack.
    """
    mods = np.abs(X)
    top = np.maximum.reduce(mods, axis=1)
    # one test passes the common stack (a NaN fails it); only a stack that
    # fails it is diagnosed, and one whose moduli overflow passes on
    if top.size and not (_TINY <= np.minimum.reduce(top) and np.maximum.reduce(top) < math.inf):
        if not np.isfinite(X).all():
            raise InputError("non-finite coordinate")
        if not top.all():
            raise InputError("the zero vector is not a projective point")
        if (top < _TINY).any():
            raise InputError("every coordinate is subnormal; no finite representative")
    # each row's pivot as a flat index, which take and put read in C order whatever X's layout
    pivot = (mods >= (top * (1.0 - _PIVOT_SLACK))[:, None]).argmax(axis=1) + np.arange(0, 3 * len(X), 3)
    W = X / X.take(pivot)[:, None]
    W.put(pivot, 1.0)
    return W


def chordal_distance(p, q) -> float:
    """Chordal (Fubini-Study sine) distance between two projective points.

    Takes ProjectivePoint, CurvePoint or raw coordinate triples; scale invariant,
    symmetric, range [0, 1], and a metric on the projective plane.
    """
    return float(chordal_matrix(_point_row(p), _point_row(q))[0, 0])


def chordal_matrix(A, B) -> np.ndarray:
    """Pairwise chordal distances between two stacks of coordinate rows.

    Either side is an (n, 3) stack or one point, a ProjectivePoint,
    CurvePoint or coordinate triple (_point_row); InputError on any other size.
    """
    A, B = (a if a.ndim == 2 and a.shape[1] == 3 else _point_row(a) for a in map(_point_array, (A, B)))
    na, nb = _norms(A, 1), _norms(B, 1)
    if np.count_nonzero(na) < len(na) or np.count_nonzero(nb) < len(nb):
        raise InputError("the zero vector is not a projective point")
    # Lagrange identity: |a|^2 |b|^2 - |<a, conj(b)>|^2 = |a x b|^2, which
    # avoids the cancellation that a direct 1 - |<a,b>|^2 suffers near 0.
    # The pairwise cross products are np.cross(a, b) spelled out by index,
    # which skips np.cross's per-call broadcasting overhead: one gather per
    # side, every product in one multiply, then the halves subtracted.
    X = A[:, None, _CROSS_A] * B[None, :, _CROSS_B]
    return np.minimum(1.0, _norms(X[..., :3] - X[..., 3:], 2) / (na[:, None] * nb[None, :]))


def _cofactors(A: np.ndarray) -> np.ndarray:
    """The cofactor matrix K of a 3x3: row i is row i + 1 cross row i + 2, so adj A = K.T and det A = A[0] . K[0].

    Python complex products, cheaper than numpy's linalg on a 3x3; det A is off by ulps of the product of A's
    row norms, at most kappa^2 |det A| (LU: kappa |det A|)."""
    (a, b, c), (d, e, f), (g, h, i) = A.tolist()
    K = [[e * i - f * h, f * g - d * i, d * h - e * g], [h * c - i * b, i * a - g * c, g * b - h * a]]
    return np.array(K + [[b * f - c * e, c * d - a * f, a * e - b * d]], dtype=complex)


def _norms(X: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms along an axis, with the bits of np.linalg.norm(X, axis=axis): its own formula, without its wrapper."""
    return np.sqrt(np.add.reduce((X.conj() * X).real, axis=axis))


def _horner(h: list[complex], z: complex) -> complex:
    """Value at z of the polynomial with coefficients h, highest degree first.

    Horner's rule on Python complex numbers in the order polyval uses, so
    the result has polyval's bits without its per-call overhead.
    """
    v = h[0] + z * 0
    for c in h[1:]:
        v = c + v * z
    return v


def _derivative(h: list[complex]) -> list[complex]:
    """Coefficients of the derivative, highest degree first, as polyder forms them.

    polyder scales by 1 before multiplying by the exponent; the two
    products keep its bits, signed zeros included.
    """
    d = len(h) - 1
    dh = [h[i] * 1 * (d - i) for i in range(d)]
    if not all(map(cmath.isfinite, dh)):
        raise InputError("non-finite polynomial coefficient")
    return dh


def _newton(h: list[complex], dh: list[complex], z: complex) -> complex:
    """Newton's method for the polynomial with coefficients h, derivative dh.

    Both lists hold Python complex numbers, highest degree first; only the
    division goes through np.complex128, whose rounding differs from
    Python's. The loop stops after a step below _STEP_DONE, or once a step
    no larger than _ROUNDING_FLOOR fails to halve the one before: the
    iterate then moves by roundoff alone. A larger step never stops it, so
    a slow but real contraction runs on, at most to _NEWTON_CAP steps.
    """
    last = math.inf
    for _ in range(_NEWTON_CAP):
        d = _horner(dh, z)
        if d == 0:
            return z
        step = complex(np.complex128(_horner(h, z)) / d)
        z = z - step
        size, scale = abs(step), max(1.0, abs(z))
        if size <= _STEP_DONE * scale or (size > 0.5 * last and size <= _ROUNDING_FLOOR * scale):
            break
        last = size
    return z


def _companion_roots(c: np.ndarray) -> list[complex]:
    """Eigenvalues of the companion matrix of c (highest degree first, c[-1] != 0).

    The matrix is the one np.roots builds, without np.roots' own
    trimming and stacking, which cost the monodromy_loops benchmark about
    7% of its op time (BENCH_4.json). A first row that overflows raises
    NumericalError instead of numpy's LinAlgError.
    """
    if len(c) == 1:
        return []
    A = np.eye(len(c) - 1, k=-1, dtype=c.dtype)
    with np.errstate(all="ignore"):
        A[0, :] = -c[1:] / c[0]
    try:
        return np.linalg.eigvals(A).tolist()
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"companion matrix eigenvalues failed: {err}") from None


def _components(n: int, pairs) -> list[list[int]]:
    """Connected components of range(n) joined by the given index pairs.

    Union-find with path halving.  Members are listed in increasing order
    and components in order of their smallest member.
    """
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _close_pairs(values: list[complex], radius: float) -> list[tuple[int, int]]:
    """The pairs i < j with |values[i] - values[j]| <= radius max(1, |values[i]|): _cluster's one closeness rule."""
    lims = [radius * max(1.0, abs(v)) for v in values]
    return [(i, j) for i, v in enumerate(values) for j in range(i + 1, len(values)) if abs(v - values[j]) <= lims[i]]


def _apart(values: list[complex], radius: float) -> bool:
    """Whether no two values are close (_close_pairs), so that each value is a cluster of its own."""
    return not _close_pairs(values, radius)


def _cluster(values: list[complex], radius: float) -> list[list[int]]:
    return _components(len(values), _close_pairs(values, radius))


def _centre(values: list[complex], group: list[int]) -> complex:
    """Mean of the group's values, with the bits of complex(np.mean(...)).

    A single value skips numpy: np.mean sums from +0, which turns a
    negative zero positive, and adding 0j does the same.
    """
    if len(group) == 1:
        return values[group[0]] + 0j
    return complex(np.mean([values[i] for i in group]))


def solve_univariate(
    p: UniPoly, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[tuple[complex, int]]:
    """All complex roots of p with multiplicities, certified by residual.

    Companion-matrix eigenvalues seed the roots (the matrix np.roots
    builds, with one zero root per vanishing low coefficient), clusters
    within tau_cluster merge into multiple roots, and each representative
    is Newton polished (on the (m-1)-th derivative for an m-fold root).
    When the seeds and the polished seeds are pairwise apart (_apart),
    every cluster is a singleton: the clustering is skipped, bits kept.
    Roots are Python complex numbers, checked by Horner against one
    max|coeff|. NumericalError if the companion matrix overflows or a root
    fails the relative residual bound tau_root, InputError on constants.
    """
    if p.is_zero():
        raise InputError("cannot solve the zero polynomial")
    if p.degree == 0:
        raise InputError("cannot solve a constant polynomial")
    top = p.coeffs[::-1]
    h = top.tolist()
    # as in np.roots, each vanishing low coefficient is a root at zero
    nz = len(h)
    while h[nz - 1] == 0:
        nz -= 1
    raw = _companion_roots(top[:nz]) + [0j] * (len(h) - nz)
    # chain[k] is the k-th derivative of p, highest degree first, built once
    # per solve; an m-fold root is polished on derivative m - 1
    chain = [h]

    def polish(z: complex, m: int) -> complex:
        while len(chain) <= m:
            chain.append(_derivative(chain[-1]))
        return _newton(chain[m - 1], chain[m], z)

    vals = [polish(z + 0j, 1) for z in raw] if _apart(raw, tol.tau_cluster) else None
    if vals and _apart(vals, tol.tau_cluster):
        merged = [(z + 0j, 1) for z in vals]  # + 0j as _centre gives a singleton
    else:
        roots = [(polish(_centre(raw, g), len(g)), len(g)) for g in _cluster(raw, tol.tau_cluster)]
        # Polishing can reunite a cluster the first pass split; merge again.
        vals = [z for z, _ in roots]
        merged = []
        for g in _cluster(vals, tol.tau_cluster):
            mult = sum(roots[i][1] for i in g)
            z = _centre(vals, g)
            if len(g) > 1:
                z = polish(z, mult)
            merged.append((z, mult))
    scale = max(map(abs, h))
    for z, m in merged:
        res = abs(_horner(h, z))
        if res > tol.tau_root * (scale * max(1.0, abs(z)) ** p.degree):
            raise NumericalError(
                f"root polishing failed: residual {res:.3g} at {z:.6g} "
                f"exceeds {tol.tau_root:g} relative"
            )
    merged.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return merged

