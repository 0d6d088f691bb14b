"""Numeric kernel: univariate polynomials, roots, resultants, projective metric.

Every higher-level computation (intersection, torsion, tracking) bottoms
out here, so the routines certify their own output: roots are Newton
polished and rejected unless the relative residual clears tau_root, and
projective points carry a canonical normalized representative.

The solver works on Python lists: the polynomials of the tracking loops
have degree at most 9, too small for numpy's per-call overhead to pay
off. Only the companion matrix, the one np.roots builds, goes to numpy
for its eigenvalues. Clustering up to twelve roots is a loop over pairs;
larger sets, such as the roots of the division polynomials behind
torsion_points (degree up to 70), take numpy's one pass over all pairs,
which is faster there. A cluster's mean goes through numpy only when it
has more than one member. Each derivative a solve needs is taken once,
as polyder forms it. Newton and the residual check evaluate by one
Horner loop on Python complex numbers, in the order
np.polynomial.polynomial.polyval uses, and Newton divides in
np.complex128. The residual bound takes max|coeff| once per solve.
Roots, multiplicities and error messages have the same bits as np.roots,
vectorized clustering and polyval would give. The one exception is abs
in the pair loop: numpy's vectorized abs and Python's hypot can differ
in the last bit, so a pair whose distance lies within one ulp of the
cluster radius could be judged differently.

Conventions:
- polynomial coefficients are stored lowest degree first;
- resultant(p, q) = lead(q)^deg(p) * prod of p over the roots of q, the
  Sylvester determinant with the q block on top (so resultant(x, x-1) = 1);
- the projective metric is the chordal one, sqrt(1 - |<P,Q>|^2 / (|P|^2 |Q|^2)),
  evaluated as |P x Q| / (|P| |Q|) so that nearby points keep full accuracy.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InputError, NumericalError

__all__ = [
    "UniPoly",
    "ProjectivePoint",
    "solve_univariate",
    "resultant",
    "chordal_distance",
    "chordal_matrix",
    "normalize_point",
]

# Slack (in units of machine epsilon) for the max-modulus pivot search in
# normalize_point; keeps renormalization bitwise idempotent on exact ties.
_PIVOT_SLACK = 4.0 * np.finfo(float).eps

# component i of a x b is a[_NEXT[i]] b[_PREV[i]] - a[_PREV[i]] b[_NEXT[i]]
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])

# Largest root count _cluster handles by a Python loop over pairs; above
# it numpy's vectorized pass over all pairs costs less.
_PAIR_LOOP_MAX = 12


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
        if not np.all(np.isfinite(c.real)) or not np.all(np.isfinite(c.imag)):
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

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            return UniPoly(np.convolve(self.coeffs, other.coeffs))
        return UniPoly(self.coeffs * complex(other))

    __rmul__ = __mul__

    def __add__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(np.polynomial.polynomial.polyadd(self.coeffs, other.coeffs))

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return UniPoly(np.polynomial.polynomial.polysub(self.coeffs, other.coeffs))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


@dataclass(frozen=True)
class ProjectivePoint:
    """Point of the complex projective plane, stored normalized.

    The representative has its max-modulus coordinate equal to 1 (lowest
    index wins ties). Equality of the dataclass is representation
    equality; geometric identity is chordal_distance below a tolerance.
    """

    coords: tuple[complex, complex, complex]

    @classmethod
    def from_array(cls, v) -> "ProjectivePoint":
        return normalize_point(v)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.coords, dtype=complex)

    def __repr__(self) -> str:
        x, y, z = self.coords
        return f"({x:.6g} : {y:.6g} : {z:.6g})"


def normalize_point(v) -> ProjectivePoint:
    """Canonical representative: max-modulus coordinate rescaled to exactly 1.

    Ties go to the lowest coordinate index; the comparison carries a few
    ulps of slack so the map is idempotent even on exact modulus ties.
    """
    a = np.asarray(v, dtype=complex).reshape(-1)
    if a.size != 3:
        raise InputError("projective point needs exactly 3 coordinates")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise InputError("non-finite coordinate")
    mods = np.abs(a)
    top = mods.max()
    if top == 0.0:
        raise InputError("the zero vector is not a projective point")
    pivot = int(np.nonzero(mods >= top * (1.0 - _PIVOT_SLACK))[0][0])
    w = a / a[pivot]
    w[pivot] = 1.0
    return ProjectivePoint((complex(w[0]), complex(w[1]), complex(w[2])))


def _rows(points) -> np.ndarray:
    if isinstance(points, ProjectivePoint):
        return points.array.reshape(1, 3)
    return np.asarray(points, dtype=complex).reshape(-1, 3)


def chordal_distance(p, q) -> float:
    """Chordal (Fubini-Study sine) distance between two projective points.

    Takes ProjectivePoint or raw coordinate triples; scale invariant,
    symmetric, range [0, 1], and a metric on the projective plane.
    """
    return float(chordal_matrix(p, q)[0, 0])


def chordal_matrix(A, B) -> np.ndarray:
    """Pairwise chordal distances between two stacks of coordinate rows.

    Either side may also be a single ProjectivePoint or coordinate triple.
    """
    A, B = _rows(A), _rows(B)
    na = np.linalg.norm(A, axis=1)
    nb = np.linalg.norm(B, axis=1)
    if not (na.all() and nb.all()):
        raise InputError("the zero vector is not a projective point")
    # Lagrange identity: |a|^2 |b|^2 - |<a, conj(b)>|^2 = |a x b|^2, which
    # avoids the cancellation that a direct 1 - |<a,b>|^2 suffers near 0.
    # The pairwise cross products are np.cross(a, b) spelled out by index,
    # which skips np.cross's per-call broadcasting overhead.
    cross = A[:, None, _NEXT] * B[None, :, _PREV] - A[:, None, _PREV] * B[None, :, _NEXT]
    return np.minimum(1.0, np.linalg.norm(cross, axis=2) / (na[:, None] * nb[None, :]))


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


def _newton(h: list[complex], dh: list[complex], z: complex, iters: int = 40) -> complex:
    """Newton's method for the polynomial with coefficients h, derivative dh.

    Both lists hold Python complex numbers, highest degree first; only the
    division goes through np.complex128, whose rounding differs from
    Python's.
    """
    for _ in range(iters):
        d = _horner(dh, z)
        if d == 0:
            return z
        step = complex(np.complex128(_horner(h, z)) / d)
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
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
    A = np.diag(np.ones(len(c) - 2, c.dtype), -1)
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


def _cluster(values: list[complex], radius: float) -> list[list[int]]:
    # pairwise closeness; the radius scales with the size of the earlier root
    n = len(values)
    if n > _PAIR_LOOP_MAX:
        v = np.array(values)
        lim = radius * np.maximum(1.0, np.abs(v))
        close = np.abs(v[:, None] - v[None, :]) <= lim[:, None]
        return _components(n, zip(*np.nonzero(np.triu(close, 1))))
    pairs = []
    for i in range(n):
        vi = values[i]
        lim = radius * max(1.0, abs(vi))
        pairs.extend((i, j) for j in range(i + 1, n) if abs(vi - values[j]) <= lim)
    return _components(n, pairs)


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
    Roots stay a list of Python complex numbers: clustering is a pair loop
    up to _PAIR_LOOP_MAX roots and vectorized above, and the residual
    check reuses the Horner loop against one max|coeff| per solve. Raises
    NumericalError if the companion matrix overflows or a polished root
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

    roots = [
        (polish(_centre(raw, g), len(g)), len(g)) for g in _cluster(raw, tol.tau_cluster)
    ]
    # Polishing can reunite a cluster the first pass split; merge again.
    vals = [z for z, _ in roots]
    merged: list[tuple[complex, int]] = []
    for g in _cluster(vals, tol.tau_cluster):
        mult = sum(roots[i][1] for i in g)
        z = _centre(vals, g)
        if len(g) > 1:
            z = polish(z, mult)
        merged.append((z, mult))
    scale = float(np.max(np.abs(p.coeffs)))
    for z, m in merged:
        res = abs(_horner(h, z))
        if res > tol.tau_root * (scale * max(1.0, abs(z)) ** p.degree):
            raise NumericalError(
                f"root polishing failed: residual {res:.3g} at {z:.6g} "
                f"exceeds {tol.tau_root:g} relative"
            )
    merged.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return merged


def _sylvester_dets(pvals: np.ndarray, qvals: np.ndarray) -> tuple[np.ndarray, float]:
    """Batched Sylvester determinants for stacks of coefficient rows.

    Rows are lowest degree first and both stacks share fixed formal
    degrees, so every sample fills the same matrix shape (q block on top);
    one batched det call covers all of them. Also returns the largest
    Hadamard bound: the scale against which a computed determinant counts
    as zero, separating structurally vanishing resultants from small ones.
    """
    m = pvals.shape[1] - 1
    n = qvals.shape[1] - 1
    size = m + n
    S = np.zeros((pvals.shape[0], size, size), dtype=complex)
    qd = qvals[:, ::-1]
    pd = pvals[:, ::-1]
    for i in range(m):
        S[:, i, i : i + n + 1] = qd
    for i in range(n):
        S[:, m + i, i : i + m + 1] = pd
    hadamard = float(np.prod(np.linalg.norm(S, axis=2), axis=1).max())
    return np.linalg.det(S), hadamard


def resultant(p: UniPoly, q: UniPoly) -> complex:
    """Sylvester resultant, q block on top.

    Equals lead(q)^deg(p) times the product of p over the roots of q;
    zero exactly when p and q share a root. Both inputs must have
    degree >= 1.
    """
    if p.is_zero() or q.is_zero():
        raise InputError("resultant of the zero polynomial is undefined")
    if p.degree < 1 or q.degree < 1:
        raise InputError("resultant needs two polynomials of degree >= 1")
    dets, _ = _sylvester_dets(p.coeffs[None, :], q.coeffs[None, :])
    return complex(dets[0])
