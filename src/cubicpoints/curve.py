"""Smooth plane cubics: evaluation, smoothness certification, inflections.

The flexes come from the Hesse pencil s f + t H of f and its Hessian, which
taking the Hessian maps to itself. One of its four triangles gives the
coordinates in which f joins the pencil x^3 + y^3 + z^3 + lam xyz: one cut
line meets the triangle in three points, the gradients there are its three
lines, and their product must be proportional to the triangle
(_triangle_lines). The flexes are the preimages of that pencil's nine base
points, polished by one batched Newton on (f, H) = 0 (_newton_flexes).
Along a tracked path the flexes of the previous curve seed the same Newton
instead (_correct_flexes).

Kept results per object are stored in its dict on first read by _kept: a
CubicForm's tensor, norm_inf, representative and Hessian, which the
smoothness gate and the flex Newton along a tracked path share, and a
PointSet's points and arrays. functools.lru_cache keeps the smoothness
report (_certify) and the labelled flexes (_hesse_flexes) for the last
curve object only; symmetry._hesse_normal_form keeps the Hesse normal form
built on them the same way, for hesse_normalize and elliptic.make_chart.
CubicForm and CurvePoint are plain classes with read-only fields
(_read_only); SmoothnessReport is a NamedTuple record.

A cubic's value and gradient have one formula, _forms_at, on stacks of
rows and cubics, and a point's representative one rule,
numeric._normalize_rows. The Newton's kept rows stay one normalized stack,
the arrays of the PointSet it returns, which builds their CurvePoints only
when they are read, each residual residual_at's bit for bit as for the
rows _settle puts on a curve (_curve_points). _settle stops at the
rounding floor. A PointSet's distances and separation come from its
_distances_from only, which the corrector calls like any caller.

Smoothness is certified by one determinantal gate for the discriminant: a
6x6 matrix of the partials of f and of its Hessian, in Bombieri-weighted
quadratic coefficients, singular exactly when f is, whose margin
sigma_min / sigma_max is the same in every unitary frame. Only a curve the
gate calls singular goes on to _singular_witness, which names a singular
point: the partials are conics, two of them meet where the lines of the
singular members of their pencil cut one of them, and the best of those
points, polished by Gauss-Newton on the gradient, is the witness.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InputError, NumericalError, SingularCurveError
from .numeric import (
    _CROSS_A,
    _CROSS_B,
    _ROUNDING_FLOOR,
    _TINY,
    ProjectivePoint,
    UniPoly,
    _cofactors,
    _normalize_rows,
    _norms,
    _point_row,
    chordal_matrix,
    normalize_point,
    solve_univariate,
)

__all__ = [
    "CubicForm",
    "CurvePoint",
    "PointSet",
    "SmoothnessReport",
    "fermat_cubic",
    "hesse_cubic",
    "smoothness",
    "is_smooth",
    "require_smooth",
    "inflection_points",
    "random_smooth_cubic",
    "random_points_on_curve",
    "polish_onto_curve",
    "line_curve_points",
]

_REL_TRIM = 1e-12
# Floor for a scale that may be zero, so that dividing by it or comparing with it stays finite.
_SCALE_FLOOR = 1e-300

# The ten cubic monomials x^i y^j z^k, in the order of CubicForm.coeffs.
_MONOMIALS = [
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
]

# The one index map between the coefficient vector and 3x3x3 tensors:
# entry (a, b, c) of a tensor belongs to the monomial x_a x_b x_c, at
# position _TENSOR_INDEX[a, b, c] of _MONOMIALS. _FOLD sums a tensor's
# entries onto their monomials, so a cubic's symmetric tensor spreads each
# coefficient evenly over the entries that fold back onto it.
_TENSOR_INDEX = np.array(
    [_MONOMIALS.index(tuple(t.count(v) for v in range(3))) for t in itertools.product(range(3), repeat=3)]
)
_FOLD = (np.arange(10)[:, None] == _TENSOR_INDEX).astype(complex)
_TENSOR_COUNT = _FOLD.real.sum(axis=1)


def _tensors(C: np.ndarray) -> np.ndarray:
    """The symmetric tensors (m, 3, 3, 3) of the cubics whose coefficient vectors are the rows of C."""
    return (C / _TENSOR_COUNT)[:, _TENSOR_INDEX].reshape(-1, 3, 3, 3)


def _slice_contractions(S: np.ndarray) -> np.ndarray:
    """Levi-Civita contractions of the slices of m tensors S (m, 3, 3, 3), shape (m, m, m, 3, 3, 3).

    Entry (i, j, k, a, b, c) is the triple product (A[:, a] x B[:, b]) . C[:, c]
    of columns of slice 0 of S[i], slice 1 of S[j] and slice 2 of S[k]: every
    cross product at once, then one matmul. For one cubic's tensor it is the
    Hessian's tensor over 216.
    """
    m = len(S)
    A = S[:, 0].transpose(0, 2, 1)[:, :, _CROSS_A]
    B = S[:, 1].transpose(0, 2, 1)[:, :, _CROSS_B]
    X = A[:, :, None, None] * B[None, None]
    E = (X[..., :3] - X[..., 3:]).reshape(9 * m * m, 3) @ S[:, 2].transpose(1, 0, 2).reshape(3, 3 * m)
    return E.reshape(m, 3, m, 3, m, 3).transpose(0, 2, 4, 1, 3, 5)


def _forms_at(T: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values (n, m) and gradients (n, m, 3) of m cubics at the n rows of X.

    T stacks the symmetric tensors (m, 3, 3, 3). The gradient of
    sum T_ijk x_i x_j x_k is 3 sum_jk T_ijk x_j x_k, and by Euler's
    identity the value is a third of x . gradient. The one formula for a
    cubic's value in the package (CubicForm.evaluate is its one-row case);
    a row's entries have the same bits whatever other rows and cubics are
    stacked with it.
    """
    G = 3.0 * np.einsum("aijk,nj,nk->nai", T, X, X)
    return np.add.reduce(G * X[:, None, :], axis=2) / 3.0, G


def _line_cubic(T: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """The coefficients, lowest degree first, of u -> f(P + u Q) for the cubic with tensor T (1, 3, 3, 3).

    By polarization they are f(P), grad f(P).Q, grad f(Q).P and f(Q), from one _forms_at call.
    """
    V, G = _forms_at(T, np.stack([P, Q]))
    return np.array([V[0, 0], G[0, 0] @ Q, G[1, 0] @ P, V[1, 0]])


class _kept:
    """A value computed by the decorated method on its first read and stored in the object's dict under its name.

    A descriptor without __set__, so the stored entry shadows it and every
    later read is a plain dict hit. functools.cached_property does the
    same but takes a lock on each first read (Python 3.11); this one takes
    none, as two threads that race compute equal values of read-only state.
    """

    def __init__(self, compute) -> None:
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


def _read_only(obj, name: str, *value) -> None:
    """__setattr__ and __delattr__ of the value objects, whose fields their class sets once: AttributeError."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r} of {type(obj).__name__}")


class CubicForm:
    """Homogeneous cubic in three variables, considered up to scale.

    coeffs is a read-only vector of ten complex coefficients, one for each
    monomial of _MONOMIALS in that order, and label an optional name. Both
    are set once: by __init__, which checks the coefficients, or by
    _of_checked, for a vector its caller has just checked. Objects compare
    and hash by identity. Each keeps four values, computed on first read
    (_kept): the read-only symmetric tensor _tensor, norm_inf, the
    representative _rep and the Hessian _hessian (None on a cone).
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, coeffs, label: str | None = None) -> None:
        c = np.array(coeffs, dtype=complex)
        if c.shape != (10,):
            raise InputError("a cubic form needs ten coefficients, one per cubic monomial")
        if not np.isfinite(c).all():
            raise InputError("non-finite coefficient")
        if not np.count_nonzero(c):
            raise InputError("the zero polynomial does not define a curve")
        c.setflags(write=False)
        self.__dict__.update(coeffs=c, label=label)

    @classmethod
    def _of_checked(cls, c: np.ndarray, label: str | None = None) -> "CubicForm":
        """The cubic whose coeffs is c itself, made read-only, without __init__'s checks.

        For a vector of ten complex coefficients, finite and not all zero,
        that the caller has just built and checked (_rep, _hessian).
        """
        out = object.__new__(cls)
        c.setflags(write=False)
        out.__dict__.update(coeffs=c, label=label)
        return out

    @classmethod
    def from_coeffs(cls, coeffs: dict[tuple[int, int, int], complex], label=None) -> "CubicForm":
        vec = np.zeros(10, dtype=complex)
        for key, val in coeffs.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != 3:
                raise InputError(f"exponent triple {key} does not match degree 3")
            vec[_MONOMIALS.index((i, j, k))] = complex(val)
        return cls(vec, label)

    def coeff(self, i: int, j: int, k: int) -> complex:
        """Coefficient of x^i y^j z^k."""
        return complex(self.coeffs[_MONOMIALS.index((i, j, k))])

    @_kept
    def norm_inf(self) -> float:
        """The largest coefficient modulus, computed once per object."""
        return max(map(abs, self.coeffs.tolist()))

    @_kept
    def _rep(self) -> "CubicForm":
        """self when norm_inf is in [1/2, 1), else coeffs times the power of two that puts it there; every internal
        computation reads it. The scale is exact, so __init__'s checks still hold (_of_checked skips them)."""
        e = math.frexp(self.norm_inf)[1]
        if not e:
            return self
        return CubicForm._of_checked(np.ldexp(self.coeffs.view(float), -e).view(complex), self.label)

    @_kept
    def _tensor(self) -> np.ndarray:
        """The symmetric 3x3x3 tensor T with f(x) = sum T_ijk x_i x_j x_k, read-only and built once per object."""
        T = (self.coeffs / _TENSOR_COUNT)[_TENSOR_INDEX].reshape(3, 3, 3)
        T.setflags(write=False)
        return T

    def evaluate(self, point) -> complex:
        """The value at a point: the one-row case of _forms_at, as a numpy scalar."""
        return _forms_at(self._tensor[None], _point_row(point))[0][0, 0]

    def gradient(self, point) -> np.ndarray:
        """The three partial derivatives at a point, from the quadratic monomials."""
        x, y, z = _point_row(point)[0].tolist()
        c = self.coeffs.tolist()
        xx, xy, xz, yy, yz, zz = x * x, x * y, x * z, y * y, y * z, z * z
        return np.array(
            [
                3 * c[0] * xx + 2 * c[1] * xy + 2 * c[2] * xz + c[3] * yy + c[4] * yz + c[5] * zz,
                c[1] * xx + 2 * c[3] * xy + c[4] * xz + 3 * c[6] * yy + 2 * c[7] * yz + c[8] * zz,
                c[2] * xx + c[4] * xy + 2 * c[5] * xz + c[7] * yy + 2 * c[8] * yz + 3 * c[9] * zz,
            ]
        )

    def residual_at(self, point) -> float:
        """Relative curve residual at a normalized point, read from the curve's representative _rep."""
        p = point if isinstance(point, ProjectivePoint) else normalize_point(point)
        return abs(self._rep.evaluate(p)) / self._rep.norm_inf

    def hessian(self) -> "CubicForm":
        """Determinant of the matrix of second partials (again a cubic).

        Raises InputError on a cone, a union of concurrent lines such as
        x^3 + y^3, whose Hessian vanishes identically, and NumericalError
        when its coefficients overflow.
        """
        if self._hessian is None:
            raise InputError("the Hessian vanishes identically: the curve is a union of concurrent lines")
        return self._hessian

    @_kept
    def _hessian(self) -> "CubicForm | None":
        """The Hessian as one CubicForm per object, so its own kept values persist; None on a cone.

        Entry (i, j) of the matrix of second partials is the linear form
        6 T_ij., so the determinant is 216 times _slice_contractions of T
        alone, triple products of columns of T's slices. The factor comes
        last, in one rounding, which keeps the x^3, y^3 and z^3 coefficients
        of a Hesse pencil member equal in the last bit. Keeping it is sound
        because coeffs is read-only. NumericalError when a coefficient
        overflows, as the cube of f's does beyond about 1e102; the vector
        checked here is the Hessian's coeffs (_of_checked).
        """
        with np.errstate(over="ignore", invalid="ignore"):
            h = 216.0 * (_FOLD @ _slice_contractions(self._tensor[None]).reshape(27))
        if not np.isfinite(h).all():
            raise NumericalError("the Hessian's coefficients overflow: rescale the curve")
        return CubicForm._of_checked(h) if np.count_nonzero(h) else None

    def compose_linear(self, matrix) -> "CubicForm":
        """The cubic x -> f(M x): each tensor axis contracted with M in turn.

        Each turn contracts the leading axis and appends the new one, so
        after three turns the axes are back in order. The turns run on _rep
        and the result is scaled back by its power of two, which keeps the
        raw contraction's bits wherever that stays in range. NumericalError,
        without a warning, when a coefficient overflows.
        """
        M = np.asarray(matrix, dtype=complex).reshape(3, 3)
        T, e = self._rep._tensor, math.frexp(self.norm_inf)[1]
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(3):
                T = T.reshape(3, 9).T @ M
            g = np.ldexp((_FOLD @ T.reshape(27)).view(float), e).view(complex) if e else _FOLD @ T.reshape(27)
        if not np.isfinite(g).all() and np.isfinite(M).all():
            raise NumericalError("the composed cubic's coefficients overflow")
        return CubicForm(g)

    def proportionality_residual(self, other: "CubicForm") -> float:
        """Relative distance from self to the complex line spanned by other."""
        a, b = self.coeffs, other.coeffs
        d = a - np.vdot(b, a) / np.vdot(b, b).real * b
        return math.sqrt(np.vdot(d, d).real / np.vdot(a, a).real)

    def __repr__(self) -> str:
        terms = [f"({c:.4g})*x^{i}y^{j}z^{k}" for (i, j, k), c in zip(_MONOMIALS, self.coeffs) if c != 0]
        name = f" {self.label!r}" if self.label else ""
        return f"CubicForm({' + '.join(terms)}{name})"


class CurvePoint:
    """A projective point together with its relative curve residual.

    Both fields are set once, by __init__; objects compare and hash by (point, residual).
    """

    __slots__ = ("point", "residual")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, point: ProjectivePoint, residual: float) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "residual", residual)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.point, self.residual) == (other.point, other.residual)

    def __hash__(self) -> int:
        return hash((self.point, self.residual))

    def __repr__(self) -> str:
        return f"CurvePoint(point={self.point!r}, residual={self.residual!r})"

    @property
    def array(self) -> np.ndarray:
        return self.point.array


# The key keeps nine decimals, so moduli that agree to as many tie for its pivot.
_KEY_TIE = 1e-9


def _canonical_key(p: ProjectivePoint) -> tuple:
    """The coordinates to nine decimals, divided by the first within _KEY_TIE of the largest modulus.

    That is normalize_point's pivot, except on ties, which last-bit noise breaks for it.
    """
    mods = [abs(c) for c in p.coords]
    pivot = p.coords[next(i for i, m in enumerate(mods) if m >= (1.0 - _KEY_TIE) * max(mods))]
    return tuple((round((c / pivot).real, 9) + 0.0, round((c / pivot).imag, 9) + 0.0) for c in p.coords)


def _nearest_match(A, B, tolerance: float) -> list[int] | None:
    """images[i] = j for the row B[j] chordally nearest to row i of A, or None.

    The one matching rule for coordinate stacks (either may be one point):
    None unless each nearest row is within tolerance and no two coincide.
    """
    D = chordal_matrix(A, B)
    if not D.size:
        return None if len(D) else []
    images = D.argmin(axis=1)
    if D[np.arange(len(D)), images].max() > tolerance or len(set(images.tolist())) < len(images):
        return None
    return images.tolist()


class PointSet:
    """Ordered finite set of curve points with a matching tolerance.

    A set built on a row stack (_of_rows) builds its CurvePoints when first
    read. Its distances and separation have one writer, _distances_from.
    """

    _near = None
    _separation = None

    def __init__(self, points: list[CurvePoint], tolerance: float) -> None:
        self.points = list(points)
        self.tolerance = float(tolerance)

    @classmethod
    def _of_rows(cls, rows: np.ndarray, residuals: list[float], tolerance: float) -> "PointSet":
        """The set whose point i is row i of the normalized stack rows, with residuals[i]."""
        out = cls.__new__(cls)
        out.arrays, out._residuals, out.tolerance = rows, residuals, float(tolerance)
        return out

    @_kept
    def points(self) -> list[CurvePoint]:
        return [CurvePoint(ProjectivePoint(tuple(w)), r) for w, r in zip(self.arrays.tolist(), self._residuals)]

    def __len__(self) -> int:
        return len(self.points) if "points" in vars(self) else len(self.arrays)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> CurvePoint:
        return self.points[i]

    @_kept
    def arrays(self) -> np.ndarray:
        return np.array([cp.point.coords for cp in self.points], dtype=complex).reshape(-1, 3)

    def index_of(self, point) -> int | None:
        """Index of the member within tolerance of the given point, else None: the one-row case of match."""
        images = _nearest_match(_point_row(point), self.arrays, self.tolerance)
        return None if images is None else images[0]

    def _distances_from(self, rows) -> np.ndarray:
        """chordal_matrix(rows, arrays), kept for the last rows asked (by identity).

        One call on arrays stacked over rows: the top block gives min_separation, each block a call's own bits.
        """
        if rows is not self._near:
            n = len(self)
            D = chordal_matrix(np.concatenate([self.arrays, rows]), self.arrays)
            self._near, self._near_distances = rows, D[n:]
            D = D[:n]
            D.reshape(-1)[:: n + 1] = np.inf
            self._separation = float(D.min()) if n > 1 else float("inf")
        return self._near_distances

    def match(self, other: "PointSet") -> list[int] | None:
        """Bijection self index -> other index by nearest neighbor, or None."""
        if len(self) != len(other):
            return None
        return _nearest_match(self.arrays, other.arrays, self.tolerance)

    def setwise_equal(self, other: "PointSet") -> bool:
        return self.match(other) is not None

    def min_separation(self) -> float:
        """Smallest chordal distance between two members: from the last _distances_from call, or one with no rows."""
        if self._separation is None:
            self._distances_from(self.arrays[:0])
        return self._separation

    def sorted_canonical(self) -> "PointSet":
        return PointSet(
            sorted(self.points, key=lambda cp: _canonical_key(cp.point)), self.tolerance
        )


class SmoothnessReport(NamedTuple):
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
# smoothness


# The six quadratic monomials x^i y^j z^k, in the order of the gate's columns.
_QUADRATICS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def _gate_map() -> np.ndarray:
    """Linear map from cubic coefficients to the weighted 3x6 block of its partials.

    Monomial m with exponent e > 0 in coordinate i gives the term e * c_m
    of f_i at the quadratic monomial m - e_i. Each column is weighted by
    the inverse square root of its monomial's multinomial coefficient
    (Bombieri), so that a unitary change of coordinates acts on the
    weighted coefficients of a quadratic by a unitary matrix. Complex, so the gate's product casts nothing per call.
    """
    out = np.zeros((3, 6, 10))
    for n, m in enumerate(_MONOMIALS):
        for i in range(3):
            if m[i]:
                q = list(m)
                q[i] -= 1
                out[i, _QUADRATICS.index(tuple(q)), n] = m[i]
    bombieri = np.sqrt([math.prod(map(math.factorial, q)) / 2.0 for q in _QUADRATICS])
    return (out * bombieri[:, None]).reshape(18, 10).astype(complex)


_GATE_MAP = _gate_map()


def _discriminant_margin(f: CubicForm) -> float:
    """sigma_min / sigma_max of the gate matrix of f; zero exactly on singular curves.

    The rows are the weighted quadratic coefficients of f_x, f_y, f_z and
    of H_x, H_y, H_z, H the Hessian; at a singular point p all six vanish,
    so the vector of quadratic monomials at p is in the kernel, and the
    determinant is proportional to the discriminant of f (Gelfand,
    Kapranov and Zelevinsky). Each block is divided by its Frobenius
    norm, so the ratio depends neither on the scale of f nor, by the
    Bombieri weights, on a unitary change of coordinates. A cone has
    H = 0 and margin 0. The blocks come from f's representative and the
    representative of its Hessian (CubicForm._rep), so their norms stay in range at every scale.
    """
    if f._rep._hessian is None:
        return 0.0
    blocks = _GATE_MAP @ np.array([f._rep.coeffs, f._rep._hessian._rep.coeffs]).T
    norms = _norms(blocks, 0)
    s = np.linalg.svd((blocks / norms).T.reshape(6, 6), compute_uv=False)
    return float(s[-1] / s[0])


def smoothness(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> SmoothnessReport:
    """Certify smoothness by the discriminant gate; find a witness only if singular.

    The margin is sigma_min / sigma_max of the gate matrix (see
    _discriminant_margin): 1 on the Fermat cubic, about the coefficient
    distance to the nearest singular cubic near the discriminant, and the
    same number in every unitary frame. The curve is smooth when the
    margin exceeds tau_singular. Otherwise _singular_witness picks the
    witness, a singular point. A second call on the same curve under
    equal tolerances, with no other curve in between, returns the report
    of the first.
    """
    return _certify(f, tol)


@functools.lru_cache(maxsize=1)
def _certify(f: CubicForm, tol: Tolerances) -> SmoothnessReport:
    """smoothness's report, kept for the last curve object (hashed by identity) and equal Tolerances."""
    margin = _discriminant_margin(f)
    if margin > tol.tau_singular:
        return SmoothnessReport(True, margin, None)
    return SmoothnessReport(False, margin, _singular_witness(f, tol))


# The witness search scales each conic to a largest entry of modulus 1, so
# what it forms from them (a coefficient of a pencil's determinant, an entry
# of an adjugate, a value on a line) is zero up to roundoff below this.
_CONIC_ZERO = 1e-12
# Polish steps leaving chart coordinates beyond this carry too few digits;
# another candidate has the point.
_WITNESS_BOX = 1e7
# Only near-zero raw gradients are polished: every near-singularity is among them.
_WITNESS_POLISH_GATE = 1e-2
# Beating the best by more than roundoff wins; within the slack it ties, so
# that a point found through several pencils is chosen by key, not by pencil.
_WITNESS_BETTER = 1e-15
_WITNESS_TIE_ABS, _WITNESS_TIE_REL = 1e-12, 1e-6
# Gauss-Newton stops once its step is this small against the point.
_POLISH_STEP_FLOOR = 1e-15
# The backstop on Gauss-Newton steps; a stall stops it far sooner.
_POLISH_ITERS = 30


def _trimmed(c: np.ndarray) -> UniPoly:
    """The polynomial with coefficients c, lowest degree first, less those below _REL_TRIM of the largest: roundoff."""
    return UniPoly(np.where(np.abs(c) > _REL_TRIM * np.abs(c).max(), c, 0.0))


def _singular_members(Q1: np.ndarray, Q2: np.ndarray, tol: Tolerances) -> list[np.ndarray]:
    """The singular conics of the pencil Q1 + s Q2, or [Q1] when every member is singular.

    They sit at the roots of the cubic det(Q1 + s Q2), whose coefficients
    are det Q1, <adj Q1, Q2>, <adj Q2, Q1> and det Q2; Q2 itself is one
    when the cubic drops degree.
    """
    A1, A2 = _cofactors(Q1).T, _cofactors(Q2).T
    cubic = np.array([A1[0] @ Q1[0], (A1 * Q2).sum(), (A2 * Q1).sum(), A2[0] @ Q2[0]])
    top = np.abs(cubic).max()
    if top <= _CONIC_ZERO:
        return [Q1]
    poly = _trimmed(cubic)
    members = [Q1 + s * Q2 for s, _ in solve_univariate(poly, tol)] if poly.degree else []
    return members + [Q2] * (poly.degree < 3)


def _conic_lines(M: np.ndarray) -> list[np.ndarray]:
    """The lines of a singular conic M (Richter-Gebert, Perspectives on Projective Geometry, ch. 11).

    For M = l m^T + m l^T the adjugate is -p p^T with p = l x m, and adding
    the cross-product matrix of p leaves a multiple of l m^T or m l^T,
    whose largest row and column are the two lines. A double line l l^T
    has a vanishing adjugate and is M's largest row.
    """
    M = M / np.abs(M).max()
    B = _cofactors(M).T
    i = int(np.abs(np.diag(B)).argmax())
    if abs(B[i, i]) <= _CONIC_ZERO:
        return [M[np.linalg.norm(M, axis=1).argmax()]]
    p = B[:, i] / np.sqrt(-B[i, i])
    C = M + np.array([[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [-p[1], p[0], 0.0]])
    i, j = np.unravel_index(np.abs(C).argmax(), C.shape)
    return [C[i], C[:, j]]


def _cut(line: np.ndarray, conics: list[np.ndarray]) -> list[np.ndarray]:
    """The points where a line meets the first of the conics not vanishing on it.

    On a line where every conic vanishes, each point is a common zero, and
    one of them stands for all.
    """
    k = int(np.abs(line).argmax())
    basis = np.zeros((2, 3), dtype=complex)
    for row, j in zip(basis, _FREE[k]):
        row[j], row[k] = 1.0, -line[j] / line[k]
    for Q in conics:
        (a, b), (_, c) = basis @ Q @ basis.T
        if max(abs(a), abs(b), abs(c)) > _CONIC_ZERO:
            break
    else:
        return [basis[0]]
    # the roots (u : v) of a u^2 + 2 b u v + c v^2, the first without cancellation
    r = np.sqrt(b * b - a * c)
    w = -b - r if abs(b + r) >= abs(b - r) else -b + r
    return [u * basis[0] + v * basis[1] for u, v in ((w, a), (c, w)) if u or v]


def _singular_witness(f: CubicForm, tol: Tolerances) -> ProjectivePoint:
    """The candidate of smallest normalized gradient; ties go to the largest canonical key.

    The singular points are the common zeros of the partials, the conics
    3 T_i of f's tensor. Each nonzero partial spans a pencil with the next
    nonzero one (a lone one with itself), and each line of the pencil's
    singular members is cut with the first partial, from that one on, that
    does not vanish on the line.
    """
    scale = f._rep.norm_inf
    T = f._rep._tensor
    conics = [Q / np.abs(Q).max() for Q in T if Q.any()]
    # a candidate with every coordinate subnormal has no finite representative
    X = np.array([
        x
        for i in range(len(conics))
        for member in _singular_members(conics[i], conics[(i + 1) % len(conics)], tol)
        for line in _conic_lines(member)
        for x in _cut(line, conics[i:] + conics[:i])
        if not np.abs(x).max() < _TINY
    ]).reshape(-1, 3)
    P = _normalize_rows(X)
    g = _norms(_forms_at(T[None], P)[1][:, 0], 1) / scale
    near = g <= _WITNESS_POLISH_GATE
    if near.any():
        P[near] = _normalize_rows(np.array([_polish_singular(T, x) for x in X[near]]))
        g = _norms(_forms_at(T[None], P)[1][:, 0], 1) / scale
    best_gradient = np.inf
    best_witnesses: list[ProjectivePoint] = []
    for row, gi in zip(P.tolist(), g.tolist()):
        if gi < best_gradient - _WITNESS_BETTER:
            best_gradient = gi
            best_witnesses = [ProjectivePoint(tuple(row))]
        elif abs(gi - best_gradient) <= _WITNESS_TIE_ABS + _WITNESS_TIE_REL * best_gradient:
            best_witnesses.append(ProjectivePoint(tuple(row)))
    if not np.isfinite(best_gradient):
        raise NumericalError("the pencils of the partials produced no candidates")
    return max(best_witnesses, key=_canonical_key)


def _polish_singular(T: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gauss-Newton on grad f = 3 T x x, Jacobian 6 T x, in the max-modulus chart of x.

    The three partials need not share a zero near x; Gauss-Newton then
    stalls, so the loop stops once the residual stops improving and
    returns the best iterate seen.
    """
    pivot = int(np.abs(x).argmax())
    x, free = x / x[pivot], _FREE[pivot]
    best, best_x, stalls, size = np.inf, x, 0, np.inf
    for _ in range(_POLISH_ITERS + 1):
        grad = _forms_at(T[None], x[None])[1][0, 0]
        rn = float(np.linalg.norm(grad))
        stalls = 0 if rn < 0.9 * best else stalls + 1
        if rn < best:
            best, best_x = rn, x
        if stalls >= 2 or size <= _POLISH_STEP_FLOOR * np.abs(x).max():
            break
        step = np.linalg.lstsq(6.0 * np.einsum("ijk,k->ij", T, x)[:, free], -grad, rcond=None)[0]
        x = x.copy()
        x[free] += step
        size = np.abs(step).max()
        if np.abs(x).max() > _WITNESS_BOX:
            break
    return best_x


def is_smooth(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> bool:
    return smoothness(f, tol).smooth


def require_smooth(f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES) -> SmoothnessReport:
    rep = smoothness(f, tol)
    if not rep.smooth:
        raise SingularCurveError(f"curve is singular near {rep.witness}")
    return rep


# ---------------------------------------------------------------------------
# inflections


def _settle(T: np.ndarray, X: np.ndarray, first=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """At most four complex Newton steps onto the first cubic of T (m, 3, 3, 3), on every row of X.

    Each step moves a row x by -f(x) conj(g) / |g|^2, g the gradient at x:
    the shortest step that zeroes f's linearization at x, well conditioned
    on a smooth curve. Rows are normalized (_normalize_rows) before each
    evaluation, and stepping stops once every row's move |f(x)| / |g| is at
    most numeric._ROUNDING_FLOOR, roundoff alone, so rows on the curve cost
    one evaluation and keep their bits; first, when given, is _forms_at(T, X)
    at rows X already normalized, and stands for that evaluation. Returns
    the rows and _forms_at's values and gradients there, of every cubic of T.
    """
    X = _normalize_rows(X) if first is None else X
    V, G = first or _forms_at(T, X)
    for _ in range(4):
        v, g = V[:, 0], G[:, 0]
        gg = (np.abs(g) ** 2).sum(axis=1)
        if (np.abs(v) <= _ROUNDING_FLOOR * np.sqrt(gg)).all():
            break
        X = _normalize_rows(X - (v / np.maximum(gg, _SCALE_FLOOR))[:, None] * np.conj(g))
        V, G = _forms_at(T, X)
    return X, V, G


def _curve_points(f: CubicForm, X: np.ndarray, V: np.ndarray) -> list[CurvePoint]:
    """Every row of X, normalized as _settle leaves it, with its relative residual from V, f._rep's values there.

    Python's abs per value (numpy's vectorized abs can differ in the last
    bit) gives residual_at's residual, bit for bit, as a power of two scales |f(x)| and norm_inf alike.
    """
    scale = f._rep.norm_inf
    return [CurvePoint(ProjectivePoint(tuple(row)), abs(v) / scale) for row, v in zip(X.tolist(), V.tolist())]


def _polish_rows(f: CubicForm, X: np.ndarray) -> list[CurvePoint]:
    """Every row of X settled onto f._rep (_settle), with its relative residual from _settle's last evaluation."""
    X, V, _ = _settle(f._rep._tensor[None], X)
    return _curve_points(f, X, V[:, 0])


def polish_onto_curve(f: CubicForm, coords) -> CurvePoint:
    """Project a near-curve point onto the curve: the one-row case of _polish_rows."""
    return _polish_rows(f, _point_row(coords))[0]


def inflection_points(
    f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> PointSet:
    """The nine inflection points: intersection of the curve with its Hessian.

    Smoothness is certified first by the discriminant gate; on a singular
    curve the SingularCurveError raised names the witness of
    _singular_witness. The flexes are _hesse_flexes'; NumericalError
    unless they converge to nine distinct certified points.
    """
    require_smooth(f, tol)
    return _flexes_of_smooth(f, tol)


def _hessian_of_smooth(f: CubicForm) -> tuple[CubicForm, CubicForm]:
    """The representative of a certified curve and its Hessian, the gate's two objects; NumericalError on a cone."""
    if f._rep._hessian is None:
        raise NumericalError("the Hessian vanishes identically: the curve is a union of concurrent lines")
    return f._rep, f._rep._hessian


# The nine base points of the Hesse pencil x^3 + y^3 + z^3 + lam xyz, the
# flexes of each smooth member: -w^k in coordinate i and 1 in coordinate i + 1.
_HESSE_BASE = np.array(
    [np.roll([-(np.exp(2j * np.pi / 3) ** k), 1.0, 0.0], i) for i in range(3) for k in range(3)]
)
_HESSE_BASE.setflags(write=False)
# Two fixed generic lines P + u Q. The first meets the three lines of a
# triangle apart unless it passes through a vertex; the second serves then.
_CUTS = (
    (np.array([0.31 - 0.47j, 0.86 + 0.12j, -0.19 + 0.38j]), np.array([-0.58 + 0.27j, 0.14 - 0.66j, 0.41 + 0.09j])),
    (np.array([0.72 + 0.18j, -0.23 + 0.51j, 0.35 - 0.62j]), np.array([0.09 + 0.44j, 0.67 - 0.21j, -0.52 - 0.16j])),
)


# _FROM_H[d] marks the contractions of two tensors that take d of their three slices from the second.
_FROM_H = [np.array([sum(ijk) == d for ijk in itertools.product(range(2), repeat=3)]) for d in range(4)]


def _pencil_triangle(f: CubicForm, h: CubicForm, tol: Tolerances) -> CubicForm:
    """The triangle of the Hesse pencil s f + t h best separated from the other three.

    With f and h at unit norm F and G (from their representatives, whose norms stay in range),
    Hess(s f + t h) = A(s, t) f + B(s, t) h: the coefficient of
    s^(3-d) t^d is the sum of the _slice_contractions that take d of the three slices from h, projected
    onto F and W = G - <F, G> F (two Gram-Schmidt passes; the rank test sigma_2 <= 10 eps sigma_1 of the
    10x2 matrix [F G] reads |W| <= 10 eps (1 + |<F, G>|)). The triangles are the members the Hessian fixes, the roots of the
    binary quartic t A - s B less coefficients below _REL_TRIM of the largest, taken homogeneously (on the
    Fermat cubic h is one, and near it the top coefficient is roundoff). Near the discriminant three
    roots close up and lose digits.
    """
    F, G = (g._rep.coeffs / _norms(g._rep.coeffs, 0) for g in (f, h))
    E = _slice_contractions(_tensors(np.stack([F, G]))).reshape(8, 27)
    C = 216.0 * np.stack([E[mask].sum(axis=0) for mask in _FROM_H]) @ _FOLD.T
    W, r = G, 0.0
    for _ in range(2):
        dr = np.vdot(F, W)
        W, r = W - dr * F, r + dr
    rho = _norms(W, 0)
    if rho <= 10.0 * float(np.finfo(float).eps) * (1.0 + abs(r)):
        raise NumericalError("the curve and its Hessian are proportional: no triangle to split")
    B = (W.conj() @ C.T) / rho**2
    q = np.append(0.0, F.conj() @ C.T - B * r) - np.append(B, 0.0)  # A u - B in u = t / s
    R = [[1.0, u] for u, m in solve_univariate(_trimmed(q), tol) for _ in range(m)]
    R = np.array(R + [[0.0, 1.0]] * (4 - len(R)))
    R /= _norms(R, 1)[:, None]
    gaps = np.abs(np.outer(R[:, 0], R[:, 1]) - np.outer(R[:, 1], R[:, 0])) + np.diag([np.inf] * 4)
    s, t = R[gaps.min(axis=1).argmax()]
    return CubicForm(s * F + t * G)


def _triangle_lines(g: CubicForm, tol: Tolerances) -> np.ndarray:
    """The three lines of a triangle g, as the unit rows of a matrix.

    A line of _CUTS meets g once on each of its lines, and at a point p on
    l1 alone the gradient of g = l1 l2 l3 is l2(p) l3(p) l1, so the
    gradients at the three points are the lines. They are kept when their
    product is proportional to g within tau_hesse. At a vertex the gradient
    vanishes, so a cut through one fails that test and the next cut is
    tried; NumericalError when no cut passes.
    """
    T = g._tensor[None]
    for P, Q in _CUTS:
        roots = [u for u, m in solve_univariate(UniPoly(_line_cubic(T, P, Q)), tol) for _ in range(m)]
        if len(roots) != 3:
            continue
        lines = _forms_at(T, P + np.array(roots)[:, None] * Q)[1][:, 0]
        norms = _norms(lines, 1)
        if not norms.all():
            continue
        lines /= norms[:, None]
        product = _FOLD @ (lines[0][:, None, None] * lines[1][:, None] * lines[2]).reshape(27)
        if g.proportionality_residual(CubicForm(product)) <= tol.tau_hesse:
            return lines
    raise NumericalError("no cut splits the Hesse pencil's triangle into three lines")


def _hesse_frame(f: CubicForm, h: CubicForm, tol: Tolerances) -> np.ndarray:
    """The base points pulled back by T0, where f(T0^-1 x) is proportional to x^3 + y^3 + z^3 + lam xyz.

    In the coordinates X = M x of the lines of a triangle of its Hesse pencil
    f reads a X^3 + b Y^3 + c Z^3 + d XYZ (Artebani and Dolgachev, "The Hesse
    pencil of plane cubic curves"), so T0 = diag(a, b, c)^(1/3) M, with any
    cube roots: they differ by diag(1, w^j, w^k), which permutes the base points.
    Up to one scalar, M's cofactor rows K are M^-1's columns, a, b and c are f there, and a
    base point p pulls back to (p / (a, b, c)^(1/3)) K: lines through one point give that point,
    which fails the flex test. f and h are a representative and its Hessian (_hessian_of_smooth).
    """
    K = _cofactors(_triangle_lines(_pencil_triangle(f, h, tol), tol))
    cubes = _forms_at(f._tensor[None], K)[0][:, 0]
    if not cubes.all():
        raise NumericalError("the lines of the Hesse pencil's triangle are not a frame")
    return (_HESSE_BASE / cubes ** (1.0 / 3.0)) @ K


@functools.lru_cache(maxsize=1)
def _hesse_flexes(f: CubicForm, tol: Tolerances) -> tuple[tuple[CurvePoint, ...], tuple[int, ...]]:
    """The flexes in canonical order, the base points pulled back by _hesse_frame, and their labels.

    labels[i] is the row of _HESSE_BASE whose preimage became flex i.
    """
    flexes = _correct_flexes(f, _hesse_frame(*_hessian_of_smooth(f), tol), tol)
    if flexes is None:
        raise NumericalError("the Hesse pencil's triangle did not give nine distinct flexes")
    labels = tuple(sorted(range(9), key=lambda i: _canonical_key(flexes[i].point)))
    return tuple(flexes[i] for i in labels), labels


def _flexes_of_smooth(f: CubicForm, tol: Tolerances) -> PointSet:
    """inflection_points for a curve the caller has certified smooth.

    On a singular curve, a cone included, this raises NumericalError rather
    than SingularCurveError.
    """
    return PointSet(_hesse_flexes(f, tol)[0], tol.tau_match)


# A row has converged once its Newton step is this small: every step at
# most halved the one before, so the flex lies closer than this, six orders
# below tau_match.
_CORRECTOR_DONE = 1e-12
# Inside the basin of a simple root each Newton step at least halves; a row
# that contracts more slowly is dropped, so the tracker falls back to the
# Hesse pencil's triangle, and the triangle's flexes fail as a set.
_CORRECTOR_CONTRACTION = 0.5
# Quadratic convergence reaches _CORRECTOR_DONE in about five steps from a
# start 0.1 away, as a tracked flex is; a row
# still moving after twice that many is dropped.
_CORRECTOR_ITERS = 10
# For a row whose pivot (the coordinate held at 1) is i: _NEWTON_INDEX[i] holds i, the two it moves, q and r, and
# where in its gradients flattened to six (f's, then h's) its Jacobian entries f_r, h_q, h_r and f_q lie; row k
# adds k _NEWTON_STRIDE to make them flat indices.
_FREE = np.array([[1, 2], [0, 2], [0, 1]])
_NEWTON_INDEX = np.column_stack([range(3), _FREE, _FREE[:, 1], 3 + _FREE[:, 0], 3 + _FREE[:, 1], _FREE[:, 0]])
_NEWTON_STRIDE = np.array([3, 3, 3, 6, 6, 6, 6])


def _newton_flexes(f: CubicForm, h: CubicForm, starts, tol: Tolerances) -> PointSet:
    """Flexes by Newton on (f, h) = 0 from the rows of starts.

    All rows move at once, each in its own chart with its largest-modulus
    coordinate held at 1, by a Cramer solve of the 2x2 Newton system. A row
    is kept when every step at most halved the one before, it converged
    within _CORRECTOR_ITERS steps, and its point lies on f and on h within
    tau_on_curve. A row that fails stops moving and is dropped. The kept
    rows come back in start order as a PointSet built from their normalized
    stack (PointSet._of_rows), each with its residual on f. Callers pass a representative and its Hessian
    (_hessian_of_smooth), whose tensors (CubicForm._tensor) it iterates on; it builds its flat indices
    once, and gathers each step's Jacobian entries by one take.
    """
    X = np.array(starts, dtype=complex).reshape(-1, 3)
    flat = X.reshape(-1)
    # flat indices, built once: each row's pivot, the coordinates it moves, and its Jacobian entries among all gradients
    index = _NEWTON_INDEX[np.abs(X).argmax(axis=1)] + np.arange(len(X))[:, None] * _NEWTON_STRIDE
    pivot, moved, jacobian = index[:, 0], index[:, 1:3], index[:, 3:]
    X /= flat[pivot][:, None]
    flat[pivot] = 1.0
    T = np.array([f._tensor, h._tensor])
    last = np.inf
    kept = np.ones(len(X), dtype=bool)
    moving = kept.copy()
    with np.errstate(all="ignore"):
        for _ in range(_CORRECTOR_ITERS):
            left = np.count_nonzero(moving)
            if not left:
                break
            V, G = _forms_at(T, X)
            J = G.take(jacobian)
            BC, DA = J[:, :2], J[:, 2:]
            # Cramer: the steps in q and r are (f_r h - h_r f, h_q f - f_q h) / (f_q h_r - f_r h_q)
            det = DA[:, 1] * DA[:, 0] - BC[:, 0] * BC[:, 1]
            D = (BC * V[:, ::-1] - DA * V) / det[:, None]
            if left < len(X):
                D = np.where(moving[:, None], D, 0.0)
            size = np.maximum.reduce(np.abs(D), axis=1)
            # a NaN step fails the comparison too; a failed row takes its
            # step, which moves no other row, and then stops
            kept &= size <= _CORRECTOR_CONTRACTION * last
            flat[moved] += D
            last = size
            moving = kept & (size > _CORRECTOR_DONE)
    kept &= ~moving
    # residuals on f and h from one _forms_at call on the normalized rows, per value as _curve_points takes them
    W = _normalize_rows(X if np.count_nonzero(kept) == len(X) else X[kept])
    nf, nh = f.norm_inf, h.norm_inf
    R = [(abs(vf) / nf, abs(vh) / nh) for vf, vh in _forms_at(T, W)[0].tolist()]
    on_both = [i for i, (rf, rh) in enumerate(R) if rf <= tol.tau_on_curve and rh <= tol.tau_on_curve]
    return PointSet._of_rows(W if len(on_both) == len(W) else W[on_both], [R[i][0] for i in on_both], tol.tau_match)


def _correct_flexes(f: CubicForm, near, tol: Tolerances) -> PointSet | None:
    """The nine flexes by _newton_flexes from the rows of near, or None.

    near is a (9, 3) stack of points near the flexes. The corrected set
    comes back in near's order only when all nine rows are kept and the
    nine lie pairwise farther apart than 2 tau_match; otherwise None. The
    curve meets its Hessian in nine points counted with multiplicity
    (Bezout), each simple on a smooth cubic, so nine distinct common points
    are all the flexes. The set's distances from near (_distances_from)
    give its separation too, from one chordal_matrix call, and stay kept
    for a caller that asks for them again. Raises NumericalError on a cone.
    """
    out = _newton_flexes(*_hessian_of_smooth(f), near, tol)
    if len(out) != 9:
        return None
    out._distances_from(near)
    return out if out.min_separation() > 2.0 * tol.tau_match else None


def _dedupe(points: list[CurvePoint], tolerance: float) -> PointSet:
    """Greedy dedupe in residual order, as a PointSet in canonical order.

    Walks the points best first and keeps each one that lies farther than
    tolerance from every point already kept.
    """
    if not points:
        return PointSet([], tolerance)
    ranked = sorted(points, key=lambda cp: cp.residual)
    rows = np.stack([cp.array for cp in ranked])
    D = chordal_matrix(rows, rows)
    kept: list[int] = []
    for i in range(len(ranked)):
        if not kept or D[i, kept].min() > tolerance:
            kept.append(i)
    return PointSet([ranked[i] for i in kept], tolerance).sorted_canonical()


# ---------------------------------------------------------------------------
# sampling helpers


def line_curve_points(
    f: CubicForm, p, q, tol: Tolerances = DEFAULT_TOLERANCES
) -> list[CurvePoint]:
    """Intersection points of the line through p and q with the curve.

    The points are the roots of t -> f(P + t Q) (_line_cubic), and Q when
    that cubic drops degree. They come in canonical order, so the order
    does not follow roundoff.
    """
    P, Q = _point_row(p)[0], _point_row(q)[0]
    coeffs = _line_cubic(f._rep._tensor[None], P, Q)
    if not np.count_nonzero(coeffs):
        raise InputError("the line lies on the curve, which no smooth cubic allows")
    poly = _trimmed(coeffs)
    rows = [Q] if poly.degree < len(coeffs) - 1 else []
    if poly.degree >= 1:
        rows.extend(P + t0 * Q for t0, _ in solve_univariate(poly, tol))
    return _dedupe(_polish_rows(f, np.array(rows)), tol.tau_match).points


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


# random_smooth_cubic's margin floor: a sampled curve stays ten times
# farther from the discriminant than smoothness_margin asks of a tracked one.
_SAMPLE_MARGIN = 1e-3


def random_smooth_cubic(rng: np.random.Generator, tol: Tolerances = DEFAULT_TOLERANCES) -> CubicForm:
    """Cubic with unit-disc coefficients, rejection sampled for a gate margin of at least _SAMPLE_MARGIN."""
    for _ in range(200):
        f = CubicForm(_unit_disc(rng, 10))
        rep = smoothness(f, tol)
        if rep.smooth and rep.margin >= _SAMPLE_MARGIN:
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
