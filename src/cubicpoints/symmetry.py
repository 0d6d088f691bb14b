"""Projective symmetries of plane cubics.

Transforms live in PGL(3, C): matrices act on column coordinate vectors and
two matrices describe the same transform exactly when they differ by a
scalar.  Normalizing determinants to one reduces that scalar ambiguity to a
cube root of unity, which pgl_equal quotients away.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .curve import (
    _HESSE_BASE,
    CubicForm,
    CurvePoint,
    PointSet,
    _SCALE_FLOOR,
    _dedupe,
    _hesse_flexes,
    _nearest_match,
    fermat_cubic,
    line_curve_points,
    polish_onto_curve,
    require_smooth,
)
from .errors import InputError, NumericalError
from .numeric import (
    ProjectivePoint, _cluster, _cofactors, _components, _norms, _point_row, chordal_distance, normalize_point
)

_OMEGA = np.exp(2j * np.pi / 3)
# The generators of the Fermat cubic's translations: the coordinate cycle and diag(1, w, w^2).
_CYCLE, _SCALE = np.roll(np.eye(3), 1, axis=0), np.diag([1.0, _OMEGA, _OMEGA**2])
# A determinant this small against Hadamard's bound (the row norms' product) is roundoff on a singular matrix.
_SINGULAR_DET = 1e-12
# Unit-determinant forms this close against their norm are one transform; products drift far less.
_PGL_TOL = 1e-8


def _inverse(M: np.ndarray) -> np.ndarray:
    """M^-1 as K.T / det M from M's cofactors K: not the adjugate, whose scale moves a ProjectiveTransform's cube root."""
    K = _cofactors(M)
    return K.T / (M[0] @ K[0])


class ProjectiveTransform:
    """An invertible 3x3 complex matrix taken modulo scalars."""

    def __init__(self, matrix) -> None:
        M = np.array(matrix, dtype=complex)
        if M.shape != (3, 3):
            raise InputError("a projective transform needs a 3x3 matrix")
        if not np.all(np.isfinite(M)):
            raise InputError("transform entries must be finite")
        det = complex(M[0] @ _cofactors(M)[0])
        hadamard = float(np.prod(_norms(M, 1)))
        if abs(det) <= _SINGULAR_DET * max(hadamard, _SCALE_FLOOR):
            raise InputError("transform matrix is singular")
        self.matrix = M / det ** (1.0 / 3.0)
        self.matrix.setflags(write=False)

    @classmethod
    def identity(cls) -> "ProjectiveTransform":
        return cls(np.eye(3))

    def inverse(self) -> "ProjectiveTransform":
        return ProjectiveTransform(_inverse(self.matrix))

    def __matmul__(self, other: "ProjectiveTransform") -> "ProjectiveTransform":
        return ProjectiveTransform(self.matrix @ other.matrix)

    def pgl_equal(self, other: "ProjectiveTransform") -> bool:
        """Equality in PGL: unit-determinant forms agree up to a cube root of unity, within _PGL_TOL."""
        scale = float(np.linalg.norm(other.matrix))
        return any(
            float(np.linalg.norm(self.matrix - _OMEGA**k * other.matrix)) <= _PGL_TOL * scale
            for k in range(3)
        )

    def is_identity(self) -> bool:
        return self.pgl_equal(ProjectiveTransform.identity())

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(f"{c:.4g}" for c in row) for row in self.matrix
        )
        return f"ProjectiveTransform([{rows}])"


def act_on_point(T: ProjectiveTransform, point) -> ProjectivePoint:
    """T(point), normalized; the point is checked finite before the product, which would warn."""
    x = _point_row(point)[0]
    if not np.isfinite(x).all():
        raise InputError("non-finite coordinate")
    return normalize_point(T.matrix @ x)


def act_on_cubic(T: ProjectiveTransform, f: CubicForm) -> CubicForm:
    """Push the curve forward: the result vanishes on T(P) for P on f."""
    return f.compose_linear(T.inverse().matrix)


def preserves_cubic(
    T: ProjectiveTransform, f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> bool:
    g = act_on_cubic(T, f)
    return g.proportionality_residual(f) <= tol.tau_match


def _require_automorphism(
    T: ProjectiveTransform, f: CubicForm, tol: Tolerances
) -> None:
    if not preserves_cubic(T, f, tol):
        raise InputError("the transform does not preserve the curve")


# A finite-order automorphism is diagonalizable: roundoff splits a repeated eigenvalue by far less.
_EIGEN_MERGE = 1e-8
# A singular value of M - lam I this small against the largest is roundoff: one eigenspace dimension.
_EIGEN_RANK = 1e-9


def fixed_points_on_curve(
    T: ProjectiveTransform, f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> PointSet:
    """Fixed points of a curve automorphism, found by eigenspace analysis.

    Eigenvalues within _EIGEN_MERGE of each other over the largest modulus
    are one (numeric._cluster), the first standing for them. A
    one-dimensional eigenspace contributes its eigenvector when that point
    lies on the curve; a two-dimensional eigenspace is a pointwise-fixed
    line and contributes the full line-curve intersection.
    """
    _require_automorphism(T, f, tol)
    if T.is_identity():
        raise InputError("the identity fixes the whole curve")
    M = T.matrix
    evals = np.linalg.eigvals(M)
    found: list[CurvePoint] = []
    for group in _cluster((evals / np.abs(evals).max()).tolist(), _EIGEN_MERGE):
        lam = evals[group[0]]
        _, s, vh = np.linalg.svd(M - lam * np.eye(3))
        dim = int(np.sum(s <= _EIGEN_RANK * max(s[0], _SCALE_FLOOR)))
        dim = max(dim, 1)
        if dim >= 3:
            raise InputError("the identity fixes the whole curve")
        if dim == 2:
            u = np.conj(vh[1])
            w = np.conj(vh[2])
            found.extend(line_curve_points(f, u, w, tol))
            continue
        w = np.conj(vh[2])
        P = normalize_point(w)
        if f.residual_at(P) > tol.tau_on_curve:
            continue
        cp = polish_onto_curve(f, P.array)
        if chordal_distance(act_on_point(T, cp.point), cp.point) <= tol.tau_match:
            found.append(cp)
    return _dedupe(found, tol.tau_match)


def lefschetz_trace(
    T: ProjectiveTransform, f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> int:
    """Trace of the induced action on first homology: two minus the fixed-point count.

    Fixed points of an automorphism of a genus-one curve are simple, so the
    count itself is the Lefschetz number.
    """
    return 2 - len(fixed_points_on_curve(T, f, tol))


def generate_group(
    generators: list[ProjectiveTransform], cap: int = 200
) -> list[ProjectiveTransform]:
    """Closure of the generators in PGL, by breadth-first multiplication."""
    elems = [ProjectiveTransform.identity()]
    frontier = [ProjectiveTransform.identity()]
    while frontier:
        nxt: list[ProjectiveTransform] = []
        for g in frontier:
            for h in generators:
                gh = g @ h
                if any(gh.pgl_equal(e) for e in elems):
                    continue
                elems.append(gh)
                nxt.append(gh)
                if len(elems) > cap:
                    raise NumericalError(
                        f"group closure exceeded the cap of {cap} elements"
                    )
        frontier = nxt
    return elems


def fermat_translations(
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[ProjectiveTransform, ProjectiveTransform]:
    """Generators of the nine translations of the Fermat cubic in PGL(3, C).

    The first cycles the coordinates, the second scales them by cube roots
    of unity; each call builds them afresh, once _check_translations passes.
    """
    _check_translations(tol)
    return ProjectiveTransform(_CYCLE), ProjectiveTransform(_SCALE)


@functools.cache
def _check_translations(tol: Tolerances) -> None:
    """Verify the translations numerically; a pass is kept per tolerance, a failure raises each time.

    Each generator preserves the curve, each has order three, the two
    commute in PGL, and no nonidentity product fixes a curve point.
    """
    a, b = ProjectiveTransform(_CYCLE), ProjectiveTransform(_SCALE)
    f = fermat_cubic()
    for g, name in ((a, "cycle"), (b, "scale")):
        if not preserves_cubic(g, f, tol):
            raise NumericalError(f"translation generator {name} moves the curve")
        if not (g @ g @ g).is_identity():
            raise NumericalError(f"translation generator {name} is not of order three")
    comm = a @ b @ a.inverse() @ b.inverse()
    if not comm.is_identity():
        raise NumericalError("translation generators do not commute in PGL")
    group = generate_group([a, b], cap=30)
    if len(group) != 9:
        raise NumericalError("translations generate the wrong group order")
    for g in group:
        if g.is_identity():
            continue
        if len(fixed_points_on_curve(g, f, tol)) != 0:
            raise NumericalError("a nonidentity translation fixes a curve point")


def _permutation_images(T: ProjectiveTransform, points: PointSet) -> list[int]:
    """images[i] = j when the transform carries points[i] to points[j].

    Raises InputError unless the images match the set bijectively within
    its tolerance.
    """
    images = _nearest_match(points.arrays @ T.matrix.T, points.arrays, points.tolerance)
    if images is None:
        raise InputError("the transform does not permute the point set")
    return images


class OrbitReport:
    """How a finite matrix group permutes a finite invariant point set."""

    def __init__(
        self,
        permutations: list[list[int]],
        orbits: list[list[int]],
        free: bool,
    ) -> None:
        self.permutations = permutations
        self.orbits = orbits
        self.free = free

    def __repr__(self) -> str:
        sizes = sorted(len(o) for o in self.orbits)
        return f"OrbitReport(orbits={sizes}, free={self.free})"


def orbit_decomposition(group: list[ProjectiveTransform], points: PointSet) -> OrbitReport:
    """Permutation action of a group on a point set, with orbit partition.

    permutations[g][i] = j means group[g] carries points[i] to points[j].
    The action is free when no element other than the identity transform
    fixes any point; an element acting as the identity permutation while
    not being the identity in PGL therefore also destroys freeness.
    """
    n = len(points)
    perms = [_permutation_images(T, points) for T in group]
    free = not any(
        not T.is_identity() and any(perm[i] == i for i in range(n))
        for T, perm in zip(group, perms)
    )
    orbits = _components(n, ((i, j) for perm in perms for i, j in enumerate(perm)))
    return OrbitReport(perms, orbits, free)


# ---------------------------------------------------------------------------
# Hesse normalization


def _through_four(vs: list[np.ndarray]) -> np.ndarray:
    """Matrix sending the standard frame e1, e2, e3, (1,1,1) to four points, no three collinear."""
    B = np.stack(vs[:3], axis=1)
    return B * (_inverse(B) @ vs[3])


@functools.cache
def _base_frame(target: tuple[int, ...]) -> np.ndarray:
    """_through_four of the labelled base points, one of the at most 27 frames _hesse_target names."""
    return _through_four(_HESSE_BASE[list(target)])


def _collinear(labels) -> bool:
    """Three distinct base points, read as (i, k), lie on a line exactly when both coordinate sums vanish mod 3."""
    return sum(labels) % 3 == 0 and sum(j // 3 for j in labels) % 3 == 0


def _det(p: tuple[int, int], q: tuple[int, int]) -> int:
    return p[0] * q[1] - p[1] * q[0]


def _hesse_target(labels: list[int]) -> list[int]:
    """The lexicographically first image of four base-point labels, no three collinear, under the Hessian group.

    Base point 3i + k of _HESSE_BASE is the point (i, k) of (Z/3)^2, on
    which the Hessian group acts as v -> Av + s with det A = 1 mod 3
    (Artebani and Dolgachev).  A translation sends the first point to
    (0, 0), and A the second to (0, 1), which leaves A a shear that zeroes
    the third point's k.  With u, v, w the other points minus the first,
    the invariant determinants fix the rest: mod 3, x = -det(u, v),
    y = -det(u, w) and z = det(w, v) det(u, v).
    """
    (i0, k0), *rest = (divmod(j, 3) for j in labels)
    u, v, w = ((i - i0, k - k0) for i, k in rest)
    x, y, z = -_det(u, v), -_det(u, w), _det(w, v) * _det(u, v)
    return [0, 1, 3 * (x % 3), 3 * (y % 3) + z % 3]


# The fit basis of hesse_normalize: the coefficient vectors of x^3 + y^3 + z^3 and of xyz.
_HESSE_FIT = np.stack([fermat_cubic().coeffs, CubicForm.from_coeffs({(1, 1, 1): 1.0}).coeffs], axis=1)
_HESSE_FIT.setflags(write=False)
# An x^3 + y^3 + z^3 coefficient this small against xyz's is the triangle xyz = 0: no finite lam.
_FIT_DEGENERATE = 1e-12


def hesse_normalize(
    f: CubicForm, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[ProjectiveTransform, complex]:
    """Coordinates in which the curve joins the Hesse pencil.

    Returns (T, lam) with act_on_cubic(T, f) proportional to
    x^3 + y^3 + z^3 + lam*x*y*z within tau_hesse.  T sends the first four
    flexes in canonical order with no three collinear to the base points
    that _hesse_target computes from their labels (curve._hesse_flexes):
    the lexicographically first image under the Hessian group, which acts
    on the labels as the special affine group of (Z/3)^2.  lam comes from a
    least-squares fit of f(T^-1 x), closed-form by disjoint supports, which also checks the form, and
    NumericalError from a fit beyond tau_hesse.  The result is kept for the
    last curve object (_hesse_normal_form), so make_chart reuses it.
    """
    require_smooth(f, tol)
    return _hesse_normal_form(f, tol)


@functools.lru_cache(maxsize=1)
def _hesse_normal_form(f: CubicForm, tol: Tolerances) -> tuple[ProjectiveTransform, complex]:
    """hesse_normalize for a certified curve, kept for the last curve object (hashed by identity) and equal Tolerances."""
    flexes, labels = _hesse_flexes(f, tol)
    src = next(
        q for q in itertools.combinations(range(9), 4)
        if not any(_collinear([labels[i] for i in t]) for t in itertools.combinations(q, 3))
    )
    target = _hesse_target([labels[i] for i in src])
    Mp = _through_four([flexes[i].array for i in src])
    T = ProjectiveTransform(_base_frame(tuple(target)) @ _inverse(Mp))
    # act_on_cubic(T, f) up to scale, which the fit ignores, so T's adjugate serves for its inverse
    gvec = f.compose_linear(_cofactors(T.matrix).T).coeffs
    # the 0-1 columns share no monomial: the fit is the mean of g's x^3, y^3, z^3 coefficients and its xyz one
    sol = _HESSE_FIT.T @ gvec / _HESSE_FIT.real.sum(axis=0)
    d = _HESSE_FIT @ sol - gvec
    resid = float(np.sqrt(np.vdot(d, d).real / np.vdot(gvec, gvec).real))
    if resid > tol.tau_hesse or abs(sol[0]) <= _FIT_DEGENERATE * abs(sol[1]):
        raise NumericalError("no Hesse normalization found within tolerance")
    return T, complex(sol[1] / sol[0])
