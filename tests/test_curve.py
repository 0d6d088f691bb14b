from __future__ import annotations

import warnings

import numpy as np
import pytest

from cubicpoints import (
    CubicForm,
    CurvePoint,
    InputError,
    NumericalError,
    PointSet,
    ProjectiveTransform,
    SingularCurveError,
    act_on_cubic,
    act_on_point,
    chordal_distance,
    fermat_cubic,
    hesse_cubic,
    inflection_points,
    is_smooth,
    line_curve_points,
    normalize_point,
    polish_onto_curve,
    random_points_on_curve,
    random_smooth_cubic,
    require_smooth,
    smoothness,
)
from cubicpoints import curve, symmetry
from cubicpoints.config import Tolerances
from cubicpoints.elliptic import make_chart
from cubicpoints.symmetry import hesse_normalize

from oracles import fermat_inflection_rows
from test_chord_rows import frozen_polish


def _random_poly(rng) -> CubicForm:
    coeffs = {}
    for i in range(4):
        for j in range(4 - i):
            coeffs[(i, j, 3 - i - j)] = complex(rng.standard_normal(), rng.standard_normal())
    return CubicForm.from_coeffs(coeffs)


def _line_coeffs(f: CubicForm, P, Q) -> list[complex]:
    """t -> f(P + t Q), lowest degree first, by the polarization identity."""
    return [f.evaluate(P), f.gradient(P) @ Q, f.gradient(Q) @ P, f.evaluate(Q)]


class TestTriPoly:
    """Cubic arithmetic: composition, the line restriction, the gradient, proportionality.

    The class keeps the name of the sparse polynomial type these checks
    were first written for; they now run on CubicForm's coefficient vector.
    """

    def test_compose_linear_matches_pointwise(self, rng):
        p = _random_poly(rng)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = p.compose_linear(M)
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            assert abs(q.evaluate(x) - p.evaluate(M @ x)) < 1e-10 * max(1.0, abs(p.evaluate(M @ x)))

    def test_restrict_to_line_matches_pointwise(self, rng):
        p = _random_poly(rng)
        P = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        Q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c = _line_coeffs(p, P, Q)
        for t in (0.0, 0.5, -1.25, 2.0 + 1.0j):
            direct = p.evaluate(P + t * Q)
            horner = sum(c[k] * t**k for k in range(len(c)))
            assert abs(direct - horner) < 1e-9 * max(1.0, abs(direct))

    def test_gradient_euler_identity(self, rng):
        # x.grad p = deg * p for homogeneous p
        p = _random_poly(rng)
        for _ in range(5):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lhs = np.dot(x, p.gradient(x))
            assert abs(lhs - 3.0 * p.evaluate(x)) < 1e-9 * max(1.0, abs(p.evaluate(x)))

    def test_proportionality_residual(self, rng):
        p = _random_poly(rng)
        assert p.proportionality_residual(CubicForm(p.coeffs * (2.0 - 1.0j))) < 1e-14
        q = CubicForm.from_coeffs({(3, 0, 0): 1.0})
        r = CubicForm.from_coeffs({(0, 3, 0): 1.0})
        assert q.proportionality_residual(r) == 1.0


class TestCubicForm:
    def test_fermat_evaluate_and_gradient(self, fermat):
        v = np.array([1.0, -1.0, 0.0], dtype=complex)
        assert abs(fermat.evaluate(v)) < 1e-15
        assert np.allclose(fermat.gradient(v), [3.0, 3.0, 0.0])

    def test_hessian_of_fermat_is_diagonal_product(self, fermat):
        h = fermat.hessian()
        want = [216.0 if m == (1, 1, 1) else 0.0 for m in curve._MONOMIALS]
        assert h.coeffs.tolist() == want

    def test_from_coeffs_rejects_a_bad_exponent_triple(self):
        with pytest.raises(InputError, match=r"exponent triple \(2, 2, 0\) does not match degree 3"):
            CubicForm.from_coeffs({(3, 0, 0): 1.0, (2, 2, 0): 1.0})
        with pytest.raises(InputError, match="does not match degree 3"):
            CubicForm.from_coeffs({(4, -1, 0): 1.0})

    def test_from_coeffs_rejects_a_non_finite_coefficient(self):
        with pytest.raises(InputError, match="non-finite coefficient"):
            CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): complex(0.0, float("nan"))})
        with pytest.raises(InputError, match="non-finite coefficient"):
            CubicForm.from_coeffs({(0, 0, 3): float("inf")})

    def test_from_coeffs_rejects_the_zero_polynomial(self):
        with pytest.raises(InputError, match="the zero polynomial does not define a curve"):
            CubicForm.from_coeffs({(3, 0, 0): 0.0, (1, 1, 1): 0j})

    def test_hessian_of_a_cone_names_the_cause(self):
        cone = CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})
        with pytest.raises(InputError, match="the Hessian vanishes identically"):
            cone.hessian()

    def test_coefficients_are_read_only(self, fermat):
        with pytest.raises(ValueError):
            fermat.coeffs[0] = 2.0

    def test_rejects_wrong_degree(self):
        with pytest.raises(InputError):
            CubicForm.from_coeffs({(2, 0, 0): 1.0})
        with pytest.raises(InputError):
            CubicForm.from_coeffs({})


class TestSmoothness:
    def test_fermat_is_smooth_with_frozen_margin(self, fermat):
        rep = smoothness(fermat)
        assert rep.smooth
        assert rep.witness is None
        assert abs(rep.margin - 1.0) < 1e-9

    def test_triangle_of_lines_is_singular(self):
        rep = smoothness(CubicForm.from_coeffs({(1, 1, 1): 1.0}))
        assert not rep.smooth
        assert rep.margin < 1e-10
        # the witness must be one of the coordinate vertices
        w = np.abs(rep.witness.array)
        assert sorted(np.round(w, 8)) == [0.0, 0.0, 1.0]

    def test_pencil_member_with_vanishing_discriminant(self):
        rep = smoothness(hesse_cubic(-3.0))
        assert not rep.smooth
        d = chordal_distance(rep.witness.array, np.array([1.0, 1.0, 1.0]))
        assert d < 1e-6

    @pytest.mark.parametrize(
        "coeffs, smooth",
        [
            ({(2, 1, 0): 1.0, (1, 2, 0): 1.0}, False),
            ({(2, 1, 0): 1.0, (1, 2, 0): 1.0, (0, 0, 3): 1.0}, True),
        ],
    )
    def test_pair_of_partials_free_of_the_fiber_variable(self, coeffs, smooth):
        f = CubicForm.from_coeffs(coeffs)
        # x^2 y + x y^2 has f_z = 0, so the witness search has only the
        # pencil of f_x and f_y, singular in every member; with z^3 added
        # the curve is smooth and no witness is searched for
        rep = smoothness(f)
        assert rep.smooth is smooth
        if smooth:
            assert abs(rep.margin - 1.0 / 3.0) < 1e-9
        else:
            assert chordal_distance(rep.witness.array, np.array([0.0, 0.0, 1.0])) < 1e-12

    @pytest.mark.parametrize(
        "coeffs",
        [
            {(3, 0, 0): 1.0, (0, 3, 0): 1.0},  # cone: its Hessian vanishes
            {(0, 2, 1): 1.0, (3, 0, 0): -1.0, (2, 0, 1): -1.0},  # node
            {(0, 2, 1): 1.0, (3, 0, 0): -1.0},  # cusp
        ],
        ids=["cone", "node", "cusp"],
    )
    def test_witness_is_the_singular_point(self, coeffs):
        f = CubicForm.from_coeffs(coeffs)
        rep = smoothness(f)
        assert not rep.smooth and not is_smooth(f)
        assert rep.margin < 1e-15
        assert chordal_distance(rep.witness.array, np.array([0.0, 0.0, 1.0])) < 1e-12

    def test_a_subnormal_candidate_is_skipped(self, monkeypatch):
        # a candidate whose largest coordinate is subnormal has no finite
        # representative: dividing by its pivot overflows to (1 : inf : nan)
        real_cut = curve._cut
        tiny = np.array([1e-310 + 1e-310j, 5e-311j, 0.0])
        monkeypatch.setattr(curve, "_cut", lambda line, conics: [tiny, *real_cut(line, conics)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = smoothness(hesse_cubic(-3.0))
        assert chordal_distance(rep.witness.array, np.array([1.0, 1.0, 1.0])) < 1e-6

    @pytest.mark.parametrize("scale", [1e300], ids=["hessian"])
    def test_coefficients_too_large_for_the_hessian_are_a_numerical_error(self, scale):
        # the Hessian grows as the cube of the scale: its coefficients overflow from about 1e102
        f = CubicForm(hesse_cubic(0.3).coeffs * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflow"):
                smoothness(f)

    def test_a_large_scale_keeps_the_margin(self):
        f = hesse_cubic(0.3)
        assert abs(smoothness(CubicForm(f.coeffs * 1e45)).margin - smoothness(f).margin) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-102, 1e-60, 1e-55, 1e60, 1e101])
    def test_an_extreme_scale_keeps_the_margin(self, scale):
        # the squared norm of the Hessian's coefficients (about scale^6)
        # underflows below 1e-54 and overflows above 1e51; the gate scales
        # each block by a power of two first
        f = hesse_cubic(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = smoothness(CubicForm(f.coeffs * scale))
        assert rep.smooth and abs(rep.margin - smoothness(f).margin) <= 1e-12

    @pytest.mark.parametrize("exponent", [-183, 200])
    def test_a_power_of_two_scale_keeps_the_margin_bit_for_bit(self, exponent):
        f = hesse_cubic(0.3)
        assert smoothness(CubicForm(f.coeffs * 2.0**exponent)).margin == smoothness(f).margin

    @pytest.mark.parametrize("scale", [1e-60, 1e-55])
    def test_a_tiny_scale_keeps_the_flexes(self, scale):
        f = hesse_cubic(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inflection_points(CubicForm(f.coeffs * scale)).arrays
        D = curve.chordal_matrix(got, inflection_points(f).arrays)
        assert np.diag(D).max() <= 1e-14

    def test_require_smooth_raises(self):
        with pytest.raises(SingularCurveError):
            require_smooth(hesse_cubic(-3.0))
        assert is_smooth(hesse_cubic(1.0))
        assert not is_smooth(CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0}))


class TestInflections:
    def test_count_and_residuals(self, fermat_flexes, fermat):
        assert len(fermat_flexes) == 9
        h = fermat.hessian()
        for cp in fermat_flexes:
            assert cp.residual <= 1e-8
            assert h.residual_at(cp.point) <= 1e-8

    def test_matches_closed_form(self, fermat_flexes):
        for row in fermat_inflection_rows():
            d = min(chordal_distance(row, cp.array) for cp in fermat_flexes)
            assert d < 1e-12

    def test_fermat_cubic_within_roundoff_has_the_fermat_flexes(self):
        # gate margin 1.0, but its Hessian is a triangle, so the top coefficient of
        # the pencil's quartic is roundoff (7e-31): dropped, it leaves a root at infinity
        e16, e15 = 1.0844038845175951e-16, 7.590827191623163e-16
        f = CubicForm.from_coeffs({
            (3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0,
            (2, 1, 0): e15, (1, 0, 2): e15, (0, 2, 1): 7.590827191623165e-16,
            (2, 0, 1): 1.0844038845175952e-16, (1, 2, 0): e16, (0, 1, 2): 1.0844038845175955e-16,
            (1, 1, 1): 1.0529280080906228e-32,
        })
        D = curve.chordal_matrix(inflection_points(f).arrays, fermat_inflection_rows())
        assert max(D.min(axis=1).max(), D.min(axis=0).max()) <= 1e-14

    def test_min_separation_frozen(self, fermat_flexes):
        assert abs(fermat_flexes.min_separation() - np.sqrt(3.0) / 2.0) < 1e-12

    def test_deterministic(self, fermat):
        # an equal curve in a new object, which the last-curve slot does not hold
        a = inflection_points(fermat)
        b = inflection_points(CubicForm(fermat.coeffs))
        assert [p.point.coords for p in a] == [p.point.coords for p in b]

    def test_equivariance_under_coordinate_change(self, fermat, fermat_flexes, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = ProjectiveTransform(M)
        g = act_on_cubic(T, fermat)
        moved = inflection_points(g)
        expect = PointSet(
            [polish_onto_curve(g, act_on_point(T, cp.point).array) for cp in fermat_flexes],
            1e-6,
        )
        assert expect.setwise_equal(moved)

    def test_singular_input_rejected(self):
        with pytest.raises(SingularCurveError):
            inflection_points(hesse_cubic(-3.0))

    def test_nine_flexes_near_the_discriminant(self, tol):
        # a triangle and a conic with a transversal line, each in a random
        # frame, scaled to unit norm and moved by unit-disc coefficient noise
        # of size 10^U(-7, -1): every curve track would accept has nine flexes
        rng = np.random.default_rng(8)
        kept = 0
        for base in (_TRIANGLE, _CONIC_PLUS_LINE):
            for _ in range(150):
                A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                c = base.compose_linear(A).coeffs
                f = CubicForm(c / np.linalg.norm(c) + 10.0 ** rng.uniform(-7, -1) * curve._unit_disc(rng, 10))
                if smoothness(f, tol).margin >= tol.smoothness_margin:
                    kept += 1
                    assert len(inflection_points(f, tol)) == 9
        assert kept >= 120

    @pytest.mark.parametrize("seed", range(3))
    def test_nine_flexes_next_to_the_nodal_pencil_member(self, seed, tol):
        # gate margin 3.1e-4; in the unitary frame Q the flexes are Q^-1 times the base points
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        flexes = inflection_points(hesse_cubic(-2.999).compose_linear(Q), tol)
        want = np.linalg.solve(Q, curve._HESSE_BASE.T).T
        assert len(flexes) == 9
        assert curve.chordal_matrix(flexes.arrays, want).min(axis=1).max() <= 1e-12

    @pytest.mark.parametrize("frame", range(3))
    def test_members_next_to_a_triangle_raise_or_give_the_base_points(self, frame, tol):
        # lam within 1e-2 to 1e-4 of a triangle member -3 w^k (gate margin down
        # to 3.1e-5), in the identity frame and two random unitary frames Q.
        # The flex Newton may drop a row that bounces at roundoff and raise,
        # but a set it returns is the nine base points moved by Q^-1.
        Q = np.eye(3)
        if frame:
            rng = np.random.default_rng(frame)
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        want = np.linalg.solve(Q, curve._HESSE_BASE.T).T
        returned = []
        for c in -3.0 * np.exp(2j * np.pi / 3) ** np.arange(3):
            for r in (1e-2, 1e-3, 1e-4):
                for phi in (0.3, 2.4):
                    try:
                        flexes = inflection_points(hesse_cubic(c + r * np.exp(1j * phi)).compose_linear(Q), tol)
                    except NumericalError:
                        continue
                    D = curve.chordal_matrix(flexes.arrays, want)
                    assert len(flexes) == 9
                    assert max(D.min(axis=1).max(), D.min(axis=0).max()) <= 1e-8
                    returned.append(r)
        assert returned.count(1e-2) == 6


_TRIANGLE = CubicForm.from_coeffs({(1, 1, 1): 1.0})
# the conic x^2 + y^2 + z^2 times the line z = 0, which meets it twice
_CONIC_PLUS_LINE = CubicForm.from_coeffs({(2, 0, 1): 1.0, (0, 2, 1): 1.0, (0, 0, 3): 1.0})


class TestLastCurveCache:
    """smoothness, _hesse_flexes and _hesse_normal_form compute once per curve object and Tolerances in a row.

    The counts are taken one layer below the caches: the discriminant gate
    and the Hesse frame; _hesse_normal_form's are its cache misses.
    """

    @pytest.fixture
    def computed(self, monkeypatch):
        calls = {"margin": 0, "flexes": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        monkeypatch.setattr(curve, "_discriminant_margin", counting("margin", curve._discriminant_margin))
        monkeypatch.setattr(curve, "_hesse_frame", counting("flexes", curve._hesse_frame))
        return calls

    def test_inflections_then_hesse_normalize_compute_once(self, computed, rng):
        f = _random_poly(rng)
        flexes = inflection_points(f)
        T, lam = hesse_normalize(f)
        assert computed == {"margin": 1, "flexes": 1}
        # the same outputs, bit for bit, as from an equal curve the caches do not hold
        g = CubicForm(f.coeffs)
        T2, lam2 = hesse_normalize(g)
        assert [p.point.coords for p in inflection_points(g)] == [p.point.coords for p in flexes]
        assert np.array_equal(T.matrix, T2.matrix) and lam == lam2
        assert computed == {"margin": 2, "flexes": 2}

    def test_make_chart_reuses_the_hesse_normal_form(self, computed, rng):
        f = _random_poly(rng)
        before = symmetry._hesse_normal_form.cache_info().misses
        flexes = inflection_points(f)
        hesse_normalize(f)
        make_chart(f, flexes[0].point)
        assert computed == {"margin": 1, "flexes": 1}
        assert symmetry._hesse_normal_form.cache_info().misses == before + 1

    def test_another_curve_in_between_recomputes(self, computed, rng):
        f1, f2 = _random_poly(rng), _random_poly(rng)
        for f in (f1, f2, f1):
            inflection_points(f)
        assert computed == {"margin": 3, "flexes": 3}

    def test_other_tolerances_recompute(self, computed, rng, tol):
        f = _random_poly(rng)
        inflection_points(f, tol)
        inflection_points(f, Tolerances())  # equal, so held
        assert computed == {"margin": 1, "flexes": 1}
        inflection_points(f, tol.with_(tau_match=2e-6))
        assert computed == {"margin": 2, "flexes": 2}

    def test_mutating_a_result_leaves_the_next_unchanged(self, computed, rng, tol):
        f = _random_poly(rng)
        flexes = inflection_points(f, tol)
        first = [p.point.coords for p in flexes]
        flexes.points.reverse()
        flexes.points.pop()
        assert [p.point.coords for p in inflection_points(f, tol)] == first
        # what the cache keeps cannot be mutated: the flexes and labels are tuples
        assert all(isinstance(part, tuple) for part in curve._hesse_flexes(f, tol))
        assert computed == {"margin": 1, "flexes": 1}

    def test_a_singular_curve_raises_from_both_entry_points(self, computed):
        f = hesse_cubic(-3.0)
        for _ in range(2):
            with pytest.raises(SingularCurveError):
                inflection_points(f)
            with pytest.raises(SingularCurveError):
                hesse_normalize(f)
        assert computed == {"margin": 1, "flexes": 0}

    @pytest.mark.parametrize(
        "f", [hesse_cubic(-3.0), CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})], ids=["triangle", "cone"]
    )
    def test_make_chart_on_a_singular_curve_raises_singular(self, computed, f):
        # (1 : -1 : 0) lies on both; the cone's Hessian vanishes, so its flex gate would raise InputError
        with pytest.raises(SingularCurveError):
            make_chart(f, [1, -1, 0])
        assert computed == {"margin": 1, "flexes": 0}


def _sampled_triangles(f: CubicForm) -> list[CubicForm]:
    """The four triangles of f's Hesse pencil, from Hessians sampled along it.

    Hess(f + t H) = A(t) f + B(t) H with cubics A and B: four sampled
    Hessians, each projected onto f and H by least squares, fix them by
    interpolation, and the triangles are the roots of t A(t) - B(t).
    """
    F = f.coeffs / np.linalg.norm(f.coeffs)
    h = f.hessian().coeffs
    G = h / np.linalg.norm(h)
    ts = np.array([0.0, 1.0, -1.0, 1j])
    samples = [CubicForm(F + t * G).hessian().coeffs for t in ts]
    AB = np.linalg.lstsq(np.stack([F, G], axis=1), np.stack(samples, axis=1), rcond=None)[0]
    A, B = np.linalg.solve(np.vander(ts, 4), AB.T).T  # highest power first
    roots = np.roots(np.append(A, 0.0) - np.insert(B, 0, 0.0))
    assert len(roots) == 4
    return [CubicForm(F + t * G) for t in roots]


def _planted_triangle(l1, l2, l3) -> tuple[CubicForm, np.ndarray]:
    """The cubic l1 l2 l3 and its three lines as unit rows."""
    L = np.array([l1, l2, l3], dtype=complex)
    g = CubicForm(curve._FOLD @ np.einsum("a,b,c->abc", *L).reshape(27))
    return g, L / np.linalg.norm(L, axis=1)[:, None]


# Two generic points, each spanning a line with a vertex of a planted triangle.
_FAR = (np.array([0.2 + 0.9j, -0.6 + 0.1j, 0.5 - 0.3j]), np.array([-0.4 - 0.2j, 0.3 + 0.7j, 0.8 + 0.5j]))


def _cut_point(k: int, u: complex) -> np.ndarray:
    P, Q = curve._CUTS[k]
    return P + u * Q


class TestHessePencilTriangles:
    def test_a_vertex_on_the_first_cut_leaves_the_lines_to_the_second(self, tol):
        # the first cut meets the triangle twice at v, where the gradient vanishes
        v = _cut_point(0, 0.37 - 0.21j)
        g, want = _planted_triangle(np.cross(v, _FAR[0]), np.cross(v, _FAR[1]), np.cross(_FAR[0], _FAR[1] + 0.3))
        got = curve._triangle_lines(g, tol)
        D = curve.chordal_matrix(got, want)
        assert sorted(D.argmin(axis=1).tolist()) == [0, 1, 2]
        assert D.min(axis=1).max() <= 1e-12

    def test_a_vertex_at_the_first_cuts_base_point_leaves_the_lines_to_the_second(self, tol, monkeypatch):
        # xyz composed with a unitary U whose first row is conj(P): the lines
        # are U's rows, and the vertex where the last two vanish is P itself
        P = curve._CUTS[0][0]
        Q, _ = np.linalg.qr(np.stack([P, [1.0, 0.3j, -0.2], [0.1, 1.0, 0.5j]], axis=1))
        U = Q.conj().T
        assert chordal_distance(U[0], P.conj()) <= 1e-15
        g = CubicForm.from_coeffs({(1, 1, 1): 1.0}).compose_linear(U)
        solved = []
        real_solve = curve.solve_univariate
        monkeypatch.setattr(curve, "solve_univariate", lambda *a: solved.append(a) or real_solve(*a))
        got = curve._triangle_lines(g, tol)
        assert len(solved) == 2
        D = curve.chordal_matrix(got, U)
        assert sorted(D.argmin(axis=1).tolist()) == [0, 1, 2]
        assert D.min(axis=1).max() <= 1e-12

    def test_vertices_on_both_cuts_raise(self, tol):
        v, w = _cut_point(0, 0.37 - 0.21j), _cut_point(1, -0.52 + 0.44j)
        g, _ = _planted_triangle(np.cross(v, w), np.cross(v, _FAR[0]), np.cross(w, _FAR[1]))
        with pytest.raises(NumericalError, match="no cut splits"):
            curve._triangle_lines(g, tol)

    @pytest.mark.parametrize("seed", range(4))
    def test_the_twelve_triangle_lines_are_the_flex_lines(self, seed, tol):
        f = random_smooth_cubic(np.random.default_rng(seed))
        flexes = inflection_points(f, tol).arrays
        flexes = flexes / np.linalg.norm(flexes, axis=1)[:, None]
        triangles = _sampled_triangles(f)
        lines = np.concatenate([curve._triangle_lines(g, tol) for g in triangles])
        lines /= np.linalg.norm(lines, axis=1)[:, None]
        # twelve distinct lines, each through exactly three flexes, four
        # through each flex, and each pair of flexes on exactly one of them
        D = curve.chordal_matrix(lines, lines)
        np.fill_diagonal(D, 1.0)
        assert D.min() > 1e-3
        on = np.abs(lines @ flexes.T) <= 1e-10
        assert on.sum(axis=1).tolist() == [3] * 12
        assert (on.T.astype(int) @ on.astype(int) == 1 + 3 * np.eye(9, dtype=int)).all()
        # the triangle the flex search uses is one of the four
        picked = curve._pencil_triangle(f, f.hessian(), tol)
        assert min(picked.proportionality_residual(g) for g in triangles) <= 1e-10


class TestLineCurve:
    def test_chord_through_two_flexes_hits_a_third(self, fermat, fermat_flexes):
        P = fermat_flexes[0].array
        Q = fermat_flexes[1].array
        pts = line_curve_points(fermat, P, Q)
        assert len(pts) == 3
        hits = sum(
            1 for p in pts if min(chordal_distance(p.array, c.array) for c in fermat_flexes) < 1e-8
        )
        assert hits == 3

    def test_random_line_meets_cubic_three_times(self, fermat, rng):
        P = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        Q = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        pts = line_curve_points(fermat, P, Q)
        assert len(pts) == 3
        for p in pts:
            assert p.residual <= 1e-8
            # collinearity with the spanning pair
            assert abs(np.linalg.det(np.stack([P, Q, p.array]))) < 1e-8 * (
                np.linalg.norm(P) * np.linalg.norm(Q)
            )

    def test_flex_tangent_has_triple_contact(self, fermat, fermat_flexes):
        for cp in fermat_flexes.points[:3]:
            P = cp.array
            g = fermat.gradient(P)
            # a second point of the tangent line grad.X = 0
            _, _, vh = np.linalg.svd(g.reshape(1, 3))
            v = np.conj(vh[2])
            c = _line_coeffs(fermat, P, v)
            top = abs(c[3])
            assert top > 0
            assert max(abs(c[0]), abs(c[1]), abs(c[2])) < 1e-9 * top


class TestPointSet:
    def test_index_of_and_match(self, fermat_flexes):
        for i, cp in enumerate(fermat_flexes):
            assert fermat_flexes.index_of(cp.point) == i
        shuffled = PointSet(list(reversed(fermat_flexes.points)), 1e-6)
        m = fermat_flexes.match(shuffled)
        assert m == list(reversed(range(9)))

    def test_match_is_none_unless_nearest_points_are_distinct_and_close(self, fermat_flexes):
        empty = PointSet([], 1e-6)
        assert empty.index_of(fermat_flexes[0].point) is None
        assert empty.match(PointSet([], 1e-6)) == []
        # all nine share the nearest point 0; eight flexes are far from every point
        doubled = PointSet([fermat_flexes[0]] * 9, 1e-6)
        assert doubled.match(fermat_flexes) is None
        assert fermat_flexes.match(doubled) is None
        assert PointSet(fermat_flexes.points, 0.0).index_of([1.0, 2.0, 3.0]) is None

    def test_arrays_and_separation_are_computed_once(self, fermat_flexes, monkeypatch):
        calls, original = [], curve.chordal_matrix
        monkeypatch.setattr(curve, "chordal_matrix", lambda *a: calls.append(a) or original(*a))
        points = PointSet(fermat_flexes.points, 1e-6)
        assert points.arrays is points.arrays
        assert points.min_separation() == points.min_separation() > 0.0
        assert len(calls) == 1

    def test_sorted_canonical_stable(self, fermat_flexes):
        s1 = fermat_flexes.sorted_canonical()
        s2 = s1.sorted_canonical()
        assert [p.point.coords for p in s1] == [p.point.coords for p in s2]

    @pytest.mark.parametrize("pencil", [None, 0.5, 1j, -2.9, 5.0, -2.999])
    def test_canonical_order_ignores_last_bit_noise(self, pencil, rng):
        # the base points have coordinates of equal modulus, ties that
        # relative noise of 1e-14 breaks either way
        f = fermat_cubic() if pencil is None else hesse_cubic(pencil)
        flexes = inflection_points(f)
        for _ in range(20):
            noise = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
            moved = [
                CurvePoint(normalize_point(cp.array * (1.0 + 1e-14 * e)), float(i))
                for i, (cp, e) in enumerate(zip(flexes, noise))
            ]
            order = [cp.residual for cp in PointSet(moved[::-1], 1e-6).sorted_canonical()]
            assert order == list(range(9))


class TestRowStacks:
    """Flex sets hold the Newton's own row stack, with the bits a stack of their points would have."""

    def test_inflections_and_corrected_flexes_hold_the_stack_of_their_points(self, rng, tol):
        for f in [fermat_cubic()] + [random_smooth_cubic(rng) for _ in range(4)]:
            flexes = inflection_points(f, tol)
            near = flexes.arrays + 1e-6 * (rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3)))
            corrected = curve._correct_flexes(f, near, tol)
            for points in (flexes, corrected):
                want = np.stack([cp.array for cp in points])
                assert points.arrays.shape == want.shape and points.arrays.dtype == want.dtype
                assert points.arrays.tobytes() == want.tobytes()


class TestSettle:
    """_settle stops at the rounding floor: rows already on the curve cost one evaluation."""

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        real = curve._forms_at
        monkeypatch.setattr(curve, "_forms_at", lambda *a: calls.append(len(a[1])) or real(*a))
        return calls

    def test_rows_on_the_curve_are_evaluated_once_and_returned_unchanged(self, evaluations, rng):
        # the Fermat flexes (1 : -w^k : 0) and the Hesse base points tie in modulus: the
        # pivot rule of the rows a flex set holds is the one _settle applies
        for f in [fermat_cubic(), hesse_cubic(0.5)] + [random_smooth_cubic(rng) for _ in range(5)]:
            X = inflection_points(f).arrays
            evaluations.clear()
            Y, V, G = curve._settle(f._tensor[None], X)
            assert evaluations == [9]
            assert np.array_equal(Y, X)

    def test_a_polished_flex_takes_its_residual_from_the_settle(self, evaluations, rng):
        # the settle's one evaluation gives the residual too; the point and
        # its residual are those the flex set holds
        for f in [fermat_cubic(), random_smooth_cubic(rng)]:
            flexes = inflection_points(f)
            evaluations.clear()
            assert polish_onto_curve(f, flexes[0]) == flexes[0]
            assert evaluations == [1]

    def test_one_row_off_the_curve_still_steps_onto_it(self, evaluations, rng, tol):
        f = random_smooth_cubic(rng)
        X = inflection_points(f).arrays.copy()
        X[4] += 1e-6 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        evaluations.clear()
        _, V, _ = curve._settle(f._tensor[None], X)
        assert len(evaluations) > 1
        assert (np.abs(V) <= tol.tau_on_curve * f.norm_inf).all()


class TestPointInput:
    """A CurvePoint is accepted wherever a coordinate triple is, with the same result."""

    def test_evaluate(self, fermat, fermat_flexes):
        cp = fermat_flexes[0]
        assert fermat.evaluate(cp) == fermat.evaluate(cp.array)

    def test_gradient(self, fermat, fermat_flexes):
        cp = fermat_flexes[0]
        assert np.array_equal(fermat.gradient(cp), fermat.gradient(cp.array))

    def test_residual_at(self, fermat, fermat_flexes):
        cp = fermat_flexes[0]
        assert fermat.residual_at(cp) == fermat.residual_at(cp.point)

    def test_polish_onto_curve(self, fermat, fermat_flexes):
        cp = fermat_flexes[0]
        assert polish_onto_curve(fermat, cp) == polish_onto_curve(fermat, cp.array)

    def test_line_curve_points(self, fermat, fermat_flexes):
        p, q = fermat_flexes[0], fermat_flexes[1]
        got = line_curve_points(fermat, p, q)
        want = line_curve_points(fermat, p.array, q.array)
        assert [c.point for c in got] == [c.point for c in want]


class TestPolishAndSampling:
    def test_polish_recovers_perturbed_point(self, fermat, fermat_flexes, rng, tol):
        for cp in fermat_flexes.points[:3]:
            noise = 1e-5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            back = polish_onto_curve(fermat, cp.array + noise)
            assert back.residual <= 1e-8
            assert chordal_distance(back.array, cp.array) < 1e-4
        # random curves: the batched polish agrees with the scalar one it replaced
        for _ in range(5):
            f = random_smooth_cubic(rng)
            for cp in random_points_on_curve(f, 3, rng):
                near = cp.array + 1e-5 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                back = polish_onto_curve(f, near)
                assert back.residual <= tol.tau_on_curve
                assert chordal_distance(back.point, frozen_polish(f, near).point) <= tol.tau_match

    def test_line_points_keep_their_order_under_a_one_ulp_rescale(self, rng):
        """The order is canonical, not the residual order, which follows the last bits."""
        f = random_smooth_cubic(rng)
        for _ in range(20):
            p, q = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
            want = line_curve_points(f, p, q)
            got = line_curve_points(f, p * (1.0 + 2.0**-52), q * (1.0 - 2.0**-53))
            assert len(got) == len(want)
            assert all(chordal_distance(a.point, b.point) <= 1e-12 for a, b in zip(got, want))

    def test_random_smooth_cubic_certified(self, rng):
        f = random_smooth_cubic(rng)
        rep = smoothness(f)
        assert rep.smooth and rep.margin >= 1e-3

    def test_random_points_lie_on_curve(self, fermat, rng):
        pts = random_points_on_curve(fermat, 6, rng)
        assert len(pts) == 6
        for p in pts:
            assert p.residual <= 1e-8
