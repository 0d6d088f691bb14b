from __future__ import annotations

import warnings

import numpy as np
import pytest

from cubicpoints import (
    CurvePoint,
    InputError,
    NumericalError,
    UniPoly,
    chordal_distance,
    normalize_point,
    solve_univariate,
)

from oracles import resultant


class TestUniPoly:
    def test_trims_exact_zero_lead(self):
        p = UniPoly([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert p.lead() == 2.0

    def test_zero_polynomial(self):
        assert UniPoly([0.0, 0.0]).is_zero()
        assert not UniPoly([0.0, 1.0]).is_zero()

    def test_from_roots_evaluates_to_zero(self):
        roots = [1.0, -2.0, 3.0 + 1.0j]
        p = UniPoly.from_roots(roots, lead=2.0)
        assert p.degree == 3
        for r in roots:
            assert abs(p(r)) < 1e-12

    def test_derivative(self):
        # d/dx (x^3) = 3 x^2
        p = UniPoly([0.0, 0.0, 0.0, 1.0])
        d = p.derivative()
        assert np.allclose(d.coeffs, [0.0, 0.0, 3.0])

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            UniPoly([])
        with pytest.raises(InputError):
            UniPoly([np.inf, 1.0])


class TestNormalizePoint:
    def test_pivot_becomes_exactly_one(self):
        p = normalize_point([2.0, 0.0, 0.0])
        assert p.coords == (1.0 + 0.0j, 0.0 + 0.0j, 0.0 + 0.0j)

    def test_scale_invariance(self):
        v = np.array([1.0 + 2.0j, -0.5, 3.0j])
        a = normalize_point(v)
        b = normalize_point((2.0 - 1.0j) * v)
        assert chordal_distance(a.array, b.array) < 1e-14

    def test_tie_prefers_lowest_index(self):
        p = normalize_point([1.0j, -1.0, 0.0])
        assert p.coords[0] == 1.0

    def test_takes_a_curve_point(self):
        p = normalize_point([0.2j, 1.0, 0.5])
        assert normalize_point(CurvePoint(p, 0.0)) == p

    def test_rejects_zero_vector(self):
        with pytest.raises(InputError):
            normalize_point([0.0, 0.0, 0.0])

    def test_rejects_a_subnormal_vector(self):
        # dividing by the subnormal pivot overflows to (1 : inf+infj : nan+nanj)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="subnormal"):
                normalize_point([1e-310 + 1e-310j, 5e-311j, 0.0])
            tiny = float(np.finfo(float).tiny)
            p = normalize_point([0.5 * tiny, tiny, 0.25j * tiny])
        assert p.coords == (0.5 + 0.0j, 1.0 + 0.0j, 0.25j)


class TestChordalDistance:
    def test_identical_and_orthogonal(self):
        e0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
        assert chordal_distance(e0, e0) == 0.0
        assert abs(chordal_distance(e0, e1) - 1.0) < 1e-15

    def test_resolves_tiny_separations(self):
        # distances far below sqrt(machine eps) must not collapse to zero
        a = np.array([1.0, 0.3 - 0.2j, -0.7j])
        b = a + np.array([0.0, 1e-12, 0.0])
        d = chordal_distance(a, b)
        assert 1e-13 < d < 1e-11

    def test_representative_invariance(self, rng):
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            s = complex(rng.standard_normal() + 1j * rng.standard_normal())
            d1 = chordal_distance(a, b)
            d2 = chordal_distance(s * a, b)
            assert abs(d1 - d2) < 1e-12

    def test_takes_a_curve_point(self):
        a = CurvePoint(normalize_point([1.0, 0.3 - 0.2j, -0.7j]), 0.0)
        b = np.array([0.2j, 1.0, 0.5])
        assert chordal_distance(a, b) == chordal_distance(a.array, b)

    def test_symmetry_and_range(self, rng):
        for _ in range(20):
            a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            d = chordal_distance(a, b)
            assert 0.0 <= d <= 1.0
            assert abs(d - chordal_distance(b, a)) < 1e-14


class TestSolveUnivariate:
    def test_simple_quadratic(self, tol):
        roots = solve_univariate(UniPoly([-1.0, 0.0, 1.0]), tol)
        vals = sorted(r.real for r, _ in roots)
        assert np.allclose(vals, [-1.0, 1.0])
        assert all(m == 1 for _, m in roots)

    def test_double_root_clusters(self, tol):
        p = UniPoly.from_roots([2.0, 2.0])
        roots = solve_univariate(p, tol)
        assert len(roots) == 1
        r, m = roots[0]
        assert m == 2
        assert abs(r - 2.0) < 1e-7

    def test_triple_root_stays_within_float_cluster(self, tol):
        # a triple root scatters like eps^(1/3) under the companion solve,
        # wider than tau_cluster, so it surfaces as near-coincident roots
        p = UniPoly.from_roots([0.5j, 0.5j, 0.5j, -1.0])
        roots = solve_univariate(p, tol)
        assert sum(m for _, m in roots) == 4
        near = [r for r, _ in roots if abs(r - 0.5j) < 1e-4]
        far = [r for r, _ in roots if abs(r + 1.0) < 1e-9]
        assert len(far) == 1 and len(near) + len(far) == len(roots)

    def test_random_simple_roots_recovered(self, rng, tol):
        for _ in range(10):
            true = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            p = UniPoly.from_roots(true, lead=1.5 - 0.5j)
            found = solve_univariate(p, tol)
            assert sum(m for _, m in found) == 6
            for r, _ in found:
                assert min(abs(r - t) for t in true) < 1e-8

    def test_constant_is_rejected(self, tol):
        with pytest.raises(InputError):
            solve_univariate(UniPoly([3.0]), tol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "coeffs", [[1e10, 1.0, 1e-300], [1.0, 0.0, 1e-320], [1e300, 1e300, 1e-10]]
    )
    def test_overflowing_companion_is_a_numerical_error(self, coeffs, tol):
        # the companion row -c[1:] / lead overflows; numpy's LinAlgError and
        # overflow warnings must not escape
        with pytest.raises(NumericalError, match="companion"):
            solve_univariate(UniPoly(coeffs), tol)

    def test_overflowing_derivative_is_an_input_error(self, tol):
        # 2 * 1e308 overflows in the derivative the polish needs
        with pytest.raises(InputError, match="non-finite"):
            solve_univariate(UniPoly([1.0, 1.0, 1e308]), tol)


class TestResultant:
    def test_frozen_linear_pair(self):
        # res(x, x - 1) with the q-rows-on-top layout
        p = UniPoly([0.0, 1.0])
        q = UniPoly([-1.0, 1.0])
        assert abs(resultant(p, q) - 1.0) < 1e-14

    def test_vanishes_iff_common_root(self, rng):
        shared = 0.7 - 0.3j
        p = UniPoly.from_roots([shared, 1.0])
        q = UniPoly.from_roots([shared, -2.0, 0.5j])
        assert abs(resultant(p, q)) < 1e-12
        q2 = UniPoly.from_roots([-2.0, 0.5j])
        assert abs(resultant(p, q2)) > 1e-6

    def test_product_over_root_pairs(self):
        # res(p, q) = lead(p)^deg q * lead(q)^deg p * prod (ri - sj)
        p = UniPoly.from_roots([1.0, 2.0], lead=3.0)
        q = UniPoly.from_roots([4.0], lead=5.0)
        want = 3.0**1 * 5.0**2 * (1.0 - 4.0) * (2.0 - 4.0)
        got = resultant(p, q)
        assert abs(got - want) / abs(want) < 1e-12
