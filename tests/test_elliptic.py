from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from cubicpoints import (
    DEFAULT_TOLERANCES,
    CubicForm,
    CurvePoint,
    InputError,
    NumericalError,
    PointSet,
    ProjectiveTransform,
    chordal_distance,
    constructible_sizes,
    hesse_cubic,
    inflection_points,
    jordan_totient_2,
    make_chart,
    points_of_type,
    random_points_on_curve,
    random_smooth_cubic,
    size_witness,
    third_intersection,
    torsion_points,
    translation_certificate,
    fermat_translations,
    hesse_normalize,
)
from cubicpoints import curve, elliptic
from cubicpoints.numeric import chordal_matrix
from cubicpoints.serialize import path_from_obj

from test_chord_rows import random_charts

from oracles import (
    branch_quartic_j,
    division_polys,
    hesse_j,
    jordan_j2_bruteforce,
    subset_sums_upto,
    weierstrass_add,
    weierstrass_on_curve,
    weierstrass_polish,
)


def _affine(chart, p):
    """Chart point -> affine Weierstrass (x, y), None at infinity."""
    X, Y, Z = chart.to_weierstrass(p).coords
    if abs(Z) < 1e-10 * max(abs(X), abs(Y), 1e-300):
        return None
    return (X / Z, Y / Z)


class TestJordanTotient:
    def test_matches_bruteforce(self):
        for k in range(1, 41):
            assert jordan_totient_2(k) == jordan_j2_bruteforce(k)

    def test_frozen_initial_values(self):
        assert [jordan_totient_2(k) for k in range(1, 9)] == [1, 3, 8, 12, 24, 24, 48, 48]

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            jordan_totient_2(0)
        with pytest.raises(InputError):
            jordan_totient_2(-3)


class TestConstructibleSizes:
    FROZEN_180 = [9, 27, 36, 72, 81, 99, 108, 117, 135, 144, 180]

    def test_frozen_list(self):
        assert constructible_sizes(180) == self.FROZEN_180

    def test_eighteen_is_absent(self):
        assert 18 not in constructible_sizes(200)

    def test_matches_subset_sum_oracle(self):
        bound = 198
        m = bound // 9
        values = []
        k = 1
        while jordan_j2_bruteforce(k) <= m:
            values.append(jordan_j2_bruteforce(k))
            k += 1
        want = sorted(9 * s for s in subset_sums_upto(values, m))
        assert constructible_sizes(bound) == want

    def test_small_bounds(self):
        assert constructible_sizes(8) == []
        assert constructible_sizes(9) == [9]
        with pytest.raises(InputError):
            constructible_sizes(0)


class TestSizeWitness:
    def test_frozen_witnesses(self):
        assert size_witness(9) == [1]
        assert size_witness(36) == [1, 2]
        assert size_witness(108) == [1, 2, 3]
        assert size_witness(18) is None
        assert size_witness(45) is None
        assert size_witness(22) is None

    def test_witness_is_lex_smallest(self):
        # independent brute force over subsets of small orders
        orders = list(range(1, 9))
        for n in range(9, 181, 9):
            best = None
            for r in range(1, len(orders) + 1):
                for combo in itertools.combinations(orders, r):
                    if 9 * sum(jordan_j2_bruteforce(k) for k in combo) == n:
                        if best is None or list(combo) < best:
                            best = list(combo)
            assert size_witness(n) == best

    def test_witness_sums_correctly(self):
        for n in constructible_sizes(300):
            w = size_witness(n)
            assert w is not None
            assert len(set(w)) == len(w)
            assert 9 * sum(jordan_totient_2(k) for k in w) == n


class TestThirdIntersection:
    def test_chord_of_two_flexes(self, fermat, fermat_flexes):
        P, Q = fermat_flexes[0], fermat_flexes[1]
        R = third_intersection(fermat, P, Q)
        assert R.residual <= 1e-8
        det = np.linalg.det(np.stack([P.array, Q.array, R.array]))
        assert abs(det) < 1e-8

    def test_tangent_at_flex_returns_the_flex(self, fermat, fermat_flexes):
        P = fermat_flexes[0]
        R = third_intersection(fermat, P, P)
        assert chordal_distance(R.array, P.array) < 1e-8

    def test_tangent_at_generic_point(self, fermat, rng):
        (P,) = random_points_on_curve(fermat, 1, rng)
        R = third_intersection(fermat, P, P)
        assert R.residual <= 1e-8
        # R lies on the tangent line grad(P).X = 0
        g = fermat.gradient(P.array)
        val = abs(np.dot(g, R.array)) / (np.linalg.norm(g) * np.linalg.norm(R.array))
        assert val < 1e-6


class TestChart:
    def test_fermat_chart_frozen_invariants(self, fermat_chart):
        assert abs(fermat_chart.a) < 1e-12
        assert abs(fermat_chart.b + 1.0) < 1e-12
        assert abs(fermat_chart.j_invariant()) < 1e-12

    @pytest.mark.parametrize("noise", [1e-16, -2e-17 + 1e-16j, -1e-16j])
    def test_roundoff_in_the_identity_keeps_the_model(self, fermat, noise):
        """(0:1:-1) with roundoff in its zero coordinate, as a flex search may return it."""
        clean = make_chart(fermat, np.array([0.0, 1.0, -1.0]))
        chart = make_chart(fermat, np.array([noise, 1.0, -1.0]))
        assert abs(chart.a - clean.a) < 1e-12
        assert abs(chart.b - clean.b) < 1e-12

    def test_isotropic_tangent_at_the_identity(self, fermat):
        """A flex whose tangent n has n . n = 0 still gets a chart.

        Kept as a regression test: a chart built from a frame of the tangent
        line degenerates at such a flex.
        """
        B = np.array([[0.0, 0.0, 1.0], [0.5, 0.0, 0.0], [0.5, 1j, 0.0]])
        g = fermat.compose_linear(B)
        identity = np.linalg.solve(B, [0.0, 1.0, -1.0])
        n = g.gradient(identity)
        assert abs(n @ n) < 1e-15 * np.linalg.norm(n) ** 2
        chart = make_chart(g, identity)
        assert abs(chart.j_invariant()) < 1e-12
        assert chordal_distance(chart.to_weierstrass(identity).array, [0.0, 1.0, 0.0]) < 1e-12

    def test_a_vanishing_discriminant_has_no_j_invariant(self, fermat_chart):
        c = fermat_chart
        chart = elliptic.EllipticChart(c.curve, c.identity, 0.0, 0.0, c.to_w, c.tol)
        with pytest.raises(NumericalError, match="vanishing discriminant"):
            chart.j_invariant()

    def test_identity_maps_to_infinity(self, fermat_chart):
        W = fermat_chart.to_weierstrass(fermat_chart.identity)
        d = chordal_distance(W.array, np.array([0.0, 1.0, 0.0]))
        assert d < 1e-8

    def test_weierstrass_form_vanishes_on_mapped_points(self, fermat, fermat_chart, rng):
        wf = fermat_chart.weierstrass_form()
        for p in random_points_on_curve(fermat, 5, rng):
            assert wf.residual_at(fermat_chart.to_weierstrass(p)) < 1e-8

    def test_round_trip(self, fermat, fermat_chart, rng):
        for p in random_points_on_curve(fermat, 5, rng):
            back = fermat_chart.from_weierstrass(fermat_chart.to_weierstrass(p))
            assert chordal_distance(back.array, p.array) < 1e-9

    def test_a_certified_flex_costs_one_evaluation(self, rng, monkeypatch):
        # the on-curve gate's evaluation is _settle's first, and _settle stops
        # there on a flex already at the rounding floor
        calls = []
        real = curve._forms_at

        def counting(*args):
            calls.append(1)
            return real(*args)

        for f in [hesse_cubic(0.5)] + [random_smooth_cubic(rng) for _ in range(3)]:
            flexes = inflection_points(f)
            monkeypatch.setattr(curve, "_forms_at", counting)
            monkeypatch.setattr(elliptic, "_forms_at", counting)
            calls.clear()
            make_chart(f, flexes[0].point)
            monkeypatch.undo()
            assert len(calls) == 1

    def test_the_flex_hesse_chart_chain_calls_lapack_three_times(self, rng, monkeypatch):
        # one SVD for the smoothness gate and one companion-matrix eigvals per
        # root solve (the pencil's quartic and one cut's cubic); the 3x3
        # frames, their inverses and the two fits are closed forms
        names = ("svd", "eigvals", "det", "inv", "solve", "pinv", "lstsq")
        calls = dict.fromkeys(names, 0)

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        # new objects, which the last-curve caches do not hold
        cubics = [CubicForm(random_smooth_cubic(rng).coeffs) for _ in range(4)]
        for name in names:
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
        for f in cubics:
            calls.update(dict.fromkeys(names, 0))
            make_chart(f, inflection_points(f)[0].point)
            hesse_normalize(f)
            assert calls == {**dict.fromkeys(names, 0), "svd": 1, "eigvals": 2}

    def test_non_inflection_identity_rejected(self, fermat, rng):
        (P,) = random_points_on_curve(fermat, 1, rng)
        with pytest.raises(InputError):
            make_chart(fermat, P.point)


def _pencil_lams() -> list[complex]:
    rng = np.random.default_rng(3)
    return [2.0 * complex(*rng.normal(size=2)) for _ in range(20)]


class TestHesseWeierstrass:
    """The closed-form Weierstrass model of the Hesse pencil member lam."""

    @pytest.mark.parametrize("lam", _pencil_lams())
    def test_the_model_is_the_pencil_member(self, lam):
        W, a, b = elliptic._hesse_weierstrass(lam)
        model = CubicForm.from_coeffs({(0, 2, 1): 1.0, (3, 0, 0): -1.0, (1, 0, 2): -a, (0, 0, 3): -b})
        pushed = hesse_cubic(lam).compose_linear(np.linalg.inv(W))
        assert pushed.proportionality_residual(model) <= 1e-13
        assert chordal_distance(W @ np.array([1.0, -1.0, 0.0]), [0.0, 1.0, 0.0]) <= 1e-13

    @pytest.mark.parametrize("lam", _pencil_lams())
    def test_the_chart_j_is_the_pencil_j(self, lam):
        f = hesse_cubic(lam)
        j = make_chart(f, inflection_points(f).sorted_canonical()[0].point).j_invariant()
        want = hesse_j(lam)
        assert abs(j - want) <= 1e-12 * max(abs(want), 1.0)


def _chart_j(f: CubicForm) -> complex:
    return make_chart(f, inflection_points(f)[0].point).j_invariant()


def _gap(j: complex, want: complex) -> float:
    """|j - want| relative to max(|want|, 1), so that j near 0 is held absolutely."""
    return abs(j - want) / max(abs(want), 1.0)


class TestBranchQuarticOracle:
    """The chart's j against oracles.branch_quartic_j, which shares no code with the flexes, the Hesse frame or the chart.

    The oracle runs at 30 digits, so the bound is the chart's own error:
    at most 9.3e-15 over the random curves and 8.1e-14 over the frames
    when the bound was set.
    """

    BOUND = 1e-12

    def test_random_cubics(self):
        rng, draws = np.random.default_rng(0), np.random.default_rng(1)
        gaps = []
        for _ in range(200):
            f = random_smooth_cubic(rng)
            gaps.append(_gap(_chart_j(f), branch_quartic_j(f.coeffs, draws)))
        assert max(gaps) <= self.BOUND

    def test_hesse_members_in_random_unitary_frames(self):
        # the oracle meets the closed form j(lam) too; lam keeps |lam^3 + 27| >= 1, off the singular members
        rng, draws = np.random.default_rng(2), np.random.default_rng(3)
        checked = 0
        while checked < 50:
            lam = 2.0 * complex(*rng.normal(size=2))
            U = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            if abs(lam**3 + 27.0) < 1.0:
                continue
            f = hesse_cubic(lam).compose_linear(U)
            want = branch_quartic_j(f.coeffs, draws)
            assert _gap(hesse_j(lam), want) <= self.BOUND
            assert _gap(_chart_j(f), want) <= self.BOUND
            checked += 1


class TestGroupLaw:
    def test_identity_and_inverse(self, fermat, fermat_chart, rng):
        O = fermat_chart.identity
        for p in random_points_on_curve(fermat, 5, rng):
            s = fermat_chart.add(p, O)
            assert chordal_distance(s.array, p.array) < 1e-9
            z = fermat_chart.add(p, fermat_chart.negate(p))
            assert chordal_distance(z.array, O.array) < 1e-9

    def test_commutative(self, fermat, fermat_chart, rng):
        pts = random_points_on_curve(fermat, 6, rng)
        for p, q in zip(pts[:3], pts[3:]):
            pq = fermat_chart.add(p, q)
            qp = fermat_chart.add(q, p)
            assert chordal_distance(pq.array, qp.array) < 1e-9

    def test_associative(self, fermat, fermat_chart, rng):
        pts = random_points_on_curve(fermat, 9, rng)
        for i in range(3):
            p, q, r = pts[3 * i : 3 * i + 3]
            lhs = fermat_chart.add(fermat_chart.add(p, q), r)
            rhs = fermat_chart.add(p, fermat_chart.add(q, r))
            assert chordal_distance(lhs.array, rhs.array) < 1e-9

    def test_flexes_are_three_torsion(self, fermat_chart, fermat_flexes):
        O = fermat_chart.identity
        for cp in fermat_flexes:
            t = fermat_chart.multiply(3, cp)
            assert chordal_distance(t.array, O.array) < 1e-8

    def test_multiply_consistency(self, fermat, fermat_chart, rng):
        (p,) = random_points_on_curve(fermat, 1, rng)
        double = fermat_chart.add(p, p)
        assert chordal_distance(fermat_chart.multiply(2, p).array, double.array) < 1e-9
        neg = fermat_chart.negate(double)
        assert chordal_distance(fermat_chart.multiply(-2, p).array, neg.array) < 1e-9
        O = fermat_chart.multiply(0, p)
        assert chordal_distance(O.array, fermat_chart.identity.array) < 1e-9
        with pytest.raises(InputError):
            fermat_chart.multiply(1.5, p)

    def test_agrees_with_affine_oracle(self, fermat, fermat_chart, rng):
        A, B = fermat_chart.a, fermat_chart.b
        pts = random_points_on_curve(fermat, 10, rng)
        for p, q in zip(pts[:5], pts[5:]):
            pa = weierstrass_polish(A, B, _affine(fermat_chart, p))
            qa = weierstrass_polish(A, B, _affine(fermat_chart, q))
            assert weierstrass_on_curve(A, B, pa) < 1e-8
            assert weierstrass_on_curve(A, B, qa) < 1e-8
            want = weierstrass_add(A, B, pa, qa)
            got = _affine(fermat_chart, fermat_chart.add(p, q))
            assert (want is None) == (got is None)
            if want is not None:
                scale = max(abs(want[0]), abs(want[1]), 1.0)
                err = max(abs(want[0] - got[0]), abs(want[1] - got[1]))
                assert err < 1e-6 * scale


class TestTorsion:
    def test_counts_on_fermat(self, fermat_chart):
        for m in (1, 2, 3, 4):
            assert len(torsion_points(fermat_chart, m)) == m * m

    def test_three_torsion_is_the_flex_set(self, fermat_chart, fermat_flexes):
        t3 = torsion_points(fermat_chart, 3)
        assert PointSet(list(fermat_flexes.points), 1e-6).setwise_equal(t3)

    def test_recertified_by_group_law(self, fermat_chart):
        O = fermat_chart.identity
        for m in (2, 3):
            for p in torsion_points(fermat_chart, m):
                k = fermat_chart.multiply(m, p)
                assert chordal_distance(k.array, O.array) < 1e-6

    def test_order_validation(self, fermat_chart):
        with pytest.raises(InputError):
            torsion_points(fermat_chart, 0)
        with pytest.raises(InputError):
            torsion_points(fermat_chart, 13)

    def test_order_limit_comes_before_any_label(self, fermat_chart):
        """A huge order is refused at once, before m^2 labels are built."""
        with pytest.raises(InputError):
            torsion_points(fermat_chart, 10**6)
        with pytest.raises(InputError):
            points_of_type(fermat_chart, 10**5)


class TestPointsOfType:
    def test_type_one_is_the_flex_set(self, fermat_chart, fermat_flexes):
        t1 = points_of_type(fermat_chart, 1)
        assert t1.setwise_equal(PointSet(list(fermat_flexes.points), 1e-6))

    def test_frozen_counts(self, fermat_chart):
        assert len(points_of_type(fermat_chart, 1)) == 9
        assert len(points_of_type(fermat_chart, 2)) == 27

    def test_layers_partition_the_torsion(self, fermat_chart):
        t1 = points_of_type(fermat_chart, 1)
        t2 = points_of_type(fermat_chart, 2)
        # disjoint layers
        for p in t2:
            assert t1.index_of(p.point) is None
        # their union is the full 6-torsion
        t6 = torsion_points(fermat_chart, 6)
        union = PointSet(list(t1.points) + list(t2.points), 1e-6)
        assert union.setwise_equal(t6)

    def test_independent_of_identity_choice(self, fermat, fermat_flexes, fermat_chart):
        other = make_chart(fermat, fermat_flexes[4].point)
        a = points_of_type(fermat_chart, 2)
        b = points_of_type(other, 2)
        assert a.setwise_equal(b)

    def test_rejects_bad_index(self, fermat_chart):
        with pytest.raises(InputError):
            points_of_type(fermat_chart, 0)


class TestPeriodLattice:
    def test_lattice_x_are_roots_of_the_division_polynomials(self, fermat_chart):
        """Every P != O with 2P != O has a chart x that the frozen f[m] of tests/oracles.py kills."""
        for chart in [fermat_chart, *random_charts(2, 11)]:
            for m in (3, 4, 5, 6):
                f = division_polys(m, chart.a, chart.b)[m]
                checked = 0
                for cp in torsion_points(chart, m, certify=False):
                    X, Y, Z = chart.to_weierstrass(cp).coords
                    if abs(Z) <= 1e-9 * abs(Y) or abs(Y) <= 1e-9 * abs(Z):
                        continue
                    x = X / Z
                    # the residual bound solve_univariate holds its roots to
                    scale = np.abs(f.coeffs).max() * max(1.0, abs(x)) ** f.degree
                    assert abs(f(x)) <= DEFAULT_TOLERANCES.tau_root * scale
                    checked += 1
                assert checked == m * m - (4 if m % 2 == 0 else 1)

    def test_labels_add_as_the_points_do(self):
        """At m = 9, row(L1) + row(L2) is row(L1 + L2) under the slope formulas."""
        m = 9
        labels = elliptic._labels(m)
        index = {(i % m, j % m): n for n, (i, j) in enumerate(labels)}
        rng = np.random.default_rng(9)
        for chart in random_charts(3, 12):
            rows = elliptic._lattice_rows(chart, m, labels)

            def affine(r):
                return None if r[2] == 0 else weierstrass_polish(chart.a, chart.b, (r[0], r[1]))

            for p, q in rng.integers(len(labels), size=(30, 2)):
                (i1, j1), (i2, j2) = labels[p], labels[q]
                s = weierstrass_add(chart.a, chart.b, affine(rows[p]), affine(rows[q]))
                got = [0.0, 1.0, 0.0] if s is None else [s[0], s[1], 1.0]
                want = rows[index[(i1 + i2) % m, (j1 + j2) % m]]
                assert chordal_distance(got, want) <= 1e-9

    def test_certified_layers_on_forty_random_cubics(self):
        for chart in random_charts(40, 2026):
            assert len(torsion_points(chart, 12)) == 144
            assert len(points_of_type(chart, 3)) == 72

    def test_uncertified_twelve_torsion_is_killed_by_twelve(self):
        """Curves 13 to 16 of rng 6, on which solving division polynomials returned wrong points."""
        for chart in list(random_charts(17, 6))[13:]:
            back = chart._multiply_rows(12, torsion_points(chart, 12, certify=False).arrays)[0]
            assert (chordal_matrix(chart.identity, back) <= DEFAULT_TOLERANCES.tau_match).all()

    def test_type_nine_on_the_golden_hesse_loop(self):
        golden = Path(__file__).resolve().parent / "golden" / "hesse_loop.json"
        path = path_from_obj(json.loads(golden.read_text(encoding="utf-8")))
        for t in np.linspace(0.0, 1.0, 201)[::4]:
            f = path.at(float(t))
            chart = make_chart(f, inflection_points(f).sorted_canonical()[0].point)
            assert len(points_of_type(chart, 3)) == 72

    def test_repeated_root(self, fermat_chart, monkeypatch):
        monkeypatch.setattr(elliptic, "solve_univariate", lambda p, tol: [(1.0 + 0j, 2), (-2.0 + 0j, 1)])
        with pytest.raises(NumericalError, match="repeated root"):
            torsion_points(fermat_chart, 2)

    def test_g2_g3_check(self, fermat_chart, monkeypatch):
        real = elliptic._agm
        monkeypatch.setattr(elliptic, "_agm", lambda a, b: real(a, b) * (1.0 + 1e-6))
        with pytest.raises(NumericalError, match="g2, g3 check"):
            torsion_points(fermat_chart, 3)

    def test_points_that_coincide(self, fermat_chart, monkeypatch):
        real = elliptic._polish_rows
        monkeypatch.setattr(elliptic, "_polish_rows", lambda f, X: real(f, X)[:1] * 2 + real(f, X)[2:])
        with pytest.raises(NumericalError, match="not distinct"):
            torsion_points(fermat_chart, 3)

    def test_point_that_does_not_settle(self, fermat_chart, monkeypatch):
        real = elliptic._polish_rows

        def unsettled(f, X):
            out = real(f, X)
            return out[:-1] + [CurvePoint(out[-1].point, 1.0)]

        monkeypatch.setattr(elliptic, "_polish_rows", unsettled)
        with pytest.raises(NumericalError, match="failed to settle"):
            points_of_type(fermat_chart, 2)


# every path that takes a point from the caller, with the bad point in one argument
_POINT_PATHS = {
    "third_intersection": lambda c, bad: third_intersection(c.curve, c.identity, bad),
    "to_weierstrass": lambda c, bad: c.to_weierstrass(bad),
    "from_weierstrass": lambda c, bad: c.from_weierstrass(bad),
    "add": lambda c, bad: c.add(bad, c.identity),
    "multiply": lambda c, bad: c.multiply(2, bad),
    "make_chart": lambda c, bad: make_chart(c.curve, bad),
    "translation_certificate": lambda c, bad: translation_certificate(c, fermat_translations()[0], [bad]),
}


@pytest.mark.parametrize("path", _POINT_PATHS)
def test_a_non_finite_coordinate_is_bad_input_on_every_point_path(fermat_chart, path):
    with pytest.raises(InputError, match="non-finite coordinate"):
        _POINT_PATHS[path](fermat_chart, np.array([np.nan, 1.0, 0.0]))


@pytest.mark.parametrize("side", ["to_weierstrass", "from_weierstrass"])
def test_an_infinite_coordinate_is_rejected_before_the_transform_warns(fermat_chart, side):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="non-finite coordinate"):
            getattr(fermat_chart, side)([np.inf, 1.0, 0.0])


class TestTranslationCertificate:
    def test_translations_have_constant_difference(self, fermat, fermat_chart, rng):
        a, b = fermat_translations()
        pts = random_points_on_curve(fermat, 8, rng)
        assert translation_certificate(fermat_chart, a, pts) < 1e-9
        assert translation_certificate(fermat_chart, b, pts) < 1e-9

    def test_non_translation_is_detected(self, fermat, fermat_chart, rng):
        w = np.exp(2j * np.pi / 3)
        T = ProjectiveTransform(np.diag([1.0, 1.0, w]))
        pts = random_points_on_curve(fermat, 8, rng)
        assert translation_certificate(fermat_chart, T, pts) > 0.01

    def test_needs_samples(self, fermat_chart):
        a, _ = fermat_translations()
        with pytest.raises(InputError):
            translation_certificate(fermat_chart, a, [])


class TestRandomCurveChart:
    def test_group_law_on_random_curve(self, rng):
        f = random_smooth_cubic(rng)
        flexes = inflection_points(f)
        chart = make_chart(f, flexes.sorted_canonical()[0].point)
        O = chart.identity
        pts = random_points_on_curve(f, 6, rng)
        for p in pts[:2]:
            s = chart.add(p, chart.negate(p))
            assert chordal_distance(s.array, O.array) < 1e-8
        p, q, r = pts[:3]
        lhs = chart.add(chart.add(p, q), r)
        rhs = chart.add(p, chart.add(q, r))
        assert chordal_distance(lhs.array, rhs.array) < 1e-8
        assert len(torsion_points(chart, 2)) == 4
