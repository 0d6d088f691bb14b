"""The batched chord law against the scalar ladder it replaced and the slope formulas.

frozen_third, frozen_multiply and frozen_certify are a frozen copy of the
one-point-at-a-time chord law that elliptic.third_intersection and
EllipticChart.multiply ran before the law worked on stacks of rows: an SVD
tangent direction, one scalar polish per input and output, and a
double-and-add loop per torsion candidate. frozen_polish is that scalar
polish, the body polish_onto_curve had before it became the one-row case of
the batched polish. They are kept here only to compare verdicts with
certified torsion_points and polished points with polish_onto_curve.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from cubicpoints import (
    DEFAULT_TOLERANCES,
    InputError,
    NumericalError,
    chordal_distance,
    inflection_points,
    make_chart,
    random_points_on_curve,
    random_smooth_cubic,
    third_intersection,
    torsion_points,
)
from cubicpoints import curve, elliptic
from cubicpoints.curve import CubicForm, CurvePoint, polish_onto_curve
from cubicpoints.elliptic import _third_rows
from cubicpoints.numeric import normalize_point

from oracles import weierstrass_add, weierstrass_polish


def frozen_polish(f, coords):
    v = np.asarray(coords.array if hasattr(coords, "array") else coords, dtype=complex)
    v = v / np.abs(v).max()
    for _ in range(4):
        val = f.evaluate(v)
        grad = f.gradient(v)
        d = np.conj(grad)
        denom = grad @ d
        if denom == 0:
            break
        v = v - (val / denom) * d
    P = normalize_point(v)
    return CurvePoint(P, f.residual_at(P))


def frozen_on_curve(f, v, tol):
    P = normalize_point(v)
    if f.residual_at(P) > 1e-3:
        raise InputError("point is not on the curve")
    cp = frozen_polish(f, P.array)
    if cp.residual > tol.tau_on_curve:
        raise NumericalError("could not polish the point onto the curve")
    return cp


def frozen_tangent_direction(f, P):
    g = f.gradient(P)
    gn = float(np.linalg.norm(g))
    if gn == 0.0:
        raise NumericalError("vanishing gradient: the curve is singular here")
    _, _, vh = np.linalg.svd(g.reshape(1, 3) / gn)
    best = None
    best_norm = -1.0
    pp = float(np.vdot(P, P).real)
    for row in vh[1:]:
        v = np.conj(row)
        v = v - (np.vdot(P, v) / pp) * P
        n = float(np.linalg.norm(v))
        if n > best_norm:
            best, best_norm = v, n
    if best_norm <= 1e-8:
        raise NumericalError("tangent direction collapsed onto the point")
    return best / best_norm


def frozen_third(f, p, q, tol):
    cp = frozen_on_curve(f, np.asarray(p.array if hasattr(p, "array") else p, dtype=complex), tol)
    cq = frozen_on_curve(f, np.asarray(q.array if hasattr(q, "array") else q, dtype=complex), tol)
    P = cp.array
    Q = cq.array
    d = chordal_distance(cp.point, cq.point)
    if d <= tol.tau_match:
        T = frozen_tangent_direction(f, P)
        c0 = f.evaluate(T)
        c1 = complex(f.gradient(T) @ P)
        R = c0 * P - c1 * T
        scale = max(abs(c0), abs(c1)) * max(np.abs(P).max(), np.abs(T).max())
    elif d <= 10.0 * tol.tau_match:
        raise NumericalError("chord through nearly coincident points is ill conditioned")
    else:
        g1 = complex(f.gradient(P) @ Q)
        g2 = complex(f.gradient(Q) @ P)
        R = g2 * P - g1 * Q
        scale = max(abs(g1), abs(g2)) * max(np.abs(P).max(), np.abs(Q).max())
    if float(np.abs(R).max()) <= 1e-10 * max(scale, 1e-300):
        raise NumericalError("third intersection is numerically indeterminate")
    out = frozen_polish(f, R)
    if out.residual > tol.tau_on_curve:
        raise NumericalError("third intersection failed to settle on the curve")
    return out


def frozen_multiply(chart, m, p):
    f, O, tol = chart.curve, chart.identity, chart.tol

    def add(a, b):
        return frozen_third(f, O, frozen_third(f, a, b, tol), tol)

    result = None
    addend = frozen_on_curve(f, p.array, tol)
    while m:
        if m & 1:
            result = addend if result is None else add(result, addend)
        m >>= 1
        if m:
            addend = add(addend, addend)
    return result


def frozen_certify(chart, m):
    """Uncertified torsion_points, then the scalar certification loop."""
    points = torsion_points(chart, m, certify=False)
    for cp in points:
        back = frozen_multiply(chart, m, cp)
        if chordal_distance(back.point, chart.identity) > chart.tol.tau_match:
            raise NumericalError("a candidate torsion point failed the group-law check")
    return points


def _verdict(run):
    try:
        run()
    except NumericalError as exc:
        return type(exc).__name__
    return "pass"


def _weierstrass_multiple(chart, m, p):
    """m p by repeated slope-formula additions on the chart's model (None is O)."""
    X, Y, Z = chart.to_weierstrass(p).coords
    A, B = chart.a, chart.b
    at_infinity = abs(Z) < 1e-10 * max(abs(X), abs(Y))
    base = None if at_infinity else weierstrass_polish(A, B, (X / Z, Y / Z))
    out = None
    for _ in range(m):
        out = weierstrass_add(A, B, out, base)
    return np.array([0.0, 1.0, 0.0]) if out is None else np.array([out[0], out[1], 1.0])


def random_charts(count, seed):
    """Charts of the first count random_smooth_cubic curves of the seed, each at its first canonical flex."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        f = random_smooth_cubic(rng)
        yield make_chart(f, inflection_points(f).sorted_canonical()[0].point)


@pytest.mark.parametrize("m", [3, 6, 9])
def test_batched_ladder_matches_slope_formulas_and_the_scalar_verdict(m):
    """Ten random cubics (rng 5): the batched m P of every candidate is the
    slope formulas' m P within 1e-9 in the chart, and certified torsion
    passes or raises exactly when the frozen scalar ladder does."""
    verdicts = []
    for chart in random_charts(10, 5):
        want = _verdict(lambda: frozen_certify(chart, m))
        got = _verdict(lambda: torsion_points(chart, m))
        verdicts.append((want, got))
        candidates = torsion_points(chart, m, certify=False)
        try:
            back = chart._multiply_rows(m, candidates.arrays)[0]
        except NumericalError:
            assert got != "pass"
            continue
        for cp, row in zip(candidates, back):
            oracle = _weierstrass_multiple(chart, m, cp)
            assert chordal_distance(chart.to_weierstrass(row).array, oracle) <= 1e-9
    assert all(want == got for want, got in verdicts), verdicts


def test_batched_multiples_match_the_slope_formulas_at_every_step():
    """k P for k = 1..9 on the 9-torsion candidates of one cubic, against the oracle."""
    (chart,) = random_charts(1, 5)
    candidates = torsion_points(chart, 9, certify=False)
    for k in range(1, 10):
        back = chart._multiply_rows(k, candidates.arrays)[0]
        for cp, row in zip(candidates, back):
            oracle = _weierstrass_multiple(chart, k, cp)
            assert chordal_distance(chart.to_weierstrass(row).array, oracle) <= 1e-9


class TestErrorChannels:
    def test_point_off_the_curve(self, fermat):
        with pytest.raises(InputError, match="point is not on the curve"):
            third_intersection(fermat, [1.0, 0.0, 0.0], [0.0, 1.0, -1.0])

    def test_zero_vector(self, fermat):
        with pytest.raises(InputError, match="zero vector"):
            third_intersection(fermat, [0.0, 0.0, 0.0], [0.0, 1.0, -1.0])

    def test_one_row_off_the_curve_fails_the_stack(self, fermat, rng):
        pts = np.stack([cp.array for cp in random_points_on_curve(fermat, 4, rng)])
        pts[2] = [1.0, 0.0, 0.0]
        with pytest.raises(InputError, match="point is not on the curve"):
            _third_rows(fermat, pts, pts[::-1], DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("factor", [2.0, 5.0, 9.0])
    def test_nearly_coincident_chord_is_ill_conditioned(self, fermat, rng, factor):
        tol = DEFAULT_TOLERANCES
        (P,) = random_points_on_curve(fermat, 1, rng)
        # step along the tangent and polish back: a curve point factor * tau_match away
        g = fermat.gradient(P.array)
        t = np.cross(g, np.conj(P.array))
        t /= np.linalg.norm(t)
        Q = polish_onto_curve(fermat, P.array + factor * tol.tau_match * np.linalg.norm(P.array) * t)
        d = chordal_distance(P.point, Q.point)
        assert tol.tau_match < d <= 10.0 * tol.tau_match
        with pytest.raises(NumericalError, match="ill conditioned"):
            third_intersection(fermat, P, Q)

    def test_input_that_cannot_reach_tau_on_curve(self, rng):
        f = random_smooth_cubic(rng)
        P, Q = random_points_on_curve(f, 2, rng)
        with pytest.raises(NumericalError, match="could not polish the point onto the curve"):
            third_intersection(f, P, Q, DEFAULT_TOLERANCES.with_(tau_on_curve=1e-300))

    def test_chord_along_a_line_component_is_indeterminate(self):
        # z (x^2 + y^2 + z^2) contains the line z = 0: the chord meets the curve everywhere
        f = CubicForm.from_coeffs({(2, 0, 1): 1.0, (0, 2, 1): 1.0, (0, 0, 3): 1.0})
        with pytest.raises(NumericalError, match="third intersection is numerically indeterminate"):
            third_intersection(f, [1.0, 0.3, 0.0], [0.2, 1.0, 0.0])

    def test_output_row_that_does_not_settle(self, fermat, rng, monkeypatch):
        P, Q = random_points_on_curve(fermat, 2, rng)
        real = elliptic._settle

        def spoil_outputs(T, X, first=None):
            # only _third_rows settles its output rows itself; inputs settle in _on_curve_rows
            X, V, G = real(T, X, first)
            if sys._getframe(1).f_code.co_name == "_third_rows":
                V = V + 1.0
            return X, V, G

        monkeypatch.setattr(elliptic, "_settle", spoil_outputs)
        with pytest.raises(NumericalError, match="third intersection failed to settle on the curve"):
            third_intersection(fermat, P, Q)

    def test_planted_non_torsion_point_fails_the_group_law_check(self, fermat_chart, rng):
        points = torsion_points(fermat_chart, 3, certify=False)
        stack = points.arrays.copy()
        (stray,) = random_points_on_curve(fermat_chart.curve, 1, rng)
        stack[4] = stray.array
        back = fermat_chart._multiply_rows(3, stack)[0]
        O = fermat_chart.identity
        far = [chordal_distance(row, O) > DEFAULT_TOLERANCES.tau_match for row in back]
        assert far == [i == 4 for i in range(9)]

    def test_torsion_points_raises_the_group_law_check(self, fermat_chart, rng, monkeypatch):
        from cubicpoints import elliptic

        (stray,) = random_points_on_curve(fermat_chart.curve, 1, rng)
        real = elliptic._polish_rows

        def plant(f, X):
            # the stray is on the curve and apart from the rest, so only the ladder catches it
            return real(f, X)[:-1] + [stray]

        monkeypatch.setattr(elliptic, "_polish_rows", plant)
        with pytest.raises(NumericalError, match="failed the group-law check"):
            torsion_points(fermat_chart, 3)


class TestEvaluations:
    """Each input row costs the chord law one evaluation of f when it is already on the curve.

    The on-curve gate's evaluation is _settle's first, which stops there at
    the rounding floor, and an output point takes its residual from the
    settle that put it on the curve.
    """

    @pytest.fixture
    def evaluations(self, monkeypatch):
        calls = []
        real = curve._forms_at

        def counting(*args):
            calls.append(len(args[1]))
            return real(*args)

        monkeypatch.setattr(curve, "_forms_at", counting)
        monkeypatch.setattr(elliptic, "_forms_at", counting)
        return calls

    def test_a_chord_through_two_flexes_costs_four_and_a_sum_eight(self, evaluations, rng):
        # a chord: one evaluation per input, one of the chord's direction and
        # one settle of the output; a sum is a chord and a negation
        for f in [random_smooth_cubic(rng) for _ in range(3)]:
            flexes = inflection_points(f)
            chart = make_chart(f, flexes[0].point)
            evaluations.clear()
            third_intersection(f, flexes[1], flexes[2])
            assert evaluations == [1, 1, 1, 1]
            evaluations.clear()
            chart.add(flexes[1], flexes[2])
            assert evaluations == [1] * 8
