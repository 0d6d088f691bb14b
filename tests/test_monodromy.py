from __future__ import annotations

import functools
import itertools
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints import (
    CubicForm,
    CurvePoint,
    DiscriminantPathError,
    InputError,
    NumericalError,
    ParameterPath,
    Permutation,
    PointSet,
    ProjectiveTransform,
    TrackingAmbiguityError,
    UniPoly,
    act_on_cubic,
    canonical_section,
    fermat_cubic,
    fermat_translations,
    generate_group,
    hesse_cubic,
    inflection_points,
    normalize_point,
    permutation_of_automorphism,
    random_smooth_cubic,
    section_verdict,
    solve_univariate,
    track,
    verify_free_K_action,
)
from cubicpoints import cli, curve, monodromy, numeric
from cubicpoints.serialize import canonical_dumps, path_from_obj, path_to_obj

# x^3 + y^3: three concurrent lines, whose Hessian vanishes identically
_CONE = CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})


class TestPermutation:
    def test_right_factor_applies_first(self):
        p = Permutation([1, 2, 0])
        q = Permutation([1, 0, 2])
        assert (p * q).images == (2, 1, 0)

    def test_inverse_and_identity(self):
        p = Permutation([2, 0, 3, 1])
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    def test_cycle_structure(self):
        p = Permutation([1, 2, 0, 3, 5, 4])
        assert p.cycle_type() == (3, 2, 1)
        assert (0, 1, 2) in p.cycles()

    def test_validation(self):
        with pytest.raises(InputError):
            Permutation([0, 0, 1])
        with pytest.raises(InputError):
            Permutation([1, 2, 3])
        with pytest.raises(InputError):
            Permutation([0, 1]) * Permutation([0, 1, 2])


def _permutations(n):
    return st.permutations(range(n)).map(Permutation)


_ALGEBRA = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_ALGEBRA
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(_permutations(n), _permutations(n), _permutations(n))))
def test_permutation_product_is_associative(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)
    # the right factor applies first, pointwise
    assert all((p * q)(i) == p(q(i)) for i in range(len(p)))


@_ALGEBRA
@given(st.integers(1, 12).flatmap(_permutations))
def test_permutation_times_its_inverse_is_the_identity(p):
    identity = Permutation(range(len(p)))
    assert p * p.inverse() == identity == p.inverse() * p
    assert (p * p.inverse()).is_identity()


@_ALGEBRA
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(_permutations(n), _permutations(n))))
def test_cycle_type_sums_to_n_and_is_a_conjugacy_invariant(pair):
    p, q = pair
    assert sum(p.cycle_type()) == len(p)
    assert sorted(i for c in p.cycles() for i in c) == list(range(len(p)))
    assert (q * p * q.inverse()).cycle_type() == p.cycle_type()


class TestParameterPath:
    def test_endpoints_and_midpoint(self):
        p = ParameterPath([hesse_cubic(0.0), hesse_cubic(4.0)])
        assert p.at(0.0).proportionality_residual(hesse_cubic(0.0)) < 1e-14
        assert p.at(1.0).proportionality_residual(hesse_cubic(4.0)) < 1e-14
        assert p.at(0.5).proportionality_residual(hesse_cubic(2.0)) < 1e-14

    def test_closed_detection(self):
        loop = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0), hesse_cubic(0.0)])
        assert loop.is_closed()
        arc = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)])
        assert not arc.is_closed()

    def test_reversed_and_concatenate(self):
        a = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)], steps=8)
        b = ParameterPath([hesse_cubic(1.0), hesse_cubic(0.0)], steps=8)
        assert a.reversed().at(0.0).proportionality_residual(
            hesse_cubic(1.0)
        ) < 1e-14
        loop = a.concatenate(b)
        assert loop.is_closed()
        with pytest.raises(InputError):
            a.concatenate(a)

    def test_validation(self):
        with pytest.raises(InputError):
            ParameterPath([hesse_cubic(0.0)])
        with pytest.raises(InputError):
            ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)], steps=0)
        with pytest.raises(InputError):
            ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)]).at(1.5)

    @pytest.mark.parametrize("steps", [0, -2, 2.5, True, 10**6 + 1, pytest.param(10**400, id="10**400")])
    def test_track_checks_its_step_override_as_the_path_does(self, fermat, steps):
        message = "the step count must be a positive integer"
        with pytest.raises(InputError, match=message):
            ParameterPath([fermat, fermat], steps)
        with pytest.raises(InputError, match=message):
            track(ParameterPath([fermat, fermat], steps=4), canonical_section("inflections"), steps=steps)


def _hesse_loop(center: complex, radius: float, legs: int = 8, steps: int = 24):
    """Closed polygonal loop of pencil parameters around the given center."""
    angles = np.linspace(0.0, 2.0 * np.pi, legs + 1)
    lams = [center + radius * np.exp(1j * t) for t in angles]
    return ParameterPath([hesse_cubic(l) for l in lams], steps=steps)


def _translation_path(steps: int = 24) -> ParameterPath:
    """Path of curves pulled along the matrix line from I to the coordinate cycle."""
    a, _ = fermat_translations()
    f = fermat_cubic()
    ts = np.linspace(0.0, 1.0, 9)
    waypoints = []
    for t in ts:
        M = (1.0 - t) * np.eye(3) + t * a.matrix
        waypoints.append(act_on_cubic(ProjectiveTransform(M).inverse(), f))
    return ParameterPath(waypoints, steps=steps)


class TestTrack:
    def test_constant_loop_is_identity(self, fermat):
        path = ParameterPath([fermat, fermat], steps=4)
        res = track(path, canonical_section("inflections"))
        assert res.permutation is not None
        assert res.permutation.is_identity()
        assert res.steps_taken >= 4
        assert abs(res.min_margin - 1.0) < 1e-9

    def test_loop_around_a_singular_member_fixes_base_points(self):
        res = track(_hesse_loop(-3.0, 1.0), canonical_section("inflections"))
        assert res.permutation is not None
        assert res.permutation.is_identity()

    def test_translation_loop_realizes_the_coordinate_cycle(self, fermat):
        a, _ = fermat_translations()
        res = track(_translation_path(), canonical_section("inflections"))
        assert res.permutation is not None
        assert res.permutation.cycle_type() == (3, 3, 3)
        sigma = permutation_of_automorphism(a, res.start)
        assert res.permutation == sigma

    def test_doubling_steps_leaves_permutation_fixed(self):
        p24 = track(_translation_path(24), canonical_section("inflections"))
        p48 = track(_translation_path(48), canonical_section("inflections"))
        assert p24.permutation == p48.permutation

    def test_reversed_loop_inverts(self):
        path = _translation_path()
        fwd = track(path, canonical_section("inflections"))
        bwd = track(path.reversed(), canonical_section("inflections"))
        assert bwd.permutation == fwd.permutation.inverse()

    def test_open_path_has_no_permutation(self):
        arc = ParameterPath([hesse_cubic(0.0), hesse_cubic(1.0)], steps=8)
        res = track(arc, canonical_section("inflections"))
        assert res.permutation is None
        assert len(res.end) == 9
        for p in res.end:
            assert p.residual <= 1e-8

    def test_type_nine_section_closes_the_golden_hesse_loop(self):
        golden = Path(__file__).resolve().parent / "golden" / "hesse_loop.json"
        path = path_from_obj(json.loads(golden.read_text(encoding="utf-8")))
        res = track(path, canonical_section("type3k:3"))
        assert res.permutation is not None
        assert res.permutation.cycle_type() == (3,) * 18 + (1,) * 18

    def test_crossing_the_discriminant_raises(self):
        bad = ParameterPath([hesse_cubic(0.0), hesse_cubic(-6.0)], steps=8)
        with pytest.raises(DiscriminantPathError):
            track(bad, canonical_section("inflections"))

    def test_start_on_singular_curve_raises(self):
        bad = ParameterPath([hesse_cubic(-3.0), hesse_cubic(0.0)], steps=8)
        with pytest.raises(DiscriminantPathError):
            track(bad, canonical_section("inflections"))


class TestStepController:
    @pytest.mark.parametrize(
        "make_path, evaluations, accepted",
        [(_translation_path, 36, 36), (lambda: _hesse_loop(-3.0, 1.0), 24, 24)],
        ids=["translation", "hesse_pencil"],
    )
    def test_a_step_size_that_just_failed_is_not_retried(self, make_path, evaluations, accepted):
        # the two loops of the monodromy_loops benchmark at steps=24; doubling dt
        # after every accepted step re-tries each failed size: 61 on the translation loop,
        # and 43 for 39 steps when the step could only double or stay
        calls = [0]
        section = canonical_section("inflections")

        @functools.wraps(section)
        def counting(*args, **kwargs):
            calls[0] += 1
            return section(*args, **kwargs)

        res = track(make_path(), counting)
        assert (calls[0] - 1, res.steps_taken) == (evaluations, accepted)

    def test_a_one_point_section_has_no_runner_up(self):
        # with one point the runner-up distance is infinite, so every step is clear
        section = canonical_section("inflections")
        base = normalize_point([0.0, 1.0, -1.0])  # a flex of every pencil member

        def one(f: CubicForm) -> PointSet:
            flexes = section(f)
            return PointSet([flexes[flexes.index_of(base)]], flexes.tolerance)

        res = track(_hesse_loop(-3.0, 1.0), one)
        assert res.permutation == Permutation([0])
        assert res.steps_taken == 24
        assert len(res.end) == 1 and res.end.index_of(base) == 0

    @pytest.mark.parametrize("one", [False, True], ids=["hesse_pencil", "one_point"])
    def test_points_that_do_not_move_keep_the_base_step(self, one):
        # on the pencil loop the flexes are the base points, so a step uses
        # almost none of the match test's room; one base point alone has no
        # runner-up and no neighbour, so it uses none at all, which must not
        # divide by zero
        section = canonical_section("inflections")
        base = normalize_point([0.0, 1.0, -1.0])
        calls = [0]

        @functools.wraps(section)
        def counting(f, near=None):
            calls[0] += 1
            if not one:
                return section(f, near=near)
            flexes = section(f)
            return PointSet([flexes[flexes.index_of(base)]], flexes.tolerance)

        path = _hesse_loop(-3.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = track(path, counting)
        assert res.permutation.is_identity()
        assert res.steps_taken == calls[0] - 1 == path.steps


class TestOneHessianPerCurve:
    @pytest.mark.parametrize(
        "make_path, contractions",
        [(_translation_path, 38), (lambda: _hesse_loop(-3.0, 1.0), 26)],
        ids=["translation", "hesse_pencil"],
    )
    def test_each_visited_curve_gets_one_hessian(self, monkeypatch, make_path, contractions):
        # one Hessian per curve, for the gate and the corrector alike, and one
        # pencil triangle at the start: the section calls plus one (90 and 52
        # when the corrector built the Hessian again)
        calls = {"contractions": 0, "section": 0}
        real = curve._slice_contractions
        section = canonical_section("inflections")

        def counting_contractions(S):
            calls["contractions"] += 1
            return real(S)

        @functools.wraps(section)
        def counting_section(*args, **kwargs):
            calls["section"] += 1
            return section(*args, **kwargs)

        monkeypatch.setattr(curve, "_slice_contractions", counting_contractions)
        track(make_path(), counting_section)
        assert calls["contractions"] == contractions == calls["section"] + 1

    def test_the_cached_hessian_is_read_only(self):
        f = hesse_cubic(0.5)
        h = f._hessian.coeffs
        assert h is f._hessian.coeffs
        with pytest.raises(ValueError):
            h[0] = 1.0
        assert np.array_equal(f.hessian().coeffs, h)

    def test_the_cached_tensor_is_read_only(self):
        f = hesse_cubic(0.5)
        T = f._tensor
        assert T is f._tensor
        with pytest.raises(ValueError):
            T[0, 0, 0] = 1.0
        assert np.array_equal(T, curve._tensors(f.coeffs[None])[0])

    def test_the_smooth_hessian_is_one_object(self):
        f = hesse_cubic(0.5)
        h = curve._hessian_of_smooth(f)
        assert h is curve._hessian_of_smooth(f) is f.hessian()
        assert np.array_equal(h.coeffs, f._hessian.coeffs)

    def test_a_cone_keeps_its_channels(self):
        # the cached None raises on every call, not only the first
        cone = CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})
        for _ in range(2):
            with pytest.raises(InputError, match="Hessian vanishes"):
                cone.hessian()
            with pytest.raises(NumericalError, match="Hessian vanishes"):
                curve._hessian_of_smooth(cone)


class TestOneDistanceMatrixPerStep:
    def test_translation_loop_pays_once_per_step(self, monkeypatch):
        # a continued step takes its separation and its match from the
        # corrector's one distance matrix; the start adds the triangle's
        # corrector and its set's separation, the closed path one match.
        # CurvePoints are built for the start and the end only (89 matrices
        # and 396 points when every step built its own match matrix and
        # nine points)
        calls = {"chordal_matrix": 0, "points": 0, "section": 0}
        real_matrix, real_init = numeric.chordal_matrix, CurvePoint.__init__
        section = canonical_section("inflections")

        def counting_matrix(*args):
            calls["chordal_matrix"] += 1
            return real_matrix(*args)

        def counting_init(self, *args, **kwargs):
            calls["points"] += 1
            real_init(self, *args, **kwargs)

        @functools.wraps(section)
        def counting_section(*args, **kwargs):
            calls["section"] += 1
            return section(*args, **kwargs)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("cubicpoints") and getattr(module, "chordal_matrix", None) is real_matrix:
                monkeypatch.setattr(module, "chordal_matrix", counting_matrix)
        monkeypatch.setattr(CurvePoint, "__init__", counting_init)
        result = track(_translation_path(), counting_section)
        assert result.permutation.cycle_type() == (3, 3, 3)
        assert calls == {"chordal_matrix": 39, "points": 18, "section": 37}
        assert calls["chordal_matrix"] == (calls["section"] - 1) + 3

    def test_a_section_without_near_pays_once_per_step(self, monkeypatch):
        # type3k:1 is recomputed at every step, and track asks each new set
        # for its distances from the last points before its separation, so
        # one matrix gives both; track's own matrices are one per step, the
        # start set's separation and the closed path's match (18 of 54 when
        # the separation took a matrix of its own)
        calls = {"inside": 0, "outside": 0, "section": 0}
        real_matrix = numeric.chordal_matrix
        section = canonical_section("type3k:1")
        inside = [False]

        def counting_matrix(*args):
            calls["inside" if inside[0] else "outside"] += 1
            return real_matrix(*args)

        def counting_section(f):
            calls["section"] += 1
            inside[0] = True
            try:
                return section(f)
            finally:
                inside[0] = False

        for module in list(sys.modules.values()):
            if module.__name__.startswith("cubicpoints") and getattr(module, "chordal_matrix", None) is real_matrix:
                monkeypatch.setattr(module, "chordal_matrix", counting_matrix)
        result = track(_hesse_loop(-3.0, 1.0, steps=8), counting_section)
        assert result.permutation.is_identity() and result.steps_taken == 8
        assert calls == {"inside": 36, "outside": 10, "section": 9}
        assert calls["outside"] == result.steps_taken + 2


class TestSections:
    def test_inflection_section(self, fermat):
        sec = canonical_section("inflections")
        assert len(sec(fermat)) == 9

    def test_type_section(self, fermat):
        sec = canonical_section("type3k:2")
        assert len(sec(fermat)) == 27

    def test_unknown_names_rejected(self):
        with pytest.raises(InputError):
            canonical_section("everything")
        with pytest.raises(InputError):
            canonical_section("type3k:x")
        with pytest.raises(InputError):
            canonical_section("type3k:0")


class TestOneCertificatePerCurve:
    def test_track_certifies_each_section_evaluation_once(self, monkeypatch):
        counts = {"smoothness": 0, "section": 0, "near": 0}
        real_smoothness = curve.smoothness
        section = canonical_section("inflections")

        def counting_smoothness(*args, **kwargs):
            counts["smoothness"] += 1
            return real_smoothness(*args, **kwargs)

        def counting_section(f, near=None):
            counts["section"] += 1
            counts["near"] += near is not None
            return section(f, near=near)

        # both homes of the function, so a section that certifies again is counted
        monkeypatch.setattr(curve, "smoothness", counting_smoothness)
        monkeypatch.setattr(monodromy, "smoothness", counting_smoothness)
        res = track(_hesse_loop(-3.0, 1.0, steps=8), counting_section)
        assert res.permutation is not None and res.permutation.is_identity()
        assert counts["section"] > 8
        assert counts["near"] == counts["section"] - 1
        assert counts["smoothness"] == counts["section"]

    @pytest.mark.parametrize("name", ["inflections", "type3k:2"])
    def test_sections_expect_a_certified_curve(self, name):
        # the nodal member's Hessian is proportional to it: no triangle to split
        with pytest.raises(NumericalError, match="proportional"):
            canonical_section(name)(hesse_cubic(-3.0))

    @pytest.mark.parametrize("name", ["inflections", "type3k:2"])
    def test_sections_on_a_cone_raise_numerical_error(self, name):
        with pytest.raises(NumericalError, match="Hessian vanishes"):
            canonical_section(name)(_CONE)


class TestFlexCorrector:
    @pytest.mark.parametrize(
        "make_path", [lambda: _hesse_loop(-3.0, 1.0), _translation_path], ids=["hesse_pencil", "translation"]
    )
    def test_corrected_sets_match_the_full_elimination(self, make_path, tol):
        seeds = []
        section = canonical_section("inflections")

        def recording(f, near=None):
            if near is not None:
                seeds.append((f, near))
            return section(f, near=near)

        track(make_path(), recording)
        assert len(seeds) > 20
        for f, near in seeds:
            corrected = curve._correct_flexes(f, near, tol)
            assert corrected is not None
            assert corrected.setwise_equal(curve._flexes_of_smooth(f, tol))

    @pytest.mark.parametrize("spoil", ["two rows on one flex", "one row far from any flex"])
    def test_a_bad_seed_falls_back_to_the_full_nine(self, spoil, tol):
        f = random_smooth_cubic(np.random.default_rng(3))
        full = curve._flexes_of_smooth(f, tol)
        near = full.arrays.copy()
        if spoil == "two rows on one flex":
            near[1] = near[0]
        else:
            near[4] = [0.2 + 0.1j, 1.0, -0.4]
        assert curve._correct_flexes(f, near, tol) is None
        got = canonical_section("inflections")(f, near=near)
        assert len(got) == 9 and got.setwise_equal(full)

    def test_a_wrapped_section_still_continues(self, monkeypatch):
        # inspect.signature follows __wrapped__, so track still passes near
        # and the full elimination runs only at the start
        calls = [0]
        real = monodromy._flexes_of_smooth

        def counting(f, tol):
            calls[0] += 1
            return real(f, tol)

        monkeypatch.setattr(monodromy, "_flexes_of_smooth", counting)
        section = canonical_section("inflections")

        @functools.wraps(section)
        def wrapped(*args, **kwargs):
            return section(*args, **kwargs)

        res = track(_hesse_loop(-3.0, 1.0), wrapped)
        assert res.permutation is not None and res.permutation.is_identity()
        assert calls[0] == 1

    def test_a_cone_is_a_numerical_error(self, fermat_flexes, tol):
        with pytest.raises(NumericalError, match="Hessian vanishes"):
            curve._correct_flexes(_CONE, fermat_flexes.arrays, tol)
        with pytest.raises(NumericalError, match="Hessian vanishes"):
            canonical_section("inflections")(_CONE, near=fermat_flexes.arrays)


def _crossings(f0: CubicForm, f1: CubicForm) -> list[complex]:
    """The t where f0 + t f1 is singular: the roots of the unnormalized gate determinant.

    The f-block of the gate matrix is linear in t and the Hessian block is
    cubic, so the determinant has degree 12. Its values at 32 points of
    the unit circle give its coefficients by one FFT.
    """
    ts = np.exp(2j * np.pi * np.arange(32) / 32)
    dets = []
    for t in ts:
        f = CubicForm(f0.coeffs + t * f1.coeffs)
        blocks = curve._GATE_MAP @ np.stack([f.coeffs, f._hessian.coeffs], axis=1)
        dets.append(np.linalg.det(blocks.T.reshape(6, 6)))
    coeffs = np.fft.fft(dets) / 32
    assert np.abs(coeffs[13:]).max() <= 1e-12 * np.abs(coeffs).max()
    return [z for z, _ in solve_univariate(UniPoly(coeffs[:13]))]


def _lasso(f0: CubicForm, f1: CubicForm, base: complex, c: complex, radius: float) -> ParameterPath:
    """Out from base to the circle of the given radius about c, once around it, and back."""
    out = (base - c) / abs(base - c)
    ring = [c + radius * out * np.exp(2j * np.pi * j / 8) for j in range(9)]
    ts = [base, *ring, base]
    return ParameterPath([CubicForm(f0.coeffs + t * f1.coeffs) for t in ts], steps=40)


def _group_order(generators: list[Permutation]) -> int:
    seen = {tuple(range(9))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for g in frontier:
            for s in generators:
                h = tuple(s.images[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    fresh.append(h)
        frontier = fresh
    return len(seen)


class TestFlexMonodromyGroup:
    def test_lassos_about_the_discriminant_generate_the_hessian_group(self):
        # Harris, "Galois groups of enumerative problems" (1979): a loop about a
        # nodal member fixes three flexes and turns two triples, and the loops of
        # a generic line generate the order-216 group of the flexes' affine plane
        rng = np.random.default_rng(7)
        f0, f1 = (CubicForm(curve._unit_disc(rng, 10)) for _ in range(2))
        crossings = _crossings(f0, f1)
        assert len(crossings) == 12
        for c in crossings:
            assert curve._discriminant_margin(CubicForm(f0.coeffs + c * f1.coeffs)) <= 1e-10
        base = 0.0
        section = canonical_section("inflections")
        start = section(f0)
        calls = [0]

        @functools.wraps(section)
        def counting(*args, **kwargs):
            calls[0] += 1
            return section(*args, **kwargs)

        perms, accepted = [], 0
        for k, c in enumerate(crossings):
            # a quarter of the way to the nearest other crossing or to the base
            radius = 0.25 * min([abs(c - base)] + [abs(c - o) for j, o in enumerate(crossings) if j != k])
            res = track(_lasso(f0, f1, base, c, radius), counting)
            accepted += res.steps_taken
            assert np.array_equal(res.start.arrays, start.arrays)
            assert res.permutation.cycle_type() == (3, 3, 1, 1, 1), f"crossing {c:.6g}"
            perms.append(res.permutation)
        assert _group_order(perms) == 216
        # the step controller's work on a third family of paths, starts not counted
        # (1,079 section calls for 978 steps when the step could only double or stay)
        assert (calls[0] - len(crossings), accepted) == (1008, 907)
        P = start.arrays / np.linalg.norm(start.arrays, axis=1)[:, None]
        lines = {
            frozenset(t)
            for t in itertools.combinations(range(9), 3)
            if abs(np.linalg.det(P[list(t)])) <= 1e-9
        }
        assert len(lines) == 12
        for pair in itertools.combinations(range(9), 2):
            assert sum(set(pair) <= line for line in lines) == 1
        for p in perms:
            assert {frozenset(p(i) for i in line) for line in lines} == lines


class TestAutomorphismPermutations:
    def test_homomorphism_spot_check(self, fermat, fermat_flexes):
        a, b = fermat_translations()
        sa = permutation_of_automorphism(a, fermat_flexes)
        sb = permutation_of_automorphism(b, fermat_flexes)
        sab = permutation_of_automorphism(a @ b, fermat_flexes)
        assert sa * sb == sab
        assert sa.cycle_type() == (3, 3, 3)
        assert sb.cycle_type() == (3, 3, 3)

    def test_non_symmetry_rejected(self, fermat_flexes):
        T = ProjectiveTransform(np.diag([2.0, 1.0, 1.0]))
        with pytest.raises(InputError):
            permutation_of_automorphism(T, fermat_flexes)


class TestVerdicts:
    def test_frozen_statuses(self):
        assert section_verdict(5).status == "obstructed"
        assert section_verdict(9).status == "constructible"
        assert section_verdict(9).witness == [1]
        assert section_verdict(18).status == "open"
        assert section_verdict(36).witness == [1, 2]
        assert section_verdict(180).status == "constructible"

    def test_details_are_informative(self):
        for n in (5, 9, 18):
            v = section_verdict(n)
            assert v.n == n
            assert len(v.detail) > 10

    def test_validation(self):
        with pytest.raises(InputError):
            section_verdict(0)
        with pytest.raises(InputError):
            section_verdict(-9)


class TestFreeAction:
    def test_flex_layer(self):
        rep = verify_free_K_action(1)
        assert rep.free
        assert rep.point_count == 9
        assert rep.orbit_sizes == (9,)


def _stub_points(rows) -> PointSet:
    return PointSet([CurvePoint(normalize_point(r), 0.0) for r in rows], 1e-6)


_THREE = [np.array([1.0, w, 0.5]) for w in np.exp(2j * np.pi * np.arange(3) / 3)]


def _counting_section(later):
    """Section that returns three fixed points on its first call and later(k) on call k > 0."""
    calls = [0]

    def sec(f):
        k = calls[0]
        calls[0] += 1
        return _stub_points(_THREE) if k == 0 else later(k)

    return sec


def _failing_after_start(k):
    raise NumericalError("stub section cannot be recomputed")


def _collapsing_after_one_step(k):
    # first step fine, then the second point sits on the first
    return _stub_points(_THREE) if k == 1 else _stub_points([_THREE[0], _THREE[0], _THREE[2]])


def _drifting(k):
    # each call turns the points a little, so a closed loop cannot come home
    return _stub_points([r * np.array([1.0, np.exp(0.05j * k), 1.0]) for r in _THREE])


class TestTrackingAmbiguity:
    def test_section_that_cannot_be_recomputed(self, fermat):
        path = ParameterPath([fermat, fermat], steps=4)
        with pytest.raises(TrackingAmbiguityError, match="could not be recomputed"):
            track(path, _counting_section(_failing_after_start))

    def test_points_collapsing_mid_path(self, fermat):
        path = ParameterPath([fermat, fermat], steps=4)
        with pytest.raises(TrackingAmbiguityError, match="matching stayed ambiguous"):
            track(path, _counting_section(_collapsing_after_one_step))

    def test_closed_path_that_does_not_come_home(self, fermat):
        path = ParameterPath([fermat, fermat], steps=4)
        with pytest.raises(TrackingAmbiguityError, match="did not return the section"):
            track(path, _counting_section(_drifting))

    def test_cli_exit_code_five(self, fermat, tmp_path, capsys, monkeypatch):
        pf = tmp_path / "loop.json"
        path = ParameterPath([fermat, fermat], steps=4)
        pf.write_text(canonical_dumps(path_to_obj(path)), encoding="utf-8")
        monkeypatch.setattr(
            monodromy, "canonical_section", lambda name, tol: _counting_section(_drifting)
        )
        rc = cli.main(["track", "--path", str(pf)])
        captured = capsys.readouterr()
        assert rc == 5
        assert captured.out == ""
        assert "did not return the section" in captured.err
