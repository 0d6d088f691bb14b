from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

from cubicpoints import (
    DEFAULT_TOLERANCES,
    CubicForm,
    InputError,
    NumericalError,
    PointSet,
    ProjectiveTransform,
    act_on_cubic,
    act_on_point,
    chordal_distance,
    fermat_translations,
    fixed_points_on_curve,
    generate_group,
    hesse_cubic,
    lefschetz_trace,
    orbit_decomposition,
    preserves_cubic,
    random_points_on_curve,
    random_smooth_cubic,
)
from cubicpoints import symmetry
from cubicpoints.curve import _HESSE_BASE
from cubicpoints.numeric import chordal_matrix
from cubicpoints.symmetry import hesse_normalize

W3 = np.exp(2j * np.pi / 3)
# The Hessian group's generators: the coordinate cycle, diag(1, w, w^2),
# [[1, 1, 1], [1, w, w^2], [1, w^2, w]] and diag(1, 1, w).
HESSE_GENERATORS = [
    symmetry._CYCLE,
    symmetry._SCALE,
    np.vander([1, W3, W3**2], 3, increasing=True),
    np.diag([1, 1, W3]),
]


def hesse_generator_moves() -> list[np.ndarray]:
    """Each generator's permutation of the base-point labels, by chordal matching."""
    return [chordal_matrix(_HESSE_BASE @ g.T, _HESSE_BASE).argmin(axis=1) for g in HESSE_GENERATORS]


def reference_hessian_perms() -> np.ndarray:
    """The Hessian group as its 216 label permutations, by breadth-first closure of the generators' moves."""
    moves = hesse_generator_moves()
    perms, frontier = {tuple(range(9))}, [tuple(range(9))]
    while frontier:
        frontier = list({tuple(move[list(p)].tolist()) for p in frontier for move in moves} - perms)
        perms.update(frontier)
    return np.array(sorted(perms))


class TestProjectiveTransform:
    def test_identity_and_inverse(self, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = ProjectiveTransform(M)
        assert (T @ T.inverse()).is_identity()
        assert abs(abs(np.linalg.det(T.matrix)) - 1.0) < 1e-10

    def test_scalar_multiples_collapse(self, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert ProjectiveTransform(M).pgl_equal(ProjectiveTransform(2.5j * M))

    def test_rejects_singular_and_misshapen(self):
        with pytest.raises(InputError):
            ProjectiveTransform(np.zeros((3, 3)))
        with pytest.raises(InputError):
            ProjectiveTransform(np.eye(2))

    def test_composition_acts_in_order(self, fermat, rng):
        S = ProjectiveTransform(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        T = ProjectiveTransform(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        lhs = act_on_point(S @ T, v)
        rhs = act_on_point(S, act_on_point(T, v))
        assert chordal_distance(lhs.array, rhs.array) < 1e-10


class TestActions:
    def test_coordinate_cycle_on_a_flex(self):
        a, _ = fermat_translations()
        out = act_on_point(a, np.array([-1.0, 1.0, 0.0]))
        assert chordal_distance(out.array, np.array([0.0, -1.0, 1.0])) < 1e-12

    def test_pushforward_vanishes_on_moved_points(self, fermat, rng):
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        T = ProjectiveTransform(M)
        g = act_on_cubic(T, fermat)
        for p in random_points_on_curve(fermat, 4, rng):
            assert g.residual_at(act_on_point(T, p.point)) < 1e-10

    def test_preserves_cubic(self, fermat):
        a, b = fermat_translations()
        assert preserves_cubic(a, fermat)
        assert preserves_cubic(b, fermat)
        assert not preserves_cubic(ProjectiveTransform(np.diag([2.0, 1.0, 1.0])), fermat)

    def test_preserves_cubic_at_a_scale_where_the_raw_pushforward_overflows(self):
        # the pushforward by diag(1e4, 1, 1e-4) multiplies the z^3 coefficient
        # by 1e12: past the floats from coefficients of 1e300, not from the
        # curve's representative
        f = CubicForm(hesse_cubic(0.3).coeffs * 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not preserves_cubic(ProjectiveTransform(np.diag([1e4, 1.0, 1e-4])), f)
            assert preserves_cubic(ProjectiveTransform(symmetry._CYCLE), f)


class TestFermatTranslations:
    def test_generators_have_order_three(self):
        a, b = fermat_translations()
        assert not a.is_identity()
        assert (a @ a @ a).is_identity()
        assert not b.is_identity()
        assert (b @ b @ b).is_identity()

    def test_generators_commute_in_pgl(self):
        a, b = fermat_translations()
        assert (a @ b).pgl_equal(b @ a)

    def test_group_has_nine_elements(self):
        a, b = fermat_translations()
        K = generate_group([a, b])
        assert len(K) == 9

    def test_translations_act_without_fixed_points(self, fermat):
        a, b = fermat_translations()
        for g in generate_group([a, b]):
            if g.is_identity():
                continue
            assert len(fixed_points_on_curve(g, fermat)) == 0
            assert lefschetz_trace(g, fermat) == 2

    def test_self_check_runs_again_under_a_new_tolerance(self):
        # a pass under the default tolerance must not excuse a stricter one
        fermat_translations()
        with pytest.raises(NumericalError, match="moves the curve"):
            fermat_translations(DEFAULT_TOLERANCES.with_(tau_match=1e-300))

    def test_self_check_runs_once_per_equal_tolerance(self, monkeypatch):
        # the check asks for the fixed points of the eight nonidentity translations
        calls, original = [], symmetry.fixed_points_on_curve
        monkeypatch.setattr(symmetry, "fixed_points_on_curve", lambda *a: calls.append(a) or original(*a))
        symmetry._check_translations.cache_clear()
        first = fermat_translations()
        again = fermat_translations(DEFAULT_TOLERANCES.with_())
        assert len(calls) == 8
        assert first[0] is not again[0] and first[1] is not again[1]
        assert all(x.pgl_equal(y) for x, y in zip(first, again))
        fermat_translations(DEFAULT_TOLERANCES.with_(tau_match=2e-6))
        assert len(calls) == 16


class TestFixedPoints:
    def test_harmonic_scaling_fixes_a_line_section(self, fermat):
        T = ProjectiveTransform(np.diag([1.0, 1.0, W3]))
        assert preserves_cubic(T, fermat)
        fixed = fixed_points_on_curve(T, fermat)
        assert len(fixed) == 3
        # all fixed points lie on the pointwise-fixed line z = 0
        for p in fixed:
            assert abs(p.array[2]) < 1e-8
        assert lefschetz_trace(T, fermat) == -1

    @pytest.mark.parametrize("lam", [0.0, 1.25 + 0.5j], ids=["fermat", "hesse"])
    def test_the_coordinate_swap_fixes_a_line_section_and_an_eigenvector(self, lam):
        # x <-> y has eigenvalue 1 on the line x = y, which meets the curve
        # three times, and a simple eigenvalue -1 whose eigenvector
        # (1 : -1 : 0) lies on every member of the Hesse pencil
        f = hesse_cubic(lam)
        T = ProjectiveTransform([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        fixed = fixed_points_on_curve(T, f)
        assert len(fixed) == 4 and lefschetz_trace(T, f) == -2
        assert min(chordal_distance(p, [1.0, -1.0, 0.0]) for p in fixed) <= 1e-12
        assert sum(chordal_distance(p, [1.0, -1.0, 0.0]) > 1e-3 and abs(p.array[0] - p.array[1]) <= 1e-12 for p in fixed) == 3

    def test_identity_is_rejected(self, fermat):
        with pytest.raises(InputError):
            fixed_points_on_curve(ProjectiveTransform.identity(), fermat)


class TestOrbits:
    def test_translations_act_freely_on_flexes(self, fermat, fermat_flexes):
        a, b = fermat_translations()
        K = generate_group([a, b])
        rep = orbit_decomposition(K, fermat_flexes)
        assert rep.free
        assert sorted(len(o) for o in rep.orbits) == [9]
        for perm in rep.permutations:
            assert sorted(perm) == list(range(9))

    def test_stabilized_points_break_freeness(self, fermat, fermat_flexes):
        T = ProjectiveTransform(np.diag([1.0, 1.0, W3]))
        # z-scaling fixes the three flexes on z = 0, so the action is not free
        rep = orbit_decomposition([ProjectiveTransform.identity(), T], fermat_flexes)
        assert not rep.free


class TestHesse:
    def test_base_points_lie_on_every_member(self):
        pts = _HESSE_BASE
        assert len(pts) == 9
        for lam in (0.0, 2.0 + 1.0j, -7.25):
            f = hesse_cubic(lam)
            for v in pts:
                assert f.residual_at(v) < 1e-12

    def test_pencil_member_recovers_its_parameter(self):
        f = hesse_cubic(2.0)
        T, lam = hesse_normalize(f)
        assert abs(lam - 2.0) < 1e-8
        target = hesse_cubic(lam)
        assert act_on_cubic(T, f).proportionality_residual(target) < 1e-6

    def test_closed_form_target_is_the_reference_groups_first_image(self):
        perms = reference_hessian_perms()
        assert len(perms) == 216
        quads = [
            q for q in itertools.permutations(range(9), 4)
            if not any(symmetry._collinear(t) for t in itertools.combinations(q, 3))
        ]
        assert len(quads) == 1296
        for q in quads:
            assert symmetry._hesse_target(list(q)) == min(perms[:, list(q)].tolist()), q

    def test_sum_rule_names_the_twelve_base_lines(self):
        by_det = {t for t in itertools.combinations(range(9), 3) if abs(np.linalg.det(_HESSE_BASE[list(t)])) < 1e-12}
        by_sum = {t for t in itertools.combinations(range(9), 3) if symmetry._collinear(t)}
        assert by_det == by_sum
        assert len(by_sum) == 12

    def test_generators_move_labels_by_special_affine_maps(self):
        # label 3i + k is the point (i, k) of (Z/3)^2; read A and s off the images of (0, 0), (1, 0) and (0, 1)
        for move in hesse_generator_moves():
            s = np.array(divmod(int(move[0]), 3))
            A = np.stack([np.array(divmod(int(move[j]), 3)) - s for j in (3, 1)], axis=1) % 3
            assert round(np.linalg.det(A)) % 3 == 1
            for label in range(9):
                assert divmod(int(move[label]), 3) == tuple((A @ divmod(label, 3) + s) % 3)

    @pytest.mark.parametrize("lam0", [2.0, 1.25 + 0.5j, -2.9, 0.5, 1j, 5.0])
    def test_pencil_members_keep_their_parameter(self, lam0):
        # the flexes of a member are the base points themselves, and the
        # first quadruple the Hessian group reaches is the source's own
        T, lam = hesse_normalize(hesse_cubic(lam0))
        assert abs(lam - lam0) <= 1e-12 * max(1.0, abs(lam0))
        assert act_on_cubic(T, hesse_cubic(lam0)).proportionality_residual(hesse_cubic(lam)) <= 1e-12

    def test_random_cubic_enters_the_pencil(self, rng):
        f = random_smooth_cubic(rng)
        T, lam = hesse_normalize(f)
        g = act_on_cubic(T, f)
        target = hesse_cubic(lam)
        assert g.proportionality_residual(target) < 1e-6

    def test_moved_flexes_land_on_base_points(self, rng):
        from cubicpoints import CurvePoint, inflection_points, normalize_point

        f = random_smooth_cubic(rng)
        T, _ = hesse_normalize(f)
        base = PointSet(
            [CurvePoint(normalize_point(v), 0.0) for v in _HESSE_BASE], 1e-6
        )
        moved = PointSet(
            [CurvePoint(act_on_point(T, cp.point), 0.0) for cp in inflection_points(f)],
            1e-6,
        )
        assert moved.setwise_equal(base)

    def test_singular_member_is_rejected(self):
        from cubicpoints import SingularCurveError

        with pytest.raises(SingularCurveError):
            hesse_normalize(hesse_cubic(-3.0))
