"""The value objects: NamedTuple records and plain classes with the field semantics they have always had.

Tolerances, ProjectivePoint, SmoothnessReport, TrackResult, FreeActionReport
and SizeVerdict are NamedTuple records; CubicForm and CurvePoint are plain
classes whose fields their class sets once. Each builds by position and by
keyword, compares and hashes as before, refuses assignment to a field, and
prints the repr pinned below.
"""
from __future__ import annotations

import numpy as np
import pytest

from cubicpoints import symmetry
from cubicpoints.config import DEFAULT_TOLERANCES, Tolerances
from cubicpoints.curve import CubicForm, CurvePoint, SmoothnessReport, _certify, fermat_cubic, hesse_cubic, smoothness
from cubicpoints.monodromy import FreeActionReport, Permutation, TrackResult
from cubicpoints.numeric import ProjectivePoint
from cubicpoints.sizes import SizeVerdict, section_verdict

P = ProjectivePoint((1 + 0j, 0.5j, -0.25 + 0j))
Q = ProjectivePoint((1 + 0j, 0j, 0j))

# Each record built by position and by keyword, and the repr it printed when it was a dataclass.
RECORDS = [
    (
        Tolerances(1e-10, 1e-7, 1e-6, 1e-8, 1e-6, 1e-4, 1e-8),
        Tolerances(tau_root=1e-10, tau_cluster=1e-7, tau_match=1e-6, tau_on_curve=1e-8, tau_hesse=1e-6,
                   smoothness_margin=1e-4, tau_singular=1e-8),
        "Tolerances(tau_root=1e-10, tau_cluster=1e-07, tau_match=1e-06, tau_on_curve=1e-08, tau_hesse=1e-06, "
        "smoothness_margin=0.0001, tau_singular=1e-08)",
    ),
    (ProjectivePoint(P.coords), ProjectivePoint(coords=P.coords), "(1+0j : 0+0.5j : -0.25+0j)"),
    (
        SmoothnessReport(False, 0.0, P),
        SmoothnessReport(smooth=False, margin=0.0, witness=P),
        "SmoothnessReport(smooth=False, margin=0.0, witness=(1+0j : 0+0.5j : -0.25+0j))",
    ),
    (
        TrackResult(None, None, None, 3, 0.5),
        TrackResult(start=None, end=None, permutation=None, steps_taken=3, min_margin=0.5),
        "TrackResult(start=None, end=None, permutation=None, steps_taken=3, min_margin=0.5)",
    ),
    (
        FreeActionReport(True, 9, (9,)),
        FreeActionReport(free=True, point_count=9, orbit_sizes=(9,)),
        "FreeActionReport(free=True, point_count=9, orbit_sizes=(9,))",
    ),
    (
        SizeVerdict(10, "obstructed", None, "x"),
        SizeVerdict(n=10, status="obstructed", witness=None, detail="x"),
        "SizeVerdict(n=10, status='obstructed', witness=None, detail='x')",
    ),
    (
        CurvePoint(P, 1.5e-17),
        CurvePoint(point=P, residual=1.5e-17),
        "CurvePoint(point=(1+0j : 0+0.5j : -0.25+0j), residual=1.5e-17)",
    ),
]


@pytest.mark.parametrize("positional, keyword, text", RECORDS, ids=lambda v: type(v).__name__)
def test_records_build_by_position_and_keyword_and_keep_their_repr(positional, keyword, text):
    assert positional == keyword and hash(positional) == hash(keyword)
    assert repr(positional) == repr(keyword) == text


@pytest.mark.parametrize("record", [r for r, _, _ in RECORDS], ids=lambda v: type(v).__name__)
def test_fields_are_read_only(record):
    # TrackResult was a mutable dataclass; it is read-only now, like the others
    for field in getattr(record, "_fields", ("point", "residual")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.no_such_field = None


def test_records_compare_by_their_fields():
    assert ProjectivePoint(P.coords) != Q and hash(ProjectivePoint(Q.coords)) == hash(Q)
    assert CurvePoint(P, 0.0) != CurvePoint(P, 1e-17) and CurvePoint(P, 0.0) != CurvePoint(Q, 0.0)
    assert len({CurvePoint(P, 0.0), CurvePoint(P, 0.0), CurvePoint(Q, 0.0)}) == 2
    # a CurvePoint equals only a CurvePoint, as the dataclass did
    assert CurvePoint(P, 0.0) != (P, 0.0)
    # a record equals the plain tuple of its fields, which a dataclass did not
    assert P == (P.coords,) and Tolerances() == tuple(Tolerances())
    assert section_verdict(36) == SizeVerdict(36, "constructible", [1, 2], section_verdict(36).detail)
    assert TrackResult(None, None, Permutation([1, 0]), 2, 1.0) == TrackResult(None, None, Permutation([1, 0]), 2, 1.0)


def test_with_replaces_fields_and_keeps_the_rest():
    tol = DEFAULT_TOLERANCES.with_(tau_match=2e-6, tau_root=1e-11)
    assert tol.tau_match == 2e-6 and tol.tau_root == 1e-11
    assert tol.with_(tau_match=1e-6, tau_root=1e-10) == DEFAULT_TOLERANCES
    assert DEFAULT_TOLERANCES.with_() == DEFAULT_TOLERANCES and DEFAULT_TOLERANCES.tau_match == 1e-6
    with pytest.raises(ValueError):
        DEFAULT_TOLERANCES.with_(tau_nothing=1.0)


def test_equal_tolerances_hit_the_kept_report_and_normal_form():
    # lru_cache keys on the tolerances' hash and equality, which a record keeps
    f = hesse_cubic(0.7)
    smoothness(f, Tolerances())
    hits = _certify.cache_info().hits
    smoothness(f, Tolerances(*DEFAULT_TOLERANCES))
    assert _certify.cache_info().hits == hits + 1
    symmetry.hesse_normalize(f, Tolerances())
    hits = symmetry._hesse_normal_form.cache_info().hits
    symmetry.hesse_normalize(f, DEFAULT_TOLERANCES.with_())
    assert symmetry._hesse_normal_form.cache_info().hits == hits + 1


class TestCubicForm:
    def test_builds_by_position_and_keyword_and_keeps_its_repr(self):
        c = fermat_cubic().coeffs
        f, g = CubicForm(c, "fermat"), CubicForm(coeffs=c, label="fermat")
        assert repr(f) == repr(g) == "CubicForm((1+0j)*x^3y^0z^0 + (1+0j)*x^0y^3z^0 + (1+0j)*x^0y^0z^3 'fermat')"
        assert g.label == "fermat" and CubicForm(c).label is None

    def test_compares_and_hashes_by_identity(self):
        f = fermat_cubic()
        g = CubicForm(f.coeffs)
        assert f == f and f != g and hash(f) != hash(g)

    def test_fields_are_read_only(self):
        f = fermat_cubic()
        for name in ("coeffs", "label", "norm_inf"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}' of CubicForm"):
                setattr(f, name, None)
        with pytest.raises(AttributeError, match="cannot delete field 'coeffs' of CubicForm"):
            del f.coeffs

    def test_a_kept_value_is_computed_once_and_read_from_the_object(self):
        f = CubicForm(2.0 ** 40 * hesse_cubic(0.3).coeffs)
        assert "_hessian" not in vars(f)
        h = f._hessian
        assert vars(f)["_hessian"] is h and f._hessian is h
        assert type(CubicForm.__dict__["_hessian"]).__name__ == "_kept" and "Hessian" in CubicForm._hessian.__doc__

    def test_the_private_constructor_keeps_the_public_ones_bits(self):
        f = CubicForm(2.0 ** 40 * hesse_cubic(0.3).coeffs)
        for g in (f._rep, f._hessian, f._rep._hessian):
            public = CubicForm(g.coeffs)
            assert type(g) is CubicForm and not g.coeffs.flags.writeable
            assert g.coeffs.tobytes() == public.coeffs.tobytes() and g.coeffs.dtype == complex
        assert f._rep.label == f.label and 0.5 <= f._rep.norm_inf < 1.0
        np.testing.assert_array_equal(f._rep.coeffs * 2.0 ** np.frexp(f.norm_inf)[1], f.coeffs)
