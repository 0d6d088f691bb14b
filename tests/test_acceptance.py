"""Acceptance battery.

Each test exercises one required behavior end to end at its stated
tolerance and time budget, and prints exactly one PASS/FAIL line (visible
with pytest -s or in the captured-output section of a failure report).
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from cubicpoints import (
    ParameterPath,
    PointSet,
    canonical_section,
    constructible_sizes,
    fermat_cubic,
    fermat_translations,
    fixed_points_on_curve,
    generate_group,
    hesse_cubic,
    inflection_points,
    lefschetz_trace,
    make_chart,
    permutation_of_automorphism,
    points_of_type,
    preserves_cubic,
    random_points_on_curve,
    random_smooth_cubic,
    section_verdict,
    torsion_points,
    track,
    translation_certificate,
    verify_free_K_action,
)
from cubicpoints.symmetry import act_on_cubic, hesse_normalize, ProjectiveTransform
from cubicpoints.numeric import chordal_distance

from oracles import weierstrass_add, weierstrass_on_curve, weierstrass_polish


def _report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f"; {detail}" if detail else ""
    print(f"{status}: {name} [{elapsed:.2f}s{extra}]")
    assert ok, f"{name}{extra}"


def _chart_of(f, tol_cls=None):
    flexes = inflection_points(f)
    return make_chart(f, flexes.sorted_canonical()[0].point)


def test_c01_inflections_of_100_random_cubics():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for i in range(100):
        f = random_smooth_cubic(rng)
        flexes = inflection_points(f)
        h = f.hessian()
        if len(flexes) != 9:
            ok, detail = False, f"curve {i}: {len(flexes)} inflections"
            break
        worst = max(
            max(cp.residual, h.residual_at(cp.point)) for cp in flexes
        )
        if worst > 1e-8:
            ok, detail = False, f"curve {i}: residual {worst:.2e}"
            break
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 30.0:
        ok, detail = False, "over the 30s budget"
    _report("9 certified inflections on 100 seeded random smooth cubics", ok, elapsed, detail)


def test_c02_torsion_counts_to_order_six():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    curves = [fermat_cubic()] + [random_smooth_cubic(rng) for _ in range(3)]
    ok = True
    detail = ""
    for ci, f in enumerate(curves):
        chart = _chart_of(f)
        for m in range(1, 7):
            pts = torsion_points(chart, m)
            if len(pts) != m * m:
                ok, detail = False, f"curve {ci}, order {m}: {len(pts)} points"
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 60.0:
        ok, detail = False, "over the 60s budget"
    _report(
        "m^2 torsion points for m = 1..6 on the symmetric curve and 3 random ones",
        ok,
        elapsed,
        detail,
    )


def test_c03_layer_counts_on_the_symmetric_curve():
    t0 = time.perf_counter()
    chart = _chart_of(fermat_cubic())
    got = [len(points_of_type(chart, k)) for k in (1, 2, 3, 4)]
    elapsed = time.perf_counter() - t0
    want = [9, 27, 72, 108]
    ok = got == want and elapsed < 120.0
    _report(
        "type-3k layer sizes 9/27/72/108 for k = 1..4",
        ok,
        elapsed,
        f"got {got}" if got != want else "",
    )


def test_c04_first_layer_matches_inflections_on_random_curves():
    rng = np.random.default_rng(1004)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for i in range(10):
        f = random_smooth_cubic(rng)
        flexes = inflection_points(f)
        t1 = points_of_type(_chart_of(f), 1)
        a = PointSet(list(flexes.points), 1e-6)
        if not a.setwise_equal(t1):
            ok, detail = False, f"curve {i}: sets differ"
            break
    elapsed = time.perf_counter() - t0
    _report(
        "group-law first layer equals the resultant-based inflection set on 10 random curves",
        ok,
        elapsed,
        detail,
    )


def test_c05_size_arithmetic_and_verdicts():
    t0 = time.perf_counter()
    want = {9, 27, 36, 72, 81, 99, 108, 117, 135, 144, 180}
    sizes = set(constructible_sizes(180))
    ok = sizes == want and 18 not in sizes
    detail = "" if ok else f"sizes {sorted(sizes)}"
    if ok:
        for n in range(1, 201):
            if n % 9 != 0 and section_verdict(n).status != "obstructed":
                ok, detail = False, f"n={n} not obstructed"
                break
    if ok and section_verdict(18).status != "open":
        ok, detail = False, "18 not open"
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 1.0:
        ok, detail = False, "over the 1s budget"
    _report("constructible sizes up to 180 and verdicts up to 200", ok, elapsed, detail)


def test_c06_translation_battery():
    rng = np.random.default_rng(1006)
    t0 = time.perf_counter()
    f = fermat_cubic()
    a, b = fermat_translations()
    checks = []
    checks.append(("a^3 = 1", (a @ a @ a).is_identity()))
    checks.append(("b^3 = 1", (b @ b @ b).is_identity()))
    checks.append(("commutator is scalar", (a @ b).pgl_equal(b @ a)))
    checks.append(("a preserves the curve", preserves_cubic(a, f)))
    checks.append(("b preserves the curve", preserves_cubic(b, f)))
    checks.append(("a has no fixed points", len(fixed_points_on_curve(a, f)) == 0))
    checks.append(("b has no fixed points", len(fixed_points_on_curve(b, f)) == 0))
    checks.append(("trace of a is 2", lefschetz_trace(a, f) == 2))
    checks.append(("trace of b is 2", lefschetz_trace(b, f) == 2))
    chart = _chart_of(f)
    samples = random_points_on_curve(f, 50, rng)
    checks.append(
        ("a shifts by a constant", translation_certificate(chart, a, samples) <= 1e-6)
    )
    checks.append(
        ("b shifts by a constant", translation_certificate(chart, b, samples) <= 1e-6)
    )
    elapsed = time.perf_counter() - t0
    bad = [name for name, good in checks if not good]
    ok = not bad and elapsed < 10.0
    _report(
        "translation generator battery on the symmetric curve",
        ok,
        elapsed,
        "; ".join(bad) if bad else "",
    )


def test_c07_free_action_on_the_first_three_layers():
    t0 = time.perf_counter()
    want_orbits = {1: 1, 2: 3, 3: 8}
    ok = True
    detail = ""
    for k in (1, 2, 3):
        rep = verify_free_K_action(k)
        if not rep.free:
            ok, detail = False, f"k={k}: action not free"
            break
        if len(rep.orbit_sizes) != want_orbits[k] or set(rep.orbit_sizes) != {9}:
            ok, detail = False, f"k={k}: orbits {rep.orbit_sizes}"
            break
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 120.0:
        ok, detail = False, "over the 2min budget"
    _report("nine translations act freely with orbit counts 1/3/8", ok, elapsed, detail)


def test_c08_full_homomorphism_table():
    t0 = time.perf_counter()
    f = fermat_cubic()
    a, b = fermat_translations()
    K = generate_group([a, b])
    flexes = inflection_points(f)
    sigma = [permutation_of_automorphism(g, flexes) for g in K]
    ok = len(K) == 9
    detail = "" if ok else f"group has {len(K)} elements"
    if ok:
        for i, j in itertools.product(range(9), repeat=2):
            composed = permutation_of_automorphism(K[i] @ K[j], flexes)
            if sigma[i] * sigma[j] != composed:
                ok, detail = False, f"pair ({i}, {j}) breaks the homomorphism"
                break
    elapsed = time.perf_counter() - t0
    _report("9x9 composition table of induced permutations", ok, elapsed, detail)


def test_c09_group_law_axioms_with_oracle():
    rng = np.random.default_rng(1009)
    t0 = time.perf_counter()
    f = fermat_cubic()
    chart = _chart_of(f)
    O = chart.identity
    A, B = chart.a, chart.b

    def affine(p):
        X, Y, Z = chart.to_weierstrass(p).coords
        if abs(Z) < 1e-10 * max(abs(X), abs(Y), 1e-300):
            return None
        return (X / Z, Y / Z)

    ok = True
    detail = ""
    pts = random_points_on_curve(f, 40, rng)
    for p in pts[:20]:
        if chordal_distance(chart.add(p, O).array, p.array) > 1e-6:
            ok, detail = False, "identity law failed"
            break
        if chordal_distance(chart.add(p, chart.negate(p)).array, O.array) > 1e-6:
            ok, detail = False, "inverse law failed"
            break
    checked = 0
    if ok:
        triples = random_points_on_curve(f, 600, rng)
        for i in range(200):
            p, q, r = triples[3 * i : 3 * i + 3]
            lhs = chart.add(chart.add(p, q), r)
            rhs = chart.add(p, chart.add(q, r))
            if chordal_distance(lhs.array, rhs.array) > 1e-6:
                ok, detail = False, f"triple {i}: associativity defect"
                break
            pa, qa, ra = (weierstrass_polish(A, B, affine(x)) for x in (p, q, r))
            if any(weierstrass_on_curve(A, B, x) > 1e-8 for x in (pa, qa, ra)):
                ok, detail = False, f"triple {i}: chart point off the oracle curve"
                break
            mid = weierstrass_polish(A, B, weierstrass_add(A, B, pa, qa))
            want = weierstrass_add(A, B, mid, ra)
            got = affine(lhs)
            if (want is None) != (got is None):
                ok, detail = False, f"triple {i}: oracle infinity mismatch"
                break
            if want is not None:
                scale = max(abs(want[0]), abs(want[1]), 1.0)
                err = max(abs(want[0] - got[0]), abs(want[1] - got[1]))
                if err > 1e-6 * scale:
                    ok, detail = False, f"triple {i}: oracle deviation {err:.2e}"
                    break
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "group-law axioms on 200 random triples, cross-checked against the affine oracle",
        ok,
        elapsed,
        detail if detail else f"{checked} triples cross-checked",
    )


def _hesse_loop(steps: int) -> ParameterPath:
    lams = [-3.0 + np.exp(2j * np.pi * t) for t in np.linspace(0.0, 1.0, 9)]
    return ParameterPath([hesse_cubic(l) for l in lams], steps=steps)


def _translation_loop(steps: int) -> ParameterPath:
    a, _ = fermat_translations()
    f = fermat_cubic()
    waypoints = []
    for t in np.linspace(0.0, 1.0, 9):
        M = (1.0 - t) * np.eye(3) + t * a.matrix
        waypoints.append(act_on_cubic(ProjectiveTransform(M).inverse(), f))
    return ParameterPath(waypoints, steps=steps)


def test_c10_monodromy_sanity():
    section = canonical_section("inflections")
    f = fermat_cubic()
    ok = True
    detail = ""
    budget_blown = None
    t_all = time.perf_counter()

    def timed_track(path):
        nonlocal budget_blown
        t0 = time.perf_counter()
        res = track(path, section)
        if time.perf_counter() - t0 >= 60.0 and budget_blown is None:
            budget_blown = "a loop ran over its 60s budget"
        return res

    const = timed_track(ParameterPath([f, f], steps=8))
    if not (const.permutation and const.permutation.is_identity()):
        ok, detail = False, "constant loop is not the identity"
    if ok:
        hesse = timed_track(_hesse_loop(24))
        if not (hesse.permutation and hesse.permutation.is_identity()):
            ok, detail = False, "pencil loop is not the identity"
    if ok:
        fwd = timed_track(_translation_loop(24))
        bwd = timed_track(_translation_loop(24).reversed())
        dbl = timed_track(_translation_loop(48))
        if fwd.permutation.cycle_type() != (3, 3, 3):
            ok, detail = False, f"loop permutation has cycle type {fwd.permutation.cycle_type()}"
        elif bwd.permutation != fwd.permutation.inverse():
            ok, detail = False, "reversed loop is not the inverse"
        elif dbl.permutation != fwd.permutation:
            ok, detail = False, "doubling the step count changed the permutation"
    if ok and budget_blown:
        ok, detail = False, budget_blown
    elapsed = time.perf_counter() - t_all
    _report("monodromy identities for constant, pencil, and symmetry loops", ok, elapsed, detail)


def test_c11_pencil_normalization_of_random_curves():
    rng = np.random.default_rng(1011)
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for i in range(10):
        f = random_smooth_cubic(rng)
        T, lam = hesse_normalize(f)
        target = hesse_cubic(lam)
        resid = act_on_cubic(T, f).proportionality_residual(target)
        if resid > 1e-6:
            ok, detail = False, f"curve {i}: fit residual {resid:.2e}"
            break
        j1 = _chart_of(f).j_invariant()
        j2 = _chart_of(target).j_invariant()
        if abs(j1 - j2) > 1e-6 * max(1.0, abs(j1), abs(j2)):
            ok, detail = False, f"curve {i}: j moved by {abs(j1 - j2):.2e}"
            break
    elapsed = time.perf_counter() - t0
    _report(
        "pencil normalization fits 10 random curves and preserves the j-invariant",
        ok,
        elapsed,
        detail,
    )
