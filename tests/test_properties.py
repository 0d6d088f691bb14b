"""Property tests: each shared primitive and fast kernel against the code it replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the scalar cross-product chordal distance, the greedy dedupe loop
over scalar distances, brute-force subset sums of the layer counts, the
root solver as np.roots, vectorized clustering and a per-root polish
through UniPoly.derivative and polyval, the flex search in all three
coordinate charts by the bivariate elimination the singular-point search
once ran (chart grids, a sampled Sylvester resultant, the fiber trim with
its branch for the zero fiber) and its Newton on chart grids (then
polished in mpmath at 50 digits), the flex corrector with its own Newton
loop, and normalize_point's pivot search on numpy arrays, which the
batched normalizer (normalize_point's one implementation) meets row by
row on stacks.  The dense cubic's gradient and Hessian are checked
against monomial sums written out here, the Levi-Civita contraction of
tensor slices against the four-operand einsum it replaced, the batched
values and gradients of _forms_at (the one formula for a cubic's value)
against the monomial sums and gradient, within a bound taken from those
sums, and the flex Newton's kept rows against the three-chart search.
The references copy the code they replaced rather than import it, so
rewriting a kernel cannot rewrite its reference too.
"""
from __future__ import annotations

import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicpoints import (
    DEFAULT_TOLERANCES,
    CubicForm,
    CurvePoint,
    InputError,
    NumericalError,
    PointSet,
    ProjectiveTransform,
    UniPoly,
    chordal_distance,
    constructible_sizes,
    fermat_cubic,
    hesse_cubic,
    inflection_points,
    jordan_totient_2,
    normalize_point,
    size_witness,
    smoothness,
)
from cubicpoints import curve
from cubicpoints.curve import (
    _canonical_key,
    _dedupe,
    _flexes_of_smooth,
    _forms_at,
    _newton_flexes,
)
from cubicpoints.numeric import _cluster, _cofactors, _derivative, _normalize_rows, chordal_matrix, solve_univariate
from cubicpoints.sizes import _witnesses_up_to
from oracles import division_polys, sylvester_dets

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
EPS = float(np.finfo(float).eps)


def scalar_chordal(a, b) -> float:
    """The scalar Lagrange-identity formula that chordal_distance used."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    num = float(np.linalg.norm(np.cross(a, b)))
    return min(1.0, num / (float(np.linalg.norm(a)) * float(np.linalg.norm(b))))


def greedy_dedupe(points, tolerance, ranks=None):
    """The greedy loop that curve, elliptic and symmetry each carried."""
    if ranks is None:
        ranks = [cp.residual for cp in points]
    out = []
    for _, cp in sorted(zip(ranks, points), key=lambda pair: pair[0]):
        if all(scalar_chordal(cp.array, q.array) > tolerance for q in out):
            out.append(cp)
    return out


coordinate = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_subnormal=False) | st.just(0j)
row = st.lists(coordinate, min_size=3, max_size=3).filter(lambda v: max(abs(c) for c in v) > 0)
# offsets from 1e-13 to 1e-4 cover near-coincident pairs and the tau_match scale
nudge = st.tuples(st.integers(-13, -4), st.lists(st.floats(-1, 1), min_size=6, max_size=6))


def nudged(v, how) -> np.ndarray:
    exponent, parts = how
    delta = np.array(parts[:3]) + 1j * np.array(parts[3:])
    v = np.asarray(v, dtype=complex)
    return v + 10.0**exponent * np.linalg.norm(v) * delta


@st.composite
def stacks(draw):
    A = draw(st.lists(row, min_size=1, max_size=5))
    B = draw(st.lists(row, min_size=1, max_size=5))
    # near copies of some rows of A, rescaled by a unit complex
    for v in draw(st.lists(st.sampled_from(A), max_size=4)):
        B.append(np.exp(1j * draw(st.floats(0, 6.3))) * nudged(v, draw(nudge)))
    return np.array(A, dtype=complex), np.array(B, dtype=complex)


@PROPERTY
@given(stacks())
def test_chordal_matrix_matches_scalar_formula(AB):
    A, B = AB
    D = chordal_matrix(A, B)
    want = np.array([[scalar_chordal(a, b) for b in B] for a in A])
    assert np.abs(D - want).max() <= 1e-15


def test_chordal_matrix_resolves_nearby_points():
    a = np.array([1.0, 0.3 + 0.2j, -0.7j])
    b = a + 1e-12 * np.array([0.0, 1.0, 0.0])
    d = chordal_matrix(a, b)[0, 0]
    assert abs(d - scalar_chordal(a, b)) <= 1e-15
    assert 1e-13 < d < 1e-11


@st.composite
def candidate_lists(draw):
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            rows.append(nudged(draw(st.sampled_from(rows)), draw(nudge)))
        else:
            rows.append(np.asarray(draw(row), dtype=complex))
    # coarse residuals, so that ties in rank occur
    residuals = draw(st.lists(st.sampled_from([0.0, 1e-12, 1e-10]), min_size=len(rows), max_size=len(rows)))
    return [CurvePoint(normalize_point(v), r) for v, r in zip(rows, residuals)]


@PROPERTY
@given(candidate_lists(), st.sampled_from([1e-8, 1e-6, 1e-4]))
def test_dedupe_keeps_what_the_greedy_loop_kept(points, tolerance):
    # _dedupe returns the kept points in canonical order
    index = {id(cp): i for i, cp in enumerate(points)}
    got = [index[id(cp)] for cp in _dedupe(points, tolerance)]
    want = [index[id(cp)] for cp in PointSet(greedy_dedupe(points, tolerance), tolerance).sorted_canonical()]
    assert got == want


def brute_force_witnesses(m: int) -> dict[int, list[int]]:
    """Lexicographically first set of distinct k for every reachable sum of J_2(k) <= m.

    A depth-first walk that emits each subset before its extensions visits
    the sorted subsets in lexicographic order, so the first subset to reach
    a sum is its witness.  J_2(k) >= 0.6 k^2 bounds the orders to try.
    """
    terms = [(k, jordan_totient_2(k)) for k in range(1, int((m / 0.6) ** 0.5) + 2)]
    terms = [(k, j) for k, j in terms if j <= m]
    best: dict[int, list[int]] = {}

    def walk(start: int, chosen: list[int], total: int) -> None:
        if total and total not in best:
            best[total] = list(chosen)
        for i in range(start, len(terms)):
            k, j = terms[i]
            if total + j <= m:
                chosen.append(k)
                walk(i + 1, chosen, total + j)
                chosen.pop()

    walk(0, [], 0)
    return best


BRUTE = brute_force_witnesses(2000 // 9)


@PROPERTY
@given(st.integers(1, 2000))
def test_size_table_matches_brute_force(bound):
    want = {9 * s: w for s, w in sorted(BRUTE.items()) if 9 * s <= bound}
    assert constructible_sizes(bound) == list(want)
    assert _witnesses_up_to(bound) == want


@PROPERTY
@given(st.integers(1, 2000))
def test_size_witness_matches_brute_force(n):
    assert size_witness(n) == (BRUTE.get(n // 9) if n % 9 == 0 else None)


def reference_newton(p, z, iters=40):
    """The per-root Newton polish of solve_univariate.

    It stops after a step below 1e-16 max(1, |z|), or once a step of at
    most 16 eps max(1, |z|) fails to halve the one before.
    """
    dp = p.derivative()
    last = np.inf
    for _ in range(iters):
        d = dp(z)
        if d == 0:
            return z
        step = p(z) / d
        z = z - step
        size, scale = abs(step), max(1.0, abs(z))
        if size <= 1e-16 * scale or (size > 0.5 * last and size <= 16 * EPS * scale):
            break
        last = size
    return z


def capped_newton(p, z, iters=40):
    """The polish before the rounding stop: only a step below 1e-16 max(1, |z|) ends it before the cap."""
    dp = p.derivative()
    for _ in range(iters):
        d = dp(z)
        if d == 0:
            return z
        step = p(z) / d
        z = z - step
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def reference_components(n, pairs):
    """Components of range(n) under the pairs, by repeated relabelling to the smallest index."""
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i, j in pairs:
            low = min(label[i], label[j])
            if label[i] != low or label[j] != low:
                label[i] = label[j] = low
                changed = True
    return [[i for i in range(n) if label[i] == root] for root in sorted(set(label))]


def reference_cluster(values, radius):
    """The vectorized clustering solve_univariate used."""
    lim = radius * np.maximum(1.0, np.abs(values))
    close = np.abs(values[:, None] - values[None, :]) <= lim[:, None]
    return reference_components(len(values), list(zip(*np.nonzero(np.triu(close, 1)))))


def reference_residual_scale(p, z):
    return float(np.max(np.abs(p.coeffs))) * max(1.0, abs(z)) ** p.degree


def reference_solve(p, tol, newton=reference_newton):
    """solve_univariate as it was: np.roots, numpy clustering and means, a derivative chain per root."""
    raw = np.roots(p.coeffs[::-1])

    def polish(z, m):
        target = p
        for _ in range(m - 1):
            target = target.derivative()
        return newton(target, z)

    roots = [(polish(complex(np.mean(raw[g])), len(g)), len(g)) for g in reference_cluster(raw, tol.tau_cluster)]
    merged = []
    for g in reference_cluster(np.array([z for z, _ in roots]), tol.tau_cluster):
        mult = sum(roots[i][1] for i in g)
        z = complex(np.mean([roots[i][0] for i in g]))
        if len(g) > 1:
            z = polish(z, mult)
        merged.append((z, mult))
    for z, m in merged:
        res = abs(p(z))
        if res > tol.tau_root * reference_residual_scale(p, z):
            raise NumericalError(
                f"root polishing failed: residual {res:.3g} at {z:.6g} "
                f"exceeds {tol.tau_root:g} relative"
            )
    merged.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return merged


disc_point = st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)
unit_disc = st.complex_numbers(max_magnitude=1.0, allow_subnormal=False)
unit_lead = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1.0, allow_subnormal=False)


@st.composite
def root_lists(draw):
    """Polynomials from roots (degree 1 to 18) or from unit-disc coefficients (degree 1 to 70).

    Root lists hold simple, doubled and tripled roots and pairs about 1e-8
    apart.  Coefficient vectors reach degree 70, so that the pair loop
    clusters dozens of roots, and have some lowest-degree coefficients
    exactly zero, so that np.roots splits off roots at zero.
    """
    if draw(st.booleans()):
        degree = draw(st.integers(1, 70))
        coeffs = draw(st.lists(unit_disc, min_size=degree, max_size=degree))
        zeros = draw(st.integers(0, degree))
        coeffs[:zeros] = [0j] * zeros
        return UniPoly(coeffs + [draw(unit_lead)])
    roots = []
    for _ in range(draw(st.integers(1, 12))):
        r = draw(disc_point)
        kind = draw(st.sampled_from(["simple", "double", "triple", "near pair"]))
        if kind == "near pair":
            group = [r, r + 1e-8 * np.exp(1j * draw(st.floats(0, 6.3))) * draw(st.floats(0.5, 2.0))]
        else:
            group = [r] * {"simple": 1, "double": 2, "triple": 3}[kind]
        roots.extend(group[: 18 - len(roots)])
    lead = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_subnormal=False))
    return UniPoly.from_roots(roots, lead)


def bits(z: complex) -> tuple[str, str]:
    """Exact bits of a complex number, signed zeros included."""
    return z.real.hex(), z.imag.hex()


@settings(PROPERTY, max_examples=200)
@given(root_lists())
def test_solver_polish_is_bit_identical_to_the_per_root_polish(p):
    try:
        want = reference_solve(p, DEFAULT_TOLERANCES)
    except NumericalError as err:
        with pytest.raises(NumericalError) as got:
            solve_univariate(p)
        assert str(got.value) == str(err)
        return
    got = solve_univariate(p)
    assert [m for _, m in got] == [m for _, m in want]
    assert [bits(z) for z, _ in got] == [bits(z) for z, _ in want]


def rounding_radius(p, m, z):
    """A bound on how far roundoff in Horner's sums lets Newton's iterates wander from a root.

    The (m-1)-th derivative h of p is evaluated at z with an error of at
    most 2 d eps sum |h_i| |z|^i (degree d), so its polish settles within
    that over |h'(z)|; the radius doubles the bound for complex rounding.
    """
    for _ in range(m - 1):
        p = p.derivative()
    h = UniPoly(np.abs(p.coeffs))
    return 4 * p.degree * EPS * abs(h(abs(z))) / abs(p.derivative()(z))


@settings(PROPERTY, max_examples=200)
@given(root_lists())
def test_the_rounding_stop_lands_beside_the_capped_polish(p):
    """Every root of the rounding stop lies within its rounding radius, plus a few ulps, of the capped polish's."""
    try:
        want = reference_solve(p, DEFAULT_TOLERANCES, newton=capped_newton)
    except NumericalError:
        with pytest.raises(NumericalError):
            solve_univariate(p)
        return
    got = solve_univariate(p)
    assert sorted(m for _, m in got) == sorted(m for _, m in want)
    for z, m in want:
        near = min((w for w, _ in got), key=lambda w: abs(w - z))
        assert abs(near - z) <= rounding_radius(p, m, z) + 4 * EPS * max(1.0, abs(z))


@pytest.mark.parametrize("A, B", [(0.0, -1.0), (1.0, 0.0), (0.3 + 0.2j, -0.7 + 0.1j)])
@pytest.mark.parametrize("m", range(3, 13))
def test_solver_is_bit_identical_on_division_polynomials(m, A, B):
    """The frozen division polynomials of tests/oracles.py, up to degree 70; (0, -1) is the Fermat chart."""
    p = division_polys(m, A, B)[m]
    want = reference_solve(p, DEFAULT_TOLERANCES)
    got = solve_univariate(p)
    assert [k for _, k in got] == [k for _, k in want]
    assert [bits(z) for z, _ in got] == [bits(z) for z, _ in want]


signed_part = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0, allow_subnormal=False)


@PROPERTY
@given(st.lists(st.builds(complex, signed_part, signed_part), min_size=2, max_size=71))
def test_derivative_has_the_bits_of_polyder(coeffs):
    """Signed zeros included: zero parts are drawn with both signs."""
    assume(coeffs[-1] != 0)
    want = UniPoly(coeffs).derivative().coeffs[::-1].tolist()
    assert [bits(c) for c in _derivative(coeffs[::-1])] == [bits(c) for c in want]


@st.composite
def root_clouds(draw):
    """Points up to modulus 10 and copies of them near the cluster radius, in any direction.

    Up to 19 values.
    """
    radius = DEFAULT_TOLERANCES.tau_cluster
    values = draw(st.lists(st.complex_numbers(max_magnitude=10.0, allow_subnormal=False), min_size=1, max_size=5))
    for v in draw(st.lists(st.sampled_from(values), max_size=14)):
        # 1 + 1e-6 brackets both the radius of v and that of the copy
        reach = radius * max(1.0, abs(v)) * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        values.append(v + reach * np.exp(1j * draw(st.floats(0, 6.3))))
    return draw(st.permutations(values))


@PROPERTY
@given(root_clouds())
def test_cluster_matches_the_vectorized_rule_at_the_radius(values):
    radius = DEFAULT_TOLERANCES.tau_cluster
    assert _cluster(values, radius) == reference_cluster(np.array(values), radius)


point_coord = st.complex_numbers(max_magnitude=3.0, allow_subnormal=False) | st.just(0j)
CUBIC_KEYS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
UNITS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@st.composite
def cubic_dicts_and_points(draw):
    """Unit-disc coefficients keyed by exponent triple, some zero, and a point with some zero coordinates."""
    coeffs = draw(st.lists(unit_disc, min_size=10, max_size=10))
    for i in draw(st.sets(st.integers(0, 9), max_size=6)):
        coeffs[i] = 0j
    assume(any(coeffs))
    v = draw(st.lists(point_coord, min_size=3, max_size=3))
    return dict(zip(CUBIC_KEYS, coeffs)), np.array(v, dtype=complex)


def monomial_terms(coeffs, v, derivs):
    """The terms of the partial derivative along the unit vectors derivs, at v, one per surviving monomial."""
    out = []
    for key, c in coeffs.items():
        exps = list(key)
        scale = c
        for unit in derivs:
            i = unit.index(1)
            scale *= exps[i]
            exps[i] -= 1
        if scale != 0:
            out.append(scale * v[0] ** exps[0] * v[1] ** exps[1] * v[2] ** exps[2])
    return out


@PROPERTY
@given(cubic_dicts_and_points())
def test_gradient_matches_the_monomial_sum(case):
    # each partial is a sum of at most six products of at most four factors,
    # so roundoff stays below 1e-14 of the sum of the terms' moduli
    coeffs, v = case
    got = CubicForm.from_coeffs(coeffs).gradient(v)
    for i, unit in enumerate(UNITS):
        terms = monomial_terms(coeffs, v, [unit])
        assert abs(got[i] - sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)


# 128 times the smallest subnormal: one half for each of the at most 256
# roundings behind an entry of _forms_at or of gradient
UNDERFLOW = 128 * 2.0**-1074


@PROPERTY
@given(st.lists(cubic_dicts_and_points(), min_size=1, max_size=3))
def test_batched_forms_match_evaluate_and_gradient(cases):
    # every cubic at every point in one call, within the bound above: the
    # value is a third of x . gradient, whose terms are three times those
    # of the monomial sum, so the same sum of moduli bounds its roundoff.
    # evaluate is _forms_at's one-row case, so the value is held to the
    # monomial sum itself.
    # Products that underflow lose up to half the smallest subnormal each,
    # which no relative bound covers; UNDERFLOW allows for them.
    cubics = [CubicForm.from_coeffs(coeffs) for coeffs, _ in cases]
    points = np.array([v for _, v in cases])
    values, grads = _forms_at(np.stack([f._tensor for f in cubics]), points)
    for col, ((coeffs, _), f) in enumerate(zip(cases, cubics)):
        for n, v in enumerate(points):
            terms = monomial_terms(coeffs, v, [])
            bound = 1e-14 * sum(abs(t) for t in terms) + UNDERFLOW
            assert abs(values[n, col] - sum(terms)) <= bound
            want = f.gradient(v)
            for i, unit in enumerate(UNITS):
                terms = monomial_terms(coeffs, v, [unit])
                bound = 1e-14 * sum(abs(t) for t in terms) + UNDERFLOW
                assert abs(grads[n, col, i] - want[i]) <= bound


@PROPERTY
@given(cubic_dicts_and_points())
def test_hessian_is_the_determinant_of_the_second_partials(case):
    # every product in the determinant's expansion is bounded by the
    # permanent of the termwise moduli, and so is the roundoff of both sides
    coeffs, v = case
    f = CubicForm.from_coeffs(coeffs)
    S = np.zeros((3, 3), dtype=complex)
    A = np.zeros((3, 3))
    for i, ui in enumerate(UNITS):
        for j, uj in enumerate(UNITS):
            terms = monomial_terms(coeffs, v, [ui, uj])
            S[i, j] = sum(terms)
            A[i, j] = sum(abs(t) for t in terms)
    perm = sum(A[0, p[0]] * A[1, p[1]] * A[2, p[2]] for p in itertools.permutations(range(3)))
    try:
        h = f.hessian()
    except InputError:  # a cone has a zero Hessian
        assert np.abs(np.linalg.det(S)) <= 1e-13 * perm
        return
    assert abs(h.evaluate(v) - np.linalg.det(S)) <= 1e-13 * perm


# The Levi-Civita symbol that the four-operand einsum of the slice contractions read.
LEVI_CIVITA = np.zeros((3, 3, 3))
for p in itertools.permutations(range(3)):
    LEVI_CIVITA[p] = (p[1] - p[0]) * (p[2] - p[0]) * (p[2] - p[1]) / 2


@st.composite
def tensor_stacks(draw):
    """One to three tensors (3, 3, 3) of unit-disc entries, some of them zero."""
    m = draw(st.integers(1, 3))
    entries = draw(st.lists(unit_disc, min_size=27 * m, max_size=27 * m))
    for i in draw(st.sets(st.integers(0, 27 * m - 1), max_size=9 * m)):
        entries[i] = 0j
    return np.array(entries, dtype=complex).reshape(m, 3, 3, 3)


@PROPERTY
@given(tensor_stacks())
def test_slice_contractions_match_the_levi_civita_einsum(S):
    # each entry is a sum of six triple products, so both sides round within
    # 1e-15 of the sum of their moduli, and underflowing products within UNDERFLOW
    want = np.einsum("pqr,ipa,jqb,krc->ijkabc", LEVI_CIVITA, S[:, 0], S[:, 1], S[:, 2])
    A = np.abs(S)
    moduli = np.einsum("pqr,ipa,jqb,krc->ijkabc", np.abs(LEVI_CIVITA), A[:, 0], A[:, 1], A[:, 2])
    got = curve._slice_contractions(S)
    assert got.shape == want.shape
    assert (np.abs(got - want) <= 1e-15 * moduli + UNDERFLOW).all()


@PROPERTY
@given(disc_point)
def test_hessian_of_a_hesse_member_has_equal_cube_coefficients_to_the_bit(lam):
    # x^3 + y^3 + z^3 + lam xyz is symmetric under permuting coordinates, and
    # the Hessian's factor of 216 comes last, in one rounding, to keep it so
    h = hesse_cubic(lam)._hessian.coeffs
    assert bits(h[0]) == bits(h[6]) == bits(h[9])


def reference_fiber_poly(C, u):
    """The fiber of a chart grid at u: np.abs twice, and a branch that leaves the zero fiber alone."""
    vu = u ** np.arange(C.shape[0])
    vec = vu @ C
    top = np.abs(vec).max()
    if top > 0.0:
        vec = np.where(np.abs(vec) > 1e-12 * top, vec, 0.0)
    return UniPoly(vec)


# The bivariate elimination of the singular-point search as it last stood
# in the package, frozen here as the flex oracle's engine: dense chart grids
# C[a, b] = coefficient of u^a v^b, their common zeros by a sampled
# resultant in u and the roots of the fibers in v.


def grid_trim(C):
    """The grid with entries below 1e-12 of its largest zeroed and trailing zero rows and columns cut."""
    top = np.abs(C).max() if C.size else 0.0
    if top == 0.0:
        return np.zeros((1, 1), dtype=complex)
    keep = np.abs(C) > 1e-12 * top
    rows = np.nonzero(keep.any(axis=1))[0]
    cols = np.nonzero(keep.any(axis=0))[0]
    out = C[: rows[-1] + 1, : cols[-1] + 1].copy()
    out[np.abs(out) <= 1e-12 * top] = 0.0
    return out


def grid_is_zero(C):
    return bool(np.abs(C).max() == 0.0) if C.size else True


def grid_partial(C, axis):
    if C.shape[axis] == 1:
        return np.zeros((1, 1), dtype=complex)
    if axis == 0:
        return C[1:, :] * np.arange(1, C.shape[0]).reshape(-1, 1)
    return C[:, 1:] * np.arange(1, C.shape[1]).reshape(1, -1)


def sampled_resultant(A, B, samples=32, phase=0.5):
    """Resultant of two grids with respect to v, as a polynomial in u, or None when it vanishes.

    The Sylvester determinant at 32 points of the unit circle gives the
    coefficients by one FFT (the true degree here is at most 18).
    """
    ts = np.exp(1j * (2.0 * np.pi * np.arange(samples) / samples + phase))
    va = (ts[:, None] ** np.arange(A.shape[0])[None, :]) @ A
    vb = (ts[:, None] ** np.arange(B.shape[0])[None, :]) @ B
    dets, scale = sylvester_dets(va, vb)
    # dets[t] = sum_k c_k exp(i k phase) zeta^{t k}; the forward FFT over N
    # inverts that expansion (numpy's ifft flips the frequency sign)
    coeffs = np.fft.fft(dets) / samples / np.exp(1j * phase * np.arange(samples))
    top = np.abs(coeffs).max()
    if top == 0.0 or not np.isfinite(top) or top <= 1e-9 * scale:
        return None  # identically zero up to roundoff: a shared factor
    coeffs = np.where(np.abs(coeffs) > 1e-11 * top, coeffs, 0.0)
    deg = np.nonzero(coeffs)[0][-1]
    if deg >= samples - 4:
        raise NumericalError("sampled resultant degree hit the sampling bound")
    poly = UniPoly(coeffs[: deg + 1])
    if poly.degree == 0:
        return None if abs(poly.coeffs[0]) <= 1e-9 * max(1.0, top) else poly
    return poly


def roots_simple(poly, tol):
    try:
        return [z for z, _ in solve_univariate(poly, tol)]
    except (InputError, NumericalError):
        return []


def pair_candidates(A, B, third, tol):
    """Common-zero candidates (u, v) of grids A and B; None when the pair degenerates."""
    va, vb = A.shape[1] - 1, B.shape[1] - 1
    cands = []
    if va >= 1 and vb >= 1:
        R = sampled_resultant(A, B)
        if R is None or R.degree == 0:
            return None
        for u0 in roots_simple(R, tol):
            fiber = reference_fiber_poly(A, u0)
            if fiber.degree == 0:
                fiber = reference_fiber_poly(B, u0)
            if fiber.degree == 0:
                fiber = reference_fiber_poly(third, u0)
            if fiber.degree == 0:
                cands.append((u0, 0.0))
                continue
            cands.extend((u0, v0) for v0 in roots_simple(fiber, tol))
        return cands
    if va == 0 and vb == 0:
        return None  # only a cone's grids, or a pair with a nonzero constant
    # one side free of v: its u-roots fix the fibers of the other
    flat, curved = (B, A) if vb == 0 else (A, B)
    if flat.shape[0] == 1:
        return None  # nonzero constant, no common zeros through this pair
    for u0 in roots_simple(UniPoly(flat[:, 0]), tol):
        fiber = reference_fiber_poly(curved, u0)
        if fiber.degree >= 1:
            cands.extend((u0, v0) for v0 in roots_simple(fiber, tol))
        else:
            cands.append((u0, 0.0))
    return cands


def reference_grid_eval(C, u, v):
    """A chart grid's value at (u, v), from fresh power vectors."""
    vu = u ** np.arange(C.shape[0])
    vv = v ** np.arange(C.shape[1])
    return complex(vu @ C @ vv)


def reference_newton_pair(F, H, u, v, iters=30):
    """The elimination's flex polish as it was: Newton on chart grids, six grid evaluations per step."""
    Fu, Fv = grid_partial(F, 0), grid_partial(F, 1)
    Hu, Hv = grid_partial(H, 0), grid_partial(H, 1)
    for _ in range(iters):
        vals = np.array([reference_grid_eval(F, u, v), reference_grid_eval(H, u, v)])
        J = np.array(
            [
                [reference_grid_eval(Fu, u, v), reference_grid_eval(Fv, u, v)],
                [reference_grid_eval(Hu, u, v), reference_grid_eval(Hv, u, v)],
            ]
        )
        try:
            step = np.linalg.solve(J, -vals)
        except np.linalg.LinAlgError:
            return None
        u += complex(step[0])
        v += complex(step[1])
        if max(abs(u), abs(v)) > 1e7:
            return None
        if np.abs(step).max() <= 1e-15 * max(1.0, abs(u), abs(v)):
            break
    return u, v


def chart_grid(f, chart):
    """C[a, b] = coefficient of u^a v^b with coordinate chart set to 1, (u, v) the other two in order."""
    others = [i for i in range(3) if i != chart]
    C = np.zeros((4, 4), dtype=complex)
    for key, c in dict(zip(curve._MONOMIALS, f.coeffs)).items():
        C[key[others[0]], key[others[1]]] += c
    return C


def chart_point(chart, u, v):
    """The point with coordinate chart set to 1 and (u, v) in the other two, in order."""
    coords = np.empty(3, dtype=complex)
    others = [i for i in range(3) if i != chart]
    coords[chart] = 1.0
    coords[others[0]] = u
    coords[others[1]] = v
    return coords


def reference_flexes(f, tol=DEFAULT_TOLERANCES):
    """The flex search as it was: an elimination in all three coordinate charts, merged.

    The elimination is the frozen copy above; the polish is the chart-grid Newton, and the merge the greedy dedupe ranked
    by the larger of the f and H residuals. The search alone is good to
    about 1e-12, so each merged point is then polished in mpmath (mp_flex)
    and the reference is as accurate as a double can hold.
    """
    h = f.hessian()
    found = []
    hess_res = []
    for chart in range(3):
        F = grid_trim(chart_grid(f, chart))
        H = grid_trim(chart_grid(h, chart))
        if grid_is_zero(F) or grid_is_zero(H):
            continue
        cands = pair_candidates(F, H, F, tol)
        if cands is None:
            continue
        hs = float(np.abs(H).max())
        for u0, v0 in cands:
            box = max(1.0, abs(u0), abs(v0)) ** 3
            if abs(reference_grid_eval(H, u0, v0)) > 1e-2 * hs * box:
                continue
            polished = reference_newton_pair(F, H, u0, v0)
            if polished is None:
                continue
            u1, v1 = polished
            P = normalize_point(chart_point(chart, u1, v1))
            rf = abs(f.evaluate(P)) / f.norm_inf
            rh = abs(h.evaluate(P)) / h.norm_inf
            if rf <= tol.tau_on_curve and rh <= tol.tau_on_curve:
                found.append(CurvePoint(P, rf))
                hess_res.append(max(rf, rh))
    merged = greedy_dedupe(found, tol.tau_match, hess_res)
    if len(merged) != 9:
        raise NumericalError(
            f"degenerate elimination: expected 9 inflections, settled on {len(merged)}"
        )
    polished = [mp_flex(f, cp.array) for cp in merged]
    points = [CurvePoint(P, abs(f.evaluate(P)) / f.norm_inf) for P in polished]
    return PointSet(points, tol.tau_match).sorted_canonical()


def mp_partial(f, X, axes):
    """The partial derivative of f along the coordinates in axes, at the mpmath point X."""
    total = mpmath.mpc(0)
    for e, c in zip(curve._MONOMIALS, f.coeffs):
        e, factor = list(e), 1
        for a in axes:
            factor *= e[a]
            e[a] -= 1
        if factor and c:
            total += factor * mpmath.mpc(complex(c)) * X[0] ** e[0] * X[1] ** e[1] * X[2] ** e[2]
    return total


def det3(M):
    """The determinant of a 3x3 nested list, by cyclic cofactors along the first row."""
    i, j, k = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    return sum(M[0][a] * (M[1][b] * M[2][c] - M[1][c] * M[2][b]) for a, b, c in zip(i, j, k))


def mp_flex(f, v, dps=50, iters=8):
    """The flex near v, by Newton on (f, H) = 0 in mpmath at dps digits.

    H(X) is the determinant of f's second partials at X, and its partials
    come from Jacobi's formula one row at a time (the third partials of a
    cubic are constants), so no Hessian coefficient is ever rounded to a
    double. The largest coordinate of v stays at 1.
    """
    pivot = int(np.abs(v).argmax())
    q, r = (i for i in range(3) if i != pivot)
    with mpmath.workdps(dps):
        X = [mpmath.mpc(complex(c)) for c in v / v[pivot]]
        X[pivot] = mpmath.mpc(1)
        third = [[[mp_partial(f, X, (a, b, k)) for b in range(3)] for a in range(3)] for k in range(3)]
        for _ in range(iters):
            M = [[mp_partial(f, X, (a, b)) for b in range(3)] for a in range(3)]

            def dH(k):
                return sum(det3(M[:a] + [third[k][a]] + M[a + 1:]) for a in range(3))

            F, H = mp_partial(f, X, ()), det3(M)
            a, b = mp_partial(f, X, (q,)), mp_partial(f, X, (r,))
            c, d = dH(q), dH(r)
            det = a * d - b * c
            du, dv = (b * H - d * F) / det, (c * F - a * H) / det
            X[q] += du
            X[r] += dv
            if max(abs(du), abs(dv)) < mpmath.mpf(10) ** (5 - dps):
                break
        return normalize_point(np.array([complex(x) for x in X]))


def assert_same_flexes(got, want, bound=1e-12):
    """The same nine points in the same canonical order, within bound chordal."""
    assert len(got) == len(want) == 9
    assert np.diag(chordal_matrix(got.arrays, want.arrays)).max() <= bound


@st.composite
def smooth_unit_disc_cubics(draw):
    """Unit-disc coefficients, some of them zero, smooth with random_smooth_cubic's margin."""
    coeffs = draw(st.lists(unit_disc, min_size=10, max_size=10))
    for i in draw(st.sets(st.integers(0, 9), max_size=6)):
        coeffs[i] = 0j
    assume(any(coeffs))
    f = CubicForm.from_coeffs(dict(zip(CUBIC_KEYS, coeffs)))
    assume(smoothness(f).margin >= 1e-3)
    return f


@PROPERTY
@given(smooth_unit_disc_cubics())
def test_one_frame_flexes_match_the_three_chart_search(f):
    assert_same_flexes(_flexes_of_smooth(f, DEFAULT_TOLERANCES), reference_flexes(f))


@pytest.mark.parametrize("pencil", [None, 0.5, 1j, -2.9, 5.0])
def test_one_frame_flexes_match_on_the_hesse_pencil(pencil):
    f = fermat_cubic() if pencil is None else hesse_cubic(pencil)
    assert_same_flexes(_flexes_of_smooth(f, DEFAULT_TOLERANCES), reference_flexes(f))


# A flex of this cubic, near (0 : 1 : 0), has z = -1.67e-12; the three-chart
# search alone puts it at z = -4.2e-13, 1.25e-12 chordal away, so only the
# polished reference can hold the program to 1e-14.
NEAR_LINE = {(2, 1, 0): 1.0, (1, 2, 0): 0.5, (1, 1, 1): 0.25, (0, 3, 0): 1e-11, (0, 0, 3): 0.5}


def test_flexes_match_the_polished_reference_to_1e_14():
    f = CubicForm.from_coeffs(NEAR_LINE)
    assert smoothness(f).margin >= 1e-3
    assert_same_flexes(inflection_points(f), reference_flexes(f), 1e-14)


def test_singular_pencil_member_raises_under_both():
    # at lam = -3 the Hessian is proportional to f, so the pencil has no triangle
    f = hesse_cubic(-3.0)
    assert f.hessian().proportionality_residual(f) <= 1e-15
    with pytest.raises(NumericalError):
        reference_flexes(f)
    with pytest.raises(NumericalError):
        _flexes_of_smooth(f, DEFAULT_TOLERANCES)


# The unitary frame the flex elimination once searched first, frozen here: the
# QR factor of a fixed matrix. Curves placed against it have flexes on its
# line at infinity, where that search had to fall back on other frames.
U0 = np.linalg.qr(
    np.array(
        [
            [0.82 + 0.31j, -0.27 + 0.55j, 0.44 - 0.19j],
            [0.13 - 0.68j, 0.71 + 0.22j, -0.35 + 0.47j],
            [-0.52 + 0.09j, 0.38 - 0.41j, 0.66 + 0.58j],
        ]
    )
)[0]


def pushed_hesse_member(S):
    """hesse_cubic(0.5) moved by U0 @ S: its flex (0:1:-1) goes to U0 @ S @ (0, 1, -1)."""
    return hesse_cubic(0.5).compose_linear(np.linalg.inv(U0 @ S))


def reference_correct_flexes(f, near, tol=DEFAULT_TOLERANCES):
    """curve._correct_flexes as it was: its own Newton loop, abandoned at the first bad row."""
    h = f.hessian()
    X = np.array(near, dtype=complex).reshape(9, 3)
    rows = np.arange(9)
    pivot = np.abs(X).argmax(axis=1)
    X /= X[rows, pivot][:, None]
    X[rows, pivot] = 1.0
    q, r = np.array([[1, 2], [0, 2], [0, 1]])[pivot].T
    T = np.stack([f._tensor, h._tensor])
    last = np.full(9, np.inf)
    moving = np.ones(9, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(10):
            G = 3.0 * np.einsum("aijk,nj,nk->nai", T, X, X)
            V = (G * X[:, None, :]).sum(axis=2) / 3.0
            a, b = G[rows, 0, q], G[rows, 0, r]
            c, d = G[rows, 1, q], G[rows, 1, r]
            det = a * d - b * c
            du = np.where(moving, (b * V[:, 1] - d * V[:, 0]) / det, 0.0)
            dv = np.where(moving, (c * V[:, 0] - a * V[:, 1]) / det, 0.0)
            size = np.maximum(np.abs(du), np.abs(dv))
            if not (size <= 0.5 * last).all():
                return None
            X[rows, q] += du
            X[rows, r] += dv
            last = size
            moving &= size > 1e-12
            if not moving.any():
                break
        else:
            return None
    points = []
    for row in X:
        P = normalize_point(row)
        rf, rh = abs(f.evaluate(P)) / f.norm_inf, abs(h.evaluate(P)) / h.norm_inf
        if rf > tol.tau_on_curve or rh > tol.tau_on_curve:
            return None
        points.append(CurvePoint(P, rf))
    out = PointSet(points, tol.tau_match)
    return out if out.min_separation() > 2.0 * tol.tau_match else None


def noise(draw, shape):
    """Complex entries with real and imaginary parts in [-1, 1]."""
    n = 2 * int(np.prod(shape))
    parts = np.array(draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n)))
    return (parts[::2] + 1j * parts[1::2]).reshape(shape)


@st.composite
def flex_stacks(draw):
    """The flexes of a smooth cubic, each row moved by relative noise from 1e-8 to 1e-2.

    Some stacks then have one row copied onto another, or one row replaced
    by a point far from every flex.
    """
    f = draw(smooth_unit_disc_cubics())
    X = _flexes_of_smooth(f, DEFAULT_TOLERANCES).arrays
    X = X + 10.0 ** draw(st.floats(-8, -2)) * noise(draw, (9, 3))
    i, j = draw(st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True))
    spoil = draw(st.sampled_from(["none", "duplicate row", "far row"]))
    if spoil == "duplicate row":
        X[j] = X[i]
    elif spoil == "far row":
        X[i] = np.asarray(draw(row), dtype=complex)
    return f, X


@PROPERTY
@given(flex_stacks())
def test_flex_corrector_has_the_bits_of_the_frozen_copy(case):
    f, near = case
    want = reference_correct_flexes(f, near)
    got = curve._correct_flexes(f, near, DEFAULT_TOLERANCES)
    assert (got is None) == (want is None)
    if want is not None:
        assert [bits(z) for cp in got for z in cp.point.coords] == [bits(z) for cp in want for z in cp.point.coords]
        assert [cp.residual for cp in got] == [cp.residual for cp in want]


@st.composite
def elimination_starts(draw):
    """A smooth cubic, its reference flexes, and starts the way the elimination hands them over.

    The starts mix points near flexes (relative noise from 1e-12 to 1e-3),
    roots of f on fibers of the chart z = 1 of the frame U0, which lie on
    the curve and mostly far off the Hessian, and random points, in a
    random order.
    """
    f = draw(smooth_unit_disc_cubics())
    flexes = reference_flexes(f).arrays
    starts = [
        flexes[i] + 10.0 ** draw(st.floats(-12, -3)) * noise(draw, 3)
        for i in draw(st.lists(st.integers(0, 8), max_size=9))
    ]
    F = grid_trim(chart_grid(f.compose_linear(U0), 2))
    for u in draw(st.lists(disc_point, max_size=3)):
        fiber = reference_fiber_poly(F, u)
        starts += [U0 @ np.array([u, v, 1.0]) for v in np.roots(fiber.coeffs[::-1])]
    starts += [np.asarray(v, dtype=complex) for v in draw(st.lists(row, max_size=5))]
    return f, flexes, [starts[k] for k in draw(st.permutations(range(len(starts))))]


@PROPERTY
@given(elimination_starts())
def test_newton_flexes_keeps_only_flexes_and_every_near_start(case):
    f, flexes, starts = case
    h = f.hessian()
    points = _newton_flexes(f, h, starts, DEFAULT_TOLERANCES)
    if points:
        assert chordal_matrix(np.stack([cp.array for cp in points]), flexes).min(axis=1).max() <= 1e-12
    # rows move independently: the batch keeps what each start keeps alone, in start order
    alone = [_newton_flexes(f, h, [s], DEFAULT_TOLERANCES) for s in starts]
    assert [cp.point for cp in points] == [cp.point for kept in alone for cp in kept]
    for s, kept in zip(starts, alone):
        if chordal_matrix(s, flexes).min() <= 1e-3:
            assert len(kept) == 1


def test_newton_flexes_of_no_starts_is_empty():
    f = fermat_cubic()
    assert len(_newton_flexes(f, f.hessian(), [], DEFAULT_TOLERANCES)) == 0


@PROPERTY
@given(flex_stacks())
def test_every_residual_is_residual_at_to_the_bit(case):
    # one formula for a cubic's value: the residual a CurvePoint carries is the
    # one residual_at takes at its point, whatever stack produced it
    f, near = case
    corrected = curve._correct_flexes(f, near, DEFAULT_TOLERANCES)
    points = [*inflection_points(f), *curve._polish_rows(f, near), *(corrected or [])]
    assert [cp.residual for cp in points] == [f.residual_at(cp.point) for cp in points]


@st.composite
def row_sets(draw):
    """A normalized stack with residuals, some of its rows repeated up to a nudge, a tolerance, and other rows."""
    X = draw(st.lists(row, max_size=7))
    for v in draw(st.lists(st.sampled_from(X), max_size=2)) if X else []:
        X.append(nudged(v, draw(nudge)))
    W = _normalize_rows(np.array(X, dtype=complex).reshape(-1, 3))
    residuals = draw(st.lists(st.floats(0.0, 1e-8), min_size=len(W), max_size=len(W)))
    tolerance = draw(st.sampled_from([0.0, 1e-9, 1e-6, 1.0]))
    other = np.array(draw(st.lists(row, min_size=1, max_size=4)), dtype=complex)
    return W, residuals, tolerance, other


@PROPERTY
@given(row_sets())
def test_a_set_built_from_rows_is_the_set_of_its_points(case):
    W, residuals, tolerance, other = case
    built = PointSet._of_rows(W, residuals, tolerance)
    listed = PointSet(list(built.points), tolerance)
    for cp, w, r in zip(built.points, W.tolist(), residuals):
        assert [bits(z) for z in cp.point.coords] == [bits(z) for z in w]
        assert cp.residual == r
    assert len(built) == len(listed) == len(W)
    assert built.arrays.shape == listed.arrays.shape and built.arrays.tobytes() == listed.arrays.tobytes()
    shuffled = PointSet(built.points[::-1], tolerance)
    assert built.match(shuffled) == listed.match(shuffled)
    assert built.match(built) == listed.match(listed)
    assert built.min_separation() == listed.min_separation()
    assert built.sorted_canonical().points == listed.sorted_canonical().points
    for rows in (W, other):
        assert built._distances_from(rows).tobytes() == chordal_matrix(rows, W).tobytes()


@PROPERTY
@given(flex_stacks())
def test_corrected_flexes_keep_the_distances_from_their_start_rows(case):
    # one distance matrix gives the separation and the kept block, with the
    # bits of the matrices it replaces
    f, near = case
    corrected = curve._correct_flexes(f, near, DEFAULT_TOLERANCES)
    assume(corrected is not None)
    W = corrected.arrays
    assert corrected.min_separation() == PointSet(list(corrected.points), 1e-6).min_separation()
    for rows in (near, near.copy(), W):
        assert corrected._distances_from(rows).tobytes() == chordal_matrix(rows, W).tobytes()


# S sends (0, 1, -1) to (0.5, -1.5, 0), so that flex lies on U0's line at infinity
GENERIC_PUSH = np.array([[0.3, 1.2, 0.7], [0.5, -0.4, 1.1], [0.9, 0.6, 0.6]])
# S sends the base points with x + y + z = 0, with y = 0 and with z = 0 (three
# each) to the lines at infinity of U0 and of its two cyclic column shifts
HESSE_PUSH = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize("push", [GENERIC_PUSH, HESSE_PUSH], ids=["generic", "hesse"])
def test_pushed_hesse_members_match_the_three_chart_search(push):
    f = pushed_hesse_member(push)
    assert_same_flexes(_flexes_of_smooth(f, DEFAULT_TOLERANCES), reference_flexes(f))


# The smoothness gate against oracles that do not run it: a singular point
# planted by construction, the unitary invariance of its margin, and the
# linear growth of its margin off two known singular cubics.

PLANT_ZEROS = [curve._MONOMIALS.index(m) for m in ((1, 0, 2), (0, 1, 2), (0, 0, 3))]


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_planted_singular_point_is_found(seed):
    # zero z^3, xz^2 and yz^2 coefficients put a node at (0:0:1); the
    # pull-back by A moves it to A^-1 (0, 0, 1)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    coeffs[PLANT_ZEROS] = 0.0
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rep = smoothness(CubicForm(coeffs).compose_linear(A))
    assert not rep.smooth
    planted = np.linalg.solve(A, np.array([0.0, 0.0, 1.0]))
    assert chordal_matrix(rep.witness.array.reshape(1, 3), planted.reshape(1, 3))[0, 0] <= DEFAULT_TOLERANCES.tau_match


# The witness against singular points known by construction: planted cusps
# and tacnodes, the vertices of a triangle and the two points where a line cuts a conic,
# and the singular line of a cubic with a repeated line.


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def product_of_lines(*lines):
    """The cubic l1 l2 l3, expanded monomial by monomial."""
    coeffs = {}
    for picks in itertools.product(range(3), repeat=3):
        key = tuple(picks.count(v) for v in range(3))
        coeffs[key] = coeffs.get(key, 0) + np.prod([l[i] for l, i in zip(lines, picks)])
    return CubicForm.from_coeffs(coeffs)


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_planted_cusp_is_found(seed):
    # z l(x, y)^2 + c(x, y) has a cusp at (0:0:1) with tangent l = 0 unless
    # l divides c; the pull-back by A moves it to A^-1 (0, 0, 1)
    rng = np.random.default_rng(seed)
    a, b = random_complex(rng, 2)
    c = random_complex(rng, 4)
    f = CubicForm.from_coeffs(
        {(2, 0, 1): a * a, (1, 1, 1): 2 * a * b, (0, 2, 1): b * b}
        | dict(zip([(3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0)], c))
    )
    A = random_complex(rng, 3, 3)
    rep = smoothness(f.compose_linear(A))
    assert not rep.smooth
    assert chordal_distance(rep.witness.array, np.linalg.solve(A, [0.0, 0.0, 1.0])) <= DEFAULT_TOLERANCES.tau_match


# y (yz - x^2): the line y = 0 touches the conic yz = x^2 at (0:0:1), a tacnode
TACNODE = CubicForm.from_coeffs({(0, 2, 1): 1.0, (2, 1, 0): -1.0})


@PROPERTY
@given(st.integers(0, 2**32 - 1))
def test_planted_tacnode_is_found_to_2e_4(seed):
    # at a tacnode the partials meet with multiplicity three, so the
    # candidates carry about eps^(1/3) and Gauss-Newton's singular Jacobian
    # keeps the witness near 1e-5 (at most 5.6e-5 over 300 frames of rng 11)
    U, _ = np.linalg.qr(random_complex(np.random.default_rng(seed), 3, 3))
    rep = smoothness(TACNODE.compose_linear(U))
    assert not rep.smooth
    assert chordal_distance(rep.witness.array, np.linalg.solve(U, [0.0, 0.0, 1.0])) <= 2e-4


TRIANGLE = product_of_lines([1, 0, 0], [0, 1, 0], [0, 0, 1])
# the conic xz - y^2 times the line y = 0, which cuts it at (1:0:0) and (0:0:1)
CONIC_TIMES_SECANT = CubicForm.from_coeffs({(1, 1, 1): 1.0, (0, 3, 0): -1.0})


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from(["triangle", "conic_times_secant"]))
def test_witness_is_the_singular_point_of_largest_canonical_key(seed, name):
    f, singular = {
        "triangle": (TRIANGLE, np.eye(3)),
        "conic_times_secant": (CONIC_TIMES_SECANT, np.eye(3)[[0, 2]]),
    }[name]
    A = random_complex(np.random.default_rng(seed), 3, 3)
    g = f.compose_linear(A)
    rep = smoothness(g)
    assert not rep.smooth
    want = max((normalize_point(np.linalg.solve(A, p)) for p in singular), key=_canonical_key)
    assert chordal_distance(rep.witness.array, want.array) <= DEFAULT_TOLERANCES.tau_match
    # Gauss-Newton converges quadratically at a node, down to roundoff
    assert np.linalg.norm(g.gradient(rep.witness.array)) <= 1e-14 * g.norm_inf


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.sampled_from(["l2m", "l3", "yz2"]))
def test_witness_of_a_repeated_line_lies_on_it(seed, name):
    # every point of the line l = 0 is singular on l^2 m and on l^3
    rng = np.random.default_rng(seed)
    l, m = random_complex(rng, 3), random_complex(rng, 3)
    if name == "yz2":
        l, m = np.array([0, 0, 1]), np.array([0, 1, 0])
    g = product_of_lines(l, l, l if name == "l3" else m)
    w = smoothness(g).witness.array
    assert abs(l @ w) <= DEFAULT_TOLERANCES.tau_match * np.linalg.norm(l) * np.linalg.norm(w)
    assert np.linalg.norm(g.gradient(w)) <= 1e-12 * g.norm_inf


def test_witness_near_a_cone_is_its_vertex():
    rep = smoothness(CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1e-9}))
    assert not rep.smooth
    assert rep.witness.coords == (0, 0, 1)


def test_witness_of_a_cone_in_random_unitary_frames_is_its_vertex():
    # at a triple point the gradient's Jacobian vanishes and Gauss-Newton
    # converges linearly: these 50 frames leave the witness at most 1.1e-8
    # from the vertex, and 500 general complex frames at most 2.4e-7
    rng = np.random.default_rng(13)
    cone = CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0})
    for _ in range(50):
        U, _ = np.linalg.qr(random_complex(rng, 3, 3))
        rep = smoothness(cone.compose_linear(U))
        assert not rep.smooth
        vertex = np.linalg.solve(U, [0.0, 0.0, 1.0])
        assert chordal_distance(rep.witness.array, vertex) <= DEFAULT_TOLERANCES.tau_match


@PROPERTY
@given(smooth_unit_disc_cubics(), st.lists(unit_disc, min_size=9, max_size=9))
def test_margin_is_invariant_under_a_unitary_change_of_coordinates(f, entries):
    U, _ = np.linalg.qr(np.array(entries).reshape(3, 3))
    margin = smoothness(f).margin
    assert abs(smoothness(f.compose_linear(U)).margin - margin) <= 1e-12 * margin


@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize(
    "family",
    [
        lambda eps: hesse_cubic(-3.0 + eps),
        lambda eps: CubicForm.from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): eps}),
    ],
    ids=["hesse_pencil", "cone_plus_z3"],
)
def test_margin_grows_linearly_off_the_discriminant(family, eps):
    margin = smoothness(family(eps)).margin
    assert 0.1 * eps <= margin <= 10.0 * eps


def reference_normalize(v) -> tuple[complex, complex, complex]:
    """normalize_point as it was while its pivot search ran on numpy arrays."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    mods = np.abs(a)
    top = mods.max()
    pivot = int(np.nonzero(mods >= top * (1.0 - 4.0 * np.finfo(float).eps))[0][0])
    w = a / a[pivot]
    w[pivot] = 1.0
    return (complex(w[0]), complex(w[1]), complex(w[2]))


coord_part = st.sampled_from([0.0, -0.0]) | st.floats(-4.0, 4.0, allow_subnormal=False)
coord = st.builds(complex, coord_part, coord_part)
EXACT_TURNS = [lambda z: z, lambda z: -z, lambda z: 1j * z, lambda z: -1j * z, lambda z: z.conjugate()]


@st.composite
def pivot_cases(draw):
    """A triple and k: two coordinates tied in modulus up to a factor 1 + k eps / 4, or k = None.

    The partner is an exact-modulus copy (turned by a sign, by i or by
    conjugation) scaled by 1 + k eps / 4 for |k| <= 24. The pivot slack is
    4 eps, so |k| = 16 is its edge and both sides of it are drawn.
    """
    if draw(st.booleans()):
        v, k = draw(st.lists(coord, min_size=3, max_size=3)), None
    else:
        a, other = draw(coord), draw(coord)
        k = draw(st.integers(-24, 24))
        v = draw(st.permutations([a, draw(st.sampled_from(EXACT_TURNS))(a) * (1.0 + k * EPS / 4), other]))
    assume(any(v))
    return np.array(v), k


@settings(PROPERTY, max_examples=400)
@given(pivot_cases())
def test_normalize_point_has_the_bits_of_the_frozen_copy(case):
    v, _ = case
    assert [bits(z) for z in normalize_point(v).coords] == [bits(z) for z in reference_normalize(v)]


@settings(PROPERTY, max_examples=400)
@given(pivot_cases())
def test_normalize_point_is_idempotent(case):
    v, k = case
    p = normalize_point(v).coords
    q = normalize_point(p).coords
    assert normalize_point(q).coords == q
    if k in (None, 0):
        assert q == p
    elif q != p:
        # the rounding of the division can lift a coordinate before the pivot
        # into the slack once; the pivot then moves to it, for the same point
        old, new = p.index(1), q.index(1)
        assert new < old and abs(p[new]) >= 1.0 - 8.0 * EPS
        assert chordal_matrix(np.array(p), np.array(q))[0, 0] <= 1e-15


QUARTER_TURNS = [1.0, -1.0, 1j, -1j]


@st.composite
def near_tie_rows(draw):
    """A triple (a, u a (1 + k eps / 2), c) in some order, |k| <= 12 and |c| about half |a|.

    Moduli this close sit at the edge of the pivot slack, where a second
    normalize_point can move the pivot (see the idempotence test above).
    """
    a = draw(coord)
    assume(a != 0)
    k = draw(st.integers(-12, 12))
    c = draw(coord)
    if c != 0:
        c *= 0.5 * abs(a) / abs(c) * draw(st.floats(0.9, 1.1))
    return np.array(draw(st.permutations([a, draw(st.sampled_from(QUARTER_TURNS)) * a * (1.0 + k * EPS / 2), c])))


@settings(PROPERTY, max_examples=300)
@given(st.lists(pivot_cases().map(lambda case: case[0]) | near_tie_rows(), min_size=1, max_size=8))
def test_normalized_rows_have_the_bits_of_the_frozen_copy(rows):
    got = _normalize_rows(np.stack(rows))
    assert got.shape == (len(rows), 3)
    for v, w in zip(rows, got.tolist()):
        assert [bits(z) for z in w] == [bits(z) for z in reference_normalize(v)]


@pytest.mark.parametrize(
    "bad",
    [[np.nan, 1.0, 0.0], [1.0, np.inf * 1j, 0.0], [0.0, 0.0, 0.0], [1e-310 + 1e-310j, 5e-311j, 0.0]],
    ids=["nan", "inf", "zero", "subnormal"],
)
def test_normalized_rows_raise_what_normalize_point_raises(bad):
    bad = np.array(bad, dtype=complex)
    with pytest.raises(InputError) as one:
        normalize_point(bad)
    with pytest.raises(InputError) as stack:
        _normalize_rows(np.stack([np.array([1.0, 2.0, 3.0j]), bad]))
    assert str(stack.value) == str(one.value)


# ---------------------------------------------------------------------------
# the 3x3 cofactor kernel against LAPACK


def unitary(seed: int) -> np.ndarray:
    return np.linalg.qr(random_complex(np.random.default_rng(seed), 3, 3))[0]


@st.composite
def conditioned_matrices(draw):
    """s U diag(1, sigma_2, sigma_3) V, U and V unitary: scale s from 1e-100 to 1e100, condition 1 / sigma_3 up to 1e8."""
    log3 = draw(st.floats(0.0, 8.0))
    sigma = 10.0 ** -np.array([0.0, draw(st.floats(0.0, 1.0)) * log3, log3])
    s = 10.0 ** draw(st.floats(-100.0, 100.0))
    return s * (unitary(draw(st.integers(0, 2**32 - 1))) * sigma) @ unitary(draw(st.integers(0, 2**32 - 1))), s, sigma


@settings(PROPERTY, max_examples=200)
@given(conditioned_matrices())
def test_cofactors_give_lapacks_determinant_and_inverse(case):
    A, s, sigma = case
    K = _cofactors(A)
    det, ref = A[0] @ K[0], np.linalg.det(A)
    # each cofactor rounds products of two rows, so det A = A[0] . K[0] is
    # off by a few ulps of s^3, the largest product of three rows; numpy's
    # det sums logarithms, which costs it about |log det| ulps of det
    assert abs(det - ref) <= 8.0 * EPS * (s**3 + abs(np.log(abs(ref))) * abs(ref))
    # relative to det, that is EPS times s^3 / |det| = 1 / (sigma_2 sigma_3),
    # which also bounds LU's error kappa EPS; below half, the inverse K.T / det
    # is off by as much relative to its largest entry (it is not claimed for a
    # determinant that is subnormal or known to no digit)
    hadamard = 1.0 / (sigma[1] * sigma[2])
    if abs(ref) >= np.finfo(float).tiny and 64.0 * EPS * hadamard <= 0.5:
        inv = np.linalg.inv(A)
        assert np.abs(K.T / det - inv).max() <= 16.0 * EPS * hadamard * np.abs(inv).max()


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(-30, 30))
def test_a_transform_is_its_matrix_over_the_principal_cube_root_of_lapacks_determinant(seed, exponent):
    M = 10.0**exponent * random_complex(np.random.default_rng(seed), 3, 3)
    want = M / np.linalg.det(M) ** (1.0 / 3.0)
    T = ProjectiveTransform(M)
    assert np.abs(T.matrix - want).max() <= 1e-12 * np.abs(want).max()
    inv = np.linalg.inv(want)
    assert np.abs(T.inverse().matrix - inv).max() <= 1e-12 * np.abs(inv).max()


# P9 of ROADMAP: the Fermat cubic plus 1e-17 times this real noise raised
# NumericalError before the pencil's quartic dropped its roundoff coefficients
_ROUNDOFF_NOISE = [
    0.5621166546881184, 0.5602005194734958, -0.6224567253694104, -0.00981504446292902, 0.0005379317968728325,
    0.05742743529375752, 2.1827353149228874, -0.2838465851137296, -0.2918414767913422, -0.45808678224024874,
]


@example(None, -17.0, _ROUNDOFF_NOISE)
@PROPERTY
@given(st.none() | st.integers(0, 2**32 - 1), st.floats(-17.0, -15.0), st.lists(st.floats(-3.0, 3.0), min_size=10, max_size=10))
def test_the_fermat_cubic_plus_roundoff_has_the_fermat_flexes(seed, exponent, noise):
    # in the identity frame (None) or a random unitary frame Q, whose flexes are Q^-1 times the Fermat flexes
    Q = np.eye(3) if seed is None else unitary(seed)
    f = CubicForm(fermat_cubic().compose_linear(Q).coeffs + 10.0**exponent * np.array(noise))
    D = chordal_matrix(inflection_points(f).arrays, np.linalg.solve(Q, curve._HESSE_BASE.T).T)
    assert max(D.min(axis=1).max(), D.min(axis=0).max()) <= 1e-13
