"""Property tests: each shared primitive and fast kernel against the code it replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the scalar cross-product chordal distance, the greedy dedupe loop
over scalar distances, brute-force subset sums of the layer counts, the
root solver's per-root polish through UniPoly.derivative and polyval, and
the gradient through the three partial polynomials.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints import (
    DEFAULT_TOLERANCES,
    CurvePoint,
    NumericalError,
    TriPoly,
    UniPoly,
    constructible_sizes,
    jordan_totient_2,
    normalize_point,
    size_witness,
)
from cubicpoints.curve import _dedupe
from cubicpoints.elliptic import _witnesses_up_to
from cubicpoints.numeric import _cluster, _residual_scale, chordal_matrix, solve_univariate

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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
    ranks = draw(st.none() | st.lists(st.floats(0, 1), min_size=len(rows), max_size=len(rows)))
    return [CurvePoint(normalize_point(v), r) for v, r in zip(rows, residuals)], ranks


@PROPERTY
@given(candidate_lists(), st.sampled_from([1e-8, 1e-6, 1e-4]))
def test_dedupe_keeps_what_the_greedy_loop_kept(cands, tolerance):
    points, ranks = cands
    index = {id(cp): i for i, cp in enumerate(points)}
    got = [index[id(cp)] for cp in _dedupe(points, tolerance, ranks)]
    want = [index[id(cp)] for cp in greedy_dedupe(points, tolerance, ranks)]
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
    """The per-root Newton polish that solve_univariate used."""
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


def reference_solve(p, tol):
    """solve_univariate with its earlier polish: a derivative chain per root."""
    raw = np.roots(p.coeffs[::-1])

    def polish(z, m):
        target = p
        for _ in range(m - 1):
            target = target.derivative()
        return reference_newton(target, z)

    roots = [(polish(complex(np.mean(raw[g])), len(g)), len(g)) for g in _cluster(raw, tol.tau_cluster)]
    merged = []
    for g in _cluster(np.array([z for z, _ in roots]), tol.tau_cluster):
        mult = sum(roots[i][1] for i in g)
        z = complex(np.mean([roots[i][0] for i in g]))
        if len(g) > 1:
            z = polish(z, mult)
        merged.append((z, mult))
    for z, m in merged:
        res = abs(p(z))
        if res > tol.tau_root * _residual_scale(p, z):
            raise NumericalError(
                f"root polishing failed: residual {res:.3g} at {z:.6g} "
                f"exceeds {tol.tau_root:g} relative"
            )
    merged.sort(key=lambda zm: (zm[0].real, zm[0].imag))
    return merged


disc_point = st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)


@st.composite
def root_lists(draw):
    """Roots of degree 1 to 18: simple, doubled, tripled, and pairs about 1e-8 apart."""
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
    return roots, lead


@PROPERTY
@given(root_lists())
def test_solver_polish_is_bit_identical_to_the_per_root_polish(case):
    roots, lead = case
    p = UniPoly.from_roots(roots, lead)
    try:
        want = reference_solve(p, DEFAULT_TOLERANCES)
    except NumericalError as err:
        with pytest.raises(NumericalError) as got:
            solve_univariate(p)
        assert str(got.value) == str(err)
        return
    got = solve_univariate(p)
    assert [m for _, m in got] == [m for _, m in want]
    assert [z for z, _ in got] == [z for z, _ in want]


monomial_coeff = st.complex_numbers(max_magnitude=10.0, allow_subnormal=False)
point_coord = st.complex_numbers(max_magnitude=3.0, allow_subnormal=False) | st.just(0j)


@st.composite
def forms_and_points(draw):
    degree = draw(st.sampled_from([1, 2, 3, 3, 3, 4]))
    keys = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=len(keys), unique=True))
    poly = TriPoly(degree, {key: draw(monomial_coeff) for key in chosen})
    return poly, np.array(draw(st.lists(point_coord, min_size=3, max_size=3)), dtype=complex)


@PROPERTY
@given(forms_and_points())
def test_gradient_is_bit_identical_to_evaluating_the_partials(case):
    poly, v = case
    want = np.array([poly.partial(i)(v) for i in range(3)], dtype=complex)
    assert np.array_equal(poly.gradient(v), want)
