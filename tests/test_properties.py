"""Property tests: each shared primitive and fast kernel against the code it replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the scalar cross-product chordal distance, the greedy dedupe loop
over scalar distances, brute-force subset sums of the layer counts, the
root solver as np.roots, vectorized clustering and a per-root polish
through UniPoly.derivative and polyval, the gradient through the three
partial polynomials, and the flex polish through six grid evaluations per
Newton step.  The references copy the code they replaced rather than
import it, so rewriting a kernel cannot rewrite its reference too.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicpoints import (
    DEFAULT_TOLERANCES,
    CubicForm,
    CurvePoint,
    InputError,
    NumericalError,
    TriPoly,
    UniPoly,
    constructible_sizes,
    jordan_totient_2,
    normalize_point,
    size_witness,
)
from cubicpoints.curve import _dedupe, _grid_is_zero, _grid_partial, _grid_trim, _newton_pair
from cubicpoints.elliptic import _division_polys, _witnesses_up_to
from cubicpoints.numeric import _cluster, _derivative, chordal_matrix, solve_univariate

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


def reference_solve(p, tol):
    """solve_univariate as it was: np.roots, numpy clustering and means, a derivative chain per root."""
    raw = np.roots(p.coeffs[::-1])

    def polish(z, m):
        target = p
        for _ in range(m - 1):
            target = target.derivative()
        return reference_newton(target, z)

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
    apart.  Coefficient vectors reach the degree of the largest division
    polynomial torsion_points solves, so both clustering rules run, and
    have some lowest-degree coefficients exactly zero, so that np.roots
    splits off roots at zero.
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


@pytest.mark.parametrize("A, B", [(0.0, -1.0), (1.0, 0.0), (0.3 + 0.2j, -0.7 + 0.1j)])
@pytest.mark.parametrize("m", range(3, 13))
def test_solver_is_bit_identical_on_division_polynomials(m, A, B):
    """The polynomials torsion_points solves, up to degree 70; (0, -1) is the Fermat chart."""
    p = _division_polys(m, A, B)[m]
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

    Up to 19 values, so both the pair loop and the vectorized pass run.
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


def reference_grid_eval(C, u, v):
    """curve._grid_eval: fresh power vectors for every grid."""
    vu = u ** np.arange(C.shape[0])
    vv = v ** np.arange(C.shape[1])
    return complex(vu @ C @ vv)


def reference_newton_pair(F, H, u, v, iters=30):
    """The flex polish as it was: six grid evaluations per Newton step."""
    Fu, Fv = _grid_partial(F, 0), _grid_partial(F, 1)
    Hu, Hv = _grid_partial(H, 0), _grid_partial(H, 1)
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


CUBIC_KEYS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
start_coord = st.complex_numbers(max_magnitude=2.0, allow_subnormal=False) | st.just(0.0) | st.just(0j)


@st.composite
def flex_polish_cases(draw):
    """A chart of a random unit-disc cubic, the same chart of its Hessian, and a start point.

    Some coefficients may be zero, so charts come in several trimmed shapes;
    a real 0.0 start is the value _pair_candidates gives a degenerate fiber.
    """
    coeffs = draw(st.lists(unit_disc, min_size=10, max_size=10))
    for i in draw(st.sets(st.integers(0, 9), max_size=6)):
        coeffs[i] = 0j
    assume(any(coeffs))
    f = CubicForm.from_coeffs(dict(zip(CUBIC_KEYS, coeffs)))
    try:
        h = f.hessian()
    except InputError:  # a cone (two variables after a change of coordinates) has a zero Hessian
        assume(False)
    chart = draw(st.integers(0, 2))
    F = _grid_trim(f.poly.chart(chart))
    H = _grid_trim(h.poly.chart(chart))
    # the flex search skips a chart where either grid vanishes
    assume(not _grid_is_zero(F) and not _grid_is_zero(H))
    return F, H, draw(start_coord), draw(start_coord)


@settings(PROPERTY, max_examples=200)
@given(flex_polish_cases())
def test_flex_polish_is_bit_identical_to_six_grid_evaluations(case):
    F, H, u, v = case
    want = reference_newton_pair(F, H, u, v)
    got = _newton_pair(F, H, u, v)
    assert (got is None) == (want is None)
    if want is not None:
        assert [bits(complex(z)) for z in got] == [bits(complex(z)) for z in want]
