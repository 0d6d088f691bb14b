"""Property tests: each shared point-set primitive against the code it replaced.

The references below are the earlier implementations, kept verbatim in
spirit: the scalar cross-product chordal distance, the greedy dedupe loop
over scalar distances, and brute-force subset sums of the layer counts.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicpoints import (
    CurvePoint,
    constructible_sizes,
    jordan_totient_2,
    normalize_point,
    size_witness,
)
from cubicpoints.curve import _dedupe
from cubicpoints.elliptic import _witnesses_up_to
from cubicpoints.numeric import chordal_matrix

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
