"""Reference arithmetic the benchmark checks the package against.

Nothing here imports cubicpoints.  A cubic is held as its symmetric 3x3x3
tensor T with f(x) = sum T_ijk x_i x_j x_k, so evaluation, gradients,
changes of coordinates and the chord law are einsum contractions written
independently of the package's sparse polynomials.  Closed forms supply the
rest: the nine Hesse base points (the flexes of every member of the pencil
x^3 + y^3 + z^3 + lam xyz), the pencil's j-invariant, the layer counts
9 J2(k), and the realizable sizes by a big-integer subset-sum bitset.
"""
from __future__ import annotations

import itertools
from math import factorial

import numpy as np

OMEGA = np.exp(2j * np.pi / 3)
MONOMIALS = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]

# Tolerances for the checks: a point counts as the identity within SAME,
# and as a different point beyond APART (chordal distances).
SAME = 1e-6
APART = 1e-4


def tensor_from_coeffs(coeffs: dict) -> np.ndarray:
    """Symmetric tensor of a cubic given as {(i, j, k): coefficient}."""
    T = np.zeros((3, 3, 3), dtype=complex)
    for idx in itertools.product(range(3), repeat=3):
        e = tuple(idx.count(v) for v in range(3))
        T[idx] = coeffs.get(e, 0.0) * factorial(e[0]) * factorial(e[1]) * factorial(e[2]) / 6.0
    return T


def coeffs_from_tensor(T: np.ndarray) -> dict:
    """Monomial coefficients {(i, j, k): c} of the cubic with tensor T."""
    out = {}
    for e in MONOMIALS:
        idx = (0,) * e[0] + (1,) * e[1] + (2,) * e[2]
        out[e] = complex(T[idx] * 6.0 / (factorial(e[0]) * factorial(e[1]) * factorial(e[2])))
    return out


def hesse_tensor(lam: complex) -> np.ndarray:
    return tensor_from_coeffs({(3, 0, 0): 1.0, (0, 3, 0): 1.0, (0, 0, 3): 1.0, (1, 1, 1): lam})


def pull_back(T: np.ndarray, A: np.ndarray) -> np.ndarray:
    """Tensor of the cubic x -> f(A x)."""
    return np.einsum("ijk,ia,jb,kc->abc", T, A, A, A)


def push_forward(T: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Tensor of the image curve under U: it vanishes on U P for P on f."""
    return pull_back(T, np.linalg.inv(U))


def evaluate(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,ni,nj,nk->n", T, X, X, X)


def gradient(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    return 3.0 * np.einsum("ijk,nj,nk->ni", T, X, X)


def _unit_rows(X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=complex))
    return X / np.abs(X).max(axis=1, keepdims=True)


def curve_residuals(T: np.ndarray, X) -> np.ndarray:
    """|f(x)| over the largest coefficient, at max-modulus-one representatives."""
    scale = max(abs(c) for c in coeffs_from_tensor(T).values())
    return np.abs(evaluate(T, _unit_rows(X))) / scale


def hessian_residuals(T: np.ndarray, X) -> np.ndarray:
    """|det Hess f(x)| against the Hadamard bound of the Hessian matrix."""
    V = _unit_rows(X)
    H = 6.0 * np.einsum("ijk,nk->nij", T, V)
    bound = np.prod(np.linalg.norm(H, axis=2), axis=1)
    return np.abs(np.linalg.det(H)) / np.maximum(bound, 1e-300)


def chordal(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise chordal distance |a x b| / (|a| |b|)."""
    num = np.linalg.norm(np.cross(A, B), axis=-1)
    return num / (np.linalg.norm(A, axis=-1) * np.linalg.norm(B, axis=-1))


def chordal_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Matrix of chordal distances between the rows of A and of B."""
    return chordal(A[:, None, :], B[None, :, :])


def same_set(A, B, tol: float = SAME) -> bool:
    """True when the rows of A and B are the same projective points, bijectively."""
    A = np.atleast_2d(np.asarray(A, dtype=complex))
    B = np.atleast_2d(np.asarray(B, dtype=complex))
    if A.shape != B.shape:
        return False
    D = chordal_pairs(A, B)
    nearest = D.argmin(axis=1)
    return bool(D.min(axis=1).max() <= tol and len(set(nearest.tolist())) == len(A))


def min_separation(A) -> float:
    D = chordal_pairs(A, A)
    np.fill_diagonal(D, np.inf)
    return float(D.min())


def hesse_base_points() -> np.ndarray:
    """The nine base points of the Hesse pencil, flexes of each member."""
    rows = []
    for i in range(3):
        for k in range(3):
            v = np.zeros(3, dtype=complex)
            v[i] = -(OMEGA**k)
            v[(i + 1) % 3] = 1.0
            rows.append(v)
    return np.array(rows)


def hesse_j(lam: complex) -> complex:
    """j-invariant of x^3 + y^3 + z^3 + lam xyz (1728 at the harmonic curve)."""
    l3 = complex(lam) ** 3
    return -l3 * (l3 - 216.0) ** 3 / (l3 + 27.0) ** 3


def same_j(j1: complex, j2: complex, rel: float = 1e-6) -> bool:
    return abs(j1 - j2) <= rel * max(1.0, abs(j1), abs(j2))


def random_cubic_tensor(rng: np.random.Generator) -> np.ndarray:
    """A cubic whose ten coefficients are uniform on the unit disc."""
    coeffs = []
    while len(coeffs) < len(MONOMIALS):
        z = complex(*rng.uniform(-1.0, 1.0, size=2))
        if abs(z) <= 1.0:
            coeffs.append(z)
    return tensor_from_coeffs(dict(zip(MONOMIALS, coeffs)))


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


# ---------------------------------------------------------------------------
# chord-tangent group law with a flex as identity, batched over rows


def _polish(T: np.ndarray, X: np.ndarray, iters: int = 2) -> np.ndarray:
    X = _unit_rows(X)
    for _ in range(iters):
        g = gradient(T, X)
        d = np.conj(g)
        den = np.einsum("ni,ni->n", g, d)
        X = X - (evaluate(T, X) / den)[:, None] * d
    return _unit_rows(X)


def _tangent(T: np.ndarray, P: np.ndarray) -> np.ndarray:
    """A second point on the tangent line at each row of P."""
    g = gradient(T, P)
    best = np.zeros_like(P)
    best_norm = np.full(len(P), -1.0)
    pp = np.einsum("ni,ni->n", P.conj(), P).real
    for e in np.eye(3):
        c = np.cross(g, np.broadcast_to(e, g.shape))
        c = c - (np.einsum("ni,ni->n", P.conj(), c) / pp)[:, None] * P
        n = np.linalg.norm(c, axis=1)
        take = n > best_norm
        best[take] = c[take]
        best_norm[take] = n[take]
    return best / best_norm[:, None]


def third_points(T: np.ndarray, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Third intersection of the line PQ with the curve (tangent when P = Q)."""
    P, Q = _unit_rows(P), _unit_rows(Q)
    tangent = chordal(P, Q) <= SAME
    Q = np.where(tangent[:, None], _tangent(T, P), Q)
    g1 = np.einsum("ni,ni->n", gradient(T, P), Q)
    g2 = np.einsum("ni,ni->n", gradient(T, Q), P)
    f_q = evaluate(T, Q)
    s = np.where(tangent, f_q, g2)
    t = np.where(tangent, -np.einsum("ni,ni->n", gradient(T, Q), P), -g1)
    return _polish(T, s[:, None] * P + t[:, None] * Q)


def multiples(T: np.ndarray, O: np.ndarray, P: np.ndarray, n: int) -> list[np.ndarray]:
    """[P, 2P, ..., nP] in the group with identity O, one stack per multiple."""
    P = _unit_rows(P)
    Os = np.broadcast_to(O, P.shape)
    out = [P]
    for _ in range(n - 1):
        out.append(third_points(T, Os, third_points(T, out[-1], P)))
    return out


def exact_order_mask(T: np.ndarray, O: np.ndarray, P, m: int, proper: list[int]) -> np.ndarray:
    """Rows killed by m but by none of the proper multiples listed."""
    P = np.atleast_2d(np.asarray(P, dtype=complex))
    mult = multiples(T, O, P, m)
    Os = np.broadcast_to(O, P.shape)
    ok = chordal(mult[m - 1], Os) <= SAME
    for d in proper:
        ok &= chordal(mult[d - 1], Os) > APART
    return ok


# ---------------------------------------------------------------------------
# layer counts and realizable sizes


def jordan_j2(k: int) -> int:
    primes = {p for p in range(2, k + 1) if k % p == 0 and all(p % q for q in range(2, p))}
    out = k * k
    for p in primes:
        out = out // (p * p) * (p * p - 1)
    return out


def layer_count(k: int) -> int:
    return 9 * jordan_j2(k)


def proper_type_multiples(k: int) -> list[int]:
    """Multiples 3d, d a proper divisor of k, that a type-3k point survives."""
    return [3 * d for d in range(1, k) if k % d == 0]


def size_table(bound: int) -> tuple[list[int], dict[int, list[int]]]:
    """Realizable sizes up to bound and each one's lexicographically least witness.

    A size n is realizable when n = 9 * sum of J2(k) over a set of distinct
    k.  Suffix reachability is kept as big-integer bitsets; the witness
    takes every k, smallest first, that leaves a reachable remainder.
    """
    m = bound // 9
    terms = []
    k = 1
    while True:
        j = jordan_j2(k)
        if j <= m:
            terms.append((k, j))
        if k * k > 4 * m + 16:
            break
        k += 1
    mask = (1 << (m + 1)) - 1
    suffix = [0] * (len(terms) + 1)
    suffix[-1] = 1
    for i in range(len(terms) - 1, -1, -1):
        suffix[i] = (suffix[i + 1] | (suffix[i + 1] << terms[i][1])) & mask
    sizes = [9 * s for s in range(1, m + 1) if suffix[0] >> s & 1]
    witnesses = {}
    for n in sizes:
        rem = n // 9
        w = []
        for i, (k, j) in enumerate(terms):
            if rem and j <= rem and suffix[i + 1] >> (rem - j) & 1:
                w.append(k)
                rem -= j
        witnesses[n] = w
    return sizes, witnesses


# ---------------------------------------------------------------------------
# calibration


def calibration_unit():
    """A fixed piece of work shaped like the package's: small numpy arrays driven from Python.

    It is the six first multiples of the nine flexes of a fixed pencil member
    under the batched chord law above, about 4 ms on a 2-core Xeon VM.  Op
    latencies divided by its interleaved timings cancel the host's speed
    drift, which the package's code and this code share.
    """
    T = hesse_tensor(0.5)
    P = hesse_base_points()
    return lambda: multiples(T, P[0], P, 6)
