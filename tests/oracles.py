"""Independent reference computations the tests check the package against.

Everything here is deliberately implemented from first principles with none
of the package's machinery: affine Weierstrass addition by the textbook
slope formulas, point counts by brute-force enumeration, closed-form
special points, resultants as determinants of Sylvester matrices, and the
division polynomials by their classical recurrences.
Agreement between these and the package is the evidence the tests rely on.
"""

from __future__ import annotations

import math

import numpy as np

from cubicpoints.numeric import UniPoly

# Affine points are (x, y) pairs; None is the point at infinity.
Affine = tuple[complex, complex] | None

_VERTICAL_TOL = 1e-9


def _is_same_x(p: tuple[complex, complex], q: tuple[complex, complex]) -> bool:
    scale = max(abs(p[0]), abs(q[0]), 1.0)
    return abs(p[0] - q[0]) <= _VERTICAL_TOL * scale


def weierstrass_add(A: complex, B: complex, p: Affine, q: Affine) -> Affine:
    """Chord-tangent sum on y^2 = x^3 + A x + B via the slope formulas."""
    if p is None:
        return q
    if q is None:
        return p
    x1, y1 = p
    x2, y2 = q
    if _is_same_x(p, q):
        ymag = max(abs(y1), abs(y2), 1.0)
        if abs(y1 + y2) <= _VERTICAL_TOL * ymag:
            return None
        # same point, nonzero y: tangent slope
        lam = (3.0 * x1 * x1 + A) / (2.0 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    y3 = lam * (x1 - x3) - y1
    return (x3, y3)


def weierstrass_negate(p: Affine) -> Affine:
    if p is None:
        return None
    return (p[0], -p[1])


def weierstrass_polish(A: complex, B: complex, p: Affine, iters: int = 4) -> Affine:
    """Least-norm Newton onto y^2 = x^3 + A x + B.

    The slope formulas amplify the off-curve component of their input error
    for points of large coordinate, so inputs should be polished before
    feeding them to weierstrass_add when they come from an external map.
    """
    if p is None:
        return None
    x, y = p
    for _ in range(iters):
        g = y * y - x**3 - A * x - B
        gx = -3.0 * x * x - A
        gy = 2.0 * y
        n2 = abs(gx) ** 2 + abs(gy) ** 2
        if n2 == 0.0:
            break
        x -= g * np.conj(gx) / n2
        y -= g * np.conj(gy) / n2
    return (x, y)


def weierstrass_on_curve(A: complex, B: complex, p: Affine) -> float:
    """Relative defect of y^2 - x^3 - A x - B at the point."""
    if p is None:
        return 0.0
    x, y = p
    terms = [y * y, x**3, A * x, B]
    scale = max(max(abs(t) for t in terms), 1.0)
    return abs(y * y - x**3 - A * x - B) / scale


def jordan_j2_bruteforce(k: int) -> int:
    """#elements of exact order k in (Z/k)^2 by direct enumeration.

    The order of (a, b) is k / gcd(a, b, k), so exact order k means
    gcd(a, b, k) = 1.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return sum(
        1
        for a in range(k)
        for b in range(k)
        if math.gcd(math.gcd(a, b), k) == 1
    )


def torsion_count_bruteforce(m: int) -> int:
    """#m-torsion elements of (Z/m)^2: pairs whose order divides m."""
    return m * m


def fermat_inflection_rows() -> np.ndarray:
    """The 9 inflections of x^3 + y^3 + z^3: a zero coordinate and a ratio
    that is a cube root of -1, in closed form."""
    w = np.exp(2j * np.pi / 3)
    rows = []
    for k in range(3):
        r = -(w**k)
        rows.append([1.0, r, 0.0])
        rows.append([0.0, 1.0, r])
        rows.append([r, 0.0, 1.0])
    return np.array(rows, dtype=complex)


def subset_sums_upto(values: list[int], bound: int) -> set[int]:
    """All nonempty subset sums of distinct values that stay within bound."""
    sums = {0}
    for v in values:
        sums |= {s + v for s in sums if s + v <= bound}
    return sums - {0}


def sylvester_dets(pvals: np.ndarray, qvals: np.ndarray) -> tuple[np.ndarray, float]:
    """Batched Sylvester determinants for stacks of coefficient rows.

    Rows are lowest degree first and both stacks share fixed formal
    degrees, so every sample fills the same matrix shape (q block on top);
    one batched det call covers all of them. Also returns the largest
    Hadamard bound: the scale against which a computed determinant counts
    as zero, separating structurally vanishing resultants from small ones.
    """
    m = pvals.shape[1] - 1
    n = qvals.shape[1] - 1
    size = m + n
    S = np.zeros((pvals.shape[0], size, size), dtype=complex)
    qd = qvals[:, ::-1]
    pd = pvals[:, ::-1]
    for i in range(m):
        S[:, i, i : i + n + 1] = qd
    for i in range(n):
        S[:, m + i, i : i + m + 1] = pd
    hadamard = float(np.prod(np.linalg.norm(S, axis=2), axis=1).max())
    return np.linalg.det(S), hadamard


def resultant(p: UniPoly, q: UniPoly) -> complex:
    """Sylvester resultant with the q block on top: lead(q)^deg(p) times p over the roots of q."""
    dets, _ = sylvester_dets(p.coeffs[None, :], q.coeffs[None, :])
    return complex(dets[0])


def _trimmed(c: np.ndarray) -> np.ndarray:
    """Coefficients without their exactly-zero highest-degree tail, as UniPoly stores them."""
    nz = np.nonzero(c)[0]
    return c[: nz[-1] + 1] if nz.size else c[:1] * 0


def _product(*polys: np.ndarray) -> np.ndarray:
    out = polys[0]
    for p in polys[1:]:
        out = _trimmed(np.convolve(out, p))
    return out


def division_polys(m: int, A: complex, B: complex) -> dict[int, UniPoly]:
    """Division polynomials in x only, with the odd/even parity folded in, up to order m.

    With R = x^3 + A x + B, entry k equals the classical psi_k for odd k
    and psi_k / y for even k; the recurrences are the classical ones after
    substituting y^2 = R. Products are np.convolve and differences
    polysub, lowest degree first, so the coefficients have the same bits
    on every run.
    """
    sub = np.polynomial.polynomial.polysub
    R = np.array([B, A, 0.0, 1.0], dtype=complex)
    R2 = _product(R, R)
    f = {
        0: np.array([0.0], dtype=complex),
        1: np.array([1.0], dtype=complex),
        2: np.array([2.0], dtype=complex),
        3: np.array([-(A**2), 12.0 * B, 6.0 * A, 0.0, 3.0], dtype=complex),
        4: 4.0 * np.array([-8.0 * B**2 - A**3, -4.0 * A * B, -5.0 * A**2, 20.0 * B, 5.0 * A, 0.0, 1.0], dtype=complex),
    }
    for k in range(5, m + 1):
        j = k // 2
        if k % 2 and j % 2 == 0:
            f[k] = _trimmed(sub(_product(R2, f[j + 2], f[j], f[j], f[j]), _product(f[j - 1], f[j + 1], f[j + 1], f[j + 1])))
        elif k % 2:
            f[k] = _trimmed(sub(_product(f[j + 2], f[j], f[j], f[j]), _product(R2, f[j - 1], f[j + 1], f[j + 1], f[j + 1])))
        else:
            f[k] = _trimmed(_product(f[j], sub(_product(f[j + 2], f[j - 1], f[j - 1]), _product(f[j - 2], f[j + 1], f[j + 1]))) * 0.5)
        expected = (k * k - 1) // 2 if k % 2 else (k * k - 4) // 2
        assert len(f[k]) - 1 == expected, f"division polynomial {k} lost its leading coefficient"
    return {k: UniPoly(c) for k, c in f.items()}
