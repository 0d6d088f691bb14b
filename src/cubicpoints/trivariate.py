"""Homogeneous polynomials in three variables.

Sparse exponent-triple representation; degree stays small (curves are
cubic, second partials are linear), so the arithmetic here favors
clarity over asymptotics.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import InputError

__all__ = ["TriPoly"]


class TriPoly:
    """Homogeneous polynomial sum of c * x^i y^j z^k with i+j+k = degree."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: dict[tuple[int, int, int], complex]) -> None:
        if degree < 0:
            raise InputError("degree must be nonnegative")
        clean: dict[tuple[int, int, int], complex] = {}
        for key, val in coeffs.items():
            i, j, k = key
            if i < 0 or j < 0 or k < 0 or i + j + k != degree:
                raise InputError(f"exponent triple {key} does not match degree {degree}")
            c = complex(val)
            if not (np.isfinite(c.real) and np.isfinite(c.imag)):
                raise InputError("non-finite coefficient")
            if c != 0:
                clean[(i, j, k)] = c
        self.degree = degree
        self.coeffs = clean

    @classmethod
    def variable(cls, index: int) -> "TriPoly":
        key = [0, 0, 0]
        key[index] = 1
        return cls(1, {tuple(key): 1.0})

    @classmethod
    def linear_form(cls, v) -> "TriPoly":
        a = np.asarray(v, dtype=complex).reshape(3)
        return cls(1, {(1, 0, 0): a[0], (0, 1, 0): a[1], (0, 0, 1): a[2]})

    @classmethod
    def constant(cls, c: complex) -> "TriPoly":
        return cls(0, {(0, 0, 0): c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self) -> Iterator[tuple[tuple[int, int, int], complex]]:
        return iter(self.coeffs.items())

    def coeff(self, i: int, j: int, k: int) -> complex:
        return self.coeffs.get((i, j, k), 0.0 + 0.0j)

    def norm_inf(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(abs(c) for c in self.coeffs.values())

    def __call__(self, point) -> complex:
        v = np.asarray(point, dtype=complex).reshape(3)
        total = 0.0 + 0.0j
        for (i, j, k), c in self.coeffs.items():
            total += c * v[0] ** i * v[1] ** j * v[2] ** k
        return complex(total)

    def __add__(self, other: "TriPoly") -> "TriPoly":
        if self.degree != other.degree:
            if self.is_zero():
                return other
            if other.is_zero():
                return self
            raise InputError("cannot add homogeneous polynomials of unequal degree")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return TriPoly(self.degree, out)

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, TriPoly):
            out: dict[tuple[int, int, int], complex] = {}
            for (a, b, c), u in self.coeffs.items():
                for (d, e, f), v in other.coeffs.items():
                    key = (a + d, b + e, c + f)
                    out[key] = out.get(key, 0.0) + u * v
            return TriPoly(self.degree + other.degree, out)
        s = complex(other)
        return TriPoly(self.degree, {k: s * v for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def partial(self, index: int) -> "TriPoly":
        """Partial derivative with respect to coordinate index (0, 1 or 2)."""
        if self.degree == 0:
            return TriPoly(0, {})
        out: dict[tuple[int, int, int], complex] = {}
        for key, c in self.coeffs.items():
            e = key[index]
            if e == 0:
                continue
            new = list(key)
            new[index] = e - 1
            out[tuple(new)] = c * e
        return TriPoly(self.degree - 1, out)

    def gradient(self, point) -> np.ndarray:
        """The three partial derivatives at a point, without building them.

        Sums (c * e) * v^(key - unit) over the coefficients in dict order,
        skipping e == 0: the terms and the order of partial(i)(v), with the
        powers from numpy's complex power, so the result is bit-identical.
        """
        v = np.asarray(point, dtype=complex).reshape(3)
        p0, p1, p2 = (v[:, None] ** np.arange(self.degree)).tolist()
        g0 = g1 = g2 = 0j
        for (i, j, k), c in self.coeffs.items():
            if i:
                g0 += c * i * p0[i - 1] * p1[j] * p2[k]
            if j:
                g1 += c * j * p0[i] * p1[j - 1] * p2[k]
            if k:
                g2 += c * k * p0[i] * p1[j] * p2[k - 1]
        return np.array([g0, g1, g2], dtype=complex)

    def compose_linear(self, matrix) -> "TriPoly":
        """Substitute coordinates by rows of matrix: returns p(M x)."""
        M = np.asarray(matrix, dtype=complex).reshape(3, 3)
        rows = [TriPoly.linear_form(M[i]) for i in range(3)]
        total = TriPoly(self.degree, {})
        for (i, j, k), c in self.coeffs.items():
            term = TriPoly.constant(c)
            for row, e in zip(rows, (i, j, k)):
                for _ in range(e):
                    term = term * row
            total = _add_any(total, term)
        return total

    def restrict_to_line(self, p, q) -> np.ndarray:
        """Coefficients of the binary form t -> p(P + t Q), lowest degree first."""
        P = np.asarray(p, dtype=complex).reshape(3)
        Q = np.asarray(q, dtype=complex).reshape(3)
        out = np.zeros(self.degree + 1, dtype=complex)
        for (i, j, k), c in self.coeffs.items():
            term = np.array([1.0 + 0.0j])
            for idx, e in ((0, i), (1, j), (2, k)):
                lin = np.array([P[idx], Q[idx]], dtype=complex)
                for _ in range(e):
                    term = np.convolve(term, lin)
            out[: len(term)] += c * term
        return out

    def chart(self, index: int) -> np.ndarray:
        """Dense bivariate coefficient grid with coordinate index set to 1.

        Returns C with C[a, b] the coefficient of u^a v^b where (u, v) are
        the remaining coordinates in increasing index order.
        """
        others = [i for i in range(3) if i != index]
        d = self.degree
        C = np.zeros((d + 1, d + 1), dtype=complex)
        for key, c in self.coeffs.items():
            C[key[others[0]], key[others[1]]] += c
        return C

    def proportionality_residual(self, other: "TriPoly") -> float:
        """Relative distance from self to the complex line spanned by other."""
        keys = sorted(set(self.coeffs) | set(other.coeffs))
        a = np.array([self.coeff(*k) for k in keys])
        b = np.array([other.coeff(*k) for k in keys])
        na = np.linalg.norm(a)
        nb = np.linalg.norm(b)
        if na == 0.0:
            return 0.0
        if nb == 0.0:
            return 1.0
        s = np.vdot(b, a) / (nb * nb)
        return float(np.linalg.norm(a - s * b) / na)

    def __repr__(self) -> str:
        parts = [f"{c:.4g}*x^{i}y^{j}z^{k}" for (i, j, k), c in sorted(self.coeffs.items())]
        return "TriPoly(" + (" + ".join(parts) if parts else "0") + ")"


def _add_any(a: TriPoly, b: TriPoly) -> TriPoly:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    return a + b
