"""Section sizes the type-3k layers realize, and verdicts on requested sizes.

The points of type 3k number 9 J_2(k), so a union of distinct layers has
nine times a sum of distinct second Jordan totients.  Everything here is
exact integer arithmetic and imports no numpy, so the CLI's integer
subcommands start without the numeric stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from numbers import Integral

from .errors import InputError

__all__ = [
    "canonical_dumps",
    "jordan_totient_2",
    "constructible_sizes",
    "size_witness",
    "SizeVerdict",
    "section_verdict",
]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def jordan_totient_2(k: int) -> int:
    """J_2(k) = k^2 prod_{p | k} (1 - 1/p^2), computed exactly."""
    if not isinstance(k, Integral) or k < 1:
        raise InputError("the Jordan totient needs a positive integer")
    n = int(k)
    result = n * n
    p = 2
    while p * p <= n:
        if n % p == 0:
            result = result // (p * p) * (p * p - 1)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        result = result // (n * n) * (n * n - 1)
    return result


def _totient_terms(m: int) -> list[tuple[int, int]]:
    # J_2(k) > 0.6 k^2, so k stays below sqrt(m / 0.6) + 2
    out = []
    k = 1
    while k * k * 3 <= 5 * m + 30:
        j = jordan_totient_2(k)
        if j <= m:
            out.append((k, j))
        k += 1
    return out


def _size_table(m: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The subset-sum DP behind every size question, for sums up to m.

    Returns (terms, reach): terms lists (k, J_2(k)) for J_2(k) <= m in
    increasing k, and reach[i] is a bitset whose bit s is set when s is a
    sum of distinct J_2 values from terms[i:].
    """
    terms = _totient_terms(m)
    mask = (1 << (m + 1)) - 1
    reach = [1] * (len(terms) + 1)
    for i in range(len(terms) - 1, -1, -1):
        r = reach[i + 1]
        reach[i] = (r | r << terms[i][1]) & mask
    return terms, reach


def _witness(table: tuple[list[tuple[int, int]], list[int]], s: int) -> list[int] | None:
    """Lexicographically smallest distinct orders whose J_2 values sum to s."""
    terms, reach = table
    if not reach[0] >> s & 1:
        return None
    out: list[int] = []
    for i, (k, j) in enumerate(terms):
        if s == 0:
            break
        if j <= s and reach[i + 1] >> (s - j) & 1:
            out.append(k)
            s -= j
    return out


def constructible_sizes(bound: int) -> list[int]:
    """All sizes up to the bound of the form 9 * sum of J_2 over distinct orders."""
    return list(_witnesses_up_to(bound))


def size_witness(n: int) -> list[int] | None:
    """Lexicographically smallest set of distinct orders k with 9 sum J_2(k) = n.

    Returns None when no such set exists (including all n not divisible by
    nine).
    """
    if not isinstance(n, Integral) or n < 1:
        raise InputError("the size must be a positive integer")
    if n % 9:
        return None
    m = int(n) // 9
    return _witness(_size_table(m), m)


def _witnesses_up_to(bound: int) -> dict[int, list[int]]:
    """Every constructible size up to the bound, in increasing order, mapped
    to its witness.  One table serves them all.
    """
    if not isinstance(bound, Integral) or bound < 1:
        raise InputError("the bound must be a positive integer")
    m = int(bound) // 9
    table = _size_table(m)
    return {9 * s: _witness(table, s) for s in range(1, m + 1) if table[1][0] >> s & 1}


@dataclass(frozen=True)
class SizeVerdict:
    n: int
    status: str
    witness: list[int] | None
    detail: str


def section_verdict(n: int) -> SizeVerdict:
    """Classify a requested section size as obstructed, constructible, or open.

    Sizes not divisible by nine are obstructed.  Divisible sizes are
    constructible when they split as nine times a sum of second Jordan
    totients over distinct orders, witnessed by the lexicographically
    smallest such set; the rest stay open.
    """
    if not isinstance(n, Integral) or n < 1:
        raise InputError("the section size must be a positive integer")
    n = int(n)
    if n % 9:
        return SizeVerdict(
            n,
            "obstructed",
            None,
            "not divisible by nine, so no consistent choice of this size exists",
        )
    w = size_witness(n)
    if w is not None:
        return SizeVerdict(
            n,
            "constructible",
            w,
            "realized by the union of the type-3k layers for k in "
            + "{" + ", ".join(str(k) for k in w) + "}",
        )
    return SizeVerdict(
        n,
        "open",
        None,
        "divisible by nine but not a sum of distinct layer counts; not settled either way",
    )
