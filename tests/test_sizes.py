"""Integer arguments: which integer types the package's entry points take."""
from __future__ import annotations

import argparse
import functools

import numpy as np
import pytest

from cubicpoints import (
    InputError,
    ParameterPath,
    canonical_section,
    fermat_cubic,
    inflection_points,
    make_chart,
    points_of_type,
    sizes,
    torsion_points,
    track,
    verify_free_K_action,
)
from cubicpoints import cli

# each entry point with an argument it answers and that answer as a plain int gives it
CALLS = [
    (sizes.jordan_totient_2, 36),
    (sizes.size_witness, 36),
    (sizes.constructible_sizes, 36),
    (sizes.section_verdict, 36),
]


@pytest.mark.parametrize("fn, n", CALLS, ids=[fn.__name__ for fn, _ in CALLS])
@pytest.mark.parametrize("kind", [np.int64, np.uint8])
def test_numpy_integers_answer_as_plain_ints(fn, n, kind):
    assert fn(kind(n)) == fn(n)


@pytest.mark.parametrize("fn, n", CALLS, ids=[fn.__name__ for fn, _ in CALLS])
@pytest.mark.parametrize("bad", [36.0, np.bool_(True)], ids=["float", "numpy-bool"])
def test_non_integers_are_rejected(fn, n, bad):
    with pytest.raises(InputError):
        fn(bad)


def test_verdict_of_a_numpy_integer_holds_a_plain_int():
    v = sizes.section_verdict(np.uint8(36))
    assert type(v.n) is int and v.status == "constructible" and v.witness == [1, 2]


@functools.cache
def _chart():
    f = fermat_cubic()
    return make_chart(f, inflection_points(f)[0].point)


def _constant_path(steps) -> ParameterPath:
    return ParameterPath([fermat_cubic(), fermat_cubic()], steps)


# every integer entry point as a call of its integer argument, with a value it answers
ENTRY_POINTS = {
    "jordan_totient_2": (sizes.jordan_totient_2, 6),
    "size_witness": (sizes.size_witness, 36),
    "witnesses_up_to": (sizes._witnesses_up_to, 36),
    "section_verdict": (sizes.section_verdict, 36),
    "torsion_points": (lambda m: torsion_points(_chart(), m).arrays.tolist(), 2),
    "points_of_type": (lambda k: points_of_type(_chart(), k).arrays.tolist(), 1),
    "multiply": (lambda m: _chart().multiply(m, inflection_points(fermat_cubic())[3]).point, -2),
    "ParameterPath": (lambda n: _constant_path(n).steps, 4),
    "track": (lambda n: track(_constant_path(4), canonical_section("inflections"), steps=n).steps_taken, 2),
    "verify_free_K_action": (verify_free_K_action, 1),
    "counts": (lambda k: cli._cmd_counts(argparse.Namespace(max_k=k, format="json")), 3),
    "j2": (lambda k: cli._cmd_j2(argparse.Namespace(max_k=k, format="json")), 3),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [True, 1.5, "1"], ids=["bool", "float", "string"])
def test_every_integer_entry_point_rejects_a_non_integer(name, bad):
    fn, _ = ENTRY_POINTS[name]
    with pytest.raises(InputError, match="must be (a positive|an) integer"):
        fn(bad)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_every_integer_entry_point_takes_a_numpy_integer(name):
    fn, n = ENTRY_POINTS[name]
    assert fn(np.int64(n)) == fn(n)
