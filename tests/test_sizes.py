"""The integer size arithmetic: which integer types its entry points take."""
from __future__ import annotations

import numpy as np
import pytest

from cubicpoints import InputError, sizes

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
