"""The ``sum()`` emulations the parity pins rely on.

The compensated results below were read off CPython 3.12.1 and 3.13.0;
the plain ones are the left fold of CPython 3.10 and 3.11.
"""

from __future__ import annotations

import builtins
import random
from functools import reduce
from operator import add

import pytest

from sum_emulation import (
    NATIVE_COMPENSATED,
    builtin_sum,
    compensated_sum,
    plain_sum,
)


class _Float(float):
    """Not an exact float: ``sum()`` leaves its fast path on it."""


INF = float("inf")

#: name -> (items, start, compensated result, plain result)
KNOWN = {
    "tenths": ([0.1] * 10, 0, 1.0, 0.9999999999999999),
    "cancellation": ([1e100, 1.0, -1e100], 0, 1.0, 0.0),
    "int start drops -0.0": ([-0.0], 0, 0.0, 0.0),
    "float start keeps -0.0": ([-0.0], -0.0, -0.0, -0.0),
    "overflow stays inf": ([1e308, 1e308, -1e308], 0, INF, INF),
    "ints then floats": ([1, 2, 2.5, 3, 0.1, 0.2, True], 0, 9.8, 9.799999999999999),
    "subclass settles the error": ([1e100, 1.0, -1e100, _Float(0.0)], 0, 1.0, 0.0),
    "long ints add uncompensated": ([1e100, 1.0, -1e100, 3], 0, 4.0, 3.0),
    "big int settles the error": ([1e100, 1.0, -1e100, 2**70], 0, 2.0**70, 2.0**70),
}


def _same(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("name", KNOWN)
def test_emulations_match_recorded_results(name):
    items, start, compensated, plain = KNOWN[name]
    assert _same(compensated_sum(items, start), compensated)
    assert _same(plain_sum(items, start), plain)


def test_native_sum_matches_its_emulation():
    rng = random.Random(7)
    own = compensated_sum if NATIVE_COMPENSATED else plain_sum
    for _ in range(500):
        items = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
                 for _ in range(rng.randint(0, 30))]
        items += [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
        rng.shuffle(items)
        assert _same(sum(items), own(items))
        assert _same(reduce(add, items, 0), plain_sum(items))


def test_builtin_sum_swaps_and_restores():
    native = builtins.sum
    with builtin_sum(NATIVE_COMPENSATED):
        assert builtins.sum is native
    with builtin_sum(not NATIVE_COMPENSATED):
        assert builtins.sum in (compensated_sum, plain_sum)
        assert builtins.sum is not native
    assert builtins.sum is native
    with pytest.raises(RuntimeError), builtin_sum(not NATIVE_COMPENSATED):
        raise RuntimeError
    assert builtins.sum is native


def test_string_start_is_rejected_like_the_builtin():
    for emulation in (compensated_sum, plain_sum):
        with pytest.raises(TypeError):
            emulation(["a"], "")
