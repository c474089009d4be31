"""A builtin ``sum()`` that rounds differently, for checking that no result
depends on the interpreter's ``sum()``.

CPython 3.12 made float ``sum()`` compensated, so a float total built with
the builtin can differ by an ulp between interpreters.  Every float
reduction that reaches a result therefore goes through ``math.fsum`` or an
explicit fold.  The parity suites check that rule by running each pinned
case a second time with ``builtins.sum`` swapped for :func:`reversed_sum`,
which adds the items last to first: exact on ints, but with other last bits
than either interpreter's ``sum()`` on most float sequences.  The digest
must not move.
"""

from __future__ import annotations

import builtins
from contextlib import contextmanager
from typing import Iterator

_native_sum = builtins.sum


def reversed_sum(iterable, /, start=0):
    """``start`` plus the items of ``iterable``, added last to first."""
    total = start
    for item in reversed(list(iterable)):
        total = total + item
    return total


@contextmanager
def reversed_builtin_sum() -> Iterator[None]:
    """Run the body with ``builtins.sum`` swapped for :func:`reversed_sum`."""
    builtins.sum = reversed_sum
    try:
        yield
    finally:
        builtins.sum = _native_sum
