"""Emulations of the builtin ``sum()`` before and since CPython 3.12.

CPython 3.12 (gh-100425) made ``sum()`` over floats compensated: it keeps
a Neumaier running error term and adds it back at the end, so the result
can differ by an ulp from the plain left fold that 3.10 and 3.11 compute.
The parity pins hash exact floats, so each parity module keeps one table
per semantics and checks both on every interpreter: the native ``sum()``
against its own table, and the other semantics by running the case with
``builtins.sum`` replaced by the emulation below.

:func:`compensated_sum` follows ``builtin_sum_impl`` of CPython 3.12 step
by step, including its exact-type tests: an accumulator that starts as an
``int`` adds exact ints (and bools) in C ``long`` arithmetic and hands off
to a generic ``+`` on the first other item; a float accumulator
compensates exact floats only, folds ints within C ``long`` range in
uncompensated, and on any other item settles the error term into the
total and continues with the generic ``+``.
"""

from __future__ import annotations

import builtins
import math
import sys
from contextlib import contextmanager
from typing import Iterator

#: the interpreter's own ``sum()`` compensates float additions.
NATIVE_COMPENSATED = sys.version_info >= (3, 12)
#: the semantics the parity modules check under the emulation.
EMULATED_COMPENSATED = not NATIVE_COMPENSATED

#: C ``long`` range on the 64-bit Linux runners the pins are checked on.
_LONG_MIN, _LONG_MAX = -(2**63), 2**63 - 1

_native_sum = builtins.sum


def _fits_long(value: int) -> bool:
    return _LONG_MIN <= value <= _LONG_MAX


def _settle(total: float, error: float) -> float:
    # The error term is added back unless it is zero (which keeps the sign
    # of a -0.0 total) or not finite (which would turn an overflowed total
    # into a NaN).
    if error and math.isfinite(error):
        total += error
    return total


def compensated_sum(iterable, /, start=0):
    """``sum()`` with CPython 3.12's semantics."""
    if isinstance(start, (str, bytes, bytearray)):
        return _native_sum(iterable, start)  # raises the builtin's TypeError
    items = iter(iterable)
    result = start
    if type(result) is int and _fits_long(result):
        for item in items:
            if (type(item) is int or type(item) is bool) and _fits_long(item) \
                    and _fits_long(result + item):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total = result
        error = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    error += (total - t) + item
                else:
                    error += (item - t) + total
                total = t
                continue
            if isinstance(item, int) and _fits_long(item):
                total += float(item)
                continue
            result = _settle(total, error) + item
            break
        else:
            return _settle(total, error)
    for item in items:
        result = result + item
    return result


def plain_sum(iterable, /, start=0):
    """``sum()`` with the semantics of CPython before 3.12: a left fold."""
    if isinstance(start, (str, bytes, bytearray)):
        return _native_sum(iterable, start)  # raises the builtin's TypeError
    result = start
    for item in iterable:
        result = result + item
    return result


@contextmanager
def builtin_sum(compensated: bool) -> Iterator[None]:
    """Run the body with the ``sum()`` semantics asked for.

    The native builtin is kept when it already has them; otherwise
    ``builtins.sum`` is swapped for the emulation until the body exits.
    """
    if compensated == NATIVE_COMPENSATED:
        yield
        return
    builtins.sum = compensated_sum if compensated else plain_sum
    try:
        yield
    finally:
        builtins.sum = _native_sum
