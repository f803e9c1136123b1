"""The one rule for the numbers a caller hands in.

A count must be an integer: a bool, a value that is not a number, or a
number with a fractional part is refused with a ``ValueError`` naming the
field, never truncated; an integral float such as ``5.0`` reads as an int.
A real must be a number: a bool or a value that is not a number (a string,
say) is refused, never coerced.  Exact numbers (``int``, ``Fraction``,
``Decimal``) pass as reals, for the exact-rational path.
"""

from __future__ import annotations

import numbers
from decimal import Decimal

import numpy as np


def _is_number(kind: type) -> bool:
    return issubclass(kind, (numbers.Real, Decimal)) and not issubclass(kind, bool)


def as_real(value, name: str):
    """``value`` itself when it is a number, else a ``ValueError``."""
    if not _is_number(type(value)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def reals(values, name: str) -> tuple:
    """``values`` as a tuple when each is a number: one value of each type
    present is checked."""
    values = tuple(values)
    for kind in set(map(type, values)):
        as_real(next(x for x in values if type(x) is kind), name)
    return values


def as_int(value, name: str) -> int:
    """``value`` as an int when it is a number without a fractional part,
    else a ``ValueError``."""
    if not _is_number(type(value)) or value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def int_array(values, name: str) -> np.ndarray:
    """``values``, integers by :func:`as_int`'s rule, as int64 when every
    one fits, else as an object array of Python ints.

    An integer array is taken as it is.  Other input is checked with array
    operations: one pass over the values' types and, unless all are ints,
    one remainder of the array by 1.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return np.asarray(values, dtype=np.int64)
    array = np.array(values, dtype=object)
    kinds = set(map(type, array.flat))
    if not kinds <= {int}:
        with np.errstate(invalid="ignore"):  # inf and nan leave a nan remainder
            whole = all(map(_is_number, kinds)) and (array % 1 == 0).all()
        if not whole:
            bad = next(x for x in array.flat if not _is_number(type(x)) or x % 1 != 0)
            raise ValueError(f"{name} must be integers, got {bad!r}")
    try:
        return array.astype(np.int64)
    except OverflowError:
        return np.array([int(x) for x in array.flat], dtype=object).reshape(array.shape)
