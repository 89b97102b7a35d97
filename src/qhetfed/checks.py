"""The two value rules every qhetfed type and entry point checks its inputs by.

A count is a Python or numpy integer of at least a given minimum; a number is
a finite Python or numpy int or float.  A bool is neither, and a float is never
a count: values are checked, never cast.  A count that float arithmetic uses
must be at most 2**53 (``check_float_count``).  An array of numbers must hold
finite entries only (``check_finite``).  Each rule raises ``ValueError`` naming
the value.  A checked array is kept ``read_only``.
"""

from __future__ import annotations

import math

import numpy as np

POSITIVE = "positive"
NON_NEGATIVE = "non-negative"


def is_count(value) -> bool:
    """A Python or numpy integer; a bool or a float is not a count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(value, name: str, least: int | None = 1) -> None:
    """``value`` must be an integer of at least ``least``; None sets no minimum."""
    if not is_count(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")


def check_float_count(value, name: str) -> None:
    """``value`` must be a count of at least 1 that a float holds exactly, so at most 2**53."""
    check_count(value, name)
    if value > 2**53:
        raise ValueError(f"{name} must be at most 2**53, up to which a float holds every integer exactly")


def check_number(value, name: str, sign: str = "") -> None:
    """``value`` must be a finite int or float and, if ``sign`` is given, ``POSITIVE`` or ``NON_NEGATIVE``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        ok = real and math.isfinite(value)
    except OverflowError:  # an int too large for a float is no number either
        ok = False
    if ok and sign:
        ok = value > 0 if sign == POSITIVE else value >= 0
    if not ok:
        raise ValueError(f"{name} must be a finite {sign + ' ' if sign else ''}number, got {value!r}")


def check_finite(values: np.ndarray, name: str) -> None:
    """Every entry of the float array ``values`` must be finite; the message gives the first that is not."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{name} must be finite numbers, got {float(values[~finite][0])!r}")


def read_only(values: np.ndarray) -> np.ndarray:
    """``values`` as an array that no one can write: kept when it is read-only and owns its memory,
    otherwise copied once and the copy marked read-only.  The caller's array is never marked."""
    if values.flags.writeable or values.base is not None:
        values = values.copy()
        values.flags.writeable = False
    return values
