"""The two value rules every qhetfed type and entry point checks its inputs by.

A count is a Python or numpy integer of at least a given minimum; a number is
a finite Python or numpy int or float.  A bool is neither, and a float is never
a count: values are checked, never cast.  An array of numbers must hold finite
entries only (``check_finite``).  Each rule raises ``ValueError`` naming the value.
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
