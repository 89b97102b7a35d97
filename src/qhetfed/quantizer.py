"""Unbiased stochastic uniform quantization of real vectors.

``quantize`` maps a vector x to sign(x_i) * ||x|| * zeta_i, where each zeta_i
lies on the uniform grid {0, 1/s, ..., 1} and is randomly rounded between the
two grid points bracketing |x_i| / ||x||.  The rounding probabilities are
chosen so that the output is an unbiased estimate of x.  The price of
unbiasedness is extra variance, summarized by the factor q in

    E ||Q(x) - x||^2  <=  q * ||x||^2,

which grows as the number of levels s shrinks and as the dimension grows.
``estimate_variance_factor`` measures q empirically for a given spec and dimension d.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .checks import check_count, check_float_count

STOCHASTIC = "stochastic"
IDENTITY = "identity"
_SMALLEST_NORM = math.sqrt(np.finfo(float).tiny)  # the least norm whose square is a normal float


class NonFiniteInputError(ValueError):
    """Raised when a vector handed to the quantizer has NaN or infinite entries,
    or, in stochastic mode, finite entries whose norm is too large for a float.

    This almost always signals numerical blow-up upstream (a diverging
    training run), not a quantizer problem.
    """


class QuantizerSpec(namedtuple("QuantizerSpec", "levels mode", defaults=(1, STOCHASTIC))):
    """Quantizer configuration: number of levels plus a mode switch.

    ``identity`` mode passes vectors through exactly, so degenerate-case tests
    can disable quantization without touching the code path layout.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.mode not in (STOCHASTIC, IDENTITY):
            raise ValueError(f"quantizer mode must be '{STOCHASTIC}' or '{IDENTITY}', got {self.mode!r}")
        # quantize mixes the level count with floats
        check_float_count(self.levels, "levels")
        return self


def identity_spec() -> QuantizerSpec:
    """Spec for the exact pass-through quantizer."""
    return QuantizerSpec(levels=1, mode=IDENTITY)


def quantize(x: np.ndarray, spec: QuantizerSpec, rng: np.random.Generator) -> np.ndarray:
    """Quantize ``x`` to ``spec.levels`` stochastic levels.

    Components that sit exactly on a grid point (including zeros) are passed
    through deterministically.  A stochastic call on a nonzero vector draws
    exactly one uniform per component, whatever the values; the zero vector
    and identity mode return without drawing.  Callers that pass one shared
    generator to several calls rely on this: how far it advances depends on
    which vectors are zero.  A finite vector whose norm is too large for a
    float is a ``NonFiniteInputError``; any other is quantized without bias.
    """
    x = np.asarray(x, dtype=float)
    # np.linalg.norm(x) without its dispatch; vdot is x.dot's BLAS sum without its overflow warning.
    # A NaN or inf entry always makes the norm non-finite, so the entries are scanned only then
    flat = x.ravel(order="K")
    norm = math.sqrt(np.vdot(flat, flat))
    if not math.isfinite(norm) and not np.all(np.isfinite(x)):
        bad = int(np.count_nonzero(~np.isfinite(x)))
        raise NonFiniteInputError(
            f"quantize: {bad} non-finite component(s) in a vector of size {x.size}; "
            "upstream values have likely diverged"
        )
    if spec.mode == IDENTITY:
        return x.copy()
    # the square overflowed or lost bits below the normal floats: quantize x / max |x_i|,
    # whose norm lies in [1, sqrt(x.size)], and scale the result back
    if not _SMALLEST_NORM <= norm < math.inf:
        largest = float(np.abs(flat).max(initial=0.0))
        if largest == 0.0:
            return np.zeros_like(x)
        unit = x / largest
        if largest * math.sqrt(np.vdot(unit, unit)) == math.inf:
            raise NonFiniteInputError(f"quantize: a vector of size {x.size} has a norm too large for a float")
        return largest * quantize(unit, spec, rng)
    s = spec.levels
    # sign(x) * (norm / s) * (lower + bump), evaluated in place in that order
    scaled = np.abs(x)
    scaled *= s / norm
    lower = np.floor(scaled)
    scaled -= lower
    # probability of rounding up equals the fractional position in the cell
    lower += rng.random(x.shape) < scaled
    out = np.sign(x)
    out *= norm / s
    out *= lower
    return out


# standard-normal probe vectors per variance-factor estimate
PROBES = 32


def estimate_variance_factor(spec: QuantizerSpec, d: int, trials: int, rng: np.random.Generator) -> float:
    """Empirically estimate the variance factor q of ``spec`` for dimension ``d``.

    Draws ``PROBES`` (32) standard-normal probe vectors and, for each, averages
    ||Q(x) - x||^2 / ||x||^2 over ``max(1, trials // PROBES)`` repeated quantizations.
    Returns the maximum of the per-probe means, which is the conservative
    choice for a factor that must bound the expectation from above.

    The estimate depends on d: expect q to grow with dimension at fixed s
    and to fall roughly like 1/s^2 at fixed dimension.
    """
    for name, count in (("d", d), ("trials", trials)):
        check_count(count, name)
    if spec.mode == IDENTITY:
        return 0.0
    reps = max(1, trials // PROBES)
    worst = 0.0
    for _ in range(PROBES):
        x = rng.standard_normal(d)
        norm_sq = float(x @ x)
        if norm_sq == 0.0:
            continue
        acc = 0.0
        for _ in range(reps):
            err = quantize(x, spec, rng) - x
            acc += float(err @ err)
        worst = max(worst, acc / (reps * norm_sq))
    return worst
