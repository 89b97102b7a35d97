"""Unbiased stochastic uniform quantization of real vectors.

``quantize`` maps a vector x to sign(x_i) * ||x|| * zeta_i, where each zeta_i
lies on the uniform grid {0, 1/s, ..., 1} and is randomly rounded between the
two grid points bracketing |x_i| / ||x||.  The rounding probabilities are
chosen so that the output is an unbiased estimate of x.  The price of
unbiasedness is extra variance, summarized by the factor q in

    E ||Q(x) - x||^2  <=  q * ||x||^2,

which grows as the number of levels s shrinks and as the dimension grows.
``estimate_variance_factor`` measures q empirically for a given (s, d).
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .checks import check_count

STOCHASTIC = "stochastic"
IDENTITY = "identity"


class NonFiniteInputError(ValueError):
    """Raised when a vector handed to the quantizer has NaN or infinite entries.

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
            raise ValueError(f"unknown quantizer mode {self.mode!r}")
        check_count(self.levels, "levels")
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
    which vectors are zero.
    """
    x = np.asarray(x, dtype=float)
    # np.linalg.norm(x) without its dispatch; a NaN or inf entry always makes
    # the norm non-finite, so the entries are scanned only then
    flat = x.ravel(order="K")
    norm = math.sqrt(flat.dot(flat))
    if not math.isfinite(norm) and not np.all(np.isfinite(x)):
        bad = int(np.count_nonzero(~np.isfinite(x)))
        raise NonFiniteInputError(
            f"quantize: {bad} non-finite component(s) in a vector of size {x.size}; "
            "upstream values have likely diverged"
        )
    if spec.mode == IDENTITY:
        return x.copy()
    if norm == 0.0:
        return np.zeros_like(x)
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


def estimate_variance_factor(
    levels: int | QuantizerSpec,
    d: int,
    trials: int,
    rng: np.random.Generator,
    *,
    probes: int = 32,
) -> float:
    """Empirically estimate the variance factor q for dimension ``d``.

    Draws ``probes`` standard-normal probe vectors and, for each, averages
    ||Q(x) - x||^2 / ||x||^2 over ``trials // probes`` repeated quantizations.
    Returns the maximum of the per-probe means, which is the conservative
    choice for a factor that must bound the expectation from above.

    The estimate depends on d: expect q to grow with dimension at fixed s
    and to fall roughly like 1/s^2 at fixed dimension.
    """
    spec = levels if isinstance(levels, QuantizerSpec) else QuantizerSpec(levels=levels)
    for name, count in (("d", d), ("trials", trials), ("probes", probes)):
        check_count(count, name)
    if spec.mode == IDENTITY:
        return 0.0
    reps = max(1, trials // probes)
    worst = 0.0
    for _ in range(probes):
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
