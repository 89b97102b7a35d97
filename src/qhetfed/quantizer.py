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
from dataclasses import dataclass

import numpy as np

STOCHASTIC = "stochastic"
IDENTITY = "identity"


def _is_count(n) -> bool:
    """A Python or numpy integer; a bool or a float is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


class NonFiniteInputError(ValueError):
    """Raised when a vector handed to the quantizer has NaN or infinite entries.

    This almost always signals numerical blow-up upstream (a diverging
    training run), not a quantizer problem.
    """


@dataclass(frozen=True)
class QuantizerSpec:
    """Quantizer configuration: number of levels plus a mode switch.

    ``identity`` mode passes vectors through exactly, so degenerate-case tests
    can disable quantization without touching the code path layout.
    """

    levels: int = 1
    mode: str = STOCHASTIC

    def __post_init__(self) -> None:
        if self.mode not in (STOCHASTIC, IDENTITY):
            raise ValueError(f"unknown quantizer mode {self.mode!r}")
        if not _is_count(self.levels) or self.levels < 1:
            raise ValueError(f"levels must be a positive integer, got {self.levels!r}")


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
    if spec.mode == IDENTITY:
        return 0.0
    if trials < 1:
        raise ValueError("trials must be a positive integer")
    if d < 1:
        raise ValueError("d must be a positive integer")
    if probes < 1:
        raise ValueError("probes must be a positive integer")
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
