import math

import numpy as np
import pytest

from qhetfed.quantizer import (
    IDENTITY,
    NonFiniteInputError,
    QuantizerSpec,
    estimate_variance_factor,
    identity_spec,
    quantize,
)
from qhetfed.streams import stream


def test_identity_returns_copy():
    x = np.array([1.5, -2.0, 0.25])
    out = quantize(x, identity_spec(), stream(0, "q"))
    assert np.array_equal(out, x)
    assert out is not x


def test_zero_vector_maps_to_zero():
    spec = QuantizerSpec(levels=4)
    out = quantize(np.zeros(5), spec, stream(0, "q"))
    assert np.array_equal(out, np.zeros(5))


def test_outputs_live_on_the_level_grid():
    spec = QuantizerSpec(levels=3)
    x = np.array([0.3, -1.1, 0.7, 2.0])
    norm = np.linalg.norm(x)
    rng = stream(1, "grid")
    for _ in range(50):
        out = quantize(x, spec, rng)
        steps = np.abs(out) * spec.levels / norm
        assert np.allclose(steps, np.round(steps), atol=1e-12)
        assert np.all(np.abs(out) <= norm + 1e-12)
        # zero coordinates keep no sign, everything else keeps the input's
        nz = out != 0
        assert np.array_equal(np.sign(out[nz]), np.sign(x[nz]))


def test_grid_point_passes_through_exactly():
    # coordinates already proportional to integer grid steps: 3-4-5 triangle
    # with levels=5 gives scaled magnitudes (3, 4), both integers
    x = np.array([3.0, -4.0])
    spec = QuantizerSpec(levels=5)
    rng = stream(2, "exact")
    for _ in range(20):
        assert np.array_equal(quantize(x, spec, rng), x)


def test_one_level_support_is_zero_or_norm():
    x = np.array([3.0, 4.0])
    spec = QuantizerSpec(levels=1)
    rng = stream(3, "support")
    seen = set()
    for _ in range(200):
        out = quantize(x, spec, rng)
        for v in out:
            seen.add(round(float(v), 9))
    assert seen == {0.0, 5.0}


def test_unbiased_at_small_scale():
    # x=[1,1]: scaled magnitude 1/sqrt(2) per coordinate at one level, so each
    # output is sqrt(2) * Bernoulli(0.7071); the mean must come back to 1
    x = np.array([1.0, 1.0])
    spec = QuantizerSpec(levels=1)
    rng = stream(4, "unbiased")
    n = 20000
    total = np.zeros(2)
    for _ in range(n):
        total += quantize(x, spec, rng)
    mean = total / n
    p = 1.0 / np.sqrt(2.0)
    se = np.sqrt(2.0) * np.sqrt(p * (1 - p)) / np.sqrt(n)
    assert np.all(np.abs(mean - x) < 4 * se)


def test_non_finite_input_raises():
    cases = [
        (np.array([1.0, np.nan]), 1),
        (np.array([np.inf, 0.0, -np.inf, 1.0]), 2),
        (np.array([1e200, np.nan, -np.inf]), 2),
    ]
    for spec in (QuantizerSpec(levels=2), identity_spec()):
        for x, bad in cases:
            expected = (
                f"quantize: {bad} non-finite component(s) in a vector of size {x.size}; "
                "upstream values have likely diverged"
            )
            with pytest.raises(NonFiniteInputError) as exc:
                quantize(x, spec, stream(0, "q"))
            assert str(exc.value) == expected


def test_identity_spec_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(levels=0)
    with pytest.raises(ValueError):
        QuantizerSpec(levels=0, mode=IDENTITY)
    with pytest.raises(ValueError):
        QuantizerSpec(mode="exact")
    for levels in (2.5, True, "4"):
        with pytest.raises(ValueError, match="levels"):
            QuantizerSpec(levels=levels)
    assert QuantizerSpec(levels=np.int64(3)).levels == 3
    assert identity_spec() == QuantizerSpec(levels=1, mode=IDENTITY)


def test_variance_factor_identity_is_zero():
    assert estimate_variance_factor(identity_spec(), 16, 100, stream(0, "v")) == 0.0


def test_variance_factor_decreases_with_levels():
    d = 64
    q3 = estimate_variance_factor(QuantizerSpec(levels=3), d, 4096, stream(5, "v", 3))
    q7 = estimate_variance_factor(QuantizerSpec(levels=7), d, 4096, stream(5, "v", 7))
    assert q3 > q7
    # both sit under the analytic cap min(d/s^2, sqrt(d)/s)
    assert q3 <= min(d / 9, 8.0 / 3)
    assert q7 <= min(d / 49, 8.0 / 7)


def test_variance_factor_bounds_the_observed_ratio():
    # the estimate is a max over probe directions, so any fresh probe's mean
    # relative error should rarely exceed it by much; check a modest margin
    d = 32
    spec = QuantizerSpec(levels=2)
    q_hat = estimate_variance_factor(spec, d, 8192, stream(6, "v"))
    rng = stream(7, "probe")
    x = rng.normal(size=d)
    errs = []
    for _ in range(400):
        out = quantize(x, spec, rng)
        errs.append(np.sum((out - x) ** 2) / np.sum(x**2))
    assert np.mean(errs) <= 1.25 * q_hat


def test_variance_factor_argument_validation():
    with pytest.raises(ValueError):
        estimate_variance_factor(QuantizerSpec(levels=2), 0, 100, stream(0, "v"))
    with pytest.raises(ValueError):
        estimate_variance_factor(QuantizerSpec(levels=2), 16, 0, stream(0, "v"))


# The reference formula: sign(x) * (norm / s) * (lower + bump), one temporary
# per step.  ``quantize`` must return the same bytes and consume the same draws.
# A norm whose square overflows or falls below the normal floats is taken as
# max |x_i| times the norm of x / max |x_i|, whose square does neither.
def _reference_quantize(x, spec, rng):
    x = np.asarray(x, dtype=float)
    norm = float(np.linalg.norm(x))
    if not math.sqrt(np.finfo(float).tiny) <= norm < math.inf:
        largest = float(np.max(np.abs(x), initial=0.0))
        if largest == 0.0:
            return np.zeros_like(x)
        return largest * _reference_quantize(x / largest, spec, rng)
    s = spec.levels
    scaled = np.abs(x) * (s / norm)
    lower = np.floor(scaled)
    bump = rng.random(x.shape) < (scaled - lower)
    return np.sign(x) * (norm / s) * (lower + bump)


def _oracle_inputs(d):
    base = stream(9, "oracle", d).standard_normal(d)
    signed_zeros = base.copy()
    signed_zeros[::3] = 0.0
    signed_zeros[1::5] = -0.0
    # grid-exact: |x_i| * s / ||x|| is exactly s (one entry) or s / 2 (four
    # equal power-of-two entries), the rest exact zeros of both signs
    grid = np.zeros(d)
    if d >= 4:
        grid[:4] = [0.5, -0.5, 0.5, -0.5]
        grid[4::2] = -0.0
    else:
        grid[0] = -4.0
        grid[1:] = -0.0
    mixed = base.copy()
    mixed[::2] *= 1e-160
    mixed[1::2] *= 1e150
    return {
        "normal": base,
        "signed_zeros": signed_zeros,
        "grid": grid,
        "tiny": base * 1e-160,
        "underflow": base * 1e-300,
        "huge": base * 1e150,
        # finite entries whose squared norm overflows, and a norm that is still a float
        "overflow": base * 1e200,
        "mixed": mixed,
        "zeros": np.zeros(d),
        "negative_zeros": np.full(d, -0.0),
    }


@pytest.mark.parametrize("d", [1, 2, 210, 2010])
@pytest.mark.parametrize("s", [1, 4, 6, 16])
def test_quantize_matches_reference_formula(d, s):
    spec = QuantizerSpec(levels=s)
    with np.errstate(invalid="ignore", over="ignore"):
        for name, x in _oracle_inputs(d).items():
            got_rng, ref_rng = stream(d, "oracle-q", s), stream(d, "oracle-q", s)
            for _ in range(3):
                got = quantize(x, spec, got_rng)
                ref = _reference_quantize(x, spec, ref_rng)
                assert got.dtype == ref.dtype and got.shape == ref.shape, name
                assert got.tobytes() == ref.tobytes(), name
                assert got_rng.random() == ref_rng.random(), name


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_a_norm_whose_square_leaves_float_range_is_quantized_without_bias(scale):
    # the square of 1e200 overflows and that of 1e-200 underflows to zero
    spec = QuantizerSpec(levels=4)
    x = np.array([scale, scale])
    rng, unit_rng, fresh = stream(0, "q"), stream(0, "q"), stream(0, "q")
    assert np.array_equal(quantize(x, spec, rng), scale * quantize(np.ones(2), spec, unit_rng))
    # one uniform per entry
    fresh.random(2)
    assert rng.random() == fresh.random()
    mean = np.mean([quantize(x, spec, rng) for _ in range(4000)], axis=0)
    assert np.allclose(mean / scale, 1.0, rtol=0, atol=0.02)


def test_a_finite_vector_whose_norm_is_too_large_for_a_float_raises():
    x = np.array([1.5e308, 1.5e308])
    with pytest.raises(NonFiniteInputError, match="^quantize: a vector of size 2 has a norm too large for a float$"):
        quantize(x, QuantizerSpec(levels=4), stream(0, "q"))


def test_identity_mode_draws_nothing():
    x = np.array([1.5, -0.0, 3.0])
    rng, fresh = stream(0, "q"), stream(0, "q")
    out = quantize(x, identity_spec(), rng)
    assert out.tobytes() == x.tobytes()
    assert rng.random() == fresh.random()
