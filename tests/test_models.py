import itertools
import math
import re

import numpy as np
import pytest

from qhetfed import models
from qhetfed.models import (
    ModelSpec,
    accuracy,
    finite_diff_gradient,
    gradient,
    init_params,
    loss,
    stack_batch,
)
from qhetfed.streams import stream


def test_parameter_dimensions():
    assert ModelSpec(kind="logistic", input_dim=4, num_classes=3).dim == 15
    assert ModelSpec(kind="mlp", input_dim=4, num_classes=3, hidden_width=5).dim == 5 * 5 + 3 * 6
    assert ModelSpec(kind="quadratic", input_dim=7).dim == 7


def test_logistic_loss_and_gradient_by_hand():
    # two classes, one feature, zero weights, single sample x=[2] with label 1:
    # softmax is (1/2, 1/2), so the loss is ln 2 and the gradient stacks
    # residual*x per class row followed by the residual itself for the biases
    spec = ModelSpec(kind="logistic", input_dim=1, num_classes=2)
    w = np.zeros(spec.dim)
    batch = (np.array([[2.0]]), np.array([1]))
    assert abs(loss(spec, w, batch) - math.log(2.0)) < 1e-12
    g = gradient(spec, w, batch)
    assert np.allclose(g, [1.0, -1.0, 0.5, -0.5], atol=1e-12)


def test_quadratic_closed_form():
    spec = ModelSpec(kind="quadratic", input_dim=2)
    X = np.array([[1.0, 0.0], [3.0, 2.0]])
    y = np.array([0, 0])
    w = np.array([2.0, 1.0])
    assert abs(loss(spec, w, (X, y)) - 0.5 * np.mean([1 + 1, 1 + 1])) < 1e-12
    assert np.allclose(gradient(spec, w, (X, y)), w - X.mean(axis=0))


@pytest.mark.parametrize("kind,classes,hidden", [("logistic", 3, 0), ("mlp", 4, 6)])
def test_gradient_matches_finite_difference(kind, classes, hidden):
    spec = ModelSpec(kind=kind, input_dim=5, num_classes=classes, hidden_width=hidden)
    rng = stream(9, "fd", kind)
    X = rng.normal(size=(8, 5))
    y = rng.integers(0, classes, size=8)
    w = rng.normal(size=spec.dim) * 0.5
    g = gradient(spec, w, (X, y))
    g_fd = finite_diff_gradient(spec, w, (X, y), 1e-6)
    denom = max(np.linalg.norm(g), 1e-12)
    assert np.linalg.norm(g - g_fd) / denom < 1e-6


def test_loss_is_stable_for_large_logits():
    spec = ModelSpec(kind="logistic", input_dim=2, num_classes=2)
    w = np.array([500.0, 0.0, -500.0, 0.0, 0.0, 0.0])
    value = loss(spec, w, (np.array([[1.0, 1.0]]), np.array([0])))
    assert np.isfinite(value)
    assert value >= 0.0


def test_accuracy_counts_argmax_class_matches():
    spec = ModelSpec(kind="logistic", input_dim=1, num_classes=2)
    # class 1 scores higher for positive inputs with this weight layout
    w = np.array([-1.0, 1.0, 0.0, 0.0])
    X = np.array([[2.0], [-2.0]])
    y = np.array([1, 0])
    for i in range(2):
        assert accuracy(spec, w, (X[i : i + 1], y[i : i + 1])) == 1.0
    assert accuracy(spec, w, (X, y)) == 1.0
    assert accuracy(spec, w, (X, np.array([0, 1]))) == 0.0
    assert accuracy(spec, w, (X, np.array([1, 1]))) == 0.5
    with pytest.raises(ValueError, match="feature width 2 does not match model input_dim 1"):
        accuracy(spec, w, (np.zeros((1, 2)), np.array([0])))


def test_quadratic_has_no_classifier_surface():
    spec = ModelSpec(kind="quadratic", input_dim=2)
    assert accuracy(spec, np.zeros(2), (np.zeros((1, 2)), np.array([0]))) == 0.0


def test_stack_batch_forms():
    spec = ModelSpec(kind="logistic", input_dim=2, num_classes=2)
    X, y = stack_batch(spec, ([[1, 2], [3, 4]], [1.0, 0.0]))
    assert X.shape == (2, 2) and X.dtype == np.float64
    assert np.array_equal(y, [1, 0]) and y.dtype == np.int64
    X2, y2 = stack_batch(spec, (X, y))
    assert X2 is X and y2 is y
    with pytest.raises(ValueError, match=r"got features of shape \(0, 2\) and labels of shape \(0,\)"):
        stack_batch(spec, (np.zeros((0, 2)), np.zeros(0, dtype=int)))


_X4 = np.arange(8.0).reshape(4, 2)


@pytest.mark.parametrize("fn", [gradient, loss, accuracy])
@pytest.mark.parametrize(
    "X,y,shapes",
    [
        # one label for every row used to broadcast, and a label column too
        (_X4, np.array([2]), "features of shape (4, 2) and labels of shape (1,)"),
        (_X4, np.full((4, 1), 2), "features of shape (4, 2) and labels of shape (4, 1)"),
        (np.zeros(3), np.array([0]), "features of shape (3,) and labels of shape (1,)"),
        (np.zeros((2, 3, 1)), np.array([0, 1]), "features of shape (2, 3, 1) and labels of shape (2,)"),
    ],
)
def test_batch_needs_a_feature_matrix_and_one_label_per_row(fn, X, y, shapes):
    spec = ModelSpec(kind="logistic", input_dim=X.shape[-1], num_classes=3)
    w = stream(15, "shapes").standard_normal(spec.dim)
    with pytest.raises(ValueError, match=re.escape(shapes)):
        fn(spec, w, (X, y))


def test_init_params():
    spec = ModelSpec(kind="logistic", input_dim=3, num_classes=2)
    assert np.array_equal(init_params(spec), np.zeros(spec.dim))
    mspec = ModelSpec(kind="mlp", input_dim=3, num_classes=2, hidden_width=4)
    with pytest.raises(ValueError):
        init_params(mspec)
    w = init_params(mspec, stream(1, "init"), scale=0.1)
    assert w.shape == (mspec.dim,)
    assert 0.0 < np.std(w) < 0.3


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(kind="logistic", input_dim=2, num_classes=1)
    with pytest.raises(ValueError):
        ModelSpec(kind="mlp", input_dim=2, num_classes=2, hidden_width=0)
    with pytest.raises(ValueError):
        ModelSpec(kind="nope", input_dim=2)


def test_finite_diff_step_validation():
    spec = ModelSpec(kind="quadratic", input_dim=2)
    with pytest.raises(ValueError):
        finite_diff_gradient(spec, np.zeros(2), (np.zeros((1, 2)), np.array([0])), 0.0)


# ---------------------------------------------------------------------------
# oracle for the in-place gradient kernels


def _reference_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(z)
    return ez / ez.sum(axis=1, keepdims=True)


def _reference_gradient(spec, w, batch):
    """The classifier gradients written one numpy operation per formula term."""
    X, y = stack_batch(spec, batch)
    n = X.shape[0]
    if spec.kind == "logistic":
        K, D = spec.num_classes, spec.input_dim
        W, b = w[: K * D].reshape(K, D), w[K * D :]
        logits = X @ W.T + b
        resid = _reference_softmax(logits)
        resid[np.arange(n), y] -= 1.0
        resid /= n
        gW = resid.T @ X
        gb = resid.sum(axis=0)
        return np.concatenate([gW.ravel(), gb])
    W1, b1, W2, b2 = models._mlp_unpack(spec, w)
    pre = X @ W1.T + b1
    hidden = np.tanh(pre)
    logits = hidden @ W2.T + b2
    resid = _reference_softmax(logits)
    resid[np.arange(n), y] -= 1.0
    resid /= n
    gW2 = resid.T @ hidden
    gb2 = resid.sum(axis=0)
    back = (resid @ W2) * (1.0 - hidden * hidden)
    gW1 = back.T @ X
    gb1 = back.sum(axis=0)
    return np.concatenate([gW1.ravel(), gb1, gW2.ravel(), gb2])


def _oracle_specs(kind):
    hiddens = (1, 64) if kind == "mlp" else (0,)
    for D, K, H in itertools.product((1, 20, 200), (2, 10), hiddens):
        yield ModelSpec(kind=kind, input_dim=D, num_classes=K, hidden_width=H)


@pytest.mark.parametrize("B", [1, 5, 40, 100])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_gradient_is_byte_identical_to_reference(kind, B):
    # weight scales up to 3 saturate the softmax at D = 200
    for spec in _oracle_specs(kind):
        rng = stream(11, "oracle", kind, B, spec.input_dim, spec.num_classes, spec.hidden_width)
        X = rng.normal(size=(B, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=B)
        for scale in (1e-2, 0.3, 3.0):
            w = scale * rng.standard_normal(spec.dim)
            g = gradient(spec, w, (X, y))
            assert g.tobytes() == _reference_gradient(spec, w, (X, y)).tobytes(), (spec, scale)


def _reference_logits(spec, w, X):
    if spec.kind == "logistic":
        K, D = spec.num_classes, spec.input_dim
        W, b = w[: K * D].reshape(K, D), w[K * D :]
        return X @ W.T + b
    W1, b1, W2, b2 = models._mlp_unpack(spec, w)
    return np.tanh(X @ W1.T + b1) @ W2.T + b2


@pytest.mark.parametrize("B", [1, 5, 40, 100])
@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_loss_and_accuracy_are_byte_identical_to_reference(kind, B):
    # the same cases as the gradient oracle; the loss is the log-sum-exp cross-entropy
    for spec in _oracle_specs(kind):
        rng = stream(11, "oracle", kind, B, spec.input_dim, spec.num_classes, spec.hidden_width)
        X = rng.normal(size=(B, spec.input_dim))
        y = rng.integers(0, spec.num_classes, size=B)
        for scale in (1e-2, 0.3, 3.0):
            w = scale * rng.standard_normal(spec.dim)
            logits = _reference_logits(spec, w, X)
            m = logits.max(axis=1)
            lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
            assert loss(spec, w, (X, y)) == float(np.mean(lse - logits[np.arange(B), y])), (spec, scale)
            assert accuracy(spec, w, (X, y)) == float(np.mean(logits.argmax(axis=1) == y)), (spec, scale)


@pytest.mark.parametrize("kind", ["logistic", "mlp"])
def test_gradient_matches_reference_on_cast_inputs(kind):
    spec = ModelSpec(kind=kind, input_dim=7, num_classes=3, hidden_width=5 if kind == "mlp" else 0)
    rng = stream(12, "oracle-cast", kind)
    wide = rng.normal(size=(9, 14))
    y = rng.integers(0, 3, size=9)
    w = rng.standard_normal(spec.dim)
    for X, labels in [
        (rng.integers(-3, 4, size=(9, 7)), y),
        (wide[:, :7].astype(np.float32), y),
        (wide[:, ::2], y),
        (wide[:, 1::2].tolist(), y.astype(float)),
    ]:
        g = gradient(spec, w, (X, labels))
        assert g.tobytes() == _reference_gradient(spec, w, (X, labels)).tobytes()


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 4), ("quadratic", 0)])
def test_gradient_returns_fresh_owned_vector(kind, hidden):
    # the engine scales the returned gradient in place, so it must own its memory
    spec = ModelSpec(kind=kind, input_dim=3, num_classes=2, hidden_width=hidden)
    rng = stream(13, "fresh", kind)
    w = rng.standard_normal(spec.dim)
    X = rng.normal(size=(4, 3))
    w_before, X_before = w.copy(), X.copy()
    g = gradient(spec, w, (X, rng.integers(0, 2, size=4)))
    assert g.dtype == np.float64 and g.shape == (spec.dim,)
    assert g.flags.c_contiguous and g.flags.writeable and g.flags.owndata
    assert not np.shares_memory(g, w) and not np.shares_memory(g, X)
    g *= 2.0
    assert np.array_equal(w, w_before) and np.array_equal(X, X_before)


@pytest.mark.parametrize("kind,hidden", [("logistic", 0), ("mlp", 6)])
def test_gradient_reuses_its_onehot_index_cache_across_batch_sizes(kind, hidden):
    # revisiting a batch size reads the cached index base of that shape, never another's
    spec = ModelSpec(kind=kind, input_dim=7, num_classes=4, hidden_width=hidden)
    rng = stream(14, "onehot-cache", kind)
    w = rng.standard_normal(spec.dim)
    for B in (5, 40, 5, 1, 40):
        X = rng.normal(size=(B, 7))
        y = rng.integers(0, 4, size=B)
        assert gradient(spec, w, (X, y)).tobytes() == _reference_gradient(spec, w, (X, y)).tobytes(), B
    base = models._onehot_base(5, 4)
    assert np.array_equal(base, np.arange(0, 20, 4))
    with pytest.raises(ValueError, match="read-only"):
        base[0] = 1
