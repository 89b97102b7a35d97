import math

import numpy as np
import pytest

from qhetfed.models import (
    ModelSpec,
    accuracy,
    finite_diff_gradient,
    gradient,
    init_params,
    loss,
    predict,
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


def test_predict_and_accuracy():
    spec = ModelSpec(kind="logistic", input_dim=1, num_classes=2)
    # class 1 scores higher for positive inputs with this weight layout
    w = np.array([-1.0, 1.0, 0.0, 0.0])
    X = np.array([[2.0], [-2.0]])
    y = np.array([1, 0])
    assert np.array_equal(predict(spec, w, X), y)
    assert accuracy(spec, w, (X, y)) == 1.0
    assert accuracy(spec, w, (X, np.array([0, 1]))) == 0.0


def test_quadratic_has_no_classifier_surface():
    spec = ModelSpec(kind="quadratic", input_dim=2)
    with pytest.raises(ValueError):
        predict(spec, np.zeros(2), np.zeros((1, 2)))
    assert accuracy(spec, np.zeros(2), (np.zeros((1, 2)), np.array([0]))) == 0.0


def test_stack_batch_forms():
    X, y = stack_batch(([[1, 2], [3, 4]], [1.0, 0.0]))
    assert X.shape == (2, 2) and X.dtype == np.float64
    assert np.array_equal(y, [1, 0]) and y.dtype == np.int64
    X2, y2 = stack_batch((X, y))
    assert X2 is X and y2 is y
    with pytest.raises(ValueError):
        stack_batch((np.zeros((0, 2)), np.zeros(0, dtype=int)))


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
