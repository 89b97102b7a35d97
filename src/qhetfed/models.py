"""Small differentiable models that expose loss and analytic mini-batch gradients.

All parameters live in one flat float64 vector so aggregation and quantization
can treat a model as a single array.  Layouts:

* ``logistic``  -- multinomial logistic regression.
  ``[W (K x D, row-major), b (K)]``, dimension ``K*D + K``.
* ``mlp``       -- one tanh hidden layer of width H, softmax output.
  ``[W1 (H x D), b1 (H), W2 (K x H), b2 (K)]``, dimension ``H*(D+1) + K*(H+1)``.
* ``quadratic`` -- mean squared distance ``0.5 * mean_i ||w - x_i||^2`` to the
  batch feature vectors; labels are ignored.  This kind exists for tests that
  need a loss with a known minimizer, exact gradients, and known smoothness
  and curvature constants (L = 1, and the quadratic growth constant is 1).

Batches are ``(X, y)`` pairs of a float feature matrix and an int label
vector (labels in ``0..K-1``, unchecked), the form in which ``datagen``
builds datasets, splits and shards.

``gradient`` is the simulator's hot kernel.  It computes in place and writes
each block into one fresh output vector, yet returns the same bytes as the
formula written one numpy operation per term (kept in the tests as the
oracle): the same gemm and reduction calls in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOGISTIC = "logistic"
MLP = "mlp"
QUADRATIC = "quadratic"

KINDS = (LOGISTIC, MLP, QUADRATIC)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    input_dim: int
    num_classes: int = 1
    hidden_width: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.kind in (LOGISTIC, MLP) and self.num_classes < 2:
            raise ValueError(f"{self.kind} needs at least 2 classes")
        if self.kind == MLP and self.hidden_width < 1:
            raise ValueError("mlp needs hidden_width >= 1")

    @property
    def dim(self) -> int:
        """Length of the flat parameter vector."""
        if self.kind == LOGISTIC:
            return self.num_classes * (self.input_dim + 1)
        if self.kind == MLP:
            return self.hidden_width * (self.input_dim + 1) + self.num_classes * (
                self.hidden_width + 1
            )
        return self.input_dim


def stack_batch(batch) -> tuple[np.ndarray, np.ndarray]:
    """Cast an ``(X, y)`` batch to float features and int labels; rejects empty batches."""
    X, y = batch
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("empty batch")
    return X, y


def init_params(spec: ModelSpec, rng: np.random.Generator | None = None, scale: float = 0.1) -> np.ndarray:
    """Zeros by default; Gaussian of the given scale when an rng is supplied.

    The mlp kind requires an rng: the all-zeros point is a symmetric saddle
    where the hidden layer never receives a gradient.
    """
    if rng is None:
        if spec.kind == MLP:
            raise ValueError("mlp initialization needs an rng to break symmetry")
        return np.zeros(spec.dim)
    return scale * rng.standard_normal(spec.dim)


# ---------------------------------------------------------------------------
# parameter vector layouts


def _logistic_unpack(spec: ModelSpec, w: np.ndarray):
    K, D = spec.num_classes, spec.input_dim
    W = w[: K * D].reshape(K, D)
    b = w[K * D :]
    return W, b


def _mlp_unpack(spec: ModelSpec, w: np.ndarray):
    H, D, K = spec.hidden_width, spec.input_dim, spec.num_classes
    i = 0
    W1 = w[i : i + H * D].reshape(H, D)
    i += H * D
    b1 = w[i : i + H]
    i += H
    W2 = w[i : i + K * H].reshape(K, H)
    i += K * H
    b2 = w[i : i + K]
    return W1, b1, W2, b2


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    # log-sum-exp keeps this finite for any finite logits
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def _forward_logits(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    if spec.kind == LOGISTIC:
        W, b = _logistic_unpack(spec, w)
        return X @ W.T + b, None
    W1, b1, W2, b2 = _mlp_unpack(spec, w)
    hidden = np.tanh(X @ W1.T + b1)
    return hidden @ W2.T + b2, hidden


# ---------------------------------------------------------------------------
# public operations


def loss(spec: ModelSpec, w: np.ndarray, batch) -> float:
    """Mean loss over the batch (cross-entropy for the classifier kinds)."""
    X, y = stack_batch(batch)
    _check_width(spec, X)
    if spec.kind == QUADRATIC:
        diff = w[None, :] - X
        return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))
    logits, _ = _forward_logits(spec, w, X)
    return _cross_entropy(logits, y)


def gradient(spec: ModelSpec, w: np.ndarray, batch) -> np.ndarray:
    """Exact analytic gradient of ``loss`` at ``w`` over the given batch."""
    X, y = stack_batch(batch)
    _check_width(spec, X)
    n = X.shape[0]
    if spec.kind == QUADRATIC:
        return w - X.mean(axis=0)
    # logistic regression is the mlp's softmax output layer applied to X itself
    out = np.empty(spec.dim)
    if spec.kind == LOGISTIC:
        W, b = _logistic_unpack(spec, w)
        inputs, head = X, out
    else:
        W1, b1, W, b = _mlp_unpack(spec, w)
        inputs = np.dot(X, W1.T)
        inputs += b1
        np.tanh(inputs, out=inputs)
        head = out[W1.size + b1.size :]
    # resid = (softmax(logits) - onehot(y)) / n, all in the logits array
    resid = np.dot(inputs, W.T)
    resid += b
    resid -= np.maximum.reduce(resid, axis=1, keepdims=True)
    np.exp(resid, out=resid)
    resid /= np.add.reduce(resid, axis=1, keepdims=True)
    resid.ravel()[np.arange(0, resid.size, b.size) + y] -= 1.0
    resid /= n
    np.dot(resid.T, inputs, out=head[: W.size].reshape(W.shape))
    np.add.reduce(resid, axis=0, out=head[W.size :])
    if spec.kind == MLP:
        back = np.dot(resid, W)
        inputs *= inputs
        back *= np.subtract(1.0, inputs, out=inputs)
        np.dot(back.T, X, out=out[: W1.size].reshape(W1.shape))
        np.add.reduce(back, axis=0, out=out[W1.size : W1.size + b1.size])
    return out


def finite_diff_gradient(spec: ModelSpec, w: np.ndarray, batch, h) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time.

    ``h`` may be a scalar or a per-coordinate array (e.g. scaled by |w_i|).
    """
    w = np.asarray(w, dtype=float)
    steps = np.broadcast_to(np.asarray(h, dtype=float), w.shape)
    if np.any(steps <= 0):
        raise ValueError("h must be positive")
    X, y = stack_batch(batch)
    out = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += steps[i]
        wm[i] -= steps[i]
        out[i] = (loss(spec, wp, (X, y)) - loss(spec, wm, (X, y))) / (2 * steps[i])
    return out


def predict(spec: ModelSpec, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    if spec.kind == QUADRATIC:
        raise ValueError("quadratic kind has no class predictions")
    logits, _ = _forward_logits(spec, w, np.asarray(X, dtype=float))
    return logits.argmax(axis=1)


def accuracy(spec: ModelSpec, w: np.ndarray, samples) -> float:
    """Fraction of correct argmax predictions; 0.0 for the quadratic kind."""
    if spec.kind == QUADRATIC:
        return 0.0
    X, y = stack_batch(samples)
    return float(np.mean(predict(spec, w, X) == y))


def _check_width(spec: ModelSpec, X: np.ndarray) -> None:
    if X.shape[1] != spec.input_dim:
        raise ValueError(
            f"feature width {X.shape[1]} does not match model input_dim {spec.input_dim}"
        )
