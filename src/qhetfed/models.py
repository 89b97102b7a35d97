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
vector with labels in ``0..K-1``, the form in which ``datagen`` builds
datasets, splits and shards.  ``stack_batch`` checks a batch's shapes (width,
one label per row), never its label values: ``FedRunConfig`` checks those of
every shard and the test set once, at construction.

``gradient``, ``loss`` and ``accuracy`` share one forward pass, ``_forward``,
and one layout function, ``_blocks``, the only code that slices a flat vector
into its blocks.  ``gradient`` is the simulator's hot kernel.  It computes in
place and writes each block into its ``_blocks`` view of one fresh output
vector, yet returns the same bytes as the formula written one numpy operation
per term (kept in the tests as the oracle): the same gemm and reduction calls
in the same order.  At the simulator's batch sizes each numpy call's fixed
cost outweighs its arithmetic, so the kernel keeps only one thing between
calls: the one-hot flat index base ``arange(0, n*K, K)`` of each batch shape,
in a bounded cache of read-only arrays.
"""

from __future__ import annotations

import functools
from collections import namedtuple

import numpy as np

from .checks import POSITIVE, check_count, check_number

LOGISTIC = "logistic"
MLP = "mlp"
QUADRATIC = "quadratic"

KINDS = (LOGISTIC, MLP, QUADRATIC)


class ModelSpec(namedtuple("ModelSpec", "kind input_dim num_classes hidden_width", defaults=(1, 0))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        check_count(self.input_dim, "input_dim")
        check_count(self.num_classes, "num_classes", 1 if self.kind == QUADRATIC else 2)
        check_count(self.hidden_width, "hidden_width", 1 if self.kind == MLP else 0)
        if self.kind != MLP and self.hidden_width:
            raise ValueError(f"hidden_width must be 0 for the {self.kind} kind, got {self.hidden_width!r}")
        return self

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


def stack_batch(spec: ModelSpec, batch) -> tuple[np.ndarray, np.ndarray]:
    """Cast an ``(X, y)`` batch to float features and int labels, checking its shapes for ``spec``."""
    X, y = batch
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.ndim != 1 or not 0 < len(X) == len(y):
        raise ValueError(f"a batch needs an (n, D) feature matrix with n > 0 and one label per row; "
                         f"got features of shape {X.shape} and labels of shape {y.shape}")
    if X.shape[1] != spec.input_dim:
        raise ValueError(f"feature width {X.shape[1]} does not match model input_dim {spec.input_dim}")
    return X, y


# ---------------------------------------------------------------------------
# parameter vector layouts


def _blocks(spec: ModelSpec, w: np.ndarray):
    """Views ``(W1, b1, W, b)`` of a classifier's flat vector ``w`` in the layouts above: the hidden layer,
    None for the logistic kind, then the softmax output layer."""
    # sliced from the sizes, not through spec.dim, whose fixed cost is a measurable share of a small batch
    K, D, H = spec.num_classes, spec.input_dim, spec.hidden_width
    W1 = b1 = None
    if spec.kind == MLP:
        W1, b1, w = w[: H * D].reshape(H, D), w[H * D : H * (D + 1)], w[H * (D + 1) :]
        D = H
    return W1, b1, w[: K * D].reshape(K, D), w[K * D :]


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> float:
    # log-sum-exp keeps this finite for any finite logits
    m = logits.max(axis=1)
    lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(len(y)), y]))


def _forward(spec: ModelSpec, w: np.ndarray, X: np.ndarray):
    """``(inputs, W, logits)`` of the softmax output layer, whose inputs are ``X`` itself for
    logistic and ``tanh(X W1^T + b1)``, computed in place, for the mlp; ``logits`` is a fresh array."""
    W1, b1, W, b = _blocks(spec, w)
    if W1 is None:
        inputs = X
    else:
        inputs = np.dot(X, W1.T)
        inputs += b1
        np.tanh(inputs, out=inputs)
    logits = np.dot(inputs, W.T)
    logits += b
    return inputs, W, logits


# ---------------------------------------------------------------------------
# public operations


def loss(spec: ModelSpec, w: np.ndarray, batch) -> float:
    """Mean loss over the batch (cross-entropy for the classifier kinds)."""
    X, y = stack_batch(spec, batch)
    if spec.kind == QUADRATIC:
        diff = w[None, :] - X
        return float(0.5 * np.mean(np.sum(diff * diff, axis=1)))
    return _cross_entropy(_forward(spec, w, X)[2], y)


def gradient(spec: ModelSpec, w: np.ndarray, batch) -> np.ndarray:
    """Exact analytic gradient of ``loss`` at ``w`` over the given batch."""
    X, y = stack_batch(spec, batch)
    if spec.kind == QUADRATIC:
        return w - X.mean(axis=0)
    inputs, W, resid = _forward(spec, w, X)
    n, K = resid.shape
    out = np.empty(len(w))  # not spec.dim, for the reason _blocks gives
    G1, g1, G, g = _blocks(spec, out)
    # resid = (softmax(logits) - onehot(y)) / n, all in the logits array;
    # the reductions take axis and keepdims positionally (axis, dtype, out, keepdims)
    resid -= np.maximum.reduce(resid, 1, None, None, True)
    np.exp(resid, out=resid)
    resid /= np.add.reduce(resid, 1, None, None, True)
    resid.ravel()[_onehot_base(n, K) + y] -= 1.0
    resid /= n
    np.dot(resid.T, inputs, out=G)
    np.add.reduce(resid, 0, None, g)
    if G1 is not None:
        back = np.dot(resid, W)
        inputs *= inputs
        back *= np.subtract(1.0, inputs, out=inputs)
        np.dot(back.T, X, out=G1)
        np.add.reduce(back, 0, None, g1)
    return out


@functools.lru_cache(maxsize=64)
def _onehot_base(n: int, K: int) -> np.ndarray:
    """Flat index of each row's first logit in an (n, K) array; read-only, as every caller shares it."""
    base = np.arange(0, n * K, K)
    base.flags.writeable = False
    return base


def finite_diff_gradient(spec: ModelSpec, w: np.ndarray, batch, h) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time.

    ``h`` may be a scalar or a per-coordinate array (e.g. scaled by |w_i|).
    """
    w = np.asarray(w, dtype=float)
    # every step by the number rule: a NaN compares false with 0, so a sign test alone would pass it
    for step in (h,) if np.ndim(h) == 0 else np.ravel(h):
        check_number(step, "h", POSITIVE)
    steps = np.broadcast_to(np.asarray(h, dtype=float), w.shape)
    X, y = stack_batch(spec, batch)
    out = np.empty_like(w)
    for i in range(w.size):
        wp = w.copy()
        wm = w.copy()
        wp[i] += steps[i]
        wm[i] -= steps[i]
        out[i] = (loss(spec, wp, (X, y)) - loss(spec, wm, (X, y))) / (2 * steps[i])
    return out


def accuracy(spec: ModelSpec, w: np.ndarray, samples) -> float:
    """Fraction of correct argmax predictions; 0.0 for the quadratic kind."""
    if spec.kind == QUADRATIC:
        return 0.0
    X, y = stack_batch(spec, samples)
    return float(np.mean(_forward(spec, w, X)[2].argmax(axis=1) == y))
