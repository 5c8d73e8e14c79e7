"""Small fully-connected network trained by full-batch gradient descent.

Deliberately minimal: squared-loss regression with dense layers, tanh/relu
hidden activations and an identity output, at a fixed learning rate with
optional momentum. Everything is plain numpy and deterministic given the
config seed. Backprop is checked against central finite differences by
:func:`gradient_check`, which runs the same backprop as training.

Training keeps every weight and bias in one flat parameter vector (each
layer's weights, row-major, then each layer's biases); the per-layer
``weights``/``biases`` are views into it, the gradients are written into
views of one buffer of the same layout, and the heavy-ball momentum step
is three operations on whole vectors. Layer products use ``np.dot``: with
an inner dimension of 1 (a one-input net's first layer, a one-output
net's backprop) ``np.matmul`` takes a non-BLAS loop about four times
slower than BLAS. The weight-gradient products stay ``acts.T @ delta``,
whose summation order the trained bits depend on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..dataset import _distinct_features
from ..errors import ConfigValidationError, DivergenceError, check_fields
from ..rng import substream

_DIVERGENCE_FACTOR = 1e6
_FD_STEP = 1e-5       # gradient_check's central-difference step
_RANGES = {"hidden": "[1, inf)", "learning_rate": "(0, inf)",
           "epochs": "[0, inf)", "momentum": "[0, 1)",
           "init_scale": "(0, inf)", "seed": "[0, inf)",
           "activation": "one of tanh, relu"}


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple = (32,)
    activation: str = "tanh"       # of the hidden layers
    learning_rate: float = 0.01
    epochs: int = 20000
    momentum: float = 0.0
    init_scale: float = 1.5        # spread of the first layer's weights and biases
    seed: int = 0

    def __post_init__(self):
        check_fields(self, _RANGES)
        if not self.hidden:
            raise ConfigValidationError(
                f"hidden = {self.hidden!r} must list one or more layer sizes")


@dataclass
class MlpModel:
    """Trained network: per-layer weights/biases plus the input/target
    affine maps absorbed during standardization."""

    weights: list
    biases: list
    activation: str
    feature_names: list
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    loss_history: np.ndarray = field(repr=False, default=None)


def _act(z, kind):
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_grad(a, z, kind):
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(z.dtype)


def _flat_layers(sizes):
    """A zeroed flat vector laid out as every layer's weights, row-major,
    then every layer's biases; returns it with per-layer (weights, biases)
    views into it."""
    vec = np.zeros(sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:])))
    weights, biases, pos = [], [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(vec[pos:pos + a * b].reshape(a, b))
        pos += a * b
    for b in sizes[1:]:
        biases.append(vec[pos:pos + b])
        pos += b
    return vec, weights, biases


def _forward(weights, biases, X, activation):
    """Returns (output column, pre-activations, activations)."""
    zs, acts = [], [X]
    h = X
    last = len(weights) - 1
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = np.dot(h, W)
        z += b
        zs.append(z)
        h = _act(z, activation) if i < last else z
        acts.append(h)
    return h[:, 0], zs, acts


def _loss(r):
    """Mean squared error of the residuals ``r`` = prediction − target."""
    return float(np.add.reduce(r * r) / r.shape[0])


def _batch_loss(weights, biases, X, y, activation):
    pred, _, _ = _forward(weights, biases, X, activation)
    return _loss(pred - y)


def _backprop(weights, biases, X, y, activation, grad_w, grad_b):
    """Loss for one full batch; writes its gradients into ``grad_w`` and
    ``grad_b`` (views shaped like ``weights`` and ``biases``)."""
    n = X.shape[0]
    pred, zs, acts = _forward(weights, biases, X, activation)
    r = pred - y
    loss = _loss(r)
    delta = (2.0 / n * r)[:, None]
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grad_w[i])
        np.add.reduce(delta, axis=0, out=grad_b[i])
        if i > 0:
            delta = np.dot(delta, weights[i].T)
            delta *= _act_grad(acts[i], zs[i - 1], activation)
    return loss


def _init_params(weights, biases, cfg):
    """Draws the first layer's weights and biases and the later layers'
    weights into their zeroed views; later biases stay 0."""
    g = substream(cfg.seed, 0x4D4C50)
    for i, (W, b) in enumerate(zip(weights, biases)):
        fan_in = W.shape[0]
        if i == 0:
            W[...] = g.normal(0.0, cfg.init_scale / np.sqrt(fan_in),
                              size=W.shape)
            b[...] = g.normal(0.0, cfg.init_scale, size=b.shape)
        else:
            W[...] = g.normal(0.0, 1.0 / np.sqrt(fan_in), size=W.shape)


def mlp_train(train, target: str, features, config: MlpConfig = None) -> MlpModel:
    """Fit the network on a dataset by full-batch gradient descent.

    Inputs and target are standardized first; the model keeps the affine
    maps.  Raises DivergenceError as soon as the loss is non-finite or
    exceeds 1e6 times its initial value.  The settings are checked when
    the :class:`MlpConfig` is built; a feature listed twice raises
    FeatureMismatchError.
    """
    cfg = config or MlpConfig()
    features = _distinct_features(features)
    X = train.matrix(features)
    y = train.column(target).astype(np.float64)
    x_mean, x_scale = X.mean(axis=0), X.std(axis=0)
    x_scale = np.where(x_scale == 0, 1.0, x_scale)
    y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    Xn = (X - x_mean) / x_scale
    yn = (y - y_mean) / y_scale

    sizes = [Xn.shape[1], *cfg.hidden, 1]
    theta, weights, biases = _flat_layers(sizes)
    _init_params(weights, biases, cfg)
    grad, grad_w, grad_b = _flat_layers(sizes)
    vel = np.zeros_like(theta)
    m, lr = cfg.momentum, cfg.learning_rate
    history = np.empty(cfg.epochs + 1)
    initial = None
    for epoch in range(cfg.epochs):
        loss = _backprop(weights, biases, Xn, yn, cfg.activation,
                         grad_w, grad_b)
        history[epoch] = loss
        if initial is None:
            initial = loss if loss > 0 else 1.0
        if not math.isfinite(loss) or loss > _DIVERGENCE_FACTOR * initial:
            raise DivergenceError(
                f"training loss {loss:.3g} exceeded {_DIVERGENCE_FACTOR:g} x "
                f"initial {initial:.3g} at epoch {epoch}")
        vel *= m
        vel -= lr * grad
        theta += vel
    history[cfg.epochs] = _batch_loss(weights, biases, Xn, yn, cfg.activation)
    if not np.isfinite(history[cfg.epochs]):
        raise DivergenceError("final loss is not finite")
    return MlpModel(weights, biases, cfg.activation, features,
                    x_mean, x_scale, y_mean, y_scale, history)


def predict_matrix(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Forward pass on a raw feature matrix (columns in feature order)."""
    Xn = (np.asarray(X, dtype=np.float64) - model.x_mean) / model.x_scale
    out, _, _ = _forward(model.weights, model.biases, Xn, model.activation)
    return out * model.y_scale + model.y_mean


def gradient_check(config: MlpConfig, X: np.ndarray, y: np.ndarray,
                   n_points: int = 100, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    Draws ``n_points`` random parameter vectors for the configured
    architecture and compares every coordinate's analytic gradient against
    (L(p+h) − L(p−h)) / 2h, with h = 1e-5. Relative error uses |ga − gn| /
    max(|ga| + |gn|, 1e-8).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sizes = [X.shape[1], *config.hidden, 1]
    g = substream(seed, 0x4744)
    theta, weights, biases = _flat_layers(sizes)
    analytic, grad_w, grad_b = _flat_layers(sizes)
    numeric = np.empty_like(theta)
    args = (X, y, config.activation)
    worst = 0.0
    for _ in range(n_points):
        for layer in (*weights, *biases):
            layer[...] = g.normal(size=layer.shape)
        _backprop(weights, biases, *args, grad_w, grad_b)
        for j in range(theta.size):
            v = theta[j]
            theta[j] = v + _FD_STEP
            hi = _batch_loss(weights, biases, *args)
            theta[j] = v - _FD_STEP
            lo = _batch_loss(weights, biases, *args)
            theta[j] = v
            numeric[j] = (hi - lo) / (2.0 * _FD_STEP)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst
