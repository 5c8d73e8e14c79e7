"""Plain twin of the MLP's forward pass, backprop and training loop.

The package keeps every weight and bias in one flat parameter vector,
computes layer products with ``np.dot`` and takes the momentum step as
three whole-vector operations. This module keeps the straightforward
route that replaced: per-layer weight and bias lists, ``@`` for every
product, fresh gradient arrays per epoch and a per-layer momentum step.
The package must match it bit for bit, so the tests compare the two with
``np.array_equal``.
"""

from __future__ import annotations

import numpy as np

from scmlab.errors import DivergenceError
from scmlab.flexfit.mlp import MlpConfig, MlpModel
from scmlab.rng import substream

_DIVERGENCE_FACTOR = 1e6


def _act(z, kind):
    return np.tanh(z) if kind == "tanh" else np.maximum(z, 0.0)


def _act_grad(a, z, kind):
    return 1.0 - a * a if kind == "tanh" else (z > 0).astype(z.dtype)


def _forward(weights, biases, X, activation):
    """Returns (output column, pre-activations, activations)."""
    zs, acts = [], [X]
    h = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W + b
        zs.append(z)
        if i < len(weights) - 1:
            h = _act(z, activation)
        else:
            h = z
        acts.append(h)
    return h[:, 0], zs, acts


def _loss(pred, y):
    d = pred - y
    return float(np.mean(d * d))


def _backward(weights, biases, X, y, activation):
    """Loss and gradients for one full batch.

    The gradient at the output pre-activation is (prediction − target)
    scaled by 2/n.
    """
    n = X.shape[0]
    pred, zs, acts = _forward(weights, biases, X, activation)
    loss = _loss(pred, y)
    scale = 2.0 / n
    delta = (scale * (pred - y))[:, None]
    gw = [None] * len(weights)
    gb = [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * _act_grad(acts[i], zs[i - 1], activation)
    return loss, gw, gb


def _init_params(sizes, cfg):
    g = substream(cfg.seed, 0x4D4C50)
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        if i == 0:
            weights.append(g.normal(0.0, cfg.init_scale / np.sqrt(fan_in),
                                    size=(fan_in, fan_out)))
            biases.append(g.normal(0.0, cfg.init_scale, size=fan_out))
        else:
            weights.append(g.normal(0.0, 1.0 / np.sqrt(fan_in),
                                    size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
    return weights, biases


def mlp_train(train, target: str, features, config: MlpConfig = None) -> MlpModel:
    """Fit the network on a dataset by full-batch gradient descent.

    Inputs and target are standardized first; the model keeps the affine
    maps.  Raises DivergenceError as soon as the loss is non-finite or
    exceeds 1e6 times its initial value.  The settings are checked when
    the :class:`MlpConfig` is built.
    """
    cfg = config or MlpConfig()
    features = list(features)
    X = train.matrix(features)
    y = train.column(target).astype(np.float64)
    x_mean, x_scale = X.mean(axis=0), X.std(axis=0)
    x_scale = np.where(x_scale == 0, 1.0, x_scale)
    y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    Xn = (X - x_mean) / x_scale
    yn = (y - y_mean) / y_scale

    sizes = [Xn.shape[1], *cfg.hidden, 1]
    weights, biases = _init_params(sizes, cfg)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    history = np.empty(cfg.epochs + 1)
    initial = None
    for epoch in range(cfg.epochs):
        loss, gw, gb = _backward(weights, biases, Xn, yn, cfg.activation)
        history[epoch] = loss
        if initial is None:
            initial = loss if loss > 0 else 1.0
        if not np.isfinite(loss) or loss > _DIVERGENCE_FACTOR * initial:
            raise DivergenceError(
                f"training loss {loss:.3g} exceeded {_DIVERGENCE_FACTOR:g} x "
                f"initial {initial:.3g} at epoch {epoch}")
        for i in range(len(weights)):
            vel_w[i] = cfg.momentum * vel_w[i] - cfg.learning_rate * gw[i]
            vel_b[i] = cfg.momentum * vel_b[i] - cfg.learning_rate * gb[i]
            weights[i] = weights[i] + vel_w[i]
            biases[i] = biases[i] + vel_b[i]
    pred, _, _ = _forward(weights, biases, Xn, cfg.activation)
    history[cfg.epochs] = _loss(pred, yn)
    if not np.isfinite(history[cfg.epochs]):
        raise DivergenceError("final loss is not finite")
    return MlpModel(weights, biases, cfg.activation,
                    features, x_mean, x_scale, y_mean, y_scale,
                    history)


def predict_matrix(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Forward pass on a raw feature matrix (columns in feature order)."""
    Xn = (np.asarray(X, dtype=np.float64) - model.x_mean) / model.x_scale
    out, _, _ = _forward(model.weights, model.biases, Xn, model.activation)
    return out * model.y_scale + model.y_mean
