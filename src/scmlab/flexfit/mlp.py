"""Small fully-connected network trained by full-batch gradient descent.

Deliberately minimal: dense layers, tanh/relu hidden activations, identity
or logistic output, fixed learning rate with optional momentum. Everything
is plain numpy and deterministic given the config seed. The analytic
backprop gradients are verifiable against central finite differences via
:func:`gradient_check`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ..errors import ConfigValidationError, DivergenceError
from ..rng import substream

_DIVERGENCE_FACTOR = 1e6

# Training-loss monotonicity is only guaranteed for plain gradient descent
# with a small enough step; with momentum the loss may transiently rise.
# The documented tolerance: no epoch may increase the loss by more than
# 5% of the initial loss.
LOSS_RISE_TOLERANCE = 0.05


@dataclass(frozen=True)
class MlpConfig:
    hidden: tuple = (32,)
    activation: str = "tanh"       # hidden layers: "tanh" | "relu"
    output: str = "identity"       # "identity" (squared loss) | "logistic" (log-loss)
    learning_rate: float = 0.01
    epochs: int = 20000
    momentum: float = 0.0
    init_scale: float = 1.5        # spread of the first layer's weights and biases
    seed: int = 0

    def __post_init__(self):
        if not self.hidden or min(self.hidden) < 1:
            raise ConfigValidationError(
                f"hidden = {self.hidden!r} must list one or more layer sizes, "
                f"each at least 1")
        if self.activation not in ("tanh", "relu"):
            raise ConfigValidationError(
                f"activation = {self.activation!r} must be 'tanh' or 'relu'")
        if self.output not in ("identity", "logistic"):
            raise ConfigValidationError(
                f"output = {self.output!r} must be 'identity' or 'logistic'")
        if self.epochs < 0:
            raise ConfigValidationError(
                f"epochs = {self.epochs} must be non-negative")


@dataclass
class MlpModel:
    """Trained network: per-layer weights/biases plus the input/target
    affine maps absorbed during standardization."""

    weights: list
    biases: list
    activation: str
    output: str
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


def _forward(weights, biases, X, activation, output):
    """Returns (output column, pre-activations, activations)."""
    zs, acts = [], [X]
    h = X
    for i, (W, b) in enumerate(zip(weights, biases)):
        z = h @ W + b
        zs.append(z)
        if i < len(weights) - 1:
            h = _act(z, activation)
        else:
            h = expit(z) if output == "logistic" else z
        acts.append(h)
    return h[:, 0], zs, acts


def _loss(pred, y, output):
    if output == "logistic":
        p = np.clip(pred, 1e-12, 1.0 - 1e-12)
        return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
    d = pred - y
    return float(np.mean(d * d))


def _backward(weights, biases, X, y, activation, output):
    """Loss and gradients for one full batch.

    For both losses the gradient at the output pre-activation reduces to
    (prediction − target) scaled by 2/n (squared) or 1/n (log-loss with
    logistic output — the sigmoid and the log-loss derivative cancel).
    """
    n = X.shape[0]
    pred, zs, acts = _forward(weights, biases, X, activation, output)
    loss = _loss(pred, y, output)
    scale = 1.0 / n if output == "logistic" else 2.0 / n
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

    Inputs, and the target under identity output, are standardized first;
    the model keeps the affine maps.  Raises DivergenceError as soon as the
    loss is non-finite or exceeds 1e6 times its initial value.  The
    settings are checked when the :class:`MlpConfig` is built.
    """
    cfg = config or MlpConfig()
    features = list(features)
    X = train.matrix(features)
    y = train.column(target).astype(np.float64)
    x_mean, x_scale = X.mean(axis=0), X.std(axis=0)
    x_scale = np.where(x_scale == 0, 1.0, x_scale)
    if cfg.output == "identity":
        y_mean, y_scale = float(y.mean()), float(y.std()) or 1.0
    else:
        y_mean, y_scale = 0.0, 1.0
    Xn = (X - x_mean) / x_scale
    yn = (y - y_mean) / y_scale

    sizes = [Xn.shape[1], *cfg.hidden, 1]
    weights, biases = _init_params(sizes, cfg)
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    history = np.empty(cfg.epochs + 1)
    initial = None
    for epoch in range(cfg.epochs):
        loss, gw, gb = _backward(weights, biases, Xn, yn, cfg.activation, cfg.output)
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
    pred, _, _ = _forward(weights, biases, Xn, cfg.activation, cfg.output)
    history[cfg.epochs] = _loss(pred, yn, cfg.output)
    if not np.isfinite(history[cfg.epochs]):
        raise DivergenceError("final loss is not finite")
    return MlpModel(weights, biases, cfg.activation, cfg.output,
                    features, x_mean, x_scale, y_mean, y_scale,
                    history)


def predict_matrix(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Forward pass on a raw feature matrix (columns in feature order)."""
    Xn = (np.asarray(X, dtype=np.float64) - model.x_mean) / model.x_scale
    out, _, _ = _forward(model.weights, model.biases, Xn,
                         model.activation, model.output)
    if model.output == "identity":
        return out * model.y_scale + model.y_mean
    return out


def gradient_check(config: MlpConfig, X: np.ndarray, y: np.ndarray,
                   n_points: int = 100, h: float = 1e-5, seed: int = 0) -> float:
    """Max relative error between backprop and central finite differences.

    Draws ``n_points`` random parameter vectors for the configured
    architecture and compares every coordinate's analytic gradient against
    (L(p+h) − L(p−h)) / 2h. Relative error uses |ga − gn| / max(|ga| +
    |gn|, 1e-8).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sizes = [X.shape[1], *config.hidden, 1]
    g = substream(seed, 0x4744)
    worst = 0.0
    for _ in range(n_points):
        weights = [g.normal(size=(a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
        biases = [g.normal(size=b) for b in sizes[1:]]
        _, gw, gb = _backward(weights, biases, X, y, config.activation, config.output)
        analytic = np.concatenate([a.ravel() for a in (*gw, *gb)])
        flat = np.concatenate([a.ravel() for a in (*weights, *biases)])

        def unflatten(v):
            out_w, out_b, pos = [], [], 0
            for a, b in zip(sizes[:-1], sizes[1:]):
                out_w.append(v[pos:pos + a * b].reshape(a, b))
                pos += a * b
            for b in sizes[1:]:
                out_b.append(v[pos:pos + b])
                pos += b
            return out_w, out_b

        numeric = np.empty_like(flat)
        for j in range(flat.size):
            for sign, store in ((1.0, "hi"), (-1.0, "lo")):
                v = flat.copy()
                v[j] += sign * h
                w2, b2 = unflatten(v)
                pred, _, _ = _forward(w2, b2, X, config.activation, config.output)
                if store == "hi":
                    hi = _loss(pred, y, config.output)
                else:
                    lo = _loss(pred, y, config.output)
            numeric[j] = (hi - lo) / (2.0 * h)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    return worst


def to_json_dict(model: MlpModel) -> dict:
    return {
        "kind": "mlp",
        "activation": model.activation,
        "output": model.output,
        "feature_names": list(model.feature_names),
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "x_mean": model.x_mean.tolist(),
        "x_scale": model.x_scale.tolist(),
        "y_mean": model.y_mean,
        "y_scale": model.y_scale,
    }


def from_json_dict(doc: dict) -> MlpModel:
    if doc.get("kind") != "mlp":
        raise ValueError("not a serialized mlp model")
    return MlpModel(
        [np.asarray(w, dtype=np.float64) for w in doc["weights"]],
        [np.asarray(b, dtype=np.float64) for b in doc["biases"]],
        doc["activation"], doc["output"],
        list(doc["feature_names"]),
        np.asarray(doc["x_mean"], dtype=np.float64),
        np.asarray(doc["x_scale"], dtype=np.float64),
        float(doc["y_mean"]), float(doc["y_scale"]),
    )
