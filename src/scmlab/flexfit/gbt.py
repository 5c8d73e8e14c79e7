"""Gradient-boosted regression trees, built from scratch.

Stagewise fitting of depth-limited trees to the negative gradient of the
loss (residuals for squared loss, y − sigmoid(margin) for logistic loss).
Split candidates come from per-feature quantile binning (at most 64 bins);
within a node the best split maximizes the exact variance-reduction score
sum_l^2/n_l + sum_r^2/n_r under a min-leaf constraint. Leaves carry the
mean residual, shrunk by the learning rate. No second-order weights, no
column or row subsampling — small-scale fidelity over system parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from ..errors import DegenerateTargetError

_MAX_BINS = 64


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = 300
    depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 20
    n_bins: int = 64
    loss: str = "squared"          # "squared" | "logistic"


@dataclass
class Tree:
    """Flat array form: node i splits on feature[i] at threshold[i]
    (going left when x < threshold), or is a leaf when feature[i] < 0."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def predict(self, X):
        n = X.shape[0]
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            go_left = X[rows, f] < self.threshold[node]
            for child, sub in ((self.left[node], rows[go_left]),
                               (self.right[node], rows[~go_left])):
                if sub.size:
                    stack.append((child, sub))
        return out


@dataclass
class GbtModel:
    trees: list
    learning_rate: float
    base_score: float
    loss: str
    feature_names: list
    loss_history: np.ndarray = field(repr=False, default=None)


def _bin_columns(X, n_bins):
    """Per-feature quantile edges and integer codes (code = count of edges
    at or below the value, so code <= i means value < edges[i]).  Codes are
    column-major: a node gathers each feature's codes from one contiguous
    column."""
    edges, codes = [], np.empty(X.shape, dtype=np.int32, order="F")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    for j in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, j], qs))
        edges.append(e)
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
    return edges, codes


def _grow_tree(codes, edges, resid, depth, min_leaf, train_pred):
    """Grow one tree on the binned columns; fills ``train_pred`` with the
    tree's prediction for every training row as leaves are finalized."""
    columns = codes.T
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(rows, remaining):
        node = new_node()
        r = resid[rows]
        s = float(r.sum())
        cnt = rows.size
        value[node] = s / cnt
        if remaining == 0 or cnt < 2 * min_leaf:
            train_pred[rows] = value[node]
            return node
        best = None  # (gain, feature, bin index)
        base = s * s / cnt
        for j, column in enumerate(columns):
            nb = edges[j].size + 1
            if nb < 2:
                continue
            c = column.take(rows)
            sums = np.bincount(c, weights=r, minlength=nb).cumsum()[:-1]
            cnts = np.bincount(c, minlength=nb).cumsum()[:-1]
            rcnts = cnt - cnts
            ok = (cnts >= min_leaf) & (rcnts >= min_leaf)
            if not ok.any():
                continue
            gain = np.where(
                ok,
                sums * sums / np.maximum(cnts, 1)
                + (s - sums) ** 2 / np.maximum(rcnts, 1),
                -np.inf)
            i = int(np.argmax(gain))
            if best is None or gain[i] > best[0]:
                best = (float(gain[i]), j, i)
        if best is None or best[0] - base <= 1e-12:
            train_pred[rows] = value[node]
            return node
        _, j, i = best
        go_left = columns[j].take(rows) <= i
        feature[node] = j
        threshold[node] = float(edges[j][i])
        left[node] = build(rows[go_left], remaining - 1)
        right[node] = build(rows[~go_left], remaining - 1)
        return node

    build(np.arange(codes.shape[0]), depth)
    return Tree(np.asarray(feature, dtype=np.int32),
                np.asarray(threshold),
                np.asarray(left, dtype=np.int32),
                np.asarray(right, dtype=np.int32),
                np.asarray(value))


def _mean_loss(F, y, loss):
    if loss == "logistic":
        # numerically stable mean log-loss of the margin F
        return float(np.mean(np.logaddexp(0.0, F) - y * F))
    d = F - y
    return float(np.mean(d * d))


def gbt_train(train, target: str, features, config: GbtConfig = None) -> GbtModel:
    """Fit the boosted ensemble on a dataset.

    The training-loss trajectory (base score, then after each tree) is kept
    on the model; it is non-increasing for the shipped configurations.
    """
    cfg = config or GbtConfig()
    if cfg.depth < 1:
        raise ValueError("depth must be at least 1")
    if cfg.n_trees < 0:
        raise ValueError("n_trees must be non-negative")
    if not 1 <= cfg.n_bins <= _MAX_BINS:
        raise ValueError(f"n_bins must lie in 1..{_MAX_BINS}")
    features = list(features)
    X = train.matrix(features)
    y = train.column(target).astype(np.float64)
    if cfg.loss == "logistic":
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss needs a 0/1 target")
        p0 = y.mean()
        if p0 in (0.0, 1.0):
            raise DegenerateTargetError("target is all one class")
        base = float(np.log(p0 / (1.0 - p0)))
    else:
        if y.min() == y.max():
            raise DegenerateTargetError("target has zero variance")
        base = float(y.mean())

    edges, codes = _bin_columns(X, cfg.n_bins)
    F = np.full(y.size, base)
    trees = []
    history = np.empty(cfg.n_trees + 1)
    history[0] = _mean_loss(F, y, cfg.loss)
    train_pred = np.empty(y.size)
    for t in range(cfg.n_trees):
        resid = y - expit(F) if cfg.loss == "logistic" else y - F
        tree = _grow_tree(codes, edges, resid, cfg.depth, cfg.min_leaf, train_pred)
        F += cfg.learning_rate * train_pred
        trees.append(tree)
        history[t + 1] = _mean_loss(F, y, cfg.loss)
    return GbtModel(trees, cfg.learning_rate, base, cfg.loss, features,
                    history)


def decision_function(model: GbtModel, X: np.ndarray) -> np.ndarray:
    """Raw additive score (margin for logistic loss, mean for squared)."""
    X = np.asarray(X, dtype=np.float64)
    F = np.full(X.shape[0], model.base_score)
    for tree in model.trees:
        F += model.learning_rate * tree.predict(X)
    return F


def predict_matrix(model: GbtModel, X: np.ndarray) -> np.ndarray:
    """Model output on a raw feature matrix: probabilities for logistic
    loss, real values for squared loss."""
    F = decision_function(model, X)
    return expit(F) if model.loss == "logistic" else F


def to_json_dict(model: GbtModel) -> dict:
    return {
        "kind": "gbt",
        "loss": model.loss,
        "learning_rate": model.learning_rate,
        "base_score": model.base_score,
        "feature_names": list(model.feature_names),
        "trees": [{
            "feature": t.feature.tolist(),
            "threshold": t.threshold.tolist(),
            "left": t.left.tolist(),
            "right": t.right.tolist(),
            "value": t.value.tolist(),
        } for t in model.trees],
    }


def from_json_dict(doc: dict) -> GbtModel:
    if doc.get("kind") != "gbt":
        raise ValueError("not a serialized gbt model")
    trees = [Tree(np.asarray(t["feature"], dtype=np.int32),
                  np.asarray(t["threshold"]),
                  np.asarray(t["left"], dtype=np.int32),
                  np.asarray(t["right"], dtype=np.int32),
                  np.asarray(t["value"]))
             for t in doc["trees"]]
    return GbtModel(trees, float(doc["learning_rate"]), float(doc["base_score"]),
                    doc["loss"], list(doc["feature_names"]))
