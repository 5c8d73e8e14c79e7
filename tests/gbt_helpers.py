"""Plain twin of the boosted-tree fit and prediction.

The package grows each tree with one split search per node over padded
per-feature tables, partitions rows with ``compress`` and takes most
tables by subtraction: a split counts only its smaller child's sum and
count tables and derives the larger child's as parent minus smaller, and a
split of two leaves gives them the parent's cumulative sums over counts.
This module restates that arithmetic in the plain style: ``int32``
column-major codes, per-feature table lists, one ``argmax`` per feature
per node, and boolean-mask row partitions in both the grower and the tree
walk. Prediction adds the trees up per feature set, as the package does
(``GbtModel.tree_groups``), but as interleaved accumulators rather than
group by group. The package must match it bit for bit, so the tests
compare the two with ``np.array_equal``; a separate test checks every leaf
against the exact mean of its rows' residuals, which neither twin
computes.

The package keeps no training-loss trajectory; the reference loop records
one, and :func:`replay_loss` rebuilds it from a fitted model's trees.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit


def _mean_loss(F, y, loss):
    if loss == "logistic":
        # numerically stable mean log-loss of the margin F
        return float(np.mean(np.logaddexp(0.0, F) - y * F))
    d = F - y
    return float(np.mean(d * d))


def replay_loss(model, X, y):
    """Training-loss trajectory of a fitted ``GbtModel`` on its training
    rows: the base score's loss, then the loss after each tree, adding the
    trees' shrunk leaf values in tree order as the boosting loop did."""
    F = np.full(y.size, model.base_score)
    history = np.empty(len(model.trees) + 1)
    history[0] = _mean_loss(F, y, model.loss)
    for t, tree in enumerate(model.trees):
        F += model.learning_rate * tree.predict(X)
        history[t + 1] = _mean_loss(F, y, model.loss)
    return history


def bin_columns(X, n_bins):
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


def grow_tree(codes, edges, resid, depth, min_leaf, train_pred):
    """Grow one tree on the binned columns; fills ``train_pred`` with the
    tree's prediction for every training row as leaves are finalized.
    Returns the five flat arrays (feature, threshold, left, right, value).

    Tables are lists of per-feature arrays. The root counts its own; a
    split counts its smaller child's (the left one on a tie) and takes the
    larger child's as parent minus smaller; a split of two leaves gives
    them the parent's left and right sums over counts."""
    columns = codes.T
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(v):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(v)
        return len(feature) - 1

    def count(rows):
        r = resid[rows]
        sums, cnts = [], []
        for j, column in enumerate(columns):
            nb = edges[j].size + 1
            c = column[rows]
            sums.append(np.bincount(c, weights=r, minlength=nb))
            cnts.append(np.bincount(c, minlength=nb))
        return sums, cnts

    def build(rows, s, sums_by_bin, cnts_by_bin, remaining):
        cnt = rows.size
        node = new_node(s / cnt)
        if remaining == 0 or cnt < 2 * min_leaf:
            train_pred[rows] = value[node]
            return node
        best = None  # (gain, feature, bin index, left sum, left count)
        base = s * s / cnt
        for j in range(len(columns)):
            nb = edges[j].size + 1
            if nb < 2:
                continue
            sums = sums_by_bin[j].cumsum()[:-1]
            cnts = cnts_by_bin[j].cumsum()[:-1]
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
                best = (float(gain[i]), j, i, float(sums[i]), int(cnts[i]))
        if best is None or best[0] - base <= 1e-12:
            train_pred[rows] = value[node]
            return node
        _, j, i, s_l, n_l = best
        go_left = columns[j][rows] <= i
        feature[node] = j
        threshold[node] = float(edges[j][i])
        if remaining == 1:
            left[node] = new_node(s_l / n_l)
            right[node] = new_node((s - s_l) / (cnt - n_l))
            train_pred[rows] = np.where(go_left, value[left[node]],
                                        value[right[node]])
            return node
        rows_l, rows_r = rows[go_left], rows[~go_left]
        small = count(rows_l if n_l <= cnt - n_l else rows_r)
        large = ([a - b for a, b in zip(sums_by_bin, small[0])],
                 [a - b for a, b in zip(cnts_by_bin, small[1])])
        tables_l, tables_r = ((small, large) if n_l <= cnt - n_l
                              else (large, small))
        left[node] = build(rows_l, s_l, *tables_l, remaining - 1)
        right[node] = build(rows_r, s - s_l, *tables_r, remaining - 1)
        return node

    rows = np.arange(codes.shape[0])
    build(rows, float(resid.sum()), *count(rows), depth)
    return (np.asarray(feature, dtype=np.int32), np.asarray(threshold),
            np.asarray(left, dtype=np.int32), np.asarray(right, dtype=np.int32),
            np.asarray(value))


def fit(X, y, config, base):
    """The boosting loop of ``gbt_train`` on the reference grower, from the
    given base score: returns the trees' flat arrays and the loss history."""
    edges, codes = bin_columns(X, config.n_bins)
    F = np.full(y.size, base)
    trees = []
    history = np.empty(config.n_trees + 1)
    history[0] = _mean_loss(F, y, config.loss)
    train_pred = np.empty(y.size)
    for t in range(config.n_trees):
        resid = y - expit(F) if config.loss == "logistic" else y - F
        trees.append(grow_tree(codes, edges, resid, config.depth,
                               config.min_leaf, train_pred))
        F += config.learning_rate * train_pred
        history[t + 1] = _mean_loss(F, y, config.loss)
    return trees, history


def tree_predict(arrays, X):
    """Leaf value of every row of X, walking the tree with boolean masks."""
    feature, threshold, left, right, value = arrays
    n = X.shape[0]
    out = np.empty(n)
    stack = [(0, np.arange(n))]
    while stack:
        node, rows = stack.pop()
        f = feature[node]
        if f < 0:
            out[rows] = value[node]
            continue
        go_left = X[rows, f] < threshold[node]
        for child, sub in ((left[node], rows[go_left]),
                           (right[node], rows[~go_left])):
            if sub.size:
                stack.append((child, sub))
    return out


def decision_function(trees, learning_rate, base, X):
    """Raw additive score of the trees (flat arrays) on X, in the
    ensemble's summation order: one accumulator per feature set the trees
    split on, opened by the first tree on that set and taking its trees in
    order, then the accumulators added to ``base`` in the order in which
    they were opened."""
    X = np.asarray(X, dtype=np.float64)
    groups = {}
    for arrays in trees:
        key = frozenset(int(f) for f in arrays[0] if f >= 0)
        value = learning_rate * tree_predict(arrays, X)
        if key in groups:
            groups[key] += value
        else:
            groups[key] = value
    F = np.full(X.shape[0], base)
    for total in groups.values():
        F += total
    return F
