"""Gradient-boosted regression trees, built from scratch.

Stagewise fitting of depth-limited trees to the negative gradient of the
loss (residuals for squared loss, y − sigmoid(margin) for logistic loss).
Split candidates come from per-feature quantile binning (at most 64 bins);
within a node the best split maximizes the exact variance-reduction score
sum_l^2/n_l + sum_r^2/n_r under a min-leaf constraint. Leaves carry the
mean residual, shrunk by the learning rate. No second-order weights, no
column or row subsampling — small-scale fidelity over system parity.

The training matrix is binned once per fit. A node scores every feature's
candidates in one pass over padded (feature, bin) sum and count tables.
The root's count table is counted once per fit and its sum table once per
tree, from the residuals in row order. Below the root the tables come
down from the parent (histogram subtraction, as in LightGBM): a split
counts only its smaller child's tables from that child's rows (the left
child's on a tie) and takes the larger child's as the parent's minus the
smaller's. Count tables stay exact integers; a derived sum table can
differ from a row-order count in its last digits, and so can the gains
and node values read from it. A child's residual sum and row count are
read off its parent's cumulative tables, and a split whose children are
leaves gives them those sums over counts and writes their training
predictions with one ``where``, without partitioning rows. Other splits
partition rows with ``compress``, as the tree walk does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np
from scipy.special import expit

from ..errors import (ConfigValidationError, DegenerateTargetError,
                      NonBinaryTargetError, check_value)

_MAX_BINS = 64
_RANGES = {"n_trees": "[0, inf)", "depth": "[1, inf)",
           "learning_rate": "(0, inf)", "min_leaf": "[1, inf)",
           "n_bins": f"[1, {_MAX_BINS}]"}


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = 300
    depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 20
    n_bins: int = 64
    loss: str = "squared"          # "squared" | "logistic"

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, check_value(
                f.name, getattr(self, f.name), f.default,
                _RANGES.get(f.name, "")))
        if self.loss not in ("squared", "logistic"):
            raise ConfigValidationError(
                f"loss = {self.loss!r} must be 'squared' or 'logistic'")


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
        """Leaf value of every row of X."""
        n = X.shape[0]
        out = np.empty(n)
        stack = [(0, np.arange(n))]
        while stack:
            node, rows = stack.pop()
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            column = X[:, f]
            if rows.size < n:
                column = column.take(rows)
            go_left = column < self.threshold[node]
            for child, mask in ((self.left[node], go_left),
                                (self.right[node], ~go_left)):
                sub = rows.compress(mask)
                if sub.size:
                    stack.append((child, sub))
        return out


@dataclass(frozen=True)
class ExplainLayout:
    """The trees as the padded tables that exact Shapley explanation reads.

    The trees are laid out rank-major over their summation groups (see
    :attr:`GbtModel.tree_groups`): rank k holds the k-th tree of every
    group that has more than k trees, the groups taken largest first
    (stably), so the groups still open at rank k come first. Node slots are
    padded to the largest tree. ``feature`` and ``threshold`` (n_trees,
    n_nodes) give each slot's split test ``x[feature] < threshold``
    (feature 0 and threshold 0 at leaves and padding, whose tests nothing
    reads). A tree's feature set U gets one bit per feature, in feature
    order; a pattern is a set of U-bits, at most 12, so int16. Tree t has
    the 2^|U_t| patterns over its own set, as consecutive rows of one flat
    list, in which ``pattern_tree`` names each row's tree and ``pattern``
    its bits. ``leaf_index[t, l]`` is the flat index of tree t's leaf slot
    l into ``step`` (0 for a padding slot). ``levels`` walks the leaves'
    ancestors one level per entry: the ancestor's flat node index, whether
    the path leaves it to the left, and its split's U-bit (0 once the path
    has reached the root). ``step`` holds the padded leaf values times the
    learning rate, flat.

    The group tables are the per-(group, pattern) sums the margin is added
    up from, as rows ("slots") of one table, the groups largest first, at
    least two rows (the second then unused), so that a reduce over ranks
    never runs over a trailing size of one, where numpy sums pairwise.
    Rank k's pattern rows start at ``row_start[k]`` and are the first
    slots, one to one; ``width[k]`` is their count, at least two.
    ``slot[k, s]`` is the pattern row of slot s at rank k, or the pattern
    row count, one past the last, where slot s's group has no tree of rank
    k. ``codes[g, c]`` is the slot of group g's pattern under coalition c,
    the groups in summation order and coalition c holding feature j when
    bit j of c is set.
    """

    feature: np.ndarray
    threshold: np.ndarray
    pattern_tree: np.ndarray
    pattern: np.ndarray
    leaf_index: np.ndarray
    levels: tuple
    step: np.ndarray
    row_start: np.ndarray
    width: np.ndarray
    slot: np.ndarray
    codes: np.ndarray


def _explain_layout(trees, groups, n_features, learning_rate) -> ExplainLayout:
    """The :class:`ExplainLayout` of a non-empty list of trees summed in
    ``groups``."""
    group_sizes = np.array([len(g) for g in groups])
    by_size = np.argsort(-group_sizes, kind="stable")
    trees = [trees[groups[g][k]] for k in range(group_sizes.max())
             for g in by_size if group_sizes[g] > k]
    sizes = np.array([t.feature.size for t in trees])
    real = np.arange(sizes.max()) < sizes[:, None]

    def padded(attr, fill):
        a = np.full(real.shape, fill, dtype=type(fill))
        a[real] = np.concatenate([getattr(t, attr) for t in trees])
        return a

    feature, left, right = (padded(a, -1) for a in ("feature", "left", "right"))
    n_trees, n_nodes = feature.shape
    rows = np.arange(n_trees)[:, None]
    split = feature >= 0
    f = np.where(split, feature, 0)
    used = (feature[:, :, None] == np.arange(n_features)).any(axis=1)
    local = np.where(used, 1 << (np.cumsum(used, axis=1) - 1), 0)
    local = local.astype(np.int16)
    n_patterns = 1 << used.sum(axis=1)
    pattern_start = np.concatenate([[0], np.cumsum(n_patterns)])
    pattern_tree = np.repeat(np.arange(n_trees), n_patterns)
    pattern = np.arange(pattern_start[-1]) - pattern_start[pattern_tree]
    node_bit = np.where(split, local[rows, f], 0)
    t_split, i_split = np.nonzero(split)
    parent = np.full(feature.shape, -1)
    parent[t_split, left[t_split, i_split]] = i_split
    parent[t_split, right[t_split, i_split]] = i_split
    is_left = np.zeros(feature.shape, dtype=bool)
    is_left[t_split, left[t_split, i_split]] = True
    leaves = real & ~split
    n_leaf = leaves.sum(axis=1).max()
    leaf = np.argsort(~leaves, axis=1, kind="stable")[:, :n_leaf]
    leaf_index = np.where(leaves[rows, leaf], rows * n_nodes + leaf, 0)
    levels = []
    node, up = leaf, parent[rows, leaf]
    while (up >= 0).any():
        has = up >= 0
        above = np.where(has, up, 0)
        levels.append((rows * n_nodes + above,
                       is_left[rows, node][:, :, None],
                       np.where(has, node_bit[rows, above], 0)[:, :, None]))
        node = np.where(has, up, node)
        up = np.where(has, parent[rows, above], -1)
    # rank k holds a tree of the first (group_sizes > k).sum() groups of
    # by_size, so the layout's first trees are each group's first, and their
    # patterns are the slots
    per_rank = (group_sizes > np.arange(group_sizes.max())[:, None]).sum(1)
    row_start = pattern_start[np.concatenate([[0], np.cumsum(per_rank)])]
    width = np.diff(row_start)
    slots = np.arange(max(2, width[0]))
    slot = np.where(slots < width[:, None], row_start[:-1, None] + slots,
                    row_start[-1])
    first = np.empty(len(groups), dtype=np.intp)
    first[by_size] = np.arange(len(groups))
    in_coalition = (np.arange(1 << n_features)[:, None]
                    >> np.arange(n_features)) & 1
    codes = pattern_start[first, None] + local[first] @ in_coalition.T
    return ExplainLayout(f, padded("threshold", 0.0), pattern_tree,
                         pattern.astype(np.int16), leaf_index, tuple(levels),
                         learning_rate * padded("value", 0.0).ravel(),
                         row_start, np.maximum(width, 2), slot, codes)


@dataclass
class GbtModel:
    """A fitted ensemble. Its trees and feature names are not changed
    after construction; :attr:`tree_groups` and :attr:`explain_layout` are
    built from them once. ``explain_background`` is the one slot where
    ``scmlab.explain`` holds its tables for the last background explained
    against, with that background's key; it is not part of the fit, so it
    is not compared, shown, or carried over by ``dataclasses.replace``."""

    trees: list
    learning_rate: float
    base_score: float
    loss: str
    feature_names: list
    explain_background: tuple = field(default=None, init=False, repr=False,
                                      compare=False)

    @cached_property
    def tree_groups(self) -> tuple:
        """The order in which the margin adds the trees up: one tuple of
        tree indices per feature set U that a tree splits on, the groups in
        the order in which each U first appears and the trees in their
        order within a group. A group's sum runs in tree order from its
        first tree's shrunk leaf value, and the margin is ``base_score``
        plus the group sums, in group order. Prediction and explanation
        both add up in this order, so they agree bit for bit."""
        groups = {}
        for t, tree in enumerate(self.trees):
            key = frozenset(tree.feature[tree.feature >= 0].tolist())
            groups.setdefault(key, []).append(t)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def explain_layout(self) -> ExplainLayout:
        """The trees' :class:`ExplainLayout`, built on first use (the
        ensemble must have a tree)."""
        return _explain_layout(self.trees, self.tree_groups,
                               len(self.feature_names), self.learning_rate)


@dataclass(frozen=True)
class _Bins:
    """The training matrix binned once per fit.

    ``columns[j]`` holds feature j's codes for every row, contiguously;
    code = count of ``edges[j]`` at or below the value, so code <= i means
    value < edges[j][i].  Codes are ``intp``, what ``bincount`` and ``take``
    index with, so no call casts them.  Every tree's root holds all rows,
    so its per-bin row counts (one row of ``counts`` per feature, padded
    with zeros to the widest feature) are counted here once.  Candidate i
    of feature j sends codes <= i left; ``splittable[j, i]`` is false for
    the padding candidates i >= edges[j].size, which would send every row
    left.
    """

    columns: np.ndarray
    edges: list
    counts: np.ndarray
    splittable: np.ndarray


def _bin_columns(X, n_bins):
    """Per-feature quantile edges and integer codes, as :class:`_Bins`."""
    edges, codes = [], np.empty(X.shape, dtype=np.intp, order="F")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    for j in range(X.shape[1]):
        e = np.unique(np.quantile(X[:, j], qs))
        edges.append(e)
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
    sizes = np.array([e.size for e in edges], dtype=np.intp)
    width = int(sizes.max(initial=0)) + 1
    columns = codes.T
    counts = np.array([np.bincount(c, minlength=width) for c in columns],
                      dtype=np.intp).reshape(len(edges), width)
    splittable = np.arange(width - 1) < sizes[:, None]
    return _Bins(columns, edges, counts, splittable)


def _grow_tree(bins, resid, depth, min_leaf, train_pred):
    """Grow one tree on the binned columns; fills ``train_pred`` with the
    tree's prediction for every training row as leaves are finalized.

    A node searches its (feature, bin) sum and count tables with one
    cumulative sum, gain and flat ``argmax``.  Among equal gains the flat
    argmax takes the earliest feature, then the earliest bin.  A child's
    residual sum and row count are read off its parent's cumulative
    tables.  Only the smaller child of a split (the left one on a tie)
    counts its tables from its rows; the larger child's are its parent's
    minus the smaller's.  A split whose children are leaves partitions no
    rows.
    """
    columns, edges = bins.columns, bins.edges
    d, width = bins.counts.shape
    all_rows = np.arange(resid.size)
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(v):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(v)
        return len(feature) - 1

    def tables(rows):
        """The sum and count tables of ``rows``, counted in row order."""
        r = resid.take(rows)
        sums = np.empty((d, width))
        counts = np.empty((d, width), dtype=np.intp)
        for j, column in enumerate(columns):
            c = column.take(rows)
            sums[j] = np.bincount(c, weights=r, minlength=width)
            counts[j] = np.bincount(c, minlength=width)
        return sums, counts

    def build(rows, s, sums, counts, remaining):
        """Grow the subtree on ``rows``, whose residuals sum to ``s`` and
        whose tables are ``sums`` and ``counts`` (unread when the node
        cannot split)."""
        cnt = rows.size
        node = new_node(s / cnt)
        if remaining == 0 or cnt < 2 * min_leaf:
            train_pred[rows] = value[node]
            return node
        sums_l = sums.cumsum(axis=1)[:, :-1]
        cnts = counts.cumsum(axis=1)[:, :-1]
        rcnts = cnt - cnts
        ok = bins.splittable & (cnts >= min_leaf) & (rcnts >= min_leaf)
        gain = np.where(
            ok,
            sums_l * sums_l / np.maximum(cnts, 1)
            + (s - sums_l) ** 2 / np.maximum(rcnts, 1),
            -np.inf)
        j, i = divmod(int(gain.argmax()), width - 1)
        if float(gain[j, i]) - s * s / cnt <= 1e-12:
            train_pred[rows] = value[node]
            return node
        go_left = (columns[j] if rows is all_rows
                   else columns[j].take(rows)) <= i
        s_l, n_l = float(sums_l[j, i]), int(cnts[j, i])
        s_r, n_r = s - s_l, cnt - n_l
        feature[node] = j
        threshold[node] = float(edges[j][i])
        if remaining == 1:
            left[node] = new_node(s_l / n_l)
            right[node] = new_node(s_r / n_r)
            train_pred[rows] = np.where(go_left, value[left[node]],
                                        value[right[node]])
            return node
        rows_l, rows_r = rows.compress(go_left), rows.compress(~go_left)
        if n_l <= n_r:
            left_tables = tables(rows_l)
            right_tables = sums - left_tables[0], counts - left_tables[1]
        else:
            right_tables = tables(rows_r)
            left_tables = sums - right_tables[0], counts - right_tables[1]
        left[node] = build(rows_l, s_l, *left_tables, remaining - 1)
        right[node] = build(rows_r, s_r, *right_tables, remaining - 1)
        return node

    root_sums = np.empty((d, width))
    for j, column in enumerate(columns):
        root_sums[j] = np.bincount(column, weights=resid, minlength=width)
    # with no candidate at all (every column constant, or n_bins = 1) the
    # tree is one leaf
    build(all_rows, float(resid.sum()), root_sums, bins.counts,
          depth if bins.splittable.any() else 0)
    # build reaches itself through its closure; dropping the name breaks
    # that cycle, so the tree's row and residual arrays are freed now, not
    # at the next garbage collection
    del build
    return Tree(np.asarray(feature, dtype=np.int32),
                np.asarray(threshold),
                np.asarray(left, dtype=np.int32),
                np.asarray(right, dtype=np.int32),
                np.asarray(value))


def gbt_train(train, target: str, features, config: GbtConfig = None) -> GbtModel:
    """Fit the boosted ensemble on a dataset.  The settings are checked
    when the :class:`GbtConfig` is built."""
    cfg = config or GbtConfig()
    features = list(features)
    X = train.matrix(features)
    y = train.column(target).astype(np.float64)
    if cfg.loss == "logistic":
        if not np.all((y == 0.0) | (y == 1.0)):
            raise NonBinaryTargetError("logistic loss needs a 0/1 target")
        p0 = y.mean()
        if p0 in (0.0, 1.0):
            raise DegenerateTargetError("target is all one class")
        base = float(np.log(p0 / (1.0 - p0)))
    else:
        if y.min() == y.max():
            raise DegenerateTargetError("target has zero variance")
        base = float(y.mean())

    bins = _bin_columns(X, cfg.n_bins)
    F = np.full(y.size, base)
    trees = []
    train_pred = np.empty(y.size)
    for _ in range(cfg.n_trees):
        resid = y - expit(F) if cfg.loss == "logistic" else y - F
        trees.append(_grow_tree(bins, resid, cfg.depth, cfg.min_leaf,
                                train_pred))
        F += cfg.learning_rate * train_pred
    return GbtModel(trees, cfg.learning_rate, base, cfg.loss, features)


def decision_function(model: GbtModel, X: np.ndarray) -> np.ndarray:
    """Raw additive score (margin for logistic loss, mean for squared),
    added up in the order of :attr:`GbtModel.tree_groups`."""
    # column-major, so each tree walk gathers a split's feature from one
    # contiguous column
    X = np.asfortranarray(X, dtype=np.float64)
    trees, rate = model.trees, model.learning_rate
    F = np.full(X.shape[0], model.base_score)
    for group in model.tree_groups:
        G = rate * trees[group[0]].predict(X)
        for t in group[1:]:
            G += rate * trees[t].predict(X)
        F += G
    return F


def predict_matrix(model: GbtModel, X: np.ndarray) -> np.ndarray:
    """Model output on a raw feature matrix: probabilities for logistic
    loss, real values for squared loss."""
    F = decision_function(model, X)
    return expit(F) if model.loss == "logistic" else F
