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

A fitted model predicts from its :class:`CellTables`: the trees that split
on one feature set form one summation group, whose sum takes one value per
cell of the grid cut by the group's thresholds. A model whose tables would
hold more than ``_MAX_CELLS`` values has none and walks its trees. Exact
Shapley values read their coalition outputs from the same tables, and
prediction and Shapley both add the group sums up in ``_output``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from ..errors import (DegenerateTargetError, NonBinaryTargetError,
                      check_fields)

_MAX_BINS = 64
_RANGES = {"n_trees": "[0, inf)", "depth": "[1, inf)",
           "learning_rate": "(0, inf)", "min_leaf": "[1, inf)",
           "n_bins": f"[1, {_MAX_BINS}]", "loss": "one of squared, logistic"}


@dataclass(frozen=True)
class GbtConfig:
    n_trees: int = 300
    depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 20
    n_bins: int = 64
    loss: str = "squared"

    def __post_init__(self):
        check_fields(self, _RANGES)


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


# the most cells a model's group tables may hold (8 bytes each); a model
# whose tables would hold more gets none: its prediction walks the trees,
# and its explanation evaluates the coalition grid
_MAX_CELLS = 1 << 17


@dataclass(frozen=True)
class CellTables:
    """Each summation group's sum as a table over the grid its own
    thresholds cut (the groups of :attr:`GbtModel.tree_groups`).

    The trees of group g split only on its feature set U_g. On a feature f
    of U_g, a row's path through them depends only on its coordinate there:
    how many of the group's distinct thresholds on f lie at or below x_f
    (``x < threshold`` goes left; NaN goes right, as in ``Tree.predict``).
    The group's cells are numbered in C order over U_g's features in
    ascending order and start at ``start[g]`` in ``values``. A cell's value
    is its representative point (per U-feature -inf, or the threshold that
    opens the cell) through the group's trees, added up as
    ``decision_function`` adds a row, so reading a row's cell gives that
    row's group sum bit for bit.

    A row's cells in every group are found at once: ``thresholds[f]`` holds
    the distinct thresholds of all trees on f, and a row's coordinate c on
    them picks column ``offset[f] + c`` of ``lookup``, which holds, in row
    g, group g's stride on f times the group's own coordinate (0 where f
    is not in U_g). A row's cell in group g is ``start[g]`` plus the sum
    of ``lookup[g]`` at its d picked columns. ``bits[g, f]`` is feature f's
    bit in group g's patterns, ``1 << (f's rank in U_g)``, or 0 off U_g.
    """

    thresholds: tuple
    offset: np.ndarray
    lookup: np.ndarray
    start: np.ndarray
    values: np.ndarray
    bits: np.ndarray

    def columns(self, X):
        """The ``lookup`` column of each row's coordinate on each
        feature, (rows, d)."""
        C = np.empty(X.shape, dtype=np.intp)
        for f, th in enumerate(self.thresholds):
            C[:, f] = np.searchsorted(th, X[:, f], side="right")
        return C + self.offset


def _cell_tables(model):
    """The model's :class:`CellTables`, or None when they would hold more
    than ``_MAX_CELLS`` cells."""
    d = len(model.feature_names)
    grids = []        # per group, {feature of U: its sorted thresholds}
    for group in model.tree_groups:
        f = np.concatenate([model.trees[t].feature for t in group])
        th = np.concatenate([model.trees[t].threshold for t in group])
        grids.append({int(j): np.unique(th[f == j])
                      for j in np.unique(f[f >= 0])})
    sizes = [math.prod(t.size + 1 for t in g.values()) for g in grids]
    if sum(sizes) > _MAX_CELLS:
        return None
    sizes = np.array(sizes, dtype=np.intp)
    thresholds = tuple(np.unique(np.concatenate(
        [[]] + [g[f] for g in grids if f in g])) for f in range(d))
    widths = np.array([t.size + 1 for t in thresholds])
    offset = np.cumsum(widths) - widths
    lookup = np.zeros((len(grids), widths.sum()), dtype=np.intp)
    bits = np.zeros((len(grids), d), dtype=np.intp)
    values = []
    for g, (group, grid, n) in enumerate(zip(model.tree_groups, grids,
                                             sizes)):
        points = np.zeros((n, d), order="F")
        stride = n
        for rank, (f, th) in enumerate(grid.items()):
            stride //= th.size + 1
            cells = np.searchsorted(th, thresholds[f], side="right")
            lookup[g, offset[f] + 1:offset[f] + widths[f]] = stride * cells
            bits[g, f] = 1 << rank
            points[:, f] = np.tile(np.repeat(np.r_[-np.inf, th], stride),
                                   n // (stride * (th.size + 1)))
        values.append(_group_sum(model, group, points))
    start = np.cumsum(sizes) - sizes
    return CellTables(thresholds, offset, lookup, start,
                      np.concatenate([[]] + values), bits)


@dataclass
class GbtModel:
    """A fitted ensemble. Its trees and feature names are not changed
    after construction; :attr:`tree_groups` and :attr:`cell_tables` are
    built from them once."""

    trees: list
    learning_rate: float
    base_score: float
    loss: str
    feature_names: list

    @cached_property
    def tree_groups(self) -> tuple:
        """The order in which the margin adds the trees up: one tuple of
        tree indices per feature set U that a tree splits on, the groups in
        the order in which each U first appears and the trees in their
        order within a group (:func:`_group_sum`, :func:`_output`)."""
        groups = {}
        for t, tree in enumerate(self.trees):
            key = frozenset(tree.feature[tree.feature >= 0].tolist())
            groups.setdefault(key, []).append(t)
        return tuple(tuple(g) for g in groups.values())

    @cached_property
    def cell_tables(self):
        """The groups' :class:`CellTables`, built on first use; None for
        a model whose tables would exceed the cell budget."""
        return _cell_tables(self)


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
    """Raw additive score: the margin for logistic loss, the mean for
    squared loss."""
    return _row_outputs(model, X, link=False)


def predict_matrix(model: GbtModel, X: np.ndarray) -> np.ndarray:
    """Model output on a raw feature matrix: probabilities for logistic
    loss, real values for squared loss."""
    return _row_outputs(model, X, link=True)


def _row_outputs(model: GbtModel, X, link: bool) -> np.ndarray:
    """:func:`_output` at the rows of ``X``, each group's sum read from the
    model's :class:`CellTables`, or, over the cell budget, from a walk of
    its trees."""
    X = np.asarray(X, dtype=np.float64)
    tables = model.cell_tables
    if tables is not None:
        cell = np.repeat(tables.start[:, None], X.shape[0], axis=1)
        for c in tables.columns(X).T:
            cell += tables.lookup.take(c, axis=1)
        sums = tables.values.take(cell)
    else:
        # column-major, so each tree walk gathers a split's feature from
        # one contiguous column
        X = np.asfortranarray(X)
        sums = (_group_sum(model, group, X) for group in model.tree_groups)
    return _output(model, X.shape[0], sums, link)


def _output(model: GbtModel, shape, group_sums, link: bool) -> np.ndarray:
    """``base_score`` plus ``group_sums`` (one array of ``shape`` per group,
    in :attr:`GbtModel.tree_groups` order, added one at a time), through
    the logistic link for a logistic model when ``link`` is set. Prediction
    and :func:`coalition_outputs` both end here, so they agree bit for bit."""
    F = np.full(shape, model.base_score)
    for G in group_sums:
        F += G
    return expit(F) if link and model.loss == "logistic" else F


def coalition_outputs(model: GbtModel, masks: np.ndarray, E: np.ndarray,
                      B: np.ndarray) -> np.ndarray:
    """The prediction, read from the model's :class:`CellTables`, at every
    (coalition c, evaluation row, background row), shape (n_coal, ec, n_bg):
    the row takes E's values on the features in ``masks[c]`` and B's
    elsewhere. Group g reads only its features U_g, so it needs just the
    2^|U_g| patterns of which of them come from E, and coalition S takes
    pattern S ∩ U_g (interventional TreeSHAP, Lundberg et al., Nat. Mach.
    Intell. 2020). One ``take`` gives every (group, pattern, pair) its
    group sum, in slots that run group by group, each group's patterns in
    order of their bits; each coalition takes one slot per group."""
    tables = model.cell_tables
    ec = E.shape[0]
    patterns = 1 << np.count_nonzero(tables.bits, axis=1)
    first = np.cumsum(patterns) - patterns
    group = np.repeat(np.arange(patterns.size), patterns)
    from_row = (tables.bits[group]
                & (np.arange(group.size) - first[group])[:, None]) != 0
    # (slot, row, feature): the slot's group's lookup at each row's
    # coordinate, the evaluation rows first
    picked = tables.lookup.take(tables.columns(np.vstack((E, B))),
                                axis=1)[group]
    cell = (np.einsum("srf,sf->sr", picked[:, :ec], from_row)[:, :, None]
            + (tables.start[group, None]
               + np.einsum("srf,sf->sr", picked[:, ec:], ~from_row))[:, None])
    sums = tables.values.take(cell)             # (slot, row, background row)
    codes = first[:, None] + tables.bits @ masks.T     # (group, coalition)
    return _output(model, (masks.shape[0],) + cell.shape[1:],
                   (sums[c] for c in codes), link=True)


def _group_sum(model: GbtModel, group: tuple, X: np.ndarray) -> np.ndarray:
    """The sum of one of :attr:`GbtModel.tree_groups` at the rows of
    ``X``: its trees' shrunk leaf values added in tree order, from the
    first tree's. The cell tables and the tree walk both call it, so they
    agree bit for bit."""
    trees, rate = model.trees, model.learning_rate
    G = rate * trees[group[0]].predict(X)
    for t in group[1:]:
        G += rate * trees[t].predict(X)
    return G
