"""Gradient-boosted regression trees, built from scratch.

Stagewise fitting of depth-limited trees to the negative gradient of the
loss (residuals for squared loss, y − sigmoid(margin) for logistic loss).
Split candidates come from per-feature quantile binning (at most 64 bins);
within a node the best split maximizes the exact variance-reduction score
sum_l^2/n_l + sum_r^2/n_r under a min-leaf constraint. Leaves carry the
mean residual, shrunk by the learning rate. No second-order weights, no
column or row subsampling — small-scale fidelity over system parity.

The training matrix is binned once per fit. Nodes score every feature's
candidates over padded (feature, bin) sum and count tables, and the two
children of a split are scored together, in one pass over their stacked
tables. The root's count table and its gain terms are computed once per
fit, and its sum table once per tree, from the residuals in row order.
Below the root the tables come down from the parent (histogram
subtraction, as in LightGBM): a split counts only its smaller child's sum
table from that child's rows (the left child's on a tie) and takes the
larger child's as the parent's minus the smaller's. The root's children
take their count tables from pair counts made once per fit and feature,
and the smaller one copies its sum-table row on the root's split feature
from the root's, whose rows it holds in the same order. Count tables stay
exact integers; a derived sum table can differ from a row-order count in
its last digits, and so can the gains and node values read from it. A
child's residual sum and row count are read off its parent's cumulative
tables. The root and its children hold about half the rows or more, so
they split whole columns and the training predictions of the top two
levels are one ``take`` by each row's leaf code there; deeper nodes
partition their rows with ``compress``, as the tree walk does, and a split
whose children are leaves writes their training predictions with one
``where``.

A fitted model predicts from its :class:`CellTables`: the trees that split
on one feature set form one summation group, whose sum takes one value per
cell of the grid cut by the group's thresholds. A model whose tables would
hold more than ``_MAX_CELLS`` values has none and walks its trees. Exact
Shapley values read their coalition outputs from the same tables, and
prediction and Shapley both add the group sums up in ``_output``.
Prediction takes rows, and the table build cells, in blocks of the step
budget ``dataset._CHUNK_ROWS``, so their working arrays do not grow with
the number of rows or cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from ..dataset import _CHUNK_ROWS, _distinct_features
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
        C += self.offset
        return C


def _cell_tables(model):
    """The model's :class:`CellTables`, or None when they would hold more
    than ``_MAX_CELLS`` cells. A group's values are filled in blocks of at
    most ``_CHUNK_ROWS // d`` cells, each block's corner points built from
    its cell numbers."""
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
    start = np.cumsum(sizes) - sizes
    thresholds = tuple(np.unique(np.concatenate(
        [[]] + [g[f] for g in grids if f in g])) for f in range(d))
    widths = np.array([t.size + 1 for t in thresholds])
    offset = np.cumsum(widths) - widths
    lookup = np.zeros((len(grids), widths.sum()), dtype=np.intp)
    bits = np.zeros((len(grids), d), dtype=np.intp)
    values = np.empty(sizes.sum())
    step = max(1, _CHUNK_ROWS // max(1, d))
    for g, (group, grid, n) in enumerate(zip(model.tree_groups, grids,
                                             sizes)):
        axes = []     # per U-feature: (feature, stride, cell corners)
        stride = n
        for rank, (f, th) in enumerate(grid.items()):
            stride //= th.size + 1
            cells = np.searchsorted(th, thresholds[f], side="right")
            lookup[g, offset[f] + 1:offset[f] + widths[f]] = stride * cells
            bits[g, f] = 1 << rank
            axes.append((f, stride, np.r_[-np.inf, th]))
        for lo in range(0, n, step):
            cells = np.arange(lo, min(lo + step, n))
            points = np.zeros((cells.size, d), order="F")
            for f, stride, corners in axes:
                points[:, f] = corners.take(cells // stride % corners.size)
            values[start[g] + cells] = _group_sum(model, group, points)
    return CellTables(thresholds, offset, lookup, start, values, bits)


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
    """Per-feature quantile edges and integer codes, as :class:`_Bins`.
    Each column's edges are read from one sorted copy of it (the quantiles
    of a sorted column are those of the column)."""
    edges, codes = [], np.empty(X.shape, dtype=np.intp, order="F")
    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    for j in range(X.shape[1]):
        e = np.unique(np.quantile(np.sort(X[:, j]), qs))
        edges.append(e)
        codes[:, j] = np.searchsorted(e, X[:, j], side="right")
    sizes = np.array([e.size for e in edges], dtype=np.intp)
    width = int(sizes.max(initial=0)) + 1
    columns = codes.T
    counts = np.array([np.bincount(c, minlength=width) for c in columns],
                      dtype=np.intp).reshape(len(edges), width)
    splittable = np.arange(width - 1) < sizes[:, None]
    return _Bins(columns, edges, counts, splittable)


class _Fit:
    """What the trees of one fit share besides the bins: every root holds
    all rows, so its cumulative counts, gain divisors and candidate mask
    are computed once, and so are, per feature a root splits on, the count
    tables of its children (:meth:`below`)."""

    def __init__(self, bins, depth, min_leaf):
        self.bins, self.depth, self.min_leaf = bins, depth, min_leaf
        n = bins.columns.shape[1]
        self.root_cnts = bins.counts.cumsum(axis=1)[:, :-1]
        rcnts = n - self.root_cnts
        self.root_ok = (bins.splittable & (self.root_cnts >= min_leaf)
                        & (rcnts >= min_leaf))
        self.root_divisors = (np.maximum(self.root_cnts, 1).astype(np.float64),
                              np.maximum(rcnts, 1).astype(np.float64))
        self.root_sums = np.empty(bins.counts.shape)
        self._below = {}

    def below(self, j):
        """(width, d, width) counts: entry i is the count table of the
        rows whose code on feature j is at most i, from one pair count
        (code on j, code on k) per feature k. They are held in the
        smallest unsigned type that holds the row count."""
        if j not in self._below:
            d, width = self.bins.counts.shape
            key = self.bins.columns[j] * width
            pairs = np.empty((width, d, width), dtype=np.min_scalar_type(
                self.bins.columns.shape[1]))
            for k, column in enumerate(self.bins.columns):
                pairs[:, k] = np.bincount(key + column, minlength=width
                                          * width).reshape(width, width)
            self._below[j] = pairs.cumsum(axis=0, out=pairs)
        return self._below[j]


def _grow_tree(fit, resid, train_pred):
    """Grow one tree on the binned columns and write its prediction for
    every training row into ``train_pred``.

    Nodes are numbered in pre-order.  The two children of a split are
    searched together: one cumulative sum, gain and ``argmax`` over their
    stacked (node, feature, bin) tables.  Among equal gains a node takes
    the earliest feature, then the earliest bin.  A child's residual sum
    and row count are read off its parent's cumulative tables.  Only the
    smaller child of a split (the left one on a tie) counts its sum table
    from its rows; the larger child's is its parent's minus the smaller's,
    and so are the count tables below the root.

    The root and its children hold about half the rows or more, and work
    on whole columns: the root's children take their count tables from
    :meth:`_Fit.below`, the smaller one copies its sum-table row on the
    root's split feature from the root's, and their splits are boolean
    masks over all rows.  Every row's training prediction is first that
    of its node two levels down, one ``take`` by its code there; deeper
    leaves then overwrite their rows'.  Deeper nodes hold their rows as
    ascending indices and partition them with ``compress``.
    """
    bins, depth, min_leaf = fit.bins, fit.depth, fit.min_leaf
    columns, edges = bins.columns, bins.edges
    d, width = bins.counts.shape
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(v):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(v)
        return len(feature) - 1

    def split_node(node, split):
        j, i = split[:2]
        feature[node] = j
        threshold[node] = float(edges[j][i])

    def best(gain, sums_l, cnts, s, cnt):
        """Each stacked node's best split as (feature, bin, left sum, left
        count), or None when it gains nothing."""
        picks = gain.reshape(len(s), -1).argmax(axis=1).tolist()
        out = []
        for k, flat in enumerate(picks):
            j, i = divmod(flat, width - 1)
            if float(gain[k, j, i]) - s[k] * s[k] / cnt[k] <= 1e-12:
                out.append(None)
            else:
                out.append((j, i, float(sums_l[k, j, i]), int(cnts[k, j, i])))
        return out

    def search(sums, counts, s, cnt):
        """:func:`best` over the nodes stacked in ``sums`` and ``counts``
        (node, feature, bin), whose residual sums and row counts are
        ``s`` and ``cnt``."""
        sums_l = sums.cumsum(axis=2)[:, :, :-1]
        cnts = counts.cumsum(axis=2)[:, :, :-1]
        rcnts = np.array(cnt)[:, None, None] - cnts
        ok = bins.splittable & (cnts >= min_leaf) & (rcnts >= min_leaf)
        gain = np.where(
            ok,
            sums_l * sums_l / np.maximum(cnts, 1)
            + (np.array(s)[:, None, None] - sums_l) ** 2
            / np.maximum(rcnts, 1),
            -np.inf)
        return best(gain, sums_l, cnts, s, cnt)

    def count(rows, sums, counts=None, skip=-1):
        """Fill ``sums`` (and ``counts``) with the tables of ``rows``,
        counted in row order, leaving feature ``skip``'s row alone."""
        r = resid.take(rows)
        for j, column in enumerate(columns):
            if j != skip:
                c = column.take(rows)
                sums[j] = np.bincount(c, weights=r, minlength=width)
                if counts is not None:
                    counts[j] = np.bincount(c, minlength=width)

    def search_pair(sums, counts, s, cnt, remaining):
        """The best splits of two siblings with stacked tables, None for
        each one that cannot split."""
        live = [k for k in (0, 1) if remaining and cnt[k] >= 2 * min_leaf]
        splits = [None, None]
        if live:
            at = slice(live[0], live[-1] + 1)
            for k, split in zip(live, search(sums[at], counts[at], s[at],
                                             cnt[at])):
                splits[k] = split
        return splits

    def children(rows, s, sums, counts, remaining):
        """Grow both children of a split, ``rows`` and ``s`` per child,
        from the parent's tables; returns their node numbers."""
        cnt = (rows[0].size, rows[1].size)
        S = np.empty((2, d, width))
        C = np.empty((2, d, width), dtype=np.intp)
        small = 0 if cnt[0] <= cnt[1] else 1
        if remaining and max(cnt) >= 2 * min_leaf:
            count(rows[small], S[small], C[small])
            np.subtract(sums, S[small], out=S[1 - small])
            np.subtract(counts, C[small], out=C[1 - small])
        splits = search_pair(S, C, s, cnt, remaining)
        return tuple(grow(rows[k], s[k], splits[k], S[k], C[k], remaining)
                     for k in (0, 1))

    def grow(rows, s, split, sums, counts, remaining):
        """Grow the subtree on ``rows``, whose residuals sum to ``s``,
        whose tables are ``sums`` and ``counts`` and whose split, found by
        its parent's search, is ``split`` (None for a leaf)."""
        cnt = rows.size
        node = new_node(s / cnt)
        if split is None:
            train_pred[rows] = value[node]
            return node
        split_node(node, split)
        j, i, s_l, n_l = split
        go_left = columns[j].take(rows) <= i
        if remaining == 1:
            left[node] = new_node(s_l / n_l)
            right[node] = new_node((s - s_l) / (cnt - n_l))
            train_pred[rows] = np.where(go_left, value[left[node]],
                                        value[right[node]])
            return node
        left[node], right[node] = children(
            (rows.compress(go_left), rows.compress(~go_left)),
            (s_l, s - s_l), sums, counts, remaining - 1)
        return node

    n = resid.size
    s = float(resid.sum())
    root = new_node(s / n)
    split = None
    if fit.root_ok.any():
        sums = fit.root_sums
        for j, column in enumerate(columns):
            sums[j] = np.bincount(column, weights=resid, minlength=width)
        sums_l = sums.cumsum(axis=1)[:, :-1]
        div_l, div_r = fit.root_divisors
        gain = np.where(fit.root_ok,
                        sums_l * sums_l / div_l + (s - sums_l) ** 2 / div_r,
                        -np.inf)
        split = best(gain[None], sums_l[None], fit.root_cnts[None], [s],
                     [n])[0]
    if split is None:
        train_pred.fill(value[root])
    else:
        split_node(root, split)
        j, i, s_l, n_l = split
        go_right = columns[j] > i
        sides = (~go_right, go_right)
        s1, cnt1 = (s_l, s - s_l), (n_l, n - n_l)
        # the children's tables: counts from the pair counts, and the
        # smaller child's sums counted from its rows but on feature j,
        # where its row is the root's on its side of bin i
        S = np.empty((2, d, width))
        C = np.empty((2, d, width), dtype=np.intp)
        small = 0 if cnt1[0] <= cnt1[1] else 1
        if depth > 1 and max(cnt1) >= 2 * min_leaf:
            C[0] = fit.below(j)[i]
            np.subtract(bins.counts, C[0], out=C[1])
            count(np.flatnonzero(sides[small]), S[small], skip=j)
            side = slice(0, i + 1) if small == 0 else slice(i + 1, width)
            S[small, j] = 0.0
            S[small, j, side] = sums[j, side]
            np.subtract(sums, S[small], out=S[1 - small])
        splits = search_pair(S, C, s1, cnt1, depth - 1)
        # every row's training prediction is first its node's two levels
        # down, read by its code there (2 on the root's right, plus 1 on
        # its child's right); deeper leaves then overwrite their rows'
        code = go_right.view(np.uint8) + go_right.view(np.uint8)
        below_child, values = [], []
        for k in (0, 1):
            if splits[k] is None:
                below_child.append(None)
                values += [s1[k] / cnt1[k]] * 2
                continue
            j, i, s_l, n_l = splits[k]
            to_right = sides[k] & (columns[j] > i)
            code |= to_right.view(np.uint8)
            below_child.append((sides[k] ^ to_right, to_right))
            values += [s_l / n_l, (s1[k] - s_l) / (cnt1[k] - n_l)]
        np.take(values, code, out=train_pred)
        for k in (0, 1):
            node = new_node(s1[k] / cnt1[k])
            (left if k == 0 else right)[root] = node
            if splits[k] is None:
                continue
            split_node(node, splits[k])
            if depth == 2:
                left[node] = new_node(values[2 * k])
                right[node] = new_node(values[2 * k + 1])
            else:
                s_l = splits[k][2]
                left[node], right[node] = children(
                    tuple(np.flatnonzero(m) for m in below_child[k]),
                    (s_l, s1[k] - s_l), S[k], C[k], depth - 2)
    # grow and children reach each other through their closures; dropping
    # the names breaks that cycle, so the tree's row and residual arrays
    # are freed now, not at the next garbage collection
    del grow, children
    return Tree(np.asarray(feature, dtype=np.int32),
                np.asarray(threshold),
                np.asarray(left, dtype=np.int32),
                np.asarray(right, dtype=np.int32),
                np.asarray(value))


def gbt_train(train, target: str, features, config: GbtConfig = None) -> GbtModel:
    """Fit the boosted ensemble on a dataset.  The settings are checked
    when the :class:`GbtConfig` is built; a feature listed twice raises
    FeatureMismatchError."""
    cfg = config or GbtConfig()
    features = _distinct_features(features)
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

    fit = _Fit(_bin_columns(X, cfg.n_bins), cfg.depth, cfg.min_leaf)
    F = np.full(y.size, base)
    trees = []
    # per-fit buffers: the residuals, and the tree's training prediction,
    # shrunk in place by the learning rate before it is added to F
    resid, train_pred = np.empty(y.size), np.empty(y.size)
    for _ in range(cfg.n_trees):
        if cfg.loss == "logistic":
            np.subtract(y, expit(F, out=resid), out=resid)
        else:
            np.subtract(y, F, out=resid)
        trees.append(_grow_tree(fit, resid, train_pred))
        F += np.multiply(cfg.learning_rate, train_pred, out=train_pred)
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
    """:func:`_output` at the rows of ``X``, in blocks of ``_CHUNK_ROWS``
    elements over the wider of the group count and the feature count, so
    the arrays a block needs stay within a few budgets at any row count."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    out = np.empty(n)
    step = max(1, _CHUNK_ROWS // max(1, len(model.tree_groups), d))
    for lo in range(0, n, step):
        rows = X[lo:lo + step]
        out[lo:lo + step] = _output(model, rows.shape[0],
                                    _group_sums(model, rows), link)
    return out


def _group_sums(model: GbtModel, X: np.ndarray):
    """Each group's sum at the rows of ``X``, in group order: read from
    the model's :class:`CellTables` as one (groups, rows) array, or, over
    the cell budget, from a walk of its trees."""
    tables = model.cell_tables
    if tables is None:
        # column-major, so each tree walk gathers a split's feature from
        # one contiguous column
        X = np.asfortranarray(X)
        return (_group_sum(model, group, X) for group in model.tree_groups)
    cell = np.repeat(tables.start[:, None], X.shape[0], axis=1)
    for c in tables.columns(X).T:
        cell += tables.lookup.take(c, axis=1)
    return tables.values.take(cell)


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
