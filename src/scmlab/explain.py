"""Exact Shapley-value attribution by coalition enumeration.

The value of a coalition S at instance x is the mean model output over the
background rows with the S-features overwritten by x's values (the
interventional / marginal expectation). With d features all 2^d coalition
values are computed, and

    phi_j = sum over S not containing j of
            |S|! (d - |S| - 1)! / d! * (v(S + j) - v(S)).

A black-box model (a callable, or the MLP) gets every coalition-masked row
in one batched model call. A boosted-tree ensemble is evaluated tree by
tree instead: a tree reads only its own feature set U, so it needs its
leaf for just the 2^|U| patterns of which U-features come from x, and
coalition S takes the pattern of S ∩ U (the interventional TreeSHAP
observation of Lundberg et al., Nat. Mach. Intell. 2020). The leaves are
summed in tree order, as the ensemble's own prediction sums them, so the
outputs, and the Shapley values, are bit-identical to enumerating every
coalition row; the result is still exact. For every model the prediction
is the full-coalition output of that same call, so it equals a batch
prediction, and the rows explained are checked as the background rows are.

Exact enumeration is refused beyond 12 features; every experiment here
uses at most 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np
from scipy.special import expit

from .dataset import Dataset
from .errors import (EmptyBackgroundError, EmptyEvaluationError,
                     TooManyFeaturesError)
from .flexfit import GbtModel, predict_on_matrix

_MAX_FEATURES = 12
# cap on coalition-expanded rows per step; for a block of GBT trees, on the
# elements of the block's temporaries
_CHUNK_ROWS = 4_000_000


@dataclass
class Attribution:
    """Per-feature Shapley values for one instance.

    ``base`` is the mean model output over the background; efficiency
    guarantees base + sum(phi) equals the model output at the instance, and
    ``efficiency_residual`` records the numerical leftover.
    """

    features: list
    phi: np.ndarray
    base: float
    prediction: float
    efficiency_residual: float


@dataclass
class AttributionSummary:
    """Mean |phi| per feature over an evaluation set, split into a
    relevant/irrelevant partition with the aggregate masses."""

    features: list
    mean_abs_phi: np.ndarray
    relevant: list
    irrelevant: list
    relevant_mass: float
    irrelevant_mass: float

    def mean_abs(self, feature: str) -> float:
        return float(self.mean_abs_phi[self.features.index(feature)])


def _coalition_outputs(model):
    """The function ``(masks, Ec, B) -> outputs`` that explain uses for
    ``model``: the model output for every (coalition, evaluation row,
    background row), shape (n_coal, ec, n_bg)."""
    if isinstance(model, GbtModel):
        return lambda masks, Ec, B: _gbt_coalition_outputs(model, masks, Ec, B)

    def grid_outputs(masks, Ec, B):
        # grid[c, e, b, j] = Ec[e, j] if j in coalition c else B[b, j]
        grid = np.where(masks[:, None, None, :], Ec[None, :, None, :],
                        B[None, None, :, :]).reshape(-1, masks.shape[1])
        out = model(grid) if callable(model) else predict_on_matrix(model, grid)
        return out.reshape(masks.shape[0], Ec.shape[0], B.shape[0])
    return grid_outputs


def _pack_trees(trees):
    """The trees as one padded stack of (n_trees, n_nodes) arrays: whether
    a slot holds a node, then feature (-1 at leaves and padding),
    threshold, left, right and value."""
    sizes = np.array([t.feature.size for t in trees])
    real = np.arange(sizes.max()) < sizes[:, None]
    packed = [real]
    for attr, fill in (("feature", -1), ("threshold", 0.0), ("left", -1),
                       ("right", -1), ("value", 0.0)):
        a = np.full(real.shape, fill, dtype=type(fill))
        a[real] = np.concatenate([getattr(t, attr) for t in trees])
        packed.append(a)
    return tuple(packed)


def _leaf_misses(packed, local, Ec, B):
    """Each tree's leaves and, for every leaf and row, the U-bits whose
    split on the path to the leaf sends the row the other way.

    ``local[t, j]`` is feature j's bit in tree t's feature set U (0 when
    the tree does not read j). Returns (leaf_index, miss_e, miss_b):
    leaf_index[t, l] is the flat index of tree t's leaf slot l into the
    packed values (0 for a padding slot); miss_e[t, l, e] and
    miss_b[t, l, b] are the bit masks for the evaluation and the
    background rows. The split tests are those of ``Tree.predict``,
    ``x < threshold``, taken once per row.
    """
    real, feature, threshold, left, right, _ = packed
    n_trees, n_nodes = feature.shape
    rows = np.arange(n_trees)[:, None]
    split = feature >= 0
    f = np.where(split, feature, 0)
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
    # (tree, node, row): does the row go left at the node?
    goes_left_e = (Ec[:, f] < threshold).transpose(1, 2, 0)
    goes_left_b = (B[:, f] < threshold).transpose(1, 2, 0)
    miss_e = np.zeros((n_trees, n_leaf, Ec.shape[0]), dtype=local.dtype)
    miss_b = np.zeros((n_trees, n_leaf, B.shape[0]), dtype=local.dtype)
    node, up = leaf, parent[rows, leaf]
    while (up >= 0).any():            # one level of ancestors per pass
        has = up >= 0
        above = np.where(has, up, 0)
        turn = is_left[rows, node][:, :, None]
        bits = np.where(has, node_bit[rows, above], 0)[:, :, None]
        miss_e |= (goes_left_e[rows, above] != turn) * bits
        miss_b |= (goes_left_b[rows, above] != turn) * bits
        node = np.where(has, up, node)
        up = np.where(has, parent[rows, above], -1)
    return leaf_index, miss_e, miss_b


def _gbt_coalition_outputs(model, masks, Ec, B):
    """A GBT's outputs for every (coalition, evaluation row, background
    row), with each tree evaluated only on the 2^|U| patterns over its
    own feature set U.

    Pattern p says which U-features come from the evaluation row. Under p
    a leaf is reached when no split above it on a p-feature misses on the
    evaluation row and none on another U-feature misses on the background
    row; exactly one leaf is. Coalition S takes the pattern of S ∩ U, and
    its margin gains ``(learning_rate * leaf)[code]`` tree by tree, in the
    trees' order from ``base_score``. That is the element-wise arithmetic
    of ``decision_function`` on the expanded coalition grid, so the outputs
    are bit-identical to it.
    """
    n_coal, d = masks.shape
    ec, n_bg = Ec.shape[0], B.shape[0]
    F = np.full((n_coal, ec * n_bg), model.base_score)
    if model.trees:
        packed = _pack_trees(model.trees)
        _, feature, _, _, _, value = packed
        n_trees = feature.shape[0]
        # U_t as local bits (at most _MAX_FEATURES of them, so int16);
        # code[t, c] is the pattern of coalition c ∩ U_t
        used = (feature[:, :, None] == np.arange(d)).any(axis=1)
        local = np.where(used, 1 << (np.cumsum(used, axis=1) - 1), 0)
        local = local.astype(np.int16)
        code = local @ masks.T
        leaf_index, miss_e, miss_b = _leaf_misses(packed, local, Ec, B)
        n_pat = 1 << int(used.sum(axis=1).max())
        pats = np.arange(n_pat, dtype=np.int16)[:, None, None]
        step = model.learning_rate * value.ravel()
        # tree blocks within the row budget, counting the leaf ids and
        # values and the two reach tables of every tree in the block
        per_tree = n_pat * (2 * ec * n_bg + leaf_index.shape[1] * (ec + n_bg))
        block = max(1, _CHUNK_ROWS // per_tree)
        for lo in range(0, n_trees, block):
            hi = min(lo + block, n_trees)
            reach_e = (miss_e[lo:hi, None] & pats) == 0
            reach_b = (miss_b[lo:hi, None] & ~pats) == 0
            # the one leaf reached on both sides gives the only nonzero term
            ids = np.einsum("tpel,tplb->tpeb", reach_e.transpose(0, 1, 3, 2)
                            * leaf_index[lo:hi, None, None, :], reach_b)
            vals = step.take(ids).reshape(hi - lo, n_pat, ec * n_bg)
            del ids
            for t in range(lo, hi):
                F += vals[t - lo][code[t]]
            del vals      # before the next block's temporaries exist
    F = F.reshape(n_coal, ec, n_bg)
    return expit(F) if model.loss == "logistic" else F


def _feature_list(model, features):
    if features is None:
        features = getattr(model, "feature_names", None)
        if features is None:
            raise ValueError("pass `features` explicitly for a bare callable")
    features = list(features)
    if len(features) > _MAX_FEATURES:
        raise TooManyFeaturesError(
            f"{len(features)} features exceed the exact-enumeration cap "
            f"of {_MAX_FEATURES}")
    return features


def _row_matrix(rows, features, what):
    """``rows`` (a Dataset, or an (m, d) array in ``features`` order) as
    an (m, d) float matrix."""
    if isinstance(rows, Dataset):
        return rows.matrix(features)
    M = np.asarray(rows, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != len(features):
        raise ValueError(f"{what} must be rows over the {len(features)} "
                         f"feature columns, got shape {M.shape}")
    return M


def _features_and_background(model, features, background):
    """The checked feature list and background matrix, in that order; the
    entry points check their rows to explain after these."""
    features = _feature_list(model, features)
    B = _row_matrix(background, features, "background")
    if B.shape[0] == 0:
        raise EmptyBackgroundError("background sample has no rows")
    return features, B


def _coalition_tables(d):
    """Boolean coalition masks (2^d, d), the with-j pairing index, and the
    Shapley weight of each coalition size."""
    codes = np.arange(2 ** d, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(d, dtype=np.uint32)) & 1
    masks = masks.astype(bool)
    sizes = masks.sum(axis=1)
    weights = np.array([factorial(s) * factorial(d - 1 - s) / factorial(d)
                        for s in range(d)])
    return masks, sizes, weights


def _phi_matrix(coalition_outputs, E: np.ndarray, B: np.ndarray) -> tuple:
    """Shapley values for every evaluation row.

    Returns (phi matrix of shape (n_eval, d), base value, full-coalition
    outputs at the evaluation rows against the first background row).
    Evaluation rows are processed in chunks so the coalition-expanded
    outputs stay within a fixed row budget.
    """
    n_eval, d = E.shape
    n_bg = B.shape[0]
    masks, sizes, weights = _coalition_tables(d)
    n_coal = masks.shape[0]
    phi = np.empty((n_eval, d))
    full = np.empty(n_eval)
    chunk = max(1, _CHUNK_ROWS // (n_coal * n_bg))
    base = None
    for lo in range(0, n_eval, chunk):
        Ec = E[lo:lo + chunk]
        out = coalition_outputs(masks, Ec, B)
        full[lo:lo + chunk] = out[-1, :, 0]
        v = out.mean(axis=2)                     # (n_coal, ec)
        if base is None:
            base = float(v[0, 0])                # empty coalition: same for all rows
        for j in range(d):
            without = np.nonzero(~masks[:, j])[0]
            with_j = without | (1 << j)
            w = weights[sizes[without]]
            # sequential over coalitions, so a row's phi does not depend on
            # how many rows share its chunk
            phi[lo:lo + chunk, j] = (
                w[:, None] * (v[with_j] - v[without])).cumsum(axis=0)[-1]
    return phi, base, full


def shapley_exact(model, instance, background, features=None) -> Attribution:
    """Exact Shapley attribution of one prediction.

    Parameters
    ----------
    model : trained MLP/GBT model, or callable mapping an (m, d) matrix to
        m outputs (columns in ``features`` order).
    instance : mapping name -> value, or sequence aligned with ``features``.
    background : Dataset (or (m, d) array) supplying the marginal
        expectation sample.
    features : explicit feature order; defaults to the model's stored names.

    ``prediction`` is the full-coalition output, equal to the instance's
    entry of a batch prediction.
    """
    features, B = _features_and_background(model, features, background)
    if isinstance(instance, dict):
        instance = [float(instance[f]) for f in features]
    x = _row_matrix(np.reshape(instance, (1, -1)), features, "instance")
    phi, base, full = _phi_matrix(_coalition_outputs(model), x, B)
    phi = phi[0]
    prediction = float(full[0])
    residual = prediction - base - float(phi.sum())
    return Attribution(features, phi, base, prediction, residual)


def attribution_summary(model, eval_set, background, relevant,
                        features=None) -> AttributionSummary:
    """Mean |phi| per feature over an evaluation set, plus the aggregate
    attribution mass on the relevant / irrelevant feature partition.
    ``eval_set`` (a Dataset or an (m, d) array) is checked against the
    features as the background is; zero rows raise EmptyEvaluationError."""
    features, B = _features_and_background(model, features, background)
    E = _row_matrix(eval_set, features, "evaluation rows")
    if E.shape[0] == 0:
        raise EmptyEvaluationError("evaluation rows: none to explain")
    relevant = [f for f in features if f in set(relevant)]
    irrelevant = [f for f in features if f not in set(relevant)]
    phi, _, _ = _phi_matrix(_coalition_outputs(model), E, B)
    mean_abs = np.abs(phi).mean(axis=0)
    idx = {f: i for i, f in enumerate(features)}
    rel_mass = float(sum(mean_abs[idx[f]] for f in relevant))
    irr_mass = float(sum(mean_abs[idx[f]] for f in irrelevant))
    return AttributionSummary(features, mean_abs, relevant, irrelevant,
                              rel_mass, irr_mass)
