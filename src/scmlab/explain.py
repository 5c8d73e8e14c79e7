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
observation of Lundberg et al., Nat. Mach. Intell. 2020). The trees of
one U share their patterns, so their leaves are summed into one table per
U, and a coalition adds one row per table. Tables and trees are added in
the ensemble's one summation order (``GbtModel.tree_groups``), which its
own prediction follows too, so the outputs, and the Shapley values, are
bit-identical to enumerating every coalition row; the result is still
exact. What depends on the model alone (its padded tree tables, and
which table row each coalition takes) is built once per model, and what
depends on the model and the background (which leaves each background row
reaches under each pattern) once per model and background, held on the
model until another background comes; a call pays only for the rows it
explains. For every model the prediction is the full-coalition output of
that same call, so it equals a batch prediction, and the rows explained
are checked as the background rows are.

Exact enumeration is refused beyond 12 features; every experiment here
uses at most 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import factorial

import numpy as np
from scipy.special import expit

from .dataset import Dataset
from .errors import (EmptyBackgroundError, EmptyEvaluationError,
                     EmptyFeatureListError, FeatureListRequiredError,
                     FeatureMismatchError, NonFiniteValueError,
                     RowShapeError, TooManyFeaturesError)
from .flexfit import GbtModel, predict_on_matrix

_MAX_FEATURES = 12
# cache budget, in elements, of one explain step: a chunk of evaluation rows
# spans at most this many coalition-expanded rows, and a block of GBT trees
# at most this many temporary elements (8 rows x 256 coalitions x 64
# background rows)
_CHUNK_ROWS = 131_072
# a float32 holds every integer up to 2^24 exactly, so the leaf ids of an
# ensemble with at most this many node slots are contracted in float32
_FLOAT32_IDS = 1 << 24


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


def _leaf_misses(layout, X):
    """For every tree, leaf and row of X, the U-bits whose split on the
    path to the leaf sends the row the other way (n_trees, n_leaf, rows).
    The split tests are those of ``Tree.predict``, ``x < threshold``,
    taken once per node and row."""
    n_trees, n_leaf = layout.leaf_index.shape
    goes_left = X.T[layout.feature] < layout.threshold[:, :, None]
    goes_left = goes_left.reshape(-1, X.shape[0])     # (tree * node, row)
    miss = np.zeros((n_trees, n_leaf, X.shape[0]), dtype=layout.pattern.dtype)
    for above, turn, bits in layout.levels:   # one level of ancestors each
        miss |= (goes_left[above] != turn) * bits
    return miss


def _background_reach(model, B):
    """Which leaf slots the background rows reach under each pattern:
    (pattern row, leaf slot, background row), over the layout's flat
    pattern rows, 1 where no split above the slot on one of the tree's
    features outside the pattern misses on the row, else 0.

    It depends on the model and the background alone, so it is built once
    and held in the model's ``explain_background`` slot, keyed by the
    background's shape and bytes: another background, or this one changed
    in place, replaces it. It is held as float32, the type the leaves are
    contracted in, which holds every leaf id exactly while the ensemble has
    at most 2^24 node slots; a larger one is held as float64. It is built
    in blocks of pattern rows within the step budget.
    """
    key = (B.shape, B.tobytes())
    held = model.explain_background
    if held is None or held[0] != key:
        layout = model.explain_layout
        miss = _leaf_misses(layout, B)                   # (tree, leaf, row)
        _, n_leaf, n_bg = miss.shape
        n_rows = layout.pattern.size
        dtype = np.float32 if layout.step.size <= _FLOAT32_IDS else np.float64
        reach = np.empty((n_rows, n_leaf, n_bg), dtype=dtype)
        block = max(1, _CHUNK_ROWS // (n_leaf * n_bg))
        for lo in range(0, n_rows, block):
            rows = slice(lo, lo + block)
            np.equal(miss[layout.pattern_tree[rows]]
                     & ~layout.pattern[rows, None, None], 0, out=reach[rows])
        held = model.explain_background = (key, reach)
    return held[1]


def _gbt_coalition_outputs(model, masks, Ec, B):
    """A GBT's outputs for every (coalition, evaluation row, background
    row), with each tree evaluated only on the 2^|U| patterns over its
    own feature set U. ``masks`` must be every coalition, in the order of
    :func:`_coalition_tables`, which the layout's ``codes`` follow.

    Pattern p says which U-features come from the evaluation row. Under p
    a leaf is reached when no split above it on a p-feature misses on the
    evaluation row and none on another U-feature misses on the background
    row; exactly one leaf is. The background side is
    :func:`_background_reach`, held on the model; here only the evaluation
    rows' misses are found. Weighting the evaluation side's reached slots
    by their leaf ids and contracting over the slots with the background
    side, in one batched float matmul, gives each (pattern, row pair) the
    id of its one leaf: the other terms are exact zeros and the ids are
    integers the float type holds exactly.

    The margin is added up in the model's one summation order
    (:attr:`GbtModel.tree_groups`). The trees of a group share U, so the
    group's sum under a pattern is one table row per (row pair): the rank
    blocks of the layout are gathered onto the group tables' slots, with
    an exact ``-0.0`` where a group has no tree of that rank, and reduced
    over their leading rank axis, which adds in order, after the tables so
    far are added to the block's first rank. Coalition S then takes, per
    group, the slot of the pattern S ∩ U, and the groups' rows are added
    from ``base_score`` in group order the same way. That is the
    element-wise arithmetic of ``decision_function`` on the expanded
    coalition grid, so the outputs are bit-identical to it.
    """
    n_coal = masks.shape[0]
    ec, n_bg = Ec.shape[0], B.shape[0]
    pairs = ec * n_bg
    F = np.full((n_coal, pairs), model.base_score)
    if model.trees:
        layout = model.explain_layout
        reach_b = _background_reach(model, B)
        n_leaf = reach_b.shape[1]
        pattern = layout.pattern[:, None, None]
        miss_e = _leaf_misses(layout, Ec).transpose(0, 2, 1)
        ids = layout.leaf_index.astype(reach_b.dtype)[:, None, :]
        start, width = layout.row_start, layout.width
        tables = np.empty((layout.slot.shape[1], pairs))
        lo = 0
        while lo < width.size:
            # rank blocks within the budget: a slot's gathered row, and a
            # pattern row's leaf values, ids and evaluation-side reach
            # table, counting every slot as a pattern row
            w = width[lo]
            hi = min(width.size, lo + max(1, _CHUNK_ROWS
                                          // (w * ec * (2 * n_bg + n_leaf))))
            rows = slice(start[lo], start[hi])
            tree = layout.pattern_tree[rows]
            reach_e = (miss_e[tree] & pattern[rows]) == 0   # (row, e, leaf)
            leaf = (reach_e * ids[tree]) @ reach_b[rows]
            # the block's leaf values, then one -0.0 row: x + -0.0 is x
            vals = np.empty((leaf.shape[0] + 1, pairs))
            vals[-1] = -0.0
            # (mode "clip" takes into ``out`` unbuffered; no id is clipped)
            layout.step.take(leaf.astype(np.intp), mode="clip",
                             out=vals[:-1].reshape(leaf.shape))
            # (rank, slot, e*b); a slot with no tree clips to the -0.0 row
            G = vals.take(layout.slot[lo:hi, :w] - start[lo], axis=0,
                          mode="clip")
            if lo:
                G[0] += tables[:w]
            # w >= 2, so the rank axis is not the fast one, and reduce adds
            # along it in order, never pairwise
            np.add.reduce(G, axis=0, out=tables[:w])
            del reach_e, leaf, vals, G   # before the next block's exist
            lo = hi
        block = max(1, _CHUNK_ROWS // (n_coal * pairs))
        for lo in range(0, layout.codes.shape[0], block):
            G = tables[layout.codes[lo:lo + block]]   # (group, coalition, e*b)
            G[0] += F
            # with two or more coalitions the same holds for the group
            # axis; a single group's sum is its own row, without reduce's
            # copy
            F = G[0] if G.shape[0] == 1 else np.add.reduce(G, axis=0)
            del G
    F = F.reshape(n_coal, ec, n_bg)
    return expit(F) if model.loss == "logistic" else F


def _feature_list(model, features):
    """The features to explain: a trained model's own feature names, which
    an explicit list must repeat in order; a bare callable needs the
    list."""
    trained = getattr(model, "feature_names", None)
    if features is None:
        if trained is None:
            raise FeatureListRequiredError(
                "pass `features` explicitly for a bare callable")
        features = trained
    features = list(features)
    if not features:
        raise EmptyFeatureListError("the feature list is empty")
    if trained is not None and features != list(trained):
        raise FeatureMismatchError(
            f"features {features} differ from the model's feature names "
            f"{list(trained)}")
    if len(features) > _MAX_FEATURES:
        raise TooManyFeaturesError(
            f"{len(features)} features exceed the exact-enumeration cap "
            f"of {_MAX_FEATURES}")
    return features


def _row_matrix(rows, features, what):
    """``rows`` (a Dataset, or an (m, d) array in ``features`` order) as
    an (m, d) float matrix of finite values (a Dataset holds only
    those)."""
    if isinstance(rows, Dataset):
        return rows.matrix(features)
    M = np.asarray(rows, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] != len(features):
        raise RowShapeError(f"{what} must be rows over the {len(features)} "
                            f"feature columns, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NonFiniteValueError(f"{what}: a value is NaN or infinite")
    return M


def _features_and_background(model, features, background):
    """The checked feature list and background matrix, in that order; the
    entry points check their rows to explain after these."""
    features = _feature_list(model, features)
    B = _row_matrix(background, features, "background")
    if B.shape[0] == 0:
        raise EmptyBackgroundError("background sample has no rows")
    return features, B


@cache
def _coalition_tables(d):
    """Boolean coalition masks (2^d, d); the Shapley pairing, whose
    ``[0][:, j]`` lists the coalitions without feature j in ascending order
    and ``[1][:, j]`` the same coalitions with j; and the Shapley weight of
    each pair. Built once per d and read-only, as every caller shares
    them."""
    codes = np.arange(2 ** d, dtype=np.uint32)
    masks = (codes[:, None] >> np.arange(d, dtype=np.uint32)) & 1
    masks = masks.astype(bool)
    without = np.stack([np.flatnonzero(~masks[:, j]) for j in range(d)],
                       axis=1).reshape(-1, d)
    pairs = np.stack([without, without | (1 << np.arange(d))])
    sizes = masks.sum(axis=1)[without]
    weights = np.array([factorial(s) * factorial(d - 1 - s) / factorial(d)
                        for s in range(d)])[sizes]
    for table in (masks, pairs, weights):
        table.flags.writeable = False
    return masks, pairs, weights


def _phi_matrix(coalition_outputs, E: np.ndarray, B: np.ndarray) -> tuple:
    """Shapley values for every evaluation row.

    Returns (phi matrix of shape (n_eval, d), base value, full-coalition
    outputs at the evaluation rows against the first background row).
    Evaluation rows are processed in chunks so the coalition-expanded
    outputs stay within a fixed row budget.
    """
    n_eval, d = E.shape
    n_bg = B.shape[0]
    masks, (without, with_j), weights = _coalition_tables(d)
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
        # sequential over coalitions, so a row's phi does not depend on
        # how many rows share its chunk
        terms = weights[:, :, None] * (v[with_j] - v[without])
        phi[lo:lo + chunk] = terms.cumsum(axis=0)[-1].T
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
    features : explicit feature order; defaults to the model's stored names,
        which an explicit list for a trained model must equal
        (FeatureMismatchError otherwise).

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
