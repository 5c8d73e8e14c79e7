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
                     FeatureMismatchError, TooManyFeaturesError)
from .flexfit import GbtModel, predict_on_matrix

_MAX_FEATURES = 12
# cache budget, in elements, of one explain step: a chunk of evaluation rows
# spans at most this many coalition-expanded rows, and a block of GBT trees
# at most this many temporary elements (8 rows x 256 coalitions x 64
# background rows)
_CHUNK_ROWS = 131_072


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
    miss = np.zeros((n_trees, n_leaf, X.shape[0]), dtype=layout.local.dtype)
    for above, turn, bits in layout.levels:   # one level of ancestors each
        miss |= (goes_left[above] != turn) * bits
    return miss


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
    are bit-identical to it. The model's tables come from its
    ``explain_layout``, built once per model; only the row work is done
    here.
    """
    n_coal = masks.shape[0]
    ec, n_bg = Ec.shape[0], B.shape[0]
    F = np.full((n_coal, ec * n_bg), model.base_score)
    if model.trees:
        layout = model.explain_layout
        leaf_index = layout.leaf_index
        n_trees, n_leaf = leaf_index.shape
        # code[t, c] is the pattern of coalition c ∩ U_t
        code = layout.local @ masks.T
        miss_e, miss_b = _leaf_misses(layout, Ec), _leaf_misses(layout, B)
        n_pat = layout.n_patterns
        pats = np.arange(n_pat, dtype=np.int16)[:, None, None]
        step = model.learning_rate * layout.value
        # tree blocks within the budget, counting the leaf ids and values
        # and the two reach tables of every tree in the block
        per_tree = n_pat * (2 * ec * n_bg + n_leaf * (ec + n_bg))
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
    """The features to explain: a trained model's own feature names, which
    an explicit list must repeat in order; a bare callable needs the
    list."""
    trained = getattr(model, "feature_names", None)
    if features is None:
        if trained is None:
            raise ValueError("pass `features` explicitly for a bare callable")
        features = trained
    features = list(features)
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
