"""Exact Shapley-value attribution by coalition enumeration.

The value of a coalition S at instance x is the mean model output over the
background rows with the S-features overwritten by x's values (the
interventional / marginal expectation). With d features all 2^d coalition
values are computed, and

    phi_j = sum over S not containing j of
            |S|! (d - |S| - 1)! / d! * (v(S + j) - v(S)).

A black-box model (a callable, or the MLP) is evaluated on every
coalition-masked row, in blocks of the coalition grid. A boosted-tree
ensemble with cell tables is handed to ``gbt.coalition_outputs``, whose
outputs equal its predictions on that grid bit for bit. For every model
the prediction is the full-coalition output of that same call, so it
equals a batch prediction, and the rows explained are checked as the
background rows are.

Exact enumeration is refused beyond 12 features; every experiment here
uses at most 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from math import factorial

import numpy as np

from .dataset import (_CHUNK_ROWS, _as_real, _distinct_features,
                      _float_rows, _row_matrix)
from .errors import (EmptyBackgroundError, EmptyEvaluationError,
                     EmptyFeatureListError, FeatureListRequiredError,
                     FeatureMismatchError, RowShapeError,
                     TooManyFeaturesError, UnknownColumnError, names)
from .flexfit import GbtModel, gbt, predict_on_matrix

_MAX_FEATURES = 12


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
    if isinstance(model, GbtModel) and model.cell_tables is not None:
        return partial(gbt.coalition_outputs, model)

    def grid_outputs(masks, Ec, B):
        n_coal, d = masks.shape
        out = np.empty((n_coal, Ec.shape[0], B.shape[0]))
        # coalitions in blocks of at most _CHUNK_ROWS grid elements
        block = max(1, _CHUNK_ROWS // (Ec.shape[0] * B.shape[0] * d))
        for lo in range(0, n_coal, block):
            # grid[c, e, b, j] = Ec[e, j] if j in coalition c else B[b, j]
            grid = np.where(masks[lo:lo + block, None, None, :],
                            Ec[None, :, None, :], B[None, None, :, :])
            grid = grid.reshape(-1, d)
            rows = (model(grid) if callable(model)
                    else predict_on_matrix(model, grid))
            out[lo:lo + block] = rows.reshape(-1, Ec.shape[0], B.shape[0])
        return out
    return grid_outputs


def _feature_list(model, features):
    """The features to explain: a trained model's own feature names, which
    an explicit list must repeat in order; a bare callable needs the
    list, and no name may appear twice."""
    trained = getattr(model, "feature_names", None)
    if features is None:
        if trained is None:
            raise FeatureListRequiredError(
                "pass `features` explicitly for a bare callable")
        features = trained
    features = names(features)
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
    return _distinct_features(features)


def _instance_value(instance: dict, f: str) -> float:
    """A mapping instance's value of feature ``f``, as a real number by
    ``_as_real``'s rule; ``None``, which numpy would read as NaN, keeps
    ``float()``'s TypeError."""
    if f not in instance:
        raise UnknownColumnError(f"instance has no feature {f!r}")
    value = instance[f]
    try:
        return float(value if value is None else _as_real(value))
    except ValueError:
        raise RowShapeError(f"instance feature {f!r} is not a number: "
                            f"{value!r}") from None


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
        instance = [_instance_value(instance, f) for f in features]
    x = _row_matrix(_float_rows(instance, "instance").reshape(1, -1),
                    features, "instance")
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
    features as the background is; zero rows raise EmptyEvaluationError,
    and a ``relevant`` name that is not a feature FeatureMismatchError."""
    features, B = _features_and_background(model, features, background)
    E = _row_matrix(eval_set, features, "evaluation rows")
    if E.shape[0] == 0:
        raise EmptyEvaluationError("evaluation rows: none to explain")
    relevant = set(names(relevant))
    unknown = sorted(relevant - set(features))
    if unknown:
        raise FeatureMismatchError(f"relevant names {unknown} are not "
                                   f"among the features {features}")
    irrelevant = [f for f in features if f not in relevant]
    relevant = [f for f in features if f in relevant]
    phi, _, _ = _phi_matrix(_coalition_outputs(model), E, B)
    mean_abs = np.abs(phi).mean(axis=0)
    idx = {f: i for i, f in enumerate(features)}
    rel_mass = float(sum(mean_abs[idx[f]] for f in relevant))
    irr_mass = float(sum(mean_abs[idx[f]] for f in irrelevant))
    return AttributionSummary(features, mean_abs, relevant, irrelevant,
                              rel_mass, irr_mass)
