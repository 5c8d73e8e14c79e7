"""Linear-versus-flexible classifier sweep over a nonlinearity blend.

A binary outcome's log-odds interpolate between a linear and a quadratic
function of the driving feature (blend weight q).  At each grid point a
logistic regression and a gradient-boosted ensemble are fit on the same
draws, scored on held-out rows, and explained with exact Shapley values.
As q grows the logistic model's loss rises and its attributions leak onto
proxy and noise features; the boosted model tracks the Bayes loss and keeps
its attribution mass on the true drivers.

Base draws are shared across the grid (only q changes), so the loss and
attribution curves are paired comparisons rather than independent
replications — monotonicity in the report reflects the models, not
draw-to-draw noise.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..dataset import _linear
from ..estimators import logistic_fit
from ..explain import attribution_summary
from ..flexfit import GbtConfig, gbt_train
from ..flexfit.gbt import predict_matrix as _gbt_predict
from ..rng import derive_seed, substream
from ..scm import sample
from .generators import blended_logit_features, blended_logit_model

# the features that drive the outcome; attribution mass elsewhere is leakage
RELEVANT = ("x1", "x2")


def _average_ranks(x):
    """Ranks 1..n of x, tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="mergesort")
    s = x[order]
    first = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    counts = np.diff(np.r_[first, s.size])
    ranks = np.empty(s.size)
    ranks[order] = np.repeat(first + 1 + (counts - 1) / 2, counts)
    return ranks


def _spearman(x, y):
    """Spearman's rank correlation, computed as ``scipy.stats.spearmanr``
    computes it; NaN when an input is constant or holds a NaN."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if ((x == x[0]).all() or (y == y[0]).all()
            or np.isnan(x).any() or np.isnan(y).any()):
        return float("nan")
    ranked = np.column_stack((_average_ranks(x), _average_ranks(y)))
    # [1, 0], as spearmanr reads it: corrcoef's matrix is not exactly
    # symmetric
    return float(np.corrcoef(ranked, rowvar=False)[1, 0])


def _log_loss(y, p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _misclass(y, p):
    return float(np.mean((p >= 0.5) != (y >= 0.5)))


def run_fig5_sweep(cfg):
    p = cfg.params
    q_grid = p["q_grid"]
    features = blended_logit_features(p["n_noise_features"])
    gbt_cfg = GbtConfig(n_trees=p["gbt_trees"], depth=p["gbt_depth"],
                        learning_rate=p["gbt_learning_rate"],
                        min_leaf=p["gbt_min_leaf"], n_bins=p["gbt_bins"],
                        loss="logistic")
    train_seed = derive_seed(cfg.seed, 0)
    test_seed = derive_seed(cfg.seed, 1)
    # fixed evaluation/background row subsets, shared across the grid
    eval_rows = np.sort(substream(cfg.seed, 2).choice(
        cfg.n, size=p["eval_rows"], replace=False))
    bg_rows = np.sort(substream(cfg.seed, 3).choice(
        cfg.n, size=p["background_rows"], replace=False))

    points, mass_rows = [], []       # points: one sweep.csv row per q
    for q in q_grid:
        model = blended_logit_model(q, p["coefficients"], p["proxy_sd"],
                                    p["n_noise_features"])
        # same seeds for every q: q enters only the link, so the base draws
        # are identical across the grid and the comparison is paired
        train = sample(model, cfg.n, train_seed)
        test = sample(model, cfg.n, test_seed)
        y_test = test.column("y")

        logit = logistic_fit(train, "y", features)
        beta = logit.coefficients

        def logit_prob(X, beta=beta):
            return expit(_linear(beta[0], beta[1:], X.T, len(X)))

        gbt = gbt_train(train, "y", features, gbt_cfg)
        X_test = test.matrix(features)
        logit_p = logit_prob(X_test)
        gbt_p = _gbt_predict(gbt, X_test)

        eval_set = test.take(eval_rows)
        background = train.take(bg_rows)
        logit_att = attribution_summary(logit_prob, eval_set, background,
                                        RELEVANT, features=features)
        gbt_att = attribution_summary(gbt, eval_set, background,
                                      RELEVANT, features=features)
        points.append({
            "q": q,
            "logit_logloss": _log_loss(y_test, logit_p),
            "gbt_logloss": _log_loss(y_test, gbt_p),
            "bayes_logloss": _log_loss(y_test, test.column("p")),
            "logit_misclass": _misclass(y_test, logit_p),
            "gbt_misclass": _misclass(y_test, gbt_p),
            "logit_relevant_mass": logit_att.relevant_mass,
            "logit_irrelevant_mass": logit_att.irrelevant_mass,
            "gbt_relevant_mass": gbt_att.relevant_mass,
            "gbt_irrelevant_mass": gbt_att.irrelevant_mass,
        })
        for att, mname in ((logit_att, "logistic"), (gbt_att, "gbt")):
            mass_rows.append([q, mname]
                             + [float(v) for v in att.mean_abs_phi])

    ll = [pt["logit_logloss"] for pt in points]
    irr = [pt["logit_irrelevant_mass"] for pt in points]
    last = points[-1]
    results = {
        "q_grid": q_grid,
        "relevant_features": list(RELEVANT),
        "logit_logloss_spearman": _spearman(q_grid, ll),
        "logit_irrelevant_mass_spearman": _spearman(q_grid, irr),
        "logit_logloss_strictly_increasing": bool(
            all(b > a for a, b in zip(ll, ll[1:]))),
        "gbt_to_logit_logloss_ratio_at_qmax": last["gbt_logloss"]
        / last["logit_logloss"],
        "gbt_to_logit_irrelevant_mass_ratio_at_qmax":
        last["gbt_irrelevant_mass"] / last["logit_irrelevant_mass"],
        "bayes_logloss_at_qmax": last["bayes_logloss"],
    }
    return results, {
        "sweep": (list(last), [list(pt.values()) for pt in points]),
        "masses": (["q", "model"] + features, mass_rows),
    }
