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
from scipy.stats import spearmanr

from ..errors import ConfigValidationError
from ..estimators import logistic_fit
from ..explain import attribution_summary
from ..flexfit import GbtConfig, gbt_train
from ..flexfit.gbt import predict_matrix as _gbt_predict
from ..rng import derive_seed, substream
from ..scm import sample
from .generators import blended_logit_features, blended_logit_model
from .report import write_run

# the features that drive the outcome; attribution mass elsewhere is leakage
RELEVANT = ("x1", "x2")


def _log_loss(y, p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _misclass(y, p):
    return float(np.mean((p >= 0.5) != (y >= 0.5)))


def run_fig5_sweep(cfg):
    p = cfg.params
    q_grid = [float(q) for q in p["q_grid"]]
    coefficients = tuple(float(c) for c in p["coefficients"])
    proxy_sd = float(p["proxy_sd"])
    n_noise_features = int(p["n_noise_features"])
    for q in q_grid:
        if not 0.0 <= q <= 1.0:
            raise ConfigValidationError(
                f"q_grid: blend weight {q!r} outside [0, 1]")
    if len(coefficients) != 6:
        raise ConfigValidationError(
            f"coefficients: expected six link coefficients, got "
            f"{len(coefficients)}")
    features = blended_logit_features(n_noise_features)
    for key in ("eval_rows", "background_rows"):
        if not 1 <= int(p[key]) <= cfg.n:
            raise ConfigValidationError(
                f"{key} = {p[key]} must lie in 1..n (n = {cfg.n})")
    train_seed = derive_seed(cfg.seed, 0)
    test_seed = derive_seed(cfg.seed, 1)
    # fixed evaluation/background row subsets, shared across the grid
    eval_rows = np.sort(substream(cfg.seed, 2).choice(
        cfg.n, size=int(p["eval_rows"]), replace=False))
    bg_rows = np.sort(substream(cfg.seed, 3).choice(
        cfg.n, size=int(p["background_rows"]), replace=False))

    sweep_rows, mass_rows = [], []
    series = {k: [] for k in ("logit_logloss", "gbt_logloss", "bayes_logloss",
                              "logit_irr_mass", "gbt_irr_mass")}
    for q in q_grid:
        model = blended_logit_model(q, coefficients, proxy_sd,
                                    n_noise_features)
        # same seeds for every q: q enters only the link, so the base draws
        # are identical across the grid and the comparison is paired
        train = sample(model, cfg.n, train_seed)
        test = sample(model, cfg.n, test_seed)
        y_test = test.column("y")

        logit = logistic_fit(train, "y", features)
        beta = logit.coefficients

        def logit_prob(X, beta=beta):
            return expit(beta[0] + X @ beta[1:])

        gbt = gbt_train(train, "y", features,
                        GbtConfig(n_trees=int(p["gbt_trees"]),
                                  depth=int(p["gbt_depth"]),
                                  learning_rate=float(p["gbt_learning_rate"]),
                                  min_leaf=int(p["gbt_min_leaf"]),
                                  n_bins=int(p["gbt_bins"]),
                                  loss="logistic"))

        X_test = test.matrix(features)
        logit_p = logit_prob(X_test)
        gbt_p = _gbt_predict(gbt, X_test)
        point = {
            "q": q,
            "logit_logloss": _log_loss(y_test, logit_p),
            "gbt_logloss": _log_loss(y_test, gbt_p),
            "bayes_logloss": _log_loss(y_test, test.column("p")),
            "logit_misclass": _misclass(y_test, logit_p),
            "gbt_misclass": _misclass(y_test, gbt_p),
        }

        eval_set = test.take(eval_rows)
        background = train.take(bg_rows)
        logit_att = attribution_summary(logit_prob, eval_set, background,
                                        RELEVANT, features=features)
        gbt_att = attribution_summary(gbt, eval_set, background,
                                      RELEVANT, features=features)
        point["logit_relevant_mass"] = logit_att.relevant_mass
        point["logit_irrelevant_mass"] = logit_att.irrelevant_mass
        point["gbt_relevant_mass"] = gbt_att.relevant_mass
        point["gbt_irrelevant_mass"] = gbt_att.irrelevant_mass
        sweep_rows.append([point[k] for k in (
            "q", "logit_logloss", "gbt_logloss", "bayes_logloss",
            "logit_misclass", "gbt_misclass", "logit_relevant_mass",
            "logit_irrelevant_mass", "gbt_relevant_mass",
            "gbt_irrelevant_mass")])
        for att, mname in ((logit_att, "logistic"), (gbt_att, "gbt")):
            mass_rows.append([q, mname]
                             + [float(v) for v in att.mean_abs_phi])

        series["logit_logloss"].append(point["logit_logloss"])
        series["gbt_logloss"].append(point["gbt_logloss"])
        series["bayes_logloss"].append(point["bayes_logloss"])
        series["logit_irr_mass"].append(point["logit_irrelevant_mass"])
        series["gbt_irr_mass"].append(point["gbt_irrelevant_mass"])

    loss_rho = float(spearmanr(q_grid, series["logit_logloss"]).statistic)
    mass_rho = float(spearmanr(q_grid, series["logit_irr_mass"]).statistic)
    ll = series["logit_logloss"]
    results = {
        "q_grid": q_grid,
        "relevant_features": list(RELEVANT),
        "logit_logloss_spearman": loss_rho,
        "logit_irrelevant_mass_spearman": mass_rho,
        "logit_logloss_strictly_increasing": bool(
            all(b > a for a, b in zip(ll, ll[1:]))),
        "gbt_to_logit_logloss_ratio_at_qmax": series["gbt_logloss"][-1]
        / series["logit_logloss"][-1],
        "gbt_to_logit_irrelevant_mass_ratio_at_qmax":
        series["gbt_irr_mass"][-1] / series["logit_irr_mass"][-1],
        "bayes_logloss_at_qmax": series["bayes_logloss"][-1],
    }
    header = ["q", "logit_logloss", "gbt_logloss", "bayes_logloss",
              "logit_misclass", "gbt_misclass", "logit_relevant_mass",
              "logit_irrelevant_mass", "gbt_relevant_mass",
              "gbt_irrelevant_mass"]
    return write_run(cfg.out_dir, name=cfg.name, seed=cfg.seed, n=cfg.n,
                     params=cfg.params, results=results,
                     tables={
                         "sweep": (header, sweep_rows),
                         "masses": (["q", "model"] + features, mass_rows),
                     })
