"""Coefficient-recovery and correlation-table experiments on the two
linear-Gaussian demonstration models."""

from __future__ import annotations

import numpy as np

from ..estimators import ols_fit, pearson
from ..scm import (population_covariance, population_regression, sample,
                   total_effect_linear)
from .generators import confounded_chain_model, exogenous_predictor_model


def run_table2(cfg):
    """OLS on the exogenous-predictor model: the benign case where the
    estimated coefficients match the generating ones."""
    theta = cfg.params["theta"]
    model = exogenous_predictor_model(theta=theta)
    data = sample(model, cfg.n, cfg.seed)
    fit = ols_fit(data, "y", ["x1", "x2", "x3"])
    # theta_0 multiplies the constant predictor, so it surfaces as the intercept
    rows = []
    for i, term in enumerate(fit.terms):
        rows.append([f"theta_{i}", term, fit.coefficients[i], fit.stderr[i],
                     fit.p_values[i], theta[i],
                     abs(fit.coefficients[i] - theta[i])])
    results = {
        "theta_hat": [float(c) for c in fit.coefficients],
        "theta_true": theta,
        "max_abs_error": float(np.max(np.abs(fit.coefficients - np.asarray(theta)))),
        "residual_variance": fit.residual_variance,
    }
    return results, {"coefficients": (
        ["parameter", "term", "estimate", "stderr", "p_value", "truth",
         "abs_error"], rows)}


def run_table3(cfg):
    """Pairwise correlations of every predictor with the outcome on the
    confounded-chain model, next to their analytic values."""
    model = confounded_chain_model()
    data = sample(model, cfg.n, cfg.seed)
    cov = population_covariance(model)
    idx = {name: i for i, name in enumerate(model.nodes)}
    yi = idx["y"]
    rows = []
    errs = []
    for k in range(8):
        name = f"x{k}"
        res = pearson(data, name, "y")
        analytic = cov[idx[name], yi] / np.sqrt(cov[idx[name], idx[name]] * cov[yi, yi])
        rows.append([name, res.r, res.p, float(analytic),
                     abs(res.r - float(analytic)), res.n])
        errs.append(abs(res.r - float(analytic)))
    results = {
        "pairs": [f"x{k}~y" for k in range(8)],
        "max_abs_error": float(max(errs)),
    }
    return results, {"correlations": (
        ["predictor", "r", "p_value", "analytic_r", "abs_error", "n"], rows)}


_SCENARIOS = [
    ("naive", ["x0"]),
    ("all_variables", ["x0", "x1", "x2", "x3", "x4", "x5", "x6", "x7"]),
    ("mediator", ["x0", "x1"]),
    ("backdoor", ["x0", "x3"]),
]


def run_part2_regressions(cfg):
    """Four regressions for the effect of x0 on y — naive, kitchen-sink,
    mediator-adjusted, backdoor-adjusted — each against the population
    coefficients it converges to, with the causal total effect on the side.

    A scenario row is flagged when an estimate misses its population value
    by more than 4 standard errors.
    """
    model = confounded_chain_model()
    data = sample(model, cfg.n, cfg.seed)
    rows = []
    flagged = []
    summary = {}
    for scenario, regressors in _SCENARIOS:
        fit = ols_fit(data, "y", regressors)
        oracle = population_regression(model, "y", regressors)
        for i, term in enumerate(fit.terms):
            err = abs(fit.coefficients[i] - oracle[i])
            n_se = err / fit.stderr[i] if fit.stderr[i] > 0 else np.inf
            flag = bool(n_se > 4.0)
            if flag:
                flagged.append(f"{scenario}:{term}")
            rows.append([scenario, term, fit.coefficients[i], fit.stderr[i],
                         fit.p_values[i], oracle[i], err, n_se, flag])
        summary[scenario] = {
            "terms": fit.terms,
            "estimates": [float(c) for c in fit.coefficients],
            "oracle": [float(o) for o in oracle],
            "max_abs_error": float(np.max(np.abs(fit.coefficients - oracle))),
        }
    results = {
        "scenarios": summary,
        "total_effect_x0_y": float(total_effect_linear(model, "x0", "y")),
        "flagged": flagged,
        "any_flagged": bool(flagged),
    }
    return results, {"regressions": (
        ["scenario", "term", "estimate", "stderr", "p_value",
         "population_value", "abs_error", "n_stderr", "flagged"], rows)}
