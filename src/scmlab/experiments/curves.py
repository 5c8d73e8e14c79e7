"""Linear regression versus a small neural network on a sinusoid-over-trend
target, with dense prediction curves for plotting."""

from __future__ import annotations

import numpy as np

from ..errors import ConfigValidationError
from ..estimators import ols_fit
from ..flexfit import MlpConfig, mlp_train, predict_on_matrix
from ..rng import derive_seed
from ..scm import sample
from .generators import sine_trend_mean, sine_trend_model
from .report import write_run


def _mse(y, pred):
    return float(np.mean((y - pred) ** 2))


def run_fig3_fit(cfg):
    p = cfg.params
    mlp_cfg = MlpConfig(hidden=p["hidden"], activation=p["activation"],
                        learning_rate=p["learning_rate"],
                        epochs=p["epochs"], momentum=p["momentum"],
                        init_scale=p["init_scale"],
                        seed=derive_seed(cfg.seed, 2))
    try:
        grid = np.arange(p["x_lo"], p["x_hi"] + p["grid_step"] / 2.0,
                         p["grid_step"])
    except ValueError as exc:   # too many points, or an infinite range
        raise ConfigValidationError(
            f"grid_step = {p['grid_step']} gives no curve grid over "
            f"[{p['x_lo']}, {p['x_hi']}]: {exc}") from None
    model = sine_trend_model(trend=p["trend"], amplitude=p["amplitude"],
                             frequency=p["frequency"], x_lo=p["x_lo"],
                             x_hi=p["x_hi"], noise_sd=p["noise_sd"])
    train = sample(model, cfg.n, derive_seed(cfg.seed, 0))
    test = sample(model, cfg.n, derive_seed(cfg.seed, 1))

    lin = ols_fit(train, "y", ["x"])

    def lin_pred(x):
        return lin.coefficients[0] + lin.coefficients[1] * x

    mlp = mlp_train(train, "y", ["x"], mlp_cfg)

    def mlp_pred(x):
        return predict_on_matrix(mlp, x[:, None])

    mean_fn = sine_trend_mean(trend=p["trend"], amplitude=p["amplitude"],
                              frequency=p["frequency"])
    metrics = {}
    for split_name, data in (("train", train), ("test", test)):
        x, y = data.column("x"), data.column("y")
        metrics[f"linear_{split_name}_mse"] = _mse(y, lin_pred(x))
        metrics[f"mlp_{split_name}_mse"] = _mse(y, mlp_pred(x))
    metrics["mse_ratio_test"] = metrics["mlp_test_mse"] / metrics["linear_test_mse"]
    metrics["noise_variance"] = p["noise_sd"] ** 2

    curve_rows = [[float(x), float(mean_fn(x)), float(lin_pred(x)), float(m)]
                  for x, m in zip(grid, mlp_pred(grid))]
    fit_rows = [["linear", metrics["linear_train_mse"],
                 metrics["linear_test_mse"]],
                ["mlp", metrics["mlp_train_mse"], metrics["mlp_test_mse"]]]

    results = dict(metrics)
    results["linear_coefficients"] = [float(c) for c in lin.coefficients]
    results["mlp_final_loss"] = float(mlp.loss_history[-1])
    return write_run(cfg.out_dir, name=cfg.name, seed=cfg.seed, n=cfg.n,
                     params=cfg.params, results=results,
                     tables={
                         "fit": (["model", "train_mse", "test_mse"], fit_rows),
                         "curve": (["x", "true_mean", "linear_pred",
                                    "mlp_pred"], curve_rows),
                     })
