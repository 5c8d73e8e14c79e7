"""End-to-end acceptance gate for the toolkit.

Each test is one released guarantee, so a verbose run prints exactly one
verdict line per guarantee. Tolerances and time budgets are stated inline;
reference numbers marked as derived come from the package's own analytic
oracles (population covariance / regression, closed-form MI), not from any
fitted output.
"""

import csv
import json
import time

import numpy as np
import pytest

from dsep_helpers import (DAG_COUNTS, all_dags, all_queries,
                          moral_separated_batch, reachable_separated_batch,
                          reflexive_closure)
from scmlab import (Dag, Dataset, GbtConfig, MlpConfig, gbt_train,
                    gradient_check, mlp_train, mutual_information, ols_fit,
                    pearson, shapley_exact)
from scmlab.experiments import build_config, run
from scmlab.experiments.generators import (confounded_chain_model,
                                           correlated_pair_model,
                                           exogenous_predictor_model,
                                           shape_pair_model)
from scmlab.graph import d_separated, minimal_backdoor_sets
from scmlab.rng import normal_column, substream
from scmlab.scm import population_regression, sample


def read_report(out_dir):
    with open(out_dir / "report.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_table(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_01_ols_recovers_coefficients_across_seeds():
    # n = 5000; each component within +-0.05 of truth on >= 19 of 20 seeds;
    # the reference estimates (3.31, 0.11, 0.31, 0.50) fall inside the
    # per-component [min, max] intervals; whole loop under a second.
    theta = np.array([3.3, 0.1, 0.3, 0.5])
    reference = np.array([3.31, 0.11, 0.31, 0.50])
    model = exogenous_predictor_model(theta=tuple(theta))
    start = time.perf_counter()
    estimates = np.array([
        ols_fit(sample(model, 5000, seed), "y", ["x1", "x2", "x3"]).coefficients
        for seed in range(20)])
    elapsed = time.perf_counter() - start
    within = np.abs(estimates - theta) <= 0.05
    assert (within.sum(axis=0) >= 19).all()
    lo, hi = estimates.min(axis=0), estimates.max(axis=0)
    assert ((lo <= reference) & (reference <= hi)).all()
    assert elapsed < 1.0


def test_criterion_02_correlation_table_matches_analytic_values():
    # Sampled r within +-0.03 of the population-covariance values, and the
    # two-decimal reference row within +-0.03 of the sampled r.
    from scmlab.scm import population_covariance

    model = confounded_chain_model()
    data = sample(model, 5000, 7)
    cov = population_covariance(model)
    idx = {name: i for i, name in enumerate(model.nodes)}
    yi = idx["y"]
    reference = [0.92, -0.92, -0.58, -0.56, 0.76, 0.91, -0.93, 1.00]
    for k in range(8):
        i = idx[f"x{k}"]
        analytic = cov[i, yi] / np.sqrt(cov[i, i] * cov[yi, yi])
        r = pearson(data, f"x{k}", "y").r
        assert abs(r - analytic) <= 0.03, f"x{k} vs analytic"
        assert abs(r - reference[k]) <= 0.03, f"x{k} vs reference"
    assert abs(analytic - 0.997) < 5e-4  # x7, the near-deterministic proxy
    i0 = idx["x0"]
    assert abs(cov[i0, yi] / np.sqrt(cov[i0, i0] * cov[yi, yi]) - 0.921) < 5e-4


def test_criterion_03_adjustment_strategies_hit_population_values():
    model = confounded_chain_model()
    data = sample(model, 5000, 7)

    naive = ols_fit(data, "y", ["x0"])
    naive_oracle = population_regression(model, "y", ["x0"])[1]
    assert abs(naive_oracle - 1.2889) < 5e-5
    assert abs(naive.coefficients[1] - naive_oracle) <= 3.0 * naive.stderr[1]

    kitchen = ols_fit(data, "y", [f"x{k}" for k in range(8)])
    assert abs(kitchen.coefficients[1]) <= 0.05  # x0's coefficient

    backdoor = ols_fit(data, "y", ["x0", "x3"])
    assert abs(backdoor.coefficients[1] - 2.0) <= 0.03

    mediator = ols_fit(data, "y", ["x0", "x1"])
    assert abs(mediator.coefficients[2] - (-1.0)) <= 3.0 * mediator.stderr[2]


def hidden_confounder_graph():
    """x -> y confounded by an unobserved z: the textbook unidentifiable
    query when z cannot be adjusted for."""
    return Dag(["x", "y", "z"], [("z", "x"), ("z", "y"), ("x", "y")],
               observed={"x", "y"})


def test_criterion_04_backdoor_sets_and_exhaustive_dsep_agreement():
    start = time.perf_counter()
    graph = Dag.from_structural_model(confounded_chain_model())
    analysis = minimal_backdoor_sets(graph, "x0", "y")
    assert analysis.minimal_sets == [("x2",), ("x3",)]
    assert analysis.identifiable is True

    hidden = minimal_backdoor_sets(hidden_confounder_graph(), "x", "y")
    assert hidden.identifiable is False
    assert hidden.minimal_sets == []

    # both d-separation algorithms agree on every query over every labeled
    # DAG with up to five nodes (vectorized twins of the two implementations)
    total = 0
    rng = substream(0, 0xACC4)
    names = [f"v{i}" for i in range(5)]
    for m in range(2, 6):
        stack = all_dags(m)
        assert stack.shape[0] == DAG_COUNTS[m]
        closure = reflexive_closure(stack)
        for x, y, Z in all_queries(m):
            sep_moral = moral_separated_batch(stack, closure, x, y, Z)
            sep_reach = reachable_separated_batch(stack, closure, x, y, Z)
            assert np.array_equal(sep_moral, sep_reach), (m, x, y, Z)
            total += sep_moral.size
            # spot-check the package's scalar implementations on one
            # random DAG per query
            d = int(rng.integers(stack.shape[0]))
            g = Dag(names[:m],
                    [(names[i], names[j]) for i in range(m) for j in range(m)
                     if stack[d, i, j]])
            for method in ("reachable", "moral"):
                assert d_separated(g, {names[x]}, {names[y]},
                                   {names[v] for v in Z},
                                   method=method) == bool(sep_moral[d])
    elapsed = time.perf_counter() - start
    assert total == 3 * 1 + 25 * 6 + 543 * 24 + 29281 * 80
    assert elapsed < 10.0


def test_criterion_05_mutual_information_calibration():
    # Gaussian pairs: median KSG estimate over 20 seeds within 0.05 nats of
    # -0.5*ln(1-rho^2) at n = 5000, k = 3. Quadratic shape: correlation
    # blind (|r| < 0.1) while MI sees the dependence (> 0.3 nats).
    for rho in (0.3, 0.6, 0.8, 0.9):
        closed_form = -0.5 * np.log(1.0 - rho * rho)
        estimates = [
            mutual_information(sample(correlated_pair_model(rho), 5000, seed),
                               "x", "y", k=3).mi
            for seed in range(20)]
        assert abs(np.median(estimates) - closed_form) <= 0.05, rho

    quad = sample(shape_pair_model("quadratic"), 2000, 7)
    assert abs(pearson(quad, "x", "y").r) < 0.1
    assert mutual_information(quad, "x", "y", k=3).mi > 0.3


def test_criterion_06_mlp_tracks_sinusoid_linear_cannot(fig3_report):
    report_dir, seconds = fig3_report
    results = read_report(report_dir)["results"]
    noise_var = results["noise_variance"]
    assert noise_var == pytest.approx(0.09)
    # power of amplitude*sin(frequency*x) under x ~ U(-L, L)
    L, f, amp = 4.0, 3.0, 2.0
    sine_power = amp ** 2 / 2.0 * (1.0 - np.sin(2 * f * L) / (2 * f * L))
    assert results["mlp_test_mse"] <= 1.5 * noise_var
    assert results["linear_test_mse"] >= noise_var + 0.5 * sine_power
    assert results["mse_ratio_test"] < 0.25
    assert seconds < 60.0


def test_criterion_07_sweep_losses_and_attribution_masses(fig5_report):
    results = read_report(fig5_report)["results"]
    assert results["logit_logloss_spearman"] > 0.8
    assert results["logit_logloss_strictly_increasing"] is True
    assert results["gbt_to_logit_logloss_ratio_at_qmax"] <= 0.80
    assert results["logit_irrelevant_mass_spearman"] > 0.8
    assert results["gbt_to_logit_irrelevant_mass_ratio_at_qmax"] < 0.25
    # the table backs the summary: recheck monotonicity from the raw column
    rows = read_table(fig5_report / "sweep.csv")
    losses = [float(row["logit_logloss"]) for row in rows]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_criterion_08_shapley_efficiency_linearity_dummy():
    n = 500
    cols = {f"x{j}": normal_column(1, (j,), n) for j in range(4)}
    y = (np.tanh(cols["x0"]) + cols["x1"] * cols["x2"]
         + 0.1 * normal_column(1, (9,), n))
    data = Dataset({**cols, "y": y})
    features = [f"x{j}" for j in range(4)]
    background = np.column_stack([cols[f][:32] for f in features])
    instances = np.column_stack(
        [normal_column(2, (j,), 1000) for j in range(4)])

    mlp = mlp_train(data, "y", features,
                    MlpConfig(hidden=(8,), learning_rate=0.05, momentum=0.9,
                              epochs=500, seed=0))
    gbt = gbt_train(data, "y", features, GbtConfig(n_trees=60, depth=3))
    for model in (mlp, gbt):
        worst = max(abs(shapley_exact(model, instances[i], background)
                        .efficiency_residual)
                    for i in range(1000))
        assert worst < 1e-9

    # linear closed form: phi_j = w_j * (x_j - background mean)
    w = np.array([1.5, -2.0, 0.25, 3.0])
    att = shapley_exact(lambda X: X @ w + 0.7, instances[0], background,
                        features=features)
    expected = w * (instances[0] - background.mean(axis=0))
    assert np.max(np.abs(att.phi - expected)) < 1e-9

    # a feature the model ignores is attributed exactly zero
    att = shapley_exact(lambda X: X[:, 0] * X[:, 2], instances[1],
                        background, features=features)
    assert att.phi[1] == 0.0 and att.phi[3] == 0.0


def test_criterion_09_gradient_check_and_normal_equations():
    X = np.column_stack([normal_column(3, (j,), 40) for j in range(2)])
    y_true = np.sin(X[:, 0]) + X[:, 1]
    err = gradient_check(MlpConfig(hidden=(5,), activation="tanh"), X, y_true,
                         n_points=20, seed=1)
    assert err < 1e-4

    n = 2000
    cols = {f"x{j}": normal_column(4, (j,), n) for j in range(3)}
    y = (1.0 + 2.0 * cols["x0"] - cols["x1"] + 0.5 * cols["x2"]
         + normal_column(4, (9,), n))
    fit = ols_fit(Dataset({**cols, "y": y}), "y", ["x0", "x1", "x2"])
    design = np.column_stack([np.ones(n), cols["x0"], cols["x1"], cols["x2"]])
    residual = design.T @ design @ fit.coefficients - design.T @ y
    assert np.linalg.norm(residual) < 1e-8 * np.linalg.norm(y)


# small enough to run twice each, large enough to exercise every code path
_RERUN_CONFIGS = {
    "table2": dict(n=500),
    "table3": dict(n=500),
    "part2_regressions": dict(n=500),
    "backdoor_report": dict(),
    "fig2_panels": dict(n=300),
    "fig3_fit": dict(n=120, overrides={"epochs": "300", "hidden": "8",
                                       "grid_step": "0.5"}),
    "fig5_sweep": dict(n=600, overrides={"q_grid": "0 0.5 1",
                                         "gbt_trees": "40",
                                         "gbt_min_leaf": "20",
                                         "eval_rows": "20",
                                         "background_rows": "16"}),
    "overfit_demo": dict(n=60, overrides={"n_candidates": "6"}),
}


def test_criterion_10_every_experiment_reruns_byte_identical(tmp_path):
    from scmlab.experiments import list_experiments

    assert sorted(_RERUN_CONFIGS) == [name for name, _ in list_experiments()]
    for name, kwargs in _RERUN_CONFIGS.items():
        files = {}
        for attempt in ("a", "b"):
            out = tmp_path / name / attempt
            cfg = build_config(name, out_dir=str(out), **kwargs)
            files[attempt] = run(cfg)
        assert files["a"] == files["b"]
        for fname in files["a"]:
            first = (tmp_path / name / "a" / fname).read_bytes()
            second = (tmp_path / name / "b" / fname).read_bytes()
            assert first == second, f"{name}/{fname}"
