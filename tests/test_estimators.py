import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit

import scmlab.estimators as estimators
from scmlab import (Dataset, logistic_fit, mutual_information, ols_fit,
                    pearson)
from scmlab.errors import (ConfigValidationError, DegenerateColumnError,
                           InsufficientDataError, NonBinaryTargetError,
                           NonFiniteValueError, RankDeficientError,
                           SeparationError)
from scmlab.rng import normal_column, uniform_column


def make_data(**cols):
    return Dataset({k: np.asarray(v, dtype=np.float64)
                    for k, v in cols.items()})


def linear_data(n=2000, seed=0, beta=(1.5, -2.0, 0.5), noise_sd=1.0):
    x1 = normal_column(seed, (0,), n)
    x2 = normal_column(seed, (1,), n)
    y = beta[0] + beta[1] * x1 + beta[2] * x2 \
        + noise_sd * normal_column(seed, (2,), n)
    return make_data(x1=x1, x2=x2, y=y)


# --- data -----------------------------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(bad):
    # a NaN reached ols_fit as "LinAlgError: SVD did not converge"
    with pytest.raises(NonFiniteValueError, match="'y'"):
        make_data(x=[1.0, 2.0, 3.0], y=[1.0, bad, 3.0])
    with pytest.raises(NonFiniteValueError, match="'z'"):
        make_data(x=[1.0, 2.0, 3.0], z=[bad, 0.0, 0.0])


# --- OLS ------------------------------------------------------------------

def test_ols_exact_on_noiseless_data():
    d = linear_data(n=50, noise_sd=0.0)
    fit = ols_fit(d, "y", ["x1", "x2"])
    assert fit.terms == ["intercept", "x1", "x2"]
    assert np.allclose(fit.coefficients, [1.5, -2.0, 0.5], atol=1e-10)
    assert fit.residual_variance == pytest.approx(0.0, abs=1e-18)


def test_ols_matches_lstsq_and_classical_se():
    d = linear_data(n=500, seed=3)
    fit = ols_fit(d, "y", ["x1", "x2"])
    X = np.column_stack([np.ones(500), d.column("x1"), d.column("x2")])
    y = d.column("y")
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    assert np.allclose(fit.coefficients, beta)
    resid = y - X @ beta
    sigma2 = resid @ resid / (500 - 3)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(X.T @ X)))
    assert np.allclose(fit.stderr, se)
    t = fit.coefficients / se
    assert np.allclose(fit.p_values, 2 * stats.t.sf(np.abs(t), 497))
    assert fit.n_used == 500


def test_ols_normal_equation_residual_is_tiny():
    d = linear_data(n=800, seed=5)
    fit = ols_fit(d, "y", ["x1", "x2"])
    X = np.column_stack([np.ones(800), d.column("x1"), d.column("x2")])
    y = d.column("y")
    resid = X.T @ (y - X @ fit.coefficients)
    assert np.linalg.norm(resid) < 1e-8 * np.linalg.norm(y)


def test_ols_coef_and_se_accessors():
    fit = ols_fit(linear_data(), "y", ["x1", "x2"])
    assert fit.coef("x1") == pytest.approx(fit.coefficients[1])
    assert fit.se("intercept") == pytest.approx(fit.stderr[0])


def test_ols_insufficient_rows():
    d = make_data(x=[1.0, 2.0], y=[0.0, 1.0])
    with pytest.raises(InsufficientDataError):
        ols_fit(d, "y", ["x"])


def test_ols_rank_deficient_design():
    x = normal_column(0, (0,), 100)
    d = make_data(x=x, x_copy=x.copy(), y=x + 1.0)
    with pytest.raises(RankDeficientError):
        ols_fit(d, "y", ["x", "x_copy"])


@pytest.mark.parametrize("eps, ratio", [(1e-2, 4.9e-3), (1e-9, 4.9e-10),
                                        (1e-11, 4.9e-12)])
def test_ols_and_logistic_share_one_rank_rule(eps, ratio):
    # w = x + eps*z: the rule reads R's diagonal, whose smallest-to-largest
    # ratio is about twice X's singular-value ratio checked here (9.8e-3,
    # 9.8e-10 and 9.8e-12), so the last two sit just above and just below
    # the 1e-10 rule
    rng = np.random.default_rng(3)
    x, z, noise = rng.standard_normal((3, 400))
    d = make_data(x=x, w=x + eps * z, y=(x + noise > 0).astype(float))
    s = np.linalg.svd(estimators._columns(d, ["x", "w"]).T,
                      compute_uv=False)
    assert s[-1] / s[0] == pytest.approx(ratio, rel=0.05)
    for fit in (ols_fit, logistic_fit):
        if ratio < estimators._RANK_TOL:
            with pytest.raises(RankDeficientError):
                fit(d, "y", ["x", "w"])
        else:
            fit(d, "y", ["x", "w"])


@pytest.mark.parametrize("k, n", [(1, 3), (4, 60), (12, 40), (20, 22),
                                  (20, 300)])
def test_householder_core_matches_lstsq_and_classical_se(k, n):
    # k regressors and an intercept: designs of up to 21 columns, down to
    # n = p + 1 rows (one residual degree of freedom)
    rng = np.random.default_rng(k * 1000 + n)
    X = rng.standard_normal((n, k)) * rng.uniform(0.1, 10.0, k)
    y = X @ rng.standard_normal(k) + rng.standard_normal(n)
    d = make_data(**{f"x{i}": X[:, i] for i in range(k)}, y=y)
    fit = ols_fit(d, "y", [f"x{i}" for i in range(k)])
    D = np.column_stack([np.ones(n), X])
    beta = np.linalg.lstsq(D, y, rcond=None)[0]
    resid = y - D @ beta
    sigma2 = resid @ resid / (n - k - 1)
    se = np.sqrt(np.diag(sigma2 * np.linalg.inv(D.T @ D)))
    assert np.allclose(fit.coefficients, beta, rtol=1e-9, atol=1e-12)
    assert fit.residual_variance == pytest.approx(sigma2, rel=1e-9)
    assert np.allclose(fit.stderr, se, rtol=1e-9)
    R = np.linalg.qr(D, mode="r")
    assert np.allclose(np.abs(np.diag(estimators._triangularize(D.T.copy(),
                                                                k + 1))),
                       np.abs(np.diag(R)), rtol=1e-12)


def test_householder_core_leaves_a_zero_column_on_the_diagonal():
    d = linear_data(n=40, seed=2)
    d = make_data(x1=d.column("x1"), zero=np.zeros(40), x2=d.column("x2"),
                  y=d.column("y"), b=(d.column("y") > 1.5).astype(float))
    D = estimators._columns(d, ["x1", "zero", "x2"]).T
    diag = np.diag(estimators._triangularize(D.T.copy(), 4))
    assert diag[2] == 0.0           # no reflection, no division by zero
    assert np.isfinite(diag).all() and diag[3] != 0.0
    before = np.linalg.qr(D[:, :2], mode="r")
    assert np.allclose(np.abs(diag[:2]), np.abs(np.diag(before)))
    for fit, target in ((ols_fit, "y"), (logistic_fit, "b")):
        with pytest.raises(RankDeficientError, match="ratio 0.00e"):
            fit(d, target, ["x1", "zero", "x2"])


@pytest.mark.parametrize("regressors", [["x"], ["x", "z"]])
def test_rank_rule_refuses_a_column_whose_norm_overflows(regressors):
    # logistic_fit's X'X overflowed with a RuntimeWarning; a column after
    # the overflowing one reflects to NaN, which must fail the rule too
    x = normal_column(0, (0,), 50)
    d = make_data(x=1e160 * x, z=normal_column(0, (1,), 50),
                  y=x + normal_column(0, (2,), 50), b=(x > 0).astype(float))
    for fit, target in ((ols_fit, "y"), (logistic_fit, "b")):
        with pytest.raises(RankDeficientError):
            fit(d, target, regressors)


def test_least_squares_and_rank_checks_make_no_linalg_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refuse)
    d = linear_data(n=300, seed=4)
    fit = ols_fit(d, "y", ["x1", "x2"])
    assert np.allclose(fit.coefficients, [1.5, -2.0, 0.5], atol=0.2)
    assert pearson(d, "x1", "y").r < -0.5
    x = d.column("x1")
    dup = make_data(x=x, x_copy=x.copy(), y=(x > 0).astype(float))
    for fit in (ols_fit, logistic_fit):
        with pytest.raises(RankDeficientError):
            fit(dup, "y", ["x", "x_copy"])
    b = (uniform_column(4, (3,), 300) < expit(x)).astype(float)
    logit_fit = logistic_fit(make_data(x=x, b=b), "b", ["x"])
    assert 0.5 < logit_fit.coef("x") < 2.0 and logit_fit.se("x") > 0.0


# --- p-values: scipy.special forms of the scipy.stats survival functions --

def test_t_and_z_pvalues_equal_scipy_stats_bit_for_bit():
    t = np.concatenate([[0.0, -0.0, np.inf, -np.inf, 1e300, -1e300],
                        np.random.default_rng(0).standard_normal(30) * 4.0])
    dof = np.arange(1, 20_001)[:, None]
    assert np.array_equal(estimators._t_pvalue(t, dof),
                          2.0 * stats.t.sf(np.abs(t), dof))
    z = np.concatenate([t, np.random.default_rng(1).standard_normal(10_000)
                        * 10.0])
    assert np.array_equal(estimators._z_pvalue(z),
                          2.0 * stats.norm.sf(np.abs(z)))


def test_fitted_pvalues_equal_scipy_stats_forms():
    d = linear_data(n=120, seed=9)
    fit = ols_fit(d, "y", ["x1", "x2"])
    t = fit.coefficients / fit.stderr
    assert np.array_equal(fit.p_values, 2.0 * stats.t.sf(np.abs(t), 117))
    res = pearson(d, "x2", "y")
    t = res.r * np.sqrt((120 - 2) / (1.0 - res.r * res.r))
    assert res.p == float(2.0 * stats.t.sf(abs(t), 118))
    x = normal_column(4, (0,), 400)
    y = (uniform_column(4, (1,), 400) < 1.0 / (1.0 + np.exp(-x))).astype(float)
    logit = logistic_fit(make_data(x=x, y=y), "y", ["x"])
    z = logit.coefficients / logit.stderr
    assert np.array_equal(logit.p_values, 2.0 * stats.norm.sf(np.abs(z)))


# --- Pearson --------------------------------------------------------------

def test_pearson_matches_numpy():
    d = linear_data(n=400, seed=8)
    res = pearson(d, "x1", "y")
    assert res.r == pytest.approx(np.corrcoef(d.column("x1"),
                                              d.column("y"))[0, 1])
    t = res.r * np.sqrt((400 - 2) / (1 - res.r ** 2))
    assert res.p == pytest.approx(2 * stats.t.sf(abs(t), 398))
    assert res.n == 400


def test_pearson_perfect_correlation():
    x = np.linspace(0.0, 1.0, 20)
    res = pearson(make_data(x=x, y=3.0 * x + 1.0), "x", "y")
    assert res.r == 1.0
    assert res.p == 0.0
    res = pearson(make_data(x=x, y=-x), "x", "y")
    assert res.r == -1.0


def test_pearson_degenerate_and_short():
    with pytest.raises(DegenerateColumnError):
        pearson(make_data(x=np.ones(10), y=np.arange(10.0)), "x", "y")
    with pytest.raises(InsufficientDataError):
        pearson(make_data(x=[1.0, 2.0], y=[3.0, 4.0]), "x", "y")


# --- logistic regression --------------------------------------------------

def test_logistic_recovers_coefficients():
    n = 20000
    x1 = normal_column(1, (0,), n)
    x2 = normal_column(1, (1,), n)
    eta = 0.5 - 1.0 * x1 + 2.0 * x2
    y = (uniform_column(1, (2,), n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    fit = logistic_fit(make_data(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
    assert np.allclose(fit.coefficients, [0.5, -1.0, 2.0], atol=0.08)
    assert (fit.p_values[1:] < 1e-6).all()
    assert fit.residual_variance > 0.0     # mean deviance


def test_logistic_wald_inference_shape():
    n = 5000
    x = normal_column(2, (0,), n)
    y = (uniform_column(2, (1,), n) < 0.5).astype(float)  # x irrelevant
    fit = logistic_fit(make_data(x=x, y=y), "y", ["x"])
    assert abs(fit.coef("x")) < 0.1
    assert fit.p_values[1] > 0.01


def test_logistic_matches_closed_forms_and_dense_information():
    # intercept only: the MLE is logit(ybar), with information n ybar(1-ybar)
    n = 500
    y = (uniform_column(5, (0,), n) < 0.3).astype(float)
    fit = logistic_fit(make_data(y=y), "y", [])
    ybar = y.mean()
    assert fit.coef("intercept") == pytest.approx(np.log(ybar / (1.0 - ybar)),
                                                  rel=1e-9)
    assert fit.se("intercept") == pytest.approx(
        1.0 / np.sqrt(n * ybar * (1.0 - ybar)), rel=1e-9)
    # two regressors: the standard errors are the diagonal of the inverse
    # ridged information X'WX + 1e-10 I at the fitted coefficients
    x1, x2 = normal_column(6, (0,), n), 3.0 * normal_column(6, (1,), n)
    eta = 0.4 + 0.8 * x1 - 0.3 * x2
    y = (uniform_column(6, (2,), n) < expit(eta)).astype(float)
    fit = logistic_fit(make_data(x1=x1, x2=x2, y=y), "y", ["x1", "x2"])
    X = np.column_stack([np.ones(n), x1, x2])
    prob = expit(X @ fit.coefficients)
    info = X.T @ (X * (prob * (1.0 - prob))[:, None]) + 1e-10 * np.eye(3)
    assert np.allclose(fit.stderr, np.sqrt(np.diag(np.linalg.inv(info))),
                       rtol=1e-10, atol=0.0)
    assert np.abs(X.T @ (y - prob)).max() < 1e-8


# fig5's logistic fit at q = 1 on its registered training sample
_FIG5_LOGIT = """
from scmlab.estimators import logistic_fit
from scmlab.experiments import build_config
from scmlab.experiments.generators import (blended_logit_features,
                                           blended_logit_model)
from scmlab.rng import derive_seed
from scmlab.scm import sample
cfg = build_config("fig5_sweep", out_dir="unused")
p = cfg.params
model = blended_logit_model(1.0, p["coefficients"], p["proxy_sd"],
                            p["n_noise_features"])
fit = logistic_fit(sample(model, cfg.n, derive_seed(cfg.seed, 0)), "y",
                   blended_logit_features(p["n_noise_features"]))
bits = fit.coefficients.tobytes().hex() + " " + fit.stderr.tobytes().hex()
"""


def test_logistic_fit_does_not_depend_on_the_openblas_kernel(src_env):
    # Nehalem's kernel has no FMA, so any BLAS call moves last bits
    env = {**src_env, "OPENBLAS_CORETYPE": "Nehalem"}
    with subprocess.Popen(
            [sys.executable, "-c", _FIG5_LOGIT + "print(bits)"], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as child:
        try:         # the child fits while this process fits on the default
            here = {}
            exec(_FIG5_LOGIT, here)
            out, err = child.communicate(timeout=120)
        finally:
            child.kill()
    assert child.returncode == 0, err
    assert out.strip() == here["bits"]


def test_logistic_rejects_nonbinary_target():
    d = make_data(x=np.arange(10.0), y=np.arange(10.0))
    with pytest.raises(NonBinaryTargetError):
        logistic_fit(d, "y", ["x"])


def test_logistic_needs_more_rows_than_coefficients():
    d = make_data(x1=[0.0, 1.0], x2=[1.0, 3.0], y=[0.0, 1.0])
    with pytest.raises(InsufficientDataError,
                       match="2 rows cannot support 3 coefficients"):
        logistic_fit(d, "y", ["x1", "x2"])


def test_logistic_separation_paths():
    x = np.linspace(-1.0, 1.0, 40)
    with pytest.raises(SeparationError):                 # all one class
        logistic_fit(make_data(x=x, y=np.zeros(40)), "y", ["x"])
    with pytest.raises(SeparationError):                 # perfectly separable
        logistic_fit(make_data(x=x, y=(x > 0).astype(float)), "y", ["x"])


# --- mutual information ---------------------------------------------------

def closed_form_mi(rho):
    return -0.5 * np.log(1.0 - rho * rho)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_mi_gaussian_closed_form(rho):
    n = 4000
    z1 = normal_column(4, (0,), n)
    z2 = normal_column(4, (1,), n)
    x = z1
    y = rho * z1 + np.sqrt(1 - rho * rho) * z2
    res = mutual_information(make_data(x=x, y=y), "x", "y", k=3)
    assert res.mi == pytest.approx(closed_form_mi(rho), abs=0.06)
    assert res.k_neighbors == 3 and res.n == n


def test_mi_clips_but_keeps_raw():
    n = 1000
    x = normal_column(5, (0,), n)
    y = normal_column(5, (1,), n)
    res = mutual_information(make_data(x=x, y=y), "x", "y")
    assert res.mi >= 0.0
    assert res.mi == max(res.raw, 0.0)
    assert abs(res.raw) < 0.05


def test_mi_detects_nonlinear_dependence():
    n = 2000
    x = uniform_column(6, (0,), n) * 2.0 - 1.0
    y = x * x
    res = mutual_information(make_data(x=x, y=y), "x", "y")
    assert res.mi > 0.5


def test_mi_invariant_under_monotone_rescaling():
    n = 3000
    x = normal_column(7, (0,), n)
    y = 0.8 * x + 0.6 * normal_column(7, (1,), n)
    a = mutual_information(make_data(x=x, y=y), "x", "y").mi
    b = mutual_information(make_data(x=10.0 * x + 3.0, y=y), "x", "y").mi
    assert a == pytest.approx(b, abs=0.02)


def test_mi_handles_heavy_ties():
    n = 1200
    x = np.round(normal_column(8, (0,), n))  # many exact ties
    y = x + 0.1 * normal_column(8, (1,), n)
    res = mutual_information(make_data(x=x, y=y), "x", "y")
    assert np.isfinite(res.mi)
    assert res.mi > 0.5


def test_mi_argument_guards():
    d = make_data(x=np.arange(5.0), y=np.arange(5.0))
    with pytest.raises(InsufficientDataError):
        mutual_information(d, "x", "y", k=5)
    with pytest.raises(ValueError):
        mutual_information(d, "x", "y", k=0)
    with pytest.raises(ConfigValidationError, match="k = 2.5"):  # ran
        mutual_information(d, "x", "y", k=2.5)


def test_mi_deterministic():
    n = 500
    x = normal_column(9, (0,), n)
    y = normal_column(9, (1,), n) + 0.5 * x
    d = make_data(x=x, y=y)
    assert mutual_information(d, "x", "y").mi == mutual_information(d, "x", "y").mi
