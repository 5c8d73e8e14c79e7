"""Classical estimators: least squares with inference, Pearson correlation,
logistic regression, and k-nearest-neighbour mutual information.

All fits are closed-form or Newton-type on small dense matrices; standard
errors use the classical homoskedastic formulas, which the synthetic
generators in this package satisfy by construction.

Least squares, logistic regression, Pearson's r and the rank rule make no
BLAS or LAPACK call: column products are summed by ``np.add.reduce``,
a logistic margin is the intercept plus each coefficient times its
column, added in order by ``dataset._linear``, and every solve runs on
R of a Householder triangularization (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2002, ch. 19): the
design's for least squares and the rank rule, the weighted design's for
each logistic Newton step. Both regressions take their standard errors
from the row norms of R^-1. So their bits do not depend on the CPU's BLAS
kernel, and no tall LAPACK call wakes OpenBLAS's threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, expit, ndtr, stdtr

from .dataset import Dataset, _linear
from .errors import (DegenerateColumnError, InsufficientDataError,
                     NonBinaryTargetError, NonFiniteValueError,
                     RankDeficientError, SeparationError, check_value,
                     names)
from .rng import substream

_RANK_TOL = 1e-10          # |R_jj| below tol*max|R_jj| is rank loss
_INFO_RIDGE = 1e-10        # added to the logistic information's diagonal
_GRAD_TOL = 1e-8           # logistic convergence: max |gradient|
_MAX_NEWTON_ITER = 200     # logistic Newton steps before giving up
_MI_JITTER = 1e-10         # relative tie-breaking jitter for the MI estimator


@dataclass
class FitResult:
    """Coefficients with classical inference.

    ``terms`` lists "intercept" followed by the regressor names;
    ``coefficients``, ``stderr`` and ``p_values`` are aligned with it.
    ``residual_variance`` is the unbiased residual variance for least
    squares and the mean deviance (−2·loglik/n) for logistic fits.
    """

    terms: list
    coefficients: np.ndarray
    stderr: np.ndarray
    p_values: np.ndarray
    residual_variance: float
    n_used: int

    def coef(self, term: str) -> float:
        return float(self.coefficients[self.terms.index(term)])

    def se(self, term: str) -> float:
        return float(self.stderr[self.terms.index(term)])


@dataclass
class CorrResult:
    """Sample Pearson correlation with its two-sided t-test p-value."""

    r: float
    p: float
    n: int


@dataclass
class MiResult:
    """Mutual-information estimate in nats.

    ``mi`` is clipped to be non-negative for reporting; ``raw`` keeps the
    uncorrected estimator output (slightly negative values are normal for
    near-independent data).
    """

    mi: float
    raw: float
    k_neighbors: int
    n: int


def _t_pvalue(t, dof):
    """Two-sided p-value of Student t statistics: 2 P(T_dof > |t|)."""
    return 2.0 * stdtr(dof, -np.abs(t))


def _z_pvalue(z):
    """Two-sided p-value of standard normal statistics: 2 P(Z > |z|)."""
    return 2.0 * ndtr(-np.abs(z))


def _columns(data: Dataset, columns) -> np.ndarray:
    """A column of ones, then the named columns: one design column per row,
    the layout the Householder core works on."""
    cols = np.empty((len(columns) + 1, data.n_rows))
    cols[0] = 1.0
    for j, name in enumerate(columns, 1):
        cols[j] = data.column(name)
    return cols


def _dots(rows, v):
    """Each row of ``rows`` times ``v``, summed by ``np.add.reduce`` along
    the row: numpy's pairwise order, fixed by the row's length alone."""
    return np.add.reduce(rows * v, axis=-1)


def _reflect(x, rest) -> float:
    """One Householder reflection: the one that maps the column tail ``x``
    onto its first axis is applied, in place, to every row of ``rest``
    (tails of the same length, one column per row). Returns R's diagonal
    entry -sign(x[0]) ||x||, or 0.0, with no reflection, for a zero tail."""
    norm = np.sqrt(_dots(x, x))
    if norm == 0.0:
        return 0.0
    r = -norm if x[0] >= 0.0 else norm
    v = x.copy()
    v[0] -= r
    # H = I - v v' / (v'v / 2), and v'v / 2 = ||x|| (||x|| + |x[0]|)
    rest -= (_dots(rest, v) / (norm * (norm + abs(x[0]))))[:, None] * v
    return r


def _triangularize(cols, p: int) -> np.ndarray:
    """R of the QR factorization of the first ``p`` rows of ``cols`` (one
    design column per row), by ``p`` reflections applied in place to every
    row; rows past ``p`` (targets) end as Q' times themselves."""
    R = np.zeros((p, p))
    for j in range(p):
        R[j, j] = _reflect(cols[j, j:], cols[j + 1:, j:])
        R[j, j + 1:] = cols[j + 1:p, j]
    return R


def _back_substitute(R, B) -> np.ndarray:
    """R^-1 B for an upper-triangular R of full rank, one row at a time from
    the last; a row's terms are added in column order (B has at least two
    columns, so the leading-axis reduce adds in order)."""
    Z = np.empty_like(B)
    for i in range(R.shape[0] - 1, -1, -1):
        Z[i] = (B[i] - np.add.reduce(R[i, i + 1:, None] * Z[i + 1:])) / R[i, i]
    return Z


def _stderr(r_inv, scale) -> np.ndarray:
    """Standard errors from R^-1, for an R whose R'R is the information up
    to the dispersion ``scale``: the covariance scale * R^-1 R^-T holds
    the squared row norms of R^-1, times ``scale``, on its diagonal."""
    return np.sqrt(scale * _dots(r_inv, r_inv))


def _check_rank(diag) -> None:
    """RankDeficientError unless a design whose R has diagonal ``diag`` has
    full rank: the smallest |R_jj| must be at least _RANK_TOL times the
    largest (a diagonal that overflowed to inf or NaN fails). A 2-D
    ``diag`` holds one design per row, checked in order."""
    d = np.abs(np.atleast_2d(diag))
    lo, hi = d.min(axis=1), d.max(axis=1)
    bad = np.flatnonzero((hi == 0) | ~(lo >= _RANK_TOL * hi))
    if bad.size:
        i = bad[0]
        raise RankDeficientError(
            "design matrix is rank deficient "
            f"(R diagonal ratio {lo[i] / max(hi[i], 1e-300):.2e})")


def ols_fit(data: Dataset, target: str, regressors) -> FitResult:
    """Ordinary least squares of ``target`` on ``regressors`` plus an
    intercept; classical standard errors and t-test p-values.

    Raises InsufficientDataError unless n > #regressors + 1,
    RankDeficientError when the design matrix loses rank (smallest |R_jj|
    of its QR factorization below 1e-10 times the largest), and
    NonFiniteValueError when the residual variance overflows the float
    range.
    """
    regressors = names(regressors)
    n, p = data.n_rows, len(regressors) + 1
    if n <= p:
        raise InsufficientDataError(
            f"{n} rows cannot support {p} coefficients")
    cols = _columns(data, [*regressors, target])
    # an overflow is caught below: in the design's rows by the rank rule,
    # in the target's row by the residual variance check
    with np.errstate(over="ignore", invalid="ignore"):
        R = _triangularize(cols, p)
        rss = _dots(cols[p, p:], cols[p, p:])
    _check_rank(np.diag(R))
    dof = n - p
    sigma2 = float(rss) / dof
    if not np.isfinite(sigma2):
        raise NonFiniteValueError(
            f"residual_variance of {target!r} on {regressors} is not finite: "
            "the residual sum of squares overflows")
    # beta = R^-1 Q'y, and (X'X)^-1 = R^-1 R^-T
    Z = _back_substitute(R, np.column_stack([cols[p, :p], np.eye(p)]))
    beta, r_inv = Z[:, 0], Z[:, 1:]
    se = _stderr(r_inv, sigma2)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / np.where(se > 0, se, 1.0), np.inf * np.sign(beta))
    t = np.where((se == 0) & (beta == 0), 0.0, t)
    pvals = _t_pvalue(t, dof)
    return FitResult(["intercept", *regressors], beta, se, pvals,
                     sigma2, n)


def pearson(data: Dataset, a: str, b: str) -> CorrResult:
    """Sample Pearson r between two columns with the t-distribution
    two-sided p-value; columns must vary."""
    if data.n_rows < 3:
        raise InsufficientDataError("pearson needs at least 3 rows")
    x, y = data.column(a), data.column(b)
    xc, yc = x - x.mean(), y - y.mean()
    sx, sy = np.sqrt(_dots(xc, xc)), np.sqrt(_dots(yc, yc))
    if sx == 0 or sy == 0:
        raise DegenerateColumnError(
            f"column {a if sx == 0 else b!r} has zero variance")
    r = float(np.clip(_dots(xc, yc) / (sx * sy), -1.0, 1.0))
    # exactly collinear columns can round to 1 - O(eps); snap, since the
    # t statistic is infinite there either way
    if 1.0 - abs(r) < 4.0 * np.finfo(float).eps:
        r = 1.0 if r > 0 else -1.0
    n = data.n_rows
    if abs(r) == 1.0:
        p = 0.0
    else:
        t = r * np.sqrt((n - 2) / (1.0 - r * r))
        p = float(_t_pvalue(t, n - 2))
    return CorrResult(r, p, n)


def logistic_fit(data: Dataset, target: str, regressors) -> FitResult:
    """Logistic regression by damped Newton iterations.

    Converged when the score's max component drops below 1e-8. Degenerate
    targets and perfectly separated data never converge — they drive the
    coefficients off to infinity — and raise SeparationError via the
    divergence guard. A design matrix that loses rank raises
    RankDeficientError before the first step, by the rule ``ols_fit``
    applies. Standard errors come from the observed information;
    p-values are two-sided Wald z-tests.
    """
    regressors = names(regressors)
    y = data.column(target)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise NonBinaryTargetError("target must contain only 0 and 1")
    if y.min() == y.max():
        raise SeparationError(
            "target is all one class; intercept diverges")
    n, p = data.n_rows, len(regressors) + 1
    if n <= p:
        raise InsufficientDataError(f"{n} rows cannot support {p} coefficients")
    X = _columns(data, regressors)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _triangularize(X.copy(), p)
    _check_rank(np.diag(R))
    root_ridge = np.sqrt(_INFO_RIDGE) * np.eye(p)

    def info_r_inv(prob):
        # R of sqrt(w) X over sqrt(ridge) I has R'R = X'WX + ridge I, the
        # ridged information; the ridge keeps R nonsingular
        weighted = np.hstack([X * np.sqrt(prob * (1.0 - prob)), root_ridge])
        return _back_substitute(_triangularize(weighted, p), np.eye(p))

    def nll(eta):
        # log(1 + e^eta) - y*eta, computed stably
        return float(np.sum(np.logaddexp(0.0, eta) - y * eta))

    beta = np.zeros(p)
    eta = _linear(beta[0], beta[1:], X[1:], n)
    loss = nll(eta)
    converged = False
    for _ in range(_MAX_NEWTON_ITER):
        prob = expit(eta)
        grad = _dots(X, y - prob)
        if np.max(np.abs(grad)) < _GRAD_TOL:
            converged = True
            break
        # step = R^-1 R^-T grad, R^-T's rows made contiguous for _dots' order;
        # a NaN step fails every damping trial
        r_inv = info_r_inv(prob)
        step = _dots(r_inv, _dots(r_inv.T.copy(), grad))
        # damping: halve until the objective stops increasing
        improved = False
        scale = 1.0
        for _ in range(40):
            trial = beta + scale * step
            trial_eta = _linear(trial[0], trial[1:], X[1:], n)
            trial_loss = nll(trial_eta)
            if trial_loss <= loss + 1e-12:
                improved = True
                break
            scale *= 0.5
        if not improved:
            break
        beta, eta, loss = trial, trial_eta, trial_loss
        if np.max(np.abs(beta)) > 1e3:
            raise SeparationError(
                "coefficients diverged; data are (quasi-)separated")
    if not converged:
        raise SeparationError("no convergence; data look separated")
    # a finite "optimum" that strictly separates the classes only appears
    # through probability saturation: the true MLE is at infinity
    if np.all((2.0 * y - 1.0) * eta > 0.0):
        raise SeparationError(
            "fitted coefficients separate the classes perfectly; "
            "the maximum-likelihood estimate does not exist")
    se = _stderr(info_r_inv(prob), 1.0)     # a binomial has dispersion 1
    z = beta / se
    pvals = _z_pvalue(z)
    return FitResult(["intercept", *regressors], beta, se, pvals,
                     2.0 * loss / n, n)


def mutual_information(data: Dataset, a: str, b: str, k: int = 3) -> MiResult:
    """Mutual information I(a; b) in nats by the k-nearest-neighbour
    estimator (Kraskov, Stoegbauer & Grassberger 2004, first variant).

    For each point, eps is the Chebyshev distance to its k-th neighbour in
    the joint space; n_x, n_y count marginal neighbours strictly within
    eps. The estimate is psi(k) + psi(n) − mean(psi(n_x+1) + psi(n_y+1)).
    Both columns are standardized first — the joint Chebyshev metric mixes
    the two scales, so this makes the estimate invariant under affine
    rescaling of either column. Exact ties make neighbour counts ambiguous,
    so both columns also receive a deterministic jitter of 1e-10 scale.
    """
    k = check_value("k", k, 0, "[1, inf)")
    n = data.n_rows
    if n <= k:
        raise InsufficientDataError(f"need more than k={k} rows, got {n}")

    def standardized(col):
        col = col.astype(np.float64)
        sd = col.std()
        return (col - col.mean()) / sd if sd > 0 else col - col.mean()

    x = standardized(data.column(a))
    y = standardized(data.column(b))
    jit = substream(0, 0x4D49)  # fixed stream: jitter is not configurable
    x = x + _MI_JITTER * jit.standard_normal(n)
    y = y + _MI_JITTER * jit.standard_normal(n)
    joint = np.column_stack([x, y])
    from scipy.spatial import cKDTree  # only this estimator needs it
    dist, _ = cKDTree(joint).query(joint, k=k + 1, p=np.inf)
    eps = dist[:, -1]

    def strict_counts(col):
        order = np.argsort(col)
        s = col[order]
        hi = np.searchsorted(s, col + eps, side="left")
        lo = np.searchsorted(s, col - eps, side="right")
        return hi - lo - 1  # open interval, minus the point itself

    nx = strict_counts(x)
    ny = strict_counts(y)
    raw = float(digamma(k) + digamma(n)
                - np.mean(digamma(nx + 1) + digamma(ny + 1)))
    return MiResult(max(raw, 0.0), raw, k, n)
