"""Train/test holdout splitting and the forward-selection overfitting
demonstration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import (ConfigValidationError, DegenerateColumnError,
                      InsufficientDataError, check_value, names)
from ..estimators import _check_rank, _columns, _dots, _reflect, ols_fit
from ..rng import substream


@dataclass
class SplitPlan:
    """A train/test holdout: sorted row indices of each side."""

    train_idx: np.ndarray
    test_idx: np.ndarray


def split(data: Dataset, test_fraction: float, seed: int = 0) -> SplitPlan:
    """Seeded shuffle, then the first round(n * test_fraction) shuffled rows
    form the test side and the rest the train side.

    ``test_fraction`` must lie strictly between 0 and 1 and leave a row on
    each side.
    """
    n = data.n_rows
    test_fraction = check_value("test_fraction", test_fraction, 0.0, "(0, 1)")
    n_test = int(round(n * test_fraction))
    if n_test < 1 or n_test >= n:
        raise InsufficientDataError(
            f"test fraction {test_fraction} leaves an empty side of a "
            f"{n}-row split")
    perm = substream(seed, 0x53504C).permutation(n)
    test = np.sort(perm[:n_test])
    train = np.sort(perm[n_test:])
    return SplitPlan(train, test)


@dataclass
class StepRecord:
    feature: str
    in_r2: float
    out_r2: float


def _r2(y, pred):
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def stepwise_forward(data: Dataset, target: str, candidates,
                     plan: SplitPlan, min_improvement: float = 0.0) -> list:
    """Greedy forward selection by in-sample R² on the training rows.

    At each step the candidate that most improves the training R² joins the
    model if the improvement exceeds ``min_improvement``; the trace records
    in-sample and held-out R² after every accepted step. Held-out R² uses
    the training-rows fit evaluated on the test rows and may be negative;
    it needs at least 2 test rows (else InsufficientDataError), and the
    target must vary on each side (else DegenerateColumnError).
    ``min_improvement`` may be infinite (nothing joins), but not NaN.

    The candidates are scored by orthogonal updates (Miller, *Subset
    Selection in Regression*, 2nd ed., 2002, ch. 3): the training design
    keeps ``ols_fit``'s Householder reflections, a candidate's part x⊥
    orthogonal to the selected columns gains (r·x⊥)² / ‖x⊥‖² of the
    residual sum of squares, and the largest gain wins, the earliest
    candidate on a tie. ‖x⊥‖ is the R diagonal entry ``ols_fit`` would
    reach for the candidate, so every step first applies its rank rule to
    every remaining candidate and raises RankDeficientError as a refit
    would. Only the chosen candidate is fitted by ``ols_fit``, whose R²
    goes to the trace and the ``min_improvement`` test.
    """
    if math.isnan(min_improvement):
        raise ConfigValidationError("min_improvement = nan must be a number")
    candidates = names(candidates)
    check_value("len(candidates)", len(candidates), 0, "[2, inf)")
    if plan.test_idx.size < 2:
        raise InsufficientDataError(
            f"held-out R^2 needs at least 2 test rows, got "
            f"{plan.test_idx.size}")
    train = data.take(plan.train_idx)
    test = data.take(plan.test_idx)
    y_tr = train.column(target)
    y_te = test.column(target)
    for side, y in (("training", y_tr), ("test", y_te)):
        if y.min() == y.max():
            raise DegenerateColumnError(
                f"target {target!r} does not vary on the {side} rows, so "
                f"its R^2 is undefined")
    # one design column per row: the intercept, the candidates (the
    # selected ones moved up front in their order, the rest in the given
    # order), then the target; ``order`` names rows 1 to k
    k = len(candidates)
    cols = _columns(train, [*candidates, target])
    order = list(candidates)
    diag = [_reflect(cols[0], cols[1:])]
    trace = []
    current_r2 = 0.0
    for j in range(1, k + 1):
        if train.n_rows <= j + 1:
            raise InsufficientDataError(
                "training rows exhausted by the growing design")
        tails, r = cols[j:k + 1, j:], cols[k + 1, j:]
        sq = _dots(tails, tails)
        _check_rank(np.column_stack(
            [np.broadcast_to(diag, (k + 1 - j, j)), np.sqrt(sq)]))
        best = j + int(np.argmax(_dots(tails, r) ** 2 / sq))
        cols[j:best + 1] = cols[[best, *range(j, best)]]
        order.insert(j - 1, order.pop(best - 1))
        fit = ols_fit(train, target, order[:j])
        r2 = _r2(y_tr, _predict_linear(fit, train))
        if r2 - current_r2 <= min_improvement:
            break
        diag.append(_reflect(cols[j, j:], cols[j + 1:, j:]))
        current_r2 = r2
        out_r2 = _r2(y_te, _predict_linear(fit, test))
        trace.append(StepRecord(order[j - 1], r2, out_r2))
    return trace


def _predict_linear(fit, data):
    pred = np.full(data.n_rows, fit.coefficients[0])
    for name, coef in zip(fit.terms[1:], fit.coefficients[1:]):
        pred += coef * data.column(name)
    return pred
