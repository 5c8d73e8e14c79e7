"""The forward-selection refit loop that ``stepwise_forward`` replaced:
every remaining candidate is fitted by ``ols_fit`` at every step and the
highest training R² wins, the earliest candidate on a tie. It is the
reference twin for the orthogonal-update selection, and costs about k²/2
fits for k candidates."""

from scmlab.estimators import ols_fit
from scmlab.flexfit.validation import StepRecord, _predict_linear, _r2


def refit_forward(data, target, candidates, plan, min_improvement=0.0):
    """``stepwise_forward``'s trace by refitting (its argument checks are
    left to ``stepwise_forward``)."""
    train = data.take(plan.train_idx)
    test = data.take(plan.test_idx)
    y_tr = train.column(target)
    y_te = test.column(target)
    selected = []
    trace = []
    current_r2 = 0.0
    remaining = list(candidates)
    while remaining:
        best = None
        for cand in remaining:
            fit = ols_fit(train, target, selected + [cand])
            r2 = _r2(y_tr, _predict_linear(fit, train))
            if best is None or r2 > best[1]:
                best = (cand, r2, fit)
        cand, r2, fit = best
        if r2 - current_r2 <= min_improvement:
            break
        selected.append(cand)
        remaining.remove(cand)
        current_r2 = r2
        trace.append(StepRecord(cand, r2, _r2(y_te, _predict_linear(fit, test))))
    return trace
