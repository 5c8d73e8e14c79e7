"""Forward selection on pure-noise candidates: in-sample fit climbs with
every accepted variable while held-out fit goes nowhere or negative."""

from __future__ import annotations

from ..flexfit import split, stepwise_forward
from ..rng import derive_seed
from ..scm import sample
from .generators import noise_candidates_model


def run_overfit_demo(cfg):
    p = cfg.params
    n_cand = p["n_candidates"]
    model = noise_candidates_model(n_cand)
    data = sample(model, cfg.n, cfg.seed)
    plan = split(data, test_fraction=p["test_fraction"],
                 seed=derive_seed(cfg.seed, 1))
    candidates = [f"c{i}" for i in range(1, n_cand + 1)]
    trace = stepwise_forward(data, "y", candidates, plan,
                             min_improvement=p["min_improvement"])

    rows = [[step + 1, rec.feature, rec.in_r2, rec.out_r2]
            for step, rec in enumerate(trace)]
    results = {
        "n_candidates": n_cand,
        "n_train": int(plan.train_idx.size),
        "n_test": int(plan.test_idx.size),
        "steps_accepted": len(trace),
        "final_in_r2": trace[-1].in_r2 if trace else 0.0,
        "final_out_r2": trace[-1].out_r2 if trace else 0.0,
        "in_r2_monotone": bool(all(b.in_r2 >= a.in_r2 for a, b
                                   in zip(trace, trace[1:]))),
    }
    return results, {"trace": (
        ["step", "feature", "in_sample_r2", "held_out_r2"], rows)}
