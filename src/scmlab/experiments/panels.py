"""Correlation-versus-mutual-information panel grid.

Six bivariate-normal panels sweep the correlation from 0 to 0.95; four
deterministic shapes (quadratic, sinusoid, circle, cross) are strongly
dependent yet essentially uncorrelated.  Pearson r tracks the first group
and collapses on the second; the nearest-neighbour MI estimate stays high
for both.  MI is reported in nats.
"""

from __future__ import annotations

from ..estimators import mutual_information, pearson
from ..rng import derive_seed
from ..scm import sample
from .generators import correlated_pair_model, shape_pair_model

_SHAPES = ("quadratic", "sinusoid", "circle", "cross")


def run_fig2_panels(cfg):
    p = cfg.params
    panels = [("rho_%g" % rho, correlated_pair_model(rho), rho)
              for rho in p["rho_grid"]]
    panels += [(shape, shape_pair_model(shape, noise_sd=p["shape_noise_sd"]),
                None) for shape in _SHAPES]

    rows = []
    summary = {}
    for idx, (label, model, rho) in enumerate(panels):
        data = sample(model, cfg.n, derive_seed(cfg.seed, idx))
        corr = pearson(data, "x", "y")
        mi = mutual_information(data, "x", "y", k=p["mi_k"])
        rows.append([label, "" if rho is None else rho, corr.r, corr.p,
                     mi.mi, cfg.n])
        summary[label] = {"r": corr.r, "p": corr.p, "mi_nats": mi.mi}
    results = {
        "panels": summary,
        "mi_units": "nats",
        "shape_max_abs_r": max(abs(summary[s]["r"]) for s in _SHAPES),
        "shape_min_mi": min(summary[s]["mi_nats"] for s in _SHAPES),
    }
    return results, {"panels": (
        ["panel", "rho", "r", "p_value", "mi_nats", "n"], rows)}
