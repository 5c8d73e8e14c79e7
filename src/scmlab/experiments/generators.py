"""Structural models behind the registered experiments.

All synthetic data in the experiment suite flows from these builders, so
every generator is a structural model sampled through the seeded substream
machinery — which is what makes paired designs (same base draws, different
structural constant) and byte-level reproducibility work.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from ..graph import Dag
from ..scm import Assignment, NoiseSpec, StructuralModel


def exogenous_predictor_model(theta):
    """Outcome regressed on independent predictors, no confounding.

    x0 is the constant 1, x1..x3 are independent standard normals, and
    y := theta . (x0..x3) + standard normal noise. OLS on a sample is
    consistent for theta (theta_0 appearing as the intercept).
    """
    pairs = [("x0", Assignment.exogenous(NoiseSpec.constant(1.0)))]
    for k in range(1, 4):
        pairs.append((f"x{k}", Assignment.exogenous(NoiseSpec.gaussian())))
    pairs.append(("y", Assignment.linear(
        ["x0", "x1", "x2", "x3"], list(theta),
        noise=NoiseSpec.gaussian())))
    return StructuralModel(pairs)


def confounded_chain_model():
    """Nine-node linear-Gaussian model exercising every identification
    pitfall at once: the cause x0 is confounded (via x2 -> x3 -> y), its
    effect on y runs entirely through the mediator x1, and x5/x6/x7 are
    proxy children of x0/x1/y that carry no causal weight of their own.
    """
    pairs = [
        ("x4", Assignment.exogenous(NoiseSpec.gaussian())),
        ("x2", Assignment.exogenous(NoiseSpec.gaussian(scale=0.8))),
        ("x0", Assignment.linear(["x4", "x2"], [1.0, -2.0],
                                 noise=NoiseSpec.gaussian(scale=0.2))),
        ("x1", Assignment.linear(["x0"], [-2.0],
                                 noise=NoiseSpec.gaussian(scale=0.5))),
        ("x3", Assignment.linear(["x2"], [1.0],
                                 noise=NoiseSpec.gaussian(scale=0.1))),
        ("x5", Assignment.linear(["x0"], [3.0],
                                 noise=NoiseSpec.gaussian(scale=0.8))),
        ("x6", Assignment.linear(["x1"], [1.0],
                                 noise=NoiseSpec.gaussian(scale=0.5))),
        ("y", Assignment.linear(["x3", "x1"], [2.0, -1.0],
                                noise=NoiseSpec.gaussian(scale=0.2))),
        ("x7", Assignment.linear(["y"], [0.5],
                                 noise=NoiseSpec.gaussian(scale=0.1))),
    ]
    nodes = [f"x{k}" for k in range(8)] + ["y"]
    return StructuralModel(pairs, nodes=nodes)


def hidden_confounder_graph():
    """x -> y confounded by an unobserved z: the textbook unidentifiable
    query when z cannot be adjusted for."""
    return Dag(["x", "y", "z"], [("z", "x"), ("z", "y"), ("x", "y")],
               observed={"x", "y"})


def sine_trend_model(trend, amplitude, frequency, x_lo, x_hi, noise_sd):
    """y := trend*x + amplitude*sin(frequency*x) + Gaussian noise,
    x uniform on [x_lo, x_hi] — linear-in-x fits are structurally unable
    to track the oscillation."""
    return StructuralModel([
        ("x", Assignment.exogenous(NoiseSpec.uniform(x_lo, x_hi))),
        ("y", Assignment.custom(["x"],
                                sine_trend_mean(trend, amplitude, frequency),
                                noise=NoiseSpec.gaussian(sd=noise_sd))),
    ])


def sine_trend_mean(trend, amplitude, frequency):
    """The noise-free regression function of :func:`sine_trend_model`."""
    return lambda x: trend * x + amplitude * np.sin(frequency * x)


def blended_logit_model(q, coefficients, proxy_sd, n_noise_features):
    """Binary outcome whose log-odds blend a linear and a quadratic term
    in x1, weighted (1-q) and q, plus a linear x2 term.

    Only x1 and x2 drive the outcome. x3 := x1^2 + noise and
    x4 := |x1| + noise are proxies of the quadratic signal (a linear model
    can lean on them once q > 0), and n1.. are pure noise. The node ``p``
    carries the true outcome probability (handy for Bayes-loss baselines)
    and ``u`` the threshold uniform, so the same seed reuses identical base
    draws across different q — only the blend changes.
    """
    a, b, c, d, e, f = coefficients
    q = float(q)

    def link_prob(x1, x2):
        eta = (1.0 - q) * (a * x1 + b) + q * (c * x1 * x1 + d) + e * x2 + f
        return expit(eta)

    pairs = [
        ("x1", Assignment.exogenous(NoiseSpec.gaussian())),
        ("x2", Assignment.exogenous(NoiseSpec.gaussian())),
        ("x3", Assignment.custom(["x1"], lambda x1: x1 * x1,
                                 noise=NoiseSpec.gaussian(sd=proxy_sd))),
        ("x4", Assignment.custom(["x1"], np.abs,
                                 noise=NoiseSpec.gaussian(sd=proxy_sd))),
    ]
    for i in range(1, n_noise_features + 1):
        pairs.append((f"n{i}", Assignment.exogenous(NoiseSpec.gaussian())))
    pairs += [
        ("u", Assignment.exogenous(NoiseSpec.uniform(0.0, 1.0))),
        ("p", Assignment.custom(["x1", "x2"], link_prob)),
        ("y", Assignment.custom(["p", "u"],
                                lambda p, u: (u < p).astype(np.float64))),
    ]
    return StructuralModel(pairs)


def blended_logit_features(n_noise_features):
    return ["x1", "x2", "x3", "x4"] + [f"n{i}" for i in range(1, n_noise_features + 1)]


def correlated_pair_model(rho):
    """Bivariate standard normal with correlation rho."""
    rho = float(rho)
    return StructuralModel([
        ("x", Assignment.exogenous(NoiseSpec.gaussian())),
        ("y", Assignment.linear(["x"], [rho],
                                noise=NoiseSpec.gaussian(sd=np.sqrt(1.0 - rho * rho)))),
    ])


def shape_pair_model(shape, noise_sd=0.1):
    """Strongly dependent but uncorrelated (x, y) pairs.

    ``shape`` picks the deterministic skeleton: ``quadratic`` (y = x^2),
    ``sinusoid`` (y = sin(2 pi x)), ``circle`` (point on the unit circle),
    or ``cross`` (y = +-x with random sign); all get Gaussian jitter of
    sd ``noise_sd``.
    """
    noise = NoiseSpec.gaussian(sd=noise_sd)
    if shape == "quadratic":
        pairs = [
            ("x", Assignment.exogenous(NoiseSpec.uniform(-1.0, 1.0))),
            ("y", Assignment.custom(["x"], lambda x: x * x, noise=noise)),
        ]
    elif shape == "sinusoid":
        pairs = [
            ("x", Assignment.exogenous(NoiseSpec.uniform(-1.0, 1.0))),
            ("y", Assignment.custom(["x"], lambda x: np.sin(2.0 * np.pi * x),
                                    noise=noise)),
        ]
    elif shape == "circle":
        pairs = [
            ("t", Assignment.exogenous(NoiseSpec.uniform(0.0, 2.0 * np.pi))),
            ("x", Assignment.custom(["t"], np.cos, noise=noise)),
            ("y", Assignment.custom(["t"], np.sin, noise=noise)),
        ]
    elif shape == "cross":
        pairs = [
            ("s", Assignment.exogenous(NoiseSpec.uniform(0.0, 1.0))),
            ("x", Assignment.exogenous(NoiseSpec.gaussian())),
            ("y", Assignment.custom(["s", "x"],
                                    lambda s, x: np.where(s < 0.5, x, -x),
                                    noise=noise)),
        ]
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return StructuralModel(pairs)


def noise_candidates_model(n_candidates):
    """A target and candidate predictors that are all mutually independent
    standard normals — nothing to find, everything to overfit."""
    pairs = [("y", Assignment.exogenous(NoiseSpec.gaussian()))]
    for i in range(1, n_candidates + 1):
        pairs.append((f"c{i}", Assignment.exogenous(NoiseSpec.gaussian())))
    return StructuralModel(pairs)
