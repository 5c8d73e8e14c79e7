"""Dense matrix-form twins of the package's linear-SEM oracles.

The package solves a linear-Gaussian model by forward propagation in
topological order.  For a linear SEM with weight matrix ``B`` (``B[i, j]``
is the weight of parent j in node i's assignment), the same quantities
have a closed form through ``A = (I - B)^-1`` (Bollen, "Structural
Equations with Latent Variables", 1989, ch. 4):

* covariance ``A diag(Var eps) A'``;
* mean ``A (c + E[eps])``, c the intercepts;
* total effect of cause j on outcome i: ``A[i, j]``.

These helpers build ``A`` densely in declared node order, so they need no
topological order at all, and the tests compare the package against them
on random DAGs declared in shuffled order.
"""

from __future__ import annotations

import hashlib

import numpy as np

from scmlab import (Assignment, NoiseSpec, StructuralModel,
                    population_covariance, population_mean,
                    total_effect_linear, validate_model)


def random_linear_model(n: int, seed: int):
    """A validated linear-Gaussian model on ``n`` nodes whose declared order
    is a random shuffle of a random topological order.

    Each node draws up to three parents among the nodes before it
    in the hidden order, with weights of modulus 0.2..0.8 and random signs,
    so values stay of order one along long paths.
    """
    g = np.random.default_rng(seed)
    names = [f"v{i}" for i in range(n)]
    pairs = []
    for i in range(n):
        k = int(g.integers(0, min(i, 3) + 1))
        parents = sorted(g.choice(i, size=k, replace=False).tolist()) if k else []
        weights = g.uniform(0.2, 0.8, size=k) * g.choice([-1.0, 1.0], size=k)
        pairs.append((names[i], Assignment.linear(
            [names[p] for p in parents], weights,
            intercept=float(g.normal()),
            noise=NoiseSpec.gaussian(mean=float(g.normal()),
                                     sd=float(g.uniform(0.1, 2.0))))))
    shuffled = [pairs[i] for i in g.permutation(n)]
    return validate_model(StructuralModel(shuffled))


def oracle_digest() -> str:
    """sha256 over the covariance, the mean and 132 total effects of a
    60-node random model: the same on every BLAS kernel when the oracles
    make no BLAS call."""
    m = random_linear_model(60, 11)
    h = hashlib.sha256(population_covariance(m).tobytes())
    h.update(population_mean(m).tobytes())
    h.update(np.array([total_effect_linear(m, c, o) for c in m.nodes[:12]
                       for o in m.nodes[-12:] if c != o]).tobytes())
    return h.hexdigest()


def total_effect_matrix(model) -> np.ndarray:
    """``A = (I - B)^-1`` over ``model.nodes``: ``A[i, j]`` is the total
    effect of node j on node i, and the diagonal is one."""
    idx = {name: i for i, name in enumerate(model.nodes)}
    k = len(model.nodes)
    B = np.zeros((k, k))
    for name, a in model.assignments.items():
        for p, w in zip(a.parents, a.weights):
            B[idx[name], idx[p]] += w
    return np.linalg.inv(np.eye(k) - B)


def dense_covariance(model) -> np.ndarray:
    A = total_effect_matrix(model)
    omega = np.array([model.assignments[n].noise.variance() for n in model.nodes])
    return (A * omega) @ A.T


def dense_mean(model) -> np.ndarray:
    A = total_effect_matrix(model)
    c = np.array([model.assignments[n].intercept
                  + model.assignments[n].noise.mean() for n in model.nodes])
    return A @ c


# --- node-by-node forward propagation -------------------------------------
#
# The package's oracles before they were solved one topological level at a
# time, kept as the reference: one node per step, in evaluation order.

def forward_covariance(model) -> np.ndarray:
    """Cov(v, u) = sum_p w_p Cov(p, u) over every solved u, and
    Var(v) = w' Sigma_PP w + Var(noise), one node at a time."""
    order = model._order
    idx = {name: i for i, name in enumerate(model.nodes)}
    k = len(model.nodes)
    cov = np.zeros((k, k))
    for name in order:
        a = model.assignments[name]
        i = idx[name]
        if a.parents:
            pidx = [idx[p] for p in a.parents]
            w = np.array(a.weights)
            cross = cov[pidx, :].T @ w          # Cov(v, everything solved)
            cov[i, :] = cross
            cov[:, i] = cross
            cov[i, i] = w @ cov[np.ix_(pidx, pidx)] @ w + a.noise.variance()
        else:
            cov[i, i] = a.noise.variance()
    return cov


def forward_mean(model) -> np.ndarray:
    order = model._order
    idx = {name: i for i, name in enumerate(model.nodes)}
    mu = np.zeros(len(model.nodes))
    for name in order:
        a = model.assignments[name]
        mu[idx[name]] = (a.intercept
                         + sum(w * mu[idx[p]] for p, w in zip(a.parents, a.weights))
                         + a.noise.mean())
    return mu


def forward_total_effect(model, cause: str, outcome: str) -> float:
    """The path-product effect, propagated over the descendants of cause;
    raises ValueError where a custom node descends from cause."""
    effect = {cause: 1.0}
    for name in model._order:
        if name == cause:
            continue
        a = model.assignments[name]
        contributions = [(p, w) for p, w in zip(a.parents, a.weights or ())
                         if p in effect]
        if a.kind == "custom" and any(p in effect for p in a.parents):
            raise ValueError(f"custom node {name!r} descends from {cause!r}")
        if contributions:
            effect[name] = sum(w * effect[p] for p, w in contributions)
    return effect.get(outcome, 0.0)
