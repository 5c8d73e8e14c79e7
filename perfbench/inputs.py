"""Seeded workload inputs, generated with NumPy's PCG64 and nothing from
scmlab, so the inputs do not change when the program under test does.

Every generator returns plain Python/NumPy data; :func:`digest` hashes it so
two runs can be shown to share their inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (floats by round-trip repr)."""
    def plain(o):
        if isinstance(o, np.ndarray):
            return plain(o.tolist())
        if isinstance(o, dict):
            return {str(k): plain(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [plain(v) for v in o]
        if isinstance(o, np.generic):
            return o.item()
        return o
    text = json.dumps(plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def random_linear_scm(seed: int, n_nodes: int = 2000, max_parents: int = 3):
    """A random linear-Gaussian SCM in topological index order.

    Node i draws 0..max_parents parents uniformly among nodes 0..i-1.  The
    absolute weights of a node sum to at most 0.9, which keeps every
    variance within a few times the noise variance however deep the graph.
    ``order`` is the shuffled declaration order (``order[p]`` is the
    topological index of the p-th declared node); node names carry the
    declared position, so nothing in a name reveals the topological order.
    """
    rng = _rng(seed, 1)
    parents, weights = [], []
    for i in range(n_nodes):
        k = min(i, int(rng.integers(0, max_parents + 1)))
        ps = np.sort(rng.choice(i, size=k, replace=False)) if k else np.zeros(0, int)
        mag = rng.uniform(0.2, 0.9, size=k) / max(k, 1)
        parents.append([int(p) for p in ps])
        weights.append([float(w) for w in mag * rng.choice([-1.0, 1.0], size=k)])
    intercepts = rng.normal(0.0, 1.0, size=n_nodes)
    noise_sd = rng.uniform(0.5, 1.5, size=n_nodes)
    order = rng.permutation(n_nodes)
    position = np.empty(n_nodes, dtype=int)
    position[order] = np.arange(n_nodes)
    names = [f"n{position[i]:04d}" for i in range(n_nodes)]
    return {"names": names, "parents": parents, "weights": weights,
            "intercepts": intercepts, "noise_sd": noise_sd, "order": order}


def ancestors(parents, node: int) -> set:
    out, stack = set(), list(parents[node])
    while stack:
        p = stack.pop()
        if p not in out:
            out.add(p)
            stack.extend(parents[p])
    return out


def scm_queries(seed: int, parents, n_regressions: int = 20,
                n_effects: int = 20, n_dsep: int = 1000, max_z: int = 4):
    """Oracle and d-separation queries on the random SCM (topological
    indices): regression targets (regressed on their own parents), (cause,
    outcome) pairs where cause is an ancestor of outcome, and (x, y, Z)
    triples of distinct nodes."""
    rng = _rng(seed, 2)
    n = len(parents)
    with_parents = [i for i in range(n) if parents[i]]
    targets = [int(t) for t in rng.choice(with_parents, size=n_regressions,
                                          replace=False)]
    effects = []
    while len(effects) < n_effects:
        outcome = int(rng.integers(1, n))
        anc = sorted(ancestors(parents, outcome))
        if anc:
            effects.append((int(rng.choice(anc)), outcome))
    dsep = []
    for _ in range(n_dsep):
        picks = rng.choice(n, size=2 + int(rng.integers(0, max_z + 1)),
                           replace=False)
        dsep.append((int(picks[0]), int(picks[1]), [int(z) for z in picks[2:]]))
    return {"targets": targets, "effects": effects, "dsep": dsep}


def backdoor_dag(seed: int, n_covariates: int = 14, p_edge: float = 0.2,
                 p_confound: float = 0.3):
    """A 16-node DAG for exhaustive backdoor search: covariates c00.. form a
    random DAG, each feeds the cause x and the outcome y with probability
    ``p_confound``, and x -> y.  x's only descendant is y, so every
    covariate is a candidate and the search tests 2^n_covariates subsets on
    every seed.  Nodes are declared in a shuffled order."""
    rng = _rng(seed, 3)
    cov = [f"c{i:02d}" for i in range(n_covariates)]
    edges = [(cov[j], cov[i]) for i in range(n_covariates) for j in range(i)
             if rng.random() < p_edge]
    for c in cov:
        if rng.random() < p_confound:
            edges.append((c, "x"))
        if rng.random() < p_confound:
            edges.append((c, "y"))
    edges.append(("x", "y"))
    nodes = cov + ["x", "y"]
    nodes = [nodes[i] for i in rng.permutation(len(nodes))]
    return {"nodes": nodes, "edges": edges, "cause": "x", "outcome": "y"}


def pointwise_data(seed: int, n_rows: int = 500, n_features: int = 4,
                   n_instances: int = 1000, n_background: int = 32):
    """Criterion-08 style regression data, y = tanh(x0) + x1*x2 + 0.1*noise,
    plus the instances to explain and the background rows."""
    rng = _rng(seed, 4)
    X = rng.standard_normal((n_rows, n_features))
    y = np.tanh(X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.standard_normal(n_rows)
    instances = rng.standard_normal((n_instances, n_features))
    return {"X": X, "y": y, "instances": instances,
            "background": X[:n_background].copy()}
