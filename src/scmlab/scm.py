"""Structural causal models: representation, sampling, surgery, and
closed-form solutions for the linear-Gaussian family.

A model is a set of nodes, each carrying exactly one assignment that
computes the node from its parents plus independent noise. Assignments use
assignment semantics (the value is *set* from the right-hand side, never
solved for), so the induced parent graph must be acyclic. A model checks
this when it is built and keeps the evaluation order its :class:`graph.Dag`
computes with :func:`graph.topological_sort`.

Two assignment kinds exist:

* linear-additive: ``value = intercept + sum(w_k * parent_k) + noise`` —
  the analytically solvable core (population covariance, population
  regression, total effects);
* custom-deterministic: an opaque function of the parent columns plus
  additive noise — sampling only, the analytic routines refuse it.

>>> m = StructuralModel({
...     "a": Assignment.exogenous(NoiseSpec.gaussian()),
...     "b": Assignment.linear(["a"], [2.0], noise=NoiseSpec.gaussian(sd=0.5)),
... })
>>> sample(m, 4, seed=0).names
['a', 'b']
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import (ConfigValidationError, DuplicateAssignmentError,
                     ModelFileError, NonlinearModelError,
                     OverlappingSetsError, SingularCovarianceError,
                     UnknownNodeError, UnknownParentError, check_value)
from .graph import Dag
from .rng import normal_column, uniform_column

_COND_LIMIT = 1e12  # condition-number guard for covariance solves


@dataclass(frozen=True)
class NoiseSpec:
    """Distribution of one node's exogenous noise term.

    ``kind`` is one of ``gaussian`` (params mean, sd), ``uniform`` (params
    lo, hi) or ``constant`` (single param).  Every param is finite.
    """

    kind: str
    params: tuple

    @staticmethod
    def gaussian(mean: float = 0.0, sd: float = 1.0) -> "NoiseSpec":
        return NoiseSpec("gaussian", (check_value("mean", mean, 0.0),
                                      check_value("sd", sd, 0.0, "[0, inf)")))

    @staticmethod
    def uniform(lo: float, hi: float) -> "NoiseSpec":
        lo = check_value("lo", lo, 0.0)
        hi = check_value("hi", hi, 0.0)
        if lo > hi:
            raise ConfigValidationError(
                f"lo = {lo!r} must not exceed hi = {hi!r}")
        return NoiseSpec("uniform", (lo, hi))

    @staticmethod
    def constant(c: float) -> "NoiseSpec":
        return NoiseSpec("constant", (check_value("c", c, 0.0),))

    def mean(self) -> float:
        if self.kind == "uniform":
            lo, hi = self.params
            return 0.5 * (lo + hi)
        return self.params[0]

    def variance(self) -> float:
        """Exact variance; any kind (sampling-side helper)."""
        if self.kind == "gaussian":
            return self.params[1] ** 2
        if self.kind == "uniform":
            lo, hi = self.params
            return (hi - lo) ** 2 / 12.0
        return 0.0

    def draw(self, seed: int, path: tuple, n: int) -> np.ndarray:
        if self.kind == "gaussian":
            mean, sd = self.params
            return mean + sd * normal_column(seed, path, n)
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * uniform_column(seed, path, n)
        return np.full(n, self.params[0])


@dataclass(frozen=True)
class Assignment:
    """One node's structural assignment.

    Fields
    ------
    parents : tuple of node names read by the assignment.
    kind : ``"linear"`` or ``"custom"``.
    weights : per-parent coefficients (linear kind only).
    intercept : additive constant (linear kind only).
    noise : NoiseSpec added to the deterministic part.
    func : callable(*parent_columns) -> column (custom kind only).
    """

    parents: tuple
    kind: str
    noise: NoiseSpec
    weights: tuple = ()
    intercept: float = 0.0
    func: object = None

    @staticmethod
    def linear(parents, weights, intercept: float = 0.0,
               noise: NoiseSpec = None) -> "Assignment":
        parents = tuple(parents)
        weights = check_value("weights", weights, (0.0,))
        if len(parents) != len(weights):
            raise ConfigValidationError(
                f"weights = {weights!r} must hold one weight per parent")
        return Assignment(parents, "linear", noise or NoiseSpec.constant(0.0),
                          weights, check_value("intercept", intercept, 0.0))

    @staticmethod
    def exogenous(noise: NoiseSpec) -> "Assignment":
        """A parentless node: pure noise (optionally constant)."""
        return Assignment.linear((), (), 0.0, noise)

    @staticmethod
    def custom(parents, func, noise: NoiseSpec = None) -> "Assignment":
        """Opaque deterministic function of the parents plus additive noise."""
        return Assignment(tuple(parents), "custom",
                          noise or NoiseSpec.constant(0.0), func=func)


class StructuralModel:
    """Nodes plus one assignment each; parent edges are implied.

    ``assignments`` may be a mapping or an iterable of (name, Assignment)
    pairs. Node order is the assignment order unless ``nodes`` gives it,
    and fixes the column order of samples and of the analytic covariance
    matrix. The model is checked when built and never changes afterwards
    (:func:`intervene` builds a new one); ``_order`` holds its evaluation
    order, the ``order`` of its :class:`graph.Dag`: parents before
    children, ties broken by declared node order.

    Raises
    ------
    DuplicateAssignmentError
        A node has more or fewer than exactly one assignment.
    UnknownParentError
        An assignment references an undeclared node.
    CycleError
        The parent graph has a directed cycle (the message names one).
    """

    def __init__(self, assignments, nodes=None):
        if isinstance(assignments, dict):
            assignments = assignments.items()
        self.assignments = {}
        for k, v in assignments:
            k = str(k)
            if k in self.assignments:
                raise DuplicateAssignmentError(
                    f"node {k!r} assigned more than once")
            self.assignments[k] = v
        self.nodes = list(nodes) if nodes is not None else list(self.assignments)
        declared = set(self.nodes)
        missing = [n for n in self.nodes if n not in self.assignments]
        if missing or len(declared) != len(self.nodes):
            raise DuplicateAssignmentError(
                "every declared node needs exactly one assignment; offending: "
                f"{missing or 'duplicate node names'}")
        for name, a in self.assignments.items():
            if name not in declared:
                raise UnknownParentError(f"assignment for undeclared node {name!r}")
            for p in a.parents:
                if p not in declared:
                    raise UnknownParentError(
                        f"node {name!r} references unknown parent {p!r}")
        self._order = Dag.from_structural_model(self).order
        self._cov = None    # read-only moments, set on first use by
        self._mu = None     # population_covariance / population_mean

    def __repr__(self):
        return f"StructuralModel({len(self.nodes)} nodes)"


def validate_model(model: StructuralModel) -> StructuralModel:
    """Return ``model`` unchanged.

    A :class:`StructuralModel` checks itself and sets its evaluation order
    when it is built, so every instance is already valid; this function
    remains for callers that validate explicitly.
    """
    return model


def sample(model: StructuralModel, n: int, seed: int) -> Dataset:
    """Draw ``n`` rows by evaluating assignments in topological order.

    Noise for each node comes from a substream keyed by the node's index in
    the declared order, so identical (model, n, seed) inputs give
    bit-identical datasets regardless of evaluation order.
    """
    n = check_value("n", n, 0, "[1, inf)")
    order = model._order
    node_idx = {name: i for i, name in enumerate(model.nodes)}
    cols = {}
    for name in order:
        a = model.assignments[name]
        noise = a.noise.draw(seed, (node_idx[name],), n)
        if a.kind == "linear":
            value = np.full(n, a.intercept, dtype=np.float64)
            for p, w in zip(a.parents, a.weights):
                value += w * cols[p]
            value += noise
        else:
            value = np.asarray(a.func(*[cols[p] for p in a.parents]),
                               dtype=np.float64) + noise
        cols[name] = value
    return Dataset({name: cols[name] for name in model.nodes})


def intervene(model: StructuralModel, node: str, value) -> StructuralModel:
    """Graph surgery: replace ``node``'s assignment, cutting its parents.

    ``value`` is a constant (the node becomes that constant) or a NoiseSpec
    (the node becomes exogenous with that distribution). Other assignments
    are untouched; a new model is returned.
    """
    if node not in model.assignments:
        raise UnknownNodeError(f"no node named {node!r}")
    if isinstance(value, NoiseSpec):
        new = Assignment.exogenous(value)
    else:
        new = Assignment.exogenous(NoiseSpec.constant(value))
    return StructuralModel({k: new if k == node else a
                            for k, a in model.assignments.items()},
                           nodes=model.nodes)


def _require_linear_gaussian(model: StructuralModel) -> None:
    for name, a in model.assignments.items():
        if a.kind != "linear":
            raise NonlinearModelError(
                f"node {name!r} has a custom assignment; analytic solving "
                "covers only linear-additive models")
        if a.noise.kind == "uniform":
            raise NonlinearModelError(
                f"node {name!r} has uniform noise; analytic solving covers "
                "Gaussian or constant noise only")


def population_covariance(model: StructuralModel) -> np.ndarray:
    """Exact covariance matrix over ``model.nodes`` by forward propagation.

    Restricted to linear-additive assignments with Gaussian or constant
    noise. For node v with parents P and weights w:
    Cov(v, u) = sum_p w_p Cov(p, u) for previously solved u, and
    Var(v) = w' Sigma_PP w + Var(noise).

    The matrix is computed once per model, stored on it and returned
    read-only (writing into it raises ``ValueError``); copy it to modify.
    A model is never changed after it is built (:func:`intervene` builds
    a new one), so the stored matrix cannot go stale.
    """
    if model._cov is not None:
        return model._cov
    _require_linear_gaussian(model)
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
            cross = cov[pidx, :] .T @ w          # Cov(v, everything solved)
            cov[i, :] = cross
            cov[:, i] = cross
            cov[i, i] = w @ cov[np.ix_(pidx, pidx)] @ w + a.noise.variance()
        else:
            cov[i, i] = a.noise.variance()
    cov.setflags(write=False)
    model._cov = cov
    return cov


def population_mean(model: StructuralModel) -> np.ndarray:
    """Exact mean vector over ``model.nodes`` (linear-Gaussian models).

    Computed once per model, stored on it and returned read-only, like
    :func:`population_covariance`.
    """
    if model._mu is not None:
        return model._mu
    _require_linear_gaussian(model)
    order = model._order
    idx = {name: i for i, name in enumerate(model.nodes)}
    mu = np.zeros(len(model.nodes))
    for name in order:
        a = model.assignments[name]
        mu[idx[name]] = (a.intercept
                         + sum(w * mu[idx[p]] for p, w in zip(a.parents, a.weights))
                         + a.noise.mean())
    mu.setflags(write=False)
    model._mu = mu
    return mu


def population_regression(model: StructuralModel, target: str,
                          regressors) -> np.ndarray:
    """Population least-squares coefficients [intercept, b_1..b_k] of
    target on regressors — the limit of any consistent OLS fit.

    Reads the model's stored moments, so repeated calls on one model cost
    only the regressor block's solve.
    """
    regressors = list(regressors)
    for name in [target, *regressors]:
        if name not in model.assignments:
            raise UnknownNodeError(f"no node named {name!r}")
    cov = population_covariance(model)
    mu = population_mean(model)
    idx = {name: i for i, name in enumerate(model.nodes)}
    xi = [idx[r] for r in regressors]
    yi = idx[target]
    sxx = cov[np.ix_(xi, xi)]
    sxy = cov[xi, yi]
    if xi:
        svals = np.linalg.svd(sxx, compute_uv=False)
        if svals[0] == 0 or svals[0] / max(svals[-1], 1e-300) > _COND_LIMIT:
            raise SingularCovarianceError(
                f"regressor covariance condition number exceeds {_COND_LIMIT:g}")
        beta = np.linalg.solve(sxx, sxy)
    else:
        beta = np.zeros(0)
    intercept = mu[yi] - beta @ mu[xi]
    return np.concatenate([[intercept], beta])


def total_effect_linear(model: StructuralModel, cause: str, outcome: str) -> float:
    """Sum over all directed cause->outcome paths of the edge-weight product.

    Equals the derivative of E[outcome] with respect to t under the
    intervention cause := t, for linear models.
    """
    for name in (cause, outcome):
        if name not in model.assignments:
            raise UnknownNodeError(f"no node named {name!r}")
    if cause == outcome:
        raise OverlappingSetsError("cause and outcome must differ")
    order = model._order
    effect = {cause: 1.0}
    for name in order:
        if name == cause:
            continue
        a = model.assignments[name]
        contributions = [(p, w) for p, w in zip(a.parents, a.weights or ())
                         if p in effect]
        if a.kind == "custom" and any(p in effect for p in a.parents):
            raise NonlinearModelError(
                f"node {name!r} on a path from {cause!r} has a custom "
                "assignment; path-product effects need linear weights")
        if contributions:
            effect[name] = sum(w * effect[p] for p, w in contributions)
    return effect.get(outcome, 0.0)


# --- model definition files ---------------------------------------------
#
# Plain-text INI schema, linear-additive models only:
#
#   [model]
#   nodes = x0 x1 y          ; declared order
#
#   [node x1]
#   parents = x0             ; omitted for exogenous nodes
#   weights = -2.0
#   intercept = 0.0
#   noise = gaussian 0 1     ; or: uniform LO HI | constant C
#

def save_model(model: StructuralModel, path: str) -> None:
    """Write a linear-additive model to the INI schema above."""
    cp = configparser.ConfigParser()
    cp["model"] = {"nodes": " ".join(model.nodes)}
    for name in model.nodes:
        a = model.assignments[name]
        if a.kind != "linear":
            raise ValueError(
                f"node {name!r} has a custom assignment; model files hold "
                "linear-additive assignments only")
        sec = {}
        if a.parents:
            sec["parents"] = " ".join(a.parents)
            sec["weights"] = " ".join(repr(w) for w in a.weights)
        if a.intercept != 0.0:
            sec["intercept"] = repr(a.intercept)
        sec["noise"] = f"{a.noise.kind} " + " ".join(repr(p) for p in a.noise.params)
        cp[f"node {name}"] = sec
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


_NOISE_KINDS = {"gaussian": NoiseSpec.gaussian, "uniform": NoiseSpec.uniform,
                "constant": NoiseSpec.constant}


def load_model(path: str) -> StructuralModel:
    """Read a model written by :func:`save_model`.

    Raises ModelFileError, naming the path, for a file that is not INI, a
    missing section or key, a key or a section the schema does not hold (a
    misspelt key, a node that ``nodes`` does not list), an unknown noise
    kind, or values the noise or assignment constructors reject (a value
    that does not parse as a number, a non-finite one).
    """
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ModelFileError(f"{path}: not a model file: {exc}") from None

    def section(name):
        if not cp.has_section(name):
            raise ModelFileError(f"{path}: missing section [{name}]")
        return cp[name]

    def value(sec, key):
        if key not in sec:
            raise ModelFileError(f"{path}: [{sec.name}] has no {key!r} key")
        return sec[key]

    def known(sec, keys):
        for key in sec:
            if key not in keys:
                raise ModelFileError(
                    f"{path}: [{sec.name}] unknown key {key!r}; valid keys: "
                    f"{', '.join(keys)}")

    model = section("model")
    nodes = value(model, "nodes").split()
    known(model, ("nodes",))
    pairs = []
    for name in nodes:
        sec = section(f"node {name}")
        kind, *params = value(sec, "noise").split() or [""]
        known(sec, ("intercept", "noise", "parents", "weights"))
        if kind not in _NOISE_KINDS:
            raise ModelFileError(
                f"{path}: [{sec.name}] unknown noise kind {kind!r}; choose "
                f"from {', '.join(_NOISE_KINDS)}")
        try:
            noise = _NOISE_KINDS[kind](*params)
            pairs.append((name, Assignment.linear(
                sec.get("parents", "").split(), sec.get("weights", ""),
                sec.get("intercept", "0.0"), noise)))
        except (TypeError, ValueError) as exc:
            raise ModelFileError(f"{path}: [{sec.name}] {exc}") from None
    listed = {"model", *(f"node {name}" for name in nodes)}
    for name in cp.sections():
        if name not in listed:
            raise ModelFileError(
                f"{path}: unknown section [{name}]; [model] nodes lists "
                f"{' '.join(nodes)}")
    return StructuralModel(pairs, nodes=nodes)
