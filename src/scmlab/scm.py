"""Structural causal models: representation, sampling, surgery, and
closed-form solutions for the linear-Gaussian family.

A model is a set of nodes, each carrying exactly one assignment that
computes the node from its parents plus independent noise. Assignments use
assignment semantics (the value is *set* from the right-hand side, never
solved for), so the induced parent graph must be acyclic. A model checks
this when it is built by building its :class:`graph.Dag`, and keeps that
graph: its order (:func:`graph.topological_sort`) is the evaluation order,
and it answers the model's questions about node names and paths.

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
from functools import cached_property

import numpy as np

from .dataset import Dataset, _as_real, _linear
from .errors import (ConfigValidationError, DatasetShapeError,
                     DuplicateAssignmentError, ModelFileError,
                     NonlinearModelError, SingularCovarianceError,
                     UnknownParentError, check_value, names, open_file)
from .graph import Dag
from .rng import normal_column, uniform_column

_COND_LIMIT = 1e12  # condition-number guard for covariance solves
_PERMUTE_ROWS = 32  # rows per block when the covariance's columns are permuted


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
        parents = tuple(names(parents))
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
        return Assignment(tuple(names(parents)), "custom",
                          noise or NoiseSpec.constant(0.0), func=func)


class StructuralModel:
    """Nodes plus one assignment each; parent edges are implied.

    ``assignments`` may be a mapping or an iterable of (name, Assignment)
    pairs. Node order is the assignment order unless ``nodes`` gives it,
    and fixes the column order of samples and of the analytic covariance
    matrix. The model is checked when built and never changes afterwards
    (:func:`intervene` builds a new one). ``_graph`` is its parent graph,
    a :class:`graph.Dag`, and ``_order`` that graph's ``order``, the
    evaluation order: parents before children, ties broken by declared
    node order.

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
        self.nodes = names(nodes if nodes is not None else self.assignments)
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
        self._graph = Dag.from_structural_model(self)
        self._order = self._graph.order
        self._cov = None    # read-only moments, set on first use by
        self._mu = None     # population_covariance / population_mean

    @cached_property
    def _plan(self) -> "_LevelPlan":
        """The analytic oracles' level plan, built on their first call, so
        that a model that is only sampled never pays for it."""
        return _LevelPlan.of(self)

    def __repr__(self):
        return f"StructuralModel({len(self.nodes)} nodes)"


@dataclass(frozen=True)
class _Level:
    """One topological level of a model: nodes whose parents all lie in
    earlier levels, so the level is solved in one step.

    ``nodes`` holds the nodes' declared positions in evaluation order;
    they sit at ``start`` onwards in the plan's level order. ``parents``
    and ``weights`` are (width, size) arrays, width the most parents any
    node of the level has: column j holds node j's parents' declared
    positions and weights, padded with its first parent at weight 0.0 (a
    custom node's weights are all 0.0).
    """

    start: int
    nodes: np.ndarray
    parents: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class _LevelPlan:
    """A model's nodes grouped by topological level (a node's level is one
    more than its deepest parent's, 0 without parents), for the analytic
    oracles.

    ``order`` lists the declared positions level by level, and
    ``position`` is its inverse: the permutation between level order and
    declared order. ``depth``, ``intercept``, ``noise_mean`` and
    ``noise_var`` are indexed by declared position: each node's level and
    its assignment's constants. ``custom`` names the custom nodes in
    evaluation order.
    """

    depth: list
    order: np.ndarray
    position: np.ndarray
    levels: tuple
    intercept: np.ndarray
    noise_mean: np.ndarray
    noise_var: np.ndarray
    custom: tuple

    @staticmethod
    def of(model: "StructuralModel") -> "_LevelPlan":
        index = model._graph._index
        depth = [0] * len(index)
        groups = []     # per level: (declared position, parents, assignment)
        # in evaluation order every parent's level is known first
        for name in model._order:
            a = model.assignments[name]
            ps = [index[p] for p in a.parents]
            d = 1 + max([depth[i] for i in ps], default=-1)
            depth[index[name]] = d
            if d == len(groups):
                groups.append([])
            groups[d].append((index[name], ps, a))
        order = np.array([i for group in groups for i, _, _ in group],
                         dtype=np.intp)
        levels, start = [], 0
        for group in groups:
            width = max(len(ps) for _, ps, _ in group)
            parents, weights = [], []
            for _, ps, a in group:
                ws = list(a.weights) if a.kind == "linear" else []
                parents.append(ps + ps[:1] * (width - len(ps)))
                weights.append(ws + [0.0] * (width - len(ws)))
            levels.append(_Level(
                start, order[start:start + len(group)],
                _columns(parents, width, np.intp),
                _columns(weights, width, np.float64)))
            start += len(group)
        assignments = [model.assignments[name] for name in model.nodes]
        return _LevelPlan(
            depth, order, np.argsort(order), tuple(levels),
            np.array([a.intercept for a in assignments]),
            np.array([a.noise.mean() for a in assignments]),
            np.array([a.noise.variance() for a in assignments]),
            tuple(name for name in model._order
                  if model.assignments[name].kind == "custom"))


def _columns(rows: list, width: int, dtype) -> np.ndarray:
    """Equal-length lists, one per node, as a (width, nodes) array."""
    return np.ascontiguousarray(
        np.array(rows, dtype=dtype).reshape(len(rows), width).T)


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
    bit-identical datasets regardless of evaluation order. ``n`` must be a
    positive and ``seed`` a non-negative integer (else
    ConfigValidationError naming it). A custom assignment must return one
    real number, or one per row (else DatasetShapeError naming the node).
    """
    n = check_value("n", n, 0, "[1, inf)")
    seed = check_value("seed", seed, 0, "[0, inf)")
    index = model._graph._index
    cols = {}
    for name in model._order:
        a = model.assignments[name]
        noise = a.noise.draw(seed, (index[name],), n)
        if a.kind == "linear":
            value = _linear(a.intercept, a.weights,
                            [cols[p] for p in a.parents], n)
            value += noise
        else:
            value = a.func(*[cols[p] for p in a.parents])
            try:
                value = _as_real(value)
            except ValueError as exc:
                raise DatasetShapeError(
                    f"node {name!r}: custom assignment did not give real "
                    f"numbers: {exc}") from None
            if value.shape not in ((), (1,), (n,)):
                raise DatasetShapeError(
                    f"node {name!r}: custom assignment gave shape "
                    f"{value.shape}, not ({n},)")
            value = value + noise
        cols[name] = value
    return Dataset({name: cols[name] for name in model.nodes})


def intervene(model: StructuralModel, node: str, value) -> StructuralModel:
    """Graph surgery: replace ``node``'s assignment, cutting its parents.

    ``value`` is a constant (the node becomes that constant) or a NoiseSpec
    (the node becomes exogenous with that distribution). Other assignments
    are untouched; a new model is returned.
    """
    model._graph._check_nodes(node)
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
    """Exact covariance matrix over ``model.nodes`` by forward propagation,
    one topological level at a time.

    Restricted to linear-additive assignments with Gaussian or constant
    noise. For node v with parents P and weights w:
    Cov(v, u) = sum_p w_p Cov(p, u) for u in an earlier level, and
    Var(v) = w' Sigma_PP w + Var(noise). A level's rows over all earlier
    levels are combined from its parents' rows, which are complete, and
    written as one row block and its transpose; then the level's own block
    is filled, each pair from the parents of the node later in evaluation
    order. Every sum runs in parent order from +0.0, in numpy's
    elementwise arithmetic, so no BLAS kernel decides the result's bits.

    The matrix is computed once per model, stored on it and returned
    read-only (writing into it raises ``ValueError``); copy it to modify.
    A model is never changed after it is built (:func:`intervene` builds
    a new one), so the stored matrix cannot go stale.
    """
    if model._cov is not None:
        return model._cov
    _require_linear_gaussian(model)
    plan = model._plan
    k = len(model.nodes)
    # rows in declared order, columns in level order until the last step:
    # a level's columns over earlier levels are then one slice
    cov = np.zeros((k, k))
    for level in plan.levels:
        nodes, a = level.nodes, level.start
        b = a + len(nodes)
        rows = _weighted_sum(level, cov[:, :a])
        cov[nodes, :a] = rows
        cov[plan.order[:a], a:b] = rows.T
        own = _weighted_sum(level, cov[:, a:b])
        # row j was combined from node j's parents: keep it for the pairs
        # where node j comes later in evaluation order
        own = np.tril(own) + np.tril(own, -1).T
        own.flat[::len(nodes) + 1] += plan.noise_var[nodes]
        cov[nodes, a:b] = own
    for r in range(0, k, _PERMUTE_ROWS):
        # position is a permutation, so no index needs a bounds check
        cov[r:r + _PERMUTE_ROWS] = cov[r:r + _PERMUTE_ROWS].take(
            plan.position, axis=1, mode="clip")
    cov.setflags(write=False)
    model._cov = cov
    return cov


def population_mean(model: StructuralModel) -> np.ndarray:
    """Exact mean vector over ``model.nodes`` (linear-Gaussian models),
    propagated one topological level at a time: a node's mean is its
    intercept, plus its weighted parent means summed in parent order from
    +0.0, plus its noise mean.

    Computed once per model, stored on it and returned read-only, like
    :func:`population_covariance`.
    """
    if model._mu is not None:
        return model._mu
    _require_linear_gaussian(model)
    plan = model._plan
    mu = np.zeros(len(model.nodes))
    for level in plan.levels:
        nodes = level.nodes
        mu[nodes] = ((plan.intercept[nodes] + _weighted_sum(level, mu))
                     + plan.noise_mean[nodes])
    mu.setflags(write=False)
    model._mu = mu
    return mu


def _weighted_sum(level: _Level, values: np.ndarray) -> np.ndarray:
    """Per node of ``level``, its weights times its parents' entries of
    ``values`` (or rows, for a matrix), added in parent order starting from
    +0.0, as Python's ``sum`` adds. A padded slot adds 0.0 times a finite
    value, which changes no sum that starts from +0.0."""
    total = np.zeros((len(level.nodes),) + values.shape[1:])
    for p, w in zip(level.parents, level.weights):
        term = values[p]
        term *= w.reshape((-1,) + (1,) * (values.ndim - 1))
        total += term
    return total


def population_regression(model: StructuralModel, target: str,
                          regressors) -> np.ndarray:
    """Population least-squares coefficients [intercept, b_1..b_k] of
    target on regressors — the limit of any consistent OLS fit.

    Reads the model's stored moments, so repeated calls on one model cost
    only the regressor block's solve.
    """
    regressors = names(regressors)
    model._graph._check_nodes(target, *regressors)
    cov = population_covariance(model)
    mu = population_mean(model)
    idx = model._graph._index
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
    intervention cause := t, for linear models. A model with a custom
    node asks its graph for the first, in evaluation order, on a directed
    path from cause to outcome, and raises NonlinearModelError naming it.
    Otherwise the effects of cause on every node are propagated one
    topological level at a time, over the levels between cause and
    outcome only; each node's sum runs in parent order from +0.0, so an
    outcome that does not descend from cause gets +0.0.
    """
    g = model._graph
    g._check_query(cause, outcome)
    plan = model._plan
    c, o = g._index[cause], g._index[outcome]
    if plan.custom:
        name = g._first_on_path(cause, outcome, plan.custom)
        if name is not None:
            raise NonlinearModelError(
                f"node {name!r} on a path from {cause!r} has a custom "
                "assignment; path-product effects need linear weights")
    effect = np.zeros(len(model.nodes))
    effect[c] = 1.0
    for level in plan.levels[plan.depth[c] + 1:plan.depth[o] + 1]:
        effect[level.nodes] = _weighted_sum(level, effect)
    return float(effect[o])


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
    """Write a linear-additive model to the INI schema above; a custom
    assignment raises ModelFileError, naming the path and the node, before
    the file is opened."""
    cp = configparser.ConfigParser()
    cp["model"] = {"nodes": " ".join(model.nodes)}
    for name in model.nodes:
        a = model.assignments[name]
        if a.kind != "linear":
            raise ModelFileError(
                f"{path}: node {name!r} has a custom assignment; model files "
                "hold linear-additive assignments only")
        sec = {}
        if a.parents:
            sec["parents"] = " ".join(a.parents)
            sec["weights"] = " ".join(repr(w) for w in a.weights)
        if a.intercept != 0.0:
            sec["intercept"] = repr(a.intercept)
        sec["noise"] = f"{a.noise.kind} " + " ".join(repr(p) for p in a.noise.params)
        cp[f"node {name}"] = sec
    with open_file(path, "model file", "w") as fh:
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
        with open_file(path, "model file") as fh:
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
