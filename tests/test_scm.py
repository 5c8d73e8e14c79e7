import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from scmlab import (Assignment, Dag, NoiseSpec, StructuralModel, intervene,
                    load_model, population_covariance, population_mean,
                    population_regression, sample, save_model,
                    total_effect_linear, validate_model)
from scmlab.errors import (ConfigValidationError, CycleError,
                           DatasetShapeError, DuplicateAssignmentError,
                           ModelFileError,
                           NonlinearModelError, OverlappingSetsError,
                           SingularCovarianceError, UnknownNodeError,
                           UnknownParentError)
from scmlab import scm
from scmlab.experiments.generators import (confounded_chain_model,
                                           exogenous_predictor_model)
from sem_helpers import (dense_covariance, dense_mean, forward_covariance,
                         forward_mean, forward_total_effect, oracle_digest,
                         random_linear_model, total_effect_matrix)


def two_node(sd=0.5):
    return validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.linear(["x"], [2.0], intercept=1.0,
                               noise=NoiseSpec.gaussian(sd=sd)),
    }))


def chain_model():
    return validate_model(StructuralModel({
        "a": Assignment.exogenous(NoiseSpec.gaussian()),
        "b": Assignment.linear(["a"], [2.0], noise=NoiseSpec.gaussian()),
        "c": Assignment.linear(["b", "a"], [3.0, -1.0],
                               noise=NoiseSpec.gaussian(sd=0.1)),
    }))


# --- validation -----------------------------------------------------------

def test_validate_rejects_duplicate_assignment():
    with pytest.raises(DuplicateAssignmentError):
        validate_model(StructuralModel([
            ("x", Assignment.exogenous(NoiseSpec.gaussian())),
            ("x", Assignment.exogenous(NoiseSpec.gaussian())),
        ]))


def test_validate_rejects_unknown_parent():
    with pytest.raises(UnknownParentError):
        validate_model(StructuralModel({
            "y": Assignment.linear(["ghost"], [1.0],
                                   noise=NoiseSpec.gaussian()),
        }))


def test_validate_rejects_cycle():
    with pytest.raises(CycleError) as err:
        validate_model(StructuralModel({
            "a": Assignment.linear(["b"], [1.0], noise=NoiseSpec.gaussian()),
            "b": Assignment.linear(["a"], [1.0], noise=NoiseSpec.gaussian()),
        }))
    assert "a" in str(err.value) or "b" in str(err.value)


def out_of_order_model():
    # declared children-first, with d, a and e ready at the start: only
    # the declared-order tie-break gives d, a, b, c, e
    return validate_model(StructuralModel([
        ("c", Assignment.linear(["b", "a"], [1.0, 1.0])),
        ("d", Assignment.exogenous(NoiseSpec.gaussian())),
        ("b", Assignment.linear(["a"], [1.0])),
        ("a", Assignment.exogenous(NoiseSpec.gaussian())),
        ("e", Assignment.exogenous(NoiseSpec.gaussian())),
    ]))


def test_validate_returns_model_and_caches_order():
    for build, order in ((chain_model, ["a", "b", "c"]),
                         (out_of_order_model, ["d", "a", "b", "c", "e"])):
        m = build()
        assert m._order == order


@pytest.mark.parametrize("pairs, error", [
    ([("x", Assignment.exogenous(NoiseSpec.gaussian())),
      ("x", Assignment.exogenous(NoiseSpec.gaussian()))],
     DuplicateAssignmentError),
    ([("y", Assignment.linear(["ghost"], [1.0]))], UnknownParentError),
    ([("a", Assignment.linear(["b"], [1.0])),
      ("b", Assignment.linear(["a"], [1.0]))], CycleError),
])
def test_constructor_checks_model_without_validate(pairs, error):
    with pytest.raises(error):
        StructuralModel(pairs)


@pytest.mark.parametrize("nodes, error, message", [
    (["x", "y", "z"], DuplicateAssignmentError, "offending: ['z']"),
    (["y"], UnknownParentError, "assignment for undeclared node 'x'"),
])
def test_declared_nodes_and_assignments_must_match(nodes, error, message):
    assignments = {"x": Assignment.exogenous(NoiseSpec.gaussian()),
                   "y": Assignment.exogenous(NoiseSpec.gaussian())}
    with pytest.raises(error, match=re.escape(message)):
        StructuralModel(assignments, nodes=nodes)


@pytest.mark.parametrize("build, field", [
    (lambda: NoiseSpec.gaussian(sd=float("nan")), "sd"),  # [[nan]] covariance
    (lambda: NoiseSpec.gaussian(sd=-0.1), "sd"),
    (lambda: NoiseSpec.gaussian(mean=float("inf")), "mean"),
    (lambda: NoiseSpec.uniform(float("nan"), 1.0), "lo"),
    (lambda: NoiseSpec.uniform(0.0, float("inf")), "hi"),
    (lambda: NoiseSpec.uniform(2.0, 1.0), "lo"),
    (lambda: NoiseSpec.constant(float("nan")), "c"),
    (lambda: Assignment.linear(["a"], [float("nan")]), "weights"),
    (lambda: Assignment.linear(["a"], [1.0, 2.0]), "weights"),
    (lambda: Assignment.linear([], [], intercept=float("inf")), "intercept"),
    (lambda: NoiseSpec.gaussian(sd=None), "sd"),        # bare TypeError
    (lambda: sample(two_node(), 2.5, 0), "n"),          # numpy TypeError
])
def test_noise_and_assignment_reject_bad_parameters(build, field):
    # every non-finite row was accepted and sampled or solved silently
    with pytest.raises(ConfigValidationError, match=field):
        build()


def test_intervened_model_is_ordered_when_built():
    # b loses its parent a, so the declared-order tie-break puts b first
    m = intervene(out_of_order_model(), "b", 1.0)
    assert m._order == ["d", "b", "a", "c", "e"]


# --- sampling -------------------------------------------------------------

def test_sample_deterministic_and_seed_sensitive():
    m = chain_model()
    d1 = sample(m, 100, seed=5)
    d2 = sample(m, 100, seed=5)
    d3 = sample(m, 100, seed=6)
    for name in m.nodes:
        assert np.array_equal(d1.column(name), d2.column(name))
    assert not np.array_equal(d1.column("a"), d3.column("a"))


def test_sample_respects_assignments_exactly():
    m = two_node(sd=0.0)
    d = sample(m, 50, seed=1)
    assert np.allclose(d.column("y"), 1.0 + 2.0 * d.column("x"))


def test_sample_matches_population_moments():
    m = chain_model()
    d = sample(m, 200_000, seed=3)
    cov = population_covariance(m)
    mu = population_mean(m)
    X = d.matrix(m.nodes)
    assert np.allclose(X.mean(axis=0), mu, atol=0.02)
    assert np.allclose(np.cov(X.T), cov, atol=0.15)


def test_sample_custom_assignment():
    m = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], lambda x: x ** 2,
                               noise=NoiseSpec.constant(0.0)),
    }))
    d = sample(m, 40, seed=0)
    assert np.allclose(d.column("y"), d.column("x") ** 2)


@pytest.mark.parametrize("func, shape", [
    (lambda x: 2.0, ()), (lambda x: np.array([2.0]), (1,)),
    (lambda x: x + 2.0, (40,)), (lambda x: x[:-1], None),
    (lambda x: x[:, None], None)])
def test_sample_custom_assignment_result_shapes(func, shape):
    # one value, or one per row, is added to the node's noise; any other
    # shape names the node instead of failing inside numpy's broadcast
    m = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], func, noise=NoiseSpec.gaussian()),
    })
    if shape is None:
        with pytest.raises(DatasetShapeError, match="node 'y': custom "
                           "assignment gave shape .*, not \\(40,\\)"):
            sample(m, 40, seed=0)
        return
    d = sample(m, 40, seed=0)
    noise = NoiseSpec.gaussian().draw(0, (1,), 40)
    assert np.array_equal(d.column("y"), func(d.column("x")) + noise)


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        sample(two_node(), 0, seed=0)


def test_uniform_noise_matches_declared_moments():
    spec = NoiseSpec.uniform(-0.5, 1.5)
    draws = spec.draw(0, (0,), 100_000)
    assert abs(draws.mean() - spec.mean()) < 0.01
    assert abs(draws.var() - spec.variance()) < 0.01


# --- interventions --------------------------------------------------------

def test_intervene_sets_constant_and_cuts_parents():
    m = chain_model()
    m_do = intervene(m, "b", 10.0)
    d = sample(m_do, 30, seed=2)
    assert np.all(d.column("b") == 10.0)
    # a is untouched: same noise stream, same values
    assert np.array_equal(d.column("a"), sample(m, 30, seed=2).column("a"))
    cov = population_covariance(m_do)
    i = {n: k for k, n in enumerate(m_do.nodes)}
    assert cov[i["a"], i["b"]] == 0.0          # upstream link severed


def test_intervene_with_noisespec():
    m = chain_model()
    m_do = intervene(m, "b", NoiseSpec.gaussian(sd=3.0))
    cov = population_covariance(m_do)
    i = {n: k for k, n in enumerate(m_do.nodes)}
    assert cov[i["b"], i["b"]] == pytest.approx(9.0)
    assert cov[i["a"], i["b"]] == 0.0


def test_intervene_unknown_node():
    with pytest.raises(UnknownNodeError):
        intervene(chain_model(), "zz", 1.0)


def test_intervention_mean_shift_equals_total_effect():
    m = chain_model()
    effect = total_effect_linear(m, "a", "c")
    mu1 = population_mean(intervene(m, "a", 1.0))
    mu0 = population_mean(intervene(m, "a", 0.0))
    i = m.nodes.index("c")
    assert mu1[i] - mu0[i] == pytest.approx(effect)


# --- analytic solutions ---------------------------------------------------

def test_population_covariance_hand_case():
    cov = population_covariance(two_node(sd=0.5))
    # Var x = 1; Cov(x,y) = 2; Var y = 4 + 0.25
    assert np.allclose(cov, [[1.0, 2.0], [2.0, 4.25]])


def test_population_covariance_chain_hand_case():
    cov = population_covariance(chain_model())
    # b = 2a + e: Var 5;  c = 3b - a + e': Cov(a,c) = 5, Var(c) = 9*5+1-6*...
    expect = np.array([
        [1.0, 2.0, 5.0],
        [2.0, 5.0, 13.0],
        [5.0, 13.0, 34.01],
    ])
    assert np.allclose(cov, expect)


def test_population_mean_propagates_intercepts():
    m = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian(mean=2.0)),
        "y": Assignment.linear(["x"], [3.0], intercept=-1.0,
                               noise=NoiseSpec.gaussian()),
    }))
    assert np.allclose(population_mean(m), [2.0, 5.0])


def test_population_regression_on_no_regressors_is_the_mean():
    m = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian(mean=2.0)),
        "y": Assignment.linear(["x"], [3.0], intercept=-1.0,
                               noise=NoiseSpec.gaussian()),
    })
    assert population_regression(m, "y", []).tolist() == [5.0]


def test_population_covariance_rejects_custom_and_uniform():
    custom = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], lambda x: x * x,
                               noise=NoiseSpec.gaussian()),
    })
    with pytest.raises(NonlinearModelError):
        population_covariance(validate_model(custom))
    uni = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.uniform(0.0, 1.0)),
    })
    with pytest.raises(NonlinearModelError):
        population_covariance(validate_model(uni))


def test_moments_are_stored_read_only():
    m = chain_model()
    beta = population_regression(m, "c", ["b"])
    cov, mu = population_covariance(m), population_mean(m)
    assert population_covariance(m) is cov and population_mean(m) is mu
    with pytest.raises(ValueError):
        cov[0, 0] = 99.0
    with pytest.raises(ValueError):
        mu[:] = 0.0
    with pytest.raises(ValueError):
        cov *= 2.0
    again = population_regression(m, "c", ["b"])
    assert again.tobytes() == beta.tobytes()
    # a fresh model computes the same coefficients from scratch
    assert population_regression(chain_model(), "c", ["b"]).tobytes() == beta.tobytes()


def test_intervened_model_gets_its_own_moments():
    m = chain_model()
    cov, mu = population_covariance(m), population_mean(m)
    cov_before, mu_before = cov.copy(), mu.copy()
    m_do = intervene(m, "b", 3.0)
    cov_do, mu_do = population_covariance(m_do), population_mean(m_do)
    assert cov_do is not cov and mu_do is not mu
    assert cov_do[1, 1] == 0.0 and mu_do[1] == 3.0
    assert population_covariance(m) is cov and population_mean(m) is mu
    assert np.array_equal(cov, cov_before) and np.array_equal(mu, mu_before)


def test_non_gaussian_models_raise_on_every_call():
    custom = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], lambda x: x * x,
                               noise=NoiseSpec.gaussian()),
    }))
    uni = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.uniform(0.0, 1.0)),
        "y": Assignment.linear(["x"], [1.0], noise=NoiseSpec.gaussian()),
    }))
    for m in (custom, uni):
        for _ in range(2):
            for oracle in (population_covariance, population_mean,
                           lambda m: population_regression(m, "y", ["x"])):
                with pytest.raises(NonlinearModelError):
                    oracle(m)


def test_population_regression_exact_on_structural_truth():
    m = chain_model()
    beta = population_regression(m, "c", ["b", "a"])
    assert np.allclose(beta, [0.0, 3.0, -1.0])


def test_population_regression_confounded_limit_matches_ols():
    m = chain_model()
    beta = population_regression(m, "c", ["b"])
    d = sample(m, 300_000, seed=9)
    X = np.column_stack([np.ones(d.n_rows), d.column("b")])
    hat = np.linalg.lstsq(X, d.column("c"), rcond=None)[0]
    assert np.allclose(beta, hat, atol=0.01)


def test_population_regression_singular():
    m = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "x2": Assignment.linear(["x"], [1.0]),      # exact copy, no noise
        "y": Assignment.linear(["x"], [1.0], noise=NoiseSpec.gaussian()),
    }))
    with pytest.raises(SingularCovarianceError):
        population_regression(m, "y", ["x", "x2"])


def test_population_regression_unknown_node():
    with pytest.raises(UnknownNodeError):
        population_regression(chain_model(), "c", ["nope"])


def test_total_effect_sums_paths():
    # a -> b -> c (2 * 3) plus direct a -> c (-1)
    assert total_effect_linear(chain_model(), "a", "c") == pytest.approx(5.0)
    assert total_effect_linear(chain_model(), "c", "a") == 0.0


def test_total_effect_rejects_cause_equal_to_outcome():
    with pytest.raises(OverlappingSetsError,
                       match="cause and outcome must differ") as err:
        total_effect_linear(chain_model(), "b", "b")
    assert isinstance(err.value, ValueError)


def test_total_effect_rejects_custom_on_path():
    m = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "m": Assignment.custom(["x"], lambda x: np.tanh(x),
                               noise=NoiseSpec.constant(0.0)),
        "y": Assignment.linear(["m"], [1.0], noise=NoiseSpec.gaussian()),
    }))
    with pytest.raises(NonlinearModelError):
        total_effect_linear(m, "x", "y")
    # off-path custom nodes are fine
    m2 = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.linear(["x"], [4.0], noise=NoiseSpec.gaussian()),
        "w": Assignment.custom([], lambda: 0.0,
                               noise=NoiseSpec.gaussian()),
    }))
    assert total_effect_linear(m2, "x", "y") == pytest.approx(4.0)


@pytest.mark.parametrize("n, seed", [(40, 1), (120, 2), (300, 3)])
def test_linear_oracles_match_dense_matrix_form(n, seed):
    m = random_linear_model(n, seed)
    assert m.nodes != m._order                 # declared out of order
    assert np.allclose(population_covariance(m), dense_covariance(m),
                       rtol=1e-10, atol=1e-10)
    assert np.allclose(population_mean(m), dense_mean(m),
                       rtol=1e-10, atol=1e-10)
    A = total_effect_matrix(m)
    g = np.random.default_rng(seed)
    linked = np.argwhere(A - np.eye(n) != 0)   # (outcome, cause), path exists
    queries = [*linked[g.choice(len(linked), 15)], *g.choice(n, size=(5, 2))]
    for o, c in queries:
        if c != o:
            assert abs(total_effect_linear(m, m.nodes[c], m.nodes[o])
                       - A[o, c]) <= 1e-10 * (1.0 + abs(A[o, c]))


# --- level by level against node by node ---------------------------------

def _all_effects(m, pairs=None):
    """Every (cause, outcome) effect the package and the node-by-node twin
    both give, as two float64 arrays; the twin refuses custom nodes."""
    pairs = pairs or [(c, o) for c in m.nodes for o in m.nodes if c != o]
    got = [total_effect_linear(m, c, o) for c, o in pairs]
    ref = [forward_total_effect(m, c, o) for c, o in pairs]
    return np.array(got), np.array(ref)


@pytest.mark.parametrize("build", [
    confounded_chain_model,
    lambda: exogenous_predictor_model((1.0, 2.0, -0.5, 0.3)),
    lambda: exogenous_predictor_model((0.1, 0.7, -1.3, 2.9)),
    chain_model, out_of_order_model,
], ids=["confounded-chain", "exogenous-predictor", "exogenous-predictor-2",
        "chain", "out-of-order"])
def test_level_oracles_bit_equal_node_by_node_on_report_models(build):
    m = build()
    assert population_covariance(m).tobytes() == forward_covariance(m).tobytes()
    assert population_mean(m).tobytes() == forward_mean(m).tobytes()
    got, ref = _all_effects(m)
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n, seed", [(40, 1), (120, 2), (300, 3), (300, 4)])
def test_level_oracles_match_node_by_node_on_random_models(n, seed):
    # the covariance may pair a node with a deeper one from the other
    # side than the node-by-node walk did, which moves the last digits
    m = random_linear_model(n, seed)
    cov, ref = population_covariance(m), forward_covariance(m)
    sd = np.sqrt(np.diag(ref))
    assert np.array_equal(cov, cov.T)
    assert np.all(np.abs(cov - ref) <= 1e-15 * np.outer(sd, sd))
    assert population_mean(m).tobytes() == forward_mean(m).tobytes()
    g = np.random.default_rng(seed)
    pairs = [(m.nodes[c], m.nodes[o]) for c, o in g.choice(n, size=(200, 2))
             if c != o]
    got, ref = _all_effects(m, pairs)
    assert got.tobytes() == ref.tobytes()
    assert (got == 0.0).sum() > 50          # most pairs have no path


def test_total_effect_without_a_path_is_positive_zero():
    # y's only parent z does not descend from x, and 0.0 times a negative
    # weight is -0.0: the sum still starts from +0.0
    m = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "z": Assignment.linear(["x"], [0.0], noise=NoiseSpec.gaussian()),
        "w": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.linear(["w", "z"], [-2.0, -1.0],
                               noise=NoiseSpec.gaussian()),
    })
    for cause, outcome in (("w", "z"), ("y", "x"), ("z", "w")):
        effect = total_effect_linear(m, cause, outcome)
        assert effect == 0.0 and math.copysign(1.0, effect) == 1.0
    # a zero-weight path is still a path: +0.0 from x through z to y
    effect = total_effect_linear(m, "x", "y")
    assert effect == 0.0 and math.copysign(1.0, effect) == 1.0


def test_total_effect_custom_nodes_on_and_off_the_paths():
    m = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "c": Assignment.custom(["x"], np.tanh),            # descends from x
        "u": Assignment.custom([], lambda: 0.0, noise=NoiseSpec.gaussian()),
        "m": Assignment.linear(["x", "u"], [2.0, 5.0]),
        "y": Assignment.linear(["m", "u"], [3.0, 1.0], noise=NoiseSpec.gaussian()),
        "d": Assignment.linear(["c", "y"], [1.0, 1.0]),
    })
    # c descends from x but no path to y runs through it, and u is no
    # descendant of x: both are off every x -> y path
    assert total_effect_linear(m, "x", "y") == 6.0
    assert total_effect_linear(m, "u", "y") == 16.0
    with pytest.raises(NonlinearModelError, match="node 'c' on a path from 'x'"):
        total_effect_linear(m, "x", "d")
    # a custom outcome that descends from the cause is on the path itself
    with pytest.raises(NonlinearModelError, match="node 'c'"):
        total_effect_linear(m, "x", "c")


def test_level_plan_built_once_per_model_and_never_by_sample(monkeypatch):
    built = []
    build = scm._LevelPlan.of

    def once(model):
        if built:
            raise AssertionError("level plan built a second time")
        built.append(model)
        return build(model)

    monkeypatch.setattr(scm._LevelPlan, "of", staticmethod(once))
    m = confounded_chain_model()
    sample(m, 50, seed=1)
    assert built == [] and "_plan" not in vars(m)
    for _ in range(2):
        total_effect_linear(m, "x0", "y")
        population_covariance(m)
        population_mean(m)
        population_regression(m, "y", ["x0", "x2"])
    assert built == [m]
    sample(m, 50, seed=1)
    assert built == [m]


def _tanh_sum(*columns):
    return np.tanh(sum(columns))


def random_custom_model(n, seed, share=0.15):
    """``random_linear_model(n, seed)`` with about ``share`` of its
    non-root nodes made custom functions of the same parents."""
    m = random_linear_model(n, seed)
    g = np.random.default_rng(seed)
    pairs = []
    for name in m.nodes:
        a = m.assignments[name]
        if a.parents and g.random() < share:
            a = Assignment.custom(a.parents, _tanh_sum, noise=a.noise)
        pairs.append((name, a))
    return StructuralModel(pairs)


def test_total_effect_custom_rule_on_random_models():
    # reference from the set-based walks: a custom node that descends from
    # the cause and is the outcome or one of its ancestors raises, the
    # first in evaluation order named; otherwise the effect is the one of
    # the model with every custom node cut
    raised = values = 0
    for seed in range(30):
        m = random_custom_model(60, seed)
        g = Dag.from_structural_model(m)
        custom = [n for n in m._order if m.assignments[n].kind == "custom"]
        cut = m
        for name in custom:
            cut = intervene(cut, name, 0.0)
        pairs = np.random.default_rng(seed).choice(60, size=(150, 2))
        for cause, outcome in ((m.nodes[c], m.nodes[o]) for c, o in pairs
                               if c != o):
            below = g.descendants_of(cause)
            above = g.ancestors_of([outcome]) | {outcome}
            hit = [n for n in custom if n in below and n in above]
            if hit:
                with pytest.raises(NonlinearModelError, match=re.escape(
                        f"node {hit[0]!r} on a path from {cause!r} ")):
                    total_effect_linear(m, cause, outcome)
                raised += 1
            else:
                got = total_effect_linear(m, cause, outcome)
                ref = forward_total_effect(cut, cause, outcome)
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()
                values += 1
    assert raised > 100 and values > 4000


def test_a_model_builds_one_graph_and_its_oracles_none(monkeypatch):
    built = []
    init = Dag.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Dag, "__init__", counted)
    m = confounded_chain_model()
    assert built == [m._graph]
    for _ in range(2):
        sample(m, 50, seed=1)
        population_covariance(m)
        population_mean(m)
        population_regression(m, "y", ["x0", "x2"])
        total_effect_linear(m, "x0", "y")
    assert built == [m._graph]
    assert "_masks" not in vars(m._graph)     # a linear model never needs them
    c = StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "c": Assignment.custom(["x"], np.tanh),
        "y": Assignment.linear(["x"], [2.0], noise=NoiseSpec.gaussian()),
    })
    assert built == [m._graph, c._graph]
    sample(c, 50, seed=1)
    assert "_masks" not in vars(c._graph)
    assert total_effect_linear(c, "x", "y") == 2.0
    assert "_masks" in vars(c._graph)
    assert built == [m._graph, c._graph]


def test_linear_oracles_do_not_depend_on_the_openblas_kernel():
    # the bundled OpenBLAS picks its kernel from the CPU; Nehalem's has no
    # FMA, so any BLAS call in the oracles would move their last bits
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests),
                            os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem", "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, "-c",
         "from sem_helpers import oracle_digest; print(oracle_digest())"],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == oracle_digest()


# --- model files ----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    m = chain_model()
    path = tmp_path / "chain.model"
    save_model(m, str(path))
    m2 = load_model(str(path))
    assert m2.nodes == m.nodes
    assert np.allclose(population_covariance(m2), population_covariance(m))
    d1, d2 = sample(m, 64, seed=17), sample(m2, 64, seed=17)
    for name in m.nodes:
        assert np.array_equal(d1.column(name), d2.column(name))


def test_save_rejects_custom_assignment(tmp_path):
    m = validate_model(StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], lambda x: x, noise=NoiseSpec.gaussian()),
    }))
    with pytest.raises(ValueError):
        save_model(m, str(tmp_path / "bad.model"))


@pytest.mark.parametrize("edit, expect", [
    (("[node y]", "[nody y]"), "missing section [node y]"),
    (("nodes = ", "names = "), "has no 'nodes' key"),
    (("weights = 2.0", "weights = two"),
     "could not parse weights[0] = 'two' as float"),
    (("noise = gaussian 0.0 0.5", "noise = laplace 0.0 0.5"),
     "unknown noise kind 'laplace'"),
    (("weights = 2.0", "weights = 2.0 3.0"), "one weight per parent"),
    (("[model]", ""), "not a model file"),
    (("noise = gaussian 0.0 0.5", "noise = gaussian 0.0 0.5\nscale = 0.5"),
     "[node y] unknown key 'scale'"),
    (("intercept = 1.0", "intercep = 1.0"),       # loaded as intercept 0.0
     "[node y] unknown key 'intercep'"),
    (("[node y]", "[node c]\nnoise = constant 0.0\n\n[node y]"),  # dropped
     "unknown section [node c]"),
    (("nodes = x y", "nodes = x y\ncolour = red"),  # ignored
     "[model] unknown key 'colour'"),
], ids=["missing-section", "missing-key", "non-numeric", "unknown-noise-kind",
        "weight-count", "no-section-header", "scale-key", "misspelt-key",
        "unlisted-node", "model-key"])
def test_load_model_names_the_file_and_the_fault(tmp_path, edit, expect):
    path = tmp_path / "two.model"
    save_model(two_node(), str(path))
    text = path.read_text(encoding="utf-8")
    assert edit[0] in text
    path.write_text(text.replace(edit[0], edit[1]), encoding="utf-8")
    with pytest.raises(ModelFileError, match=re.escape(expect)) as err:
        load_model(str(path))
    assert isinstance(err.value, ValueError)
    assert str(err.value).startswith(f"{path}: ")
