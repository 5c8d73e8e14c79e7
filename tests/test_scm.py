import re

import numpy as np
import pytest

from scmlab import (Assignment, NoiseSpec, StructuralModel, intervene,
                    load_model, population_covariance, population_mean,
                    population_regression, sample, save_model,
                    total_effect_linear, validate_model)
from scmlab.errors import (CycleError, DuplicateAssignmentError,
                           ModelFileError, NonlinearModelError,
                           OverlappingSetsError, SingularCovarianceError,
                           UnknownNodeError, UnknownParentError)
from sem_helpers import (dense_covariance, dense_mean, random_linear_model,
                         total_effect_matrix)


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


def test_sample_rejects_empty():
    with pytest.raises(ValueError):
        sample(two_node(), 0, seed=0)


def test_uniform_noise_matches_declared_moments():
    spec = NoiseSpec.uniform(-1.0, 3.0, scale=0.5)
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
    (("weights = 2.0", "weights = two"), "is not numeric"),
    (("noise = gaussian 0.0 0.5", "noise = laplace 0.0 0.5"),
     "unknown noise kind 'laplace'"),
    (("weights = 2.0", "weights = 2.0 3.0"), "one weight per parent"),
    (("[model]", ""), "not a model file"),
], ids=["missing-section", "missing-key", "non-numeric", "unknown-noise-kind",
        "weight-count", "no-section-header"])
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
