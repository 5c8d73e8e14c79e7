"""Bad library calls end in a named ScmLabError that is still the builtin
exception the call raised before (``ValueError``, ``KeyError``,
``OSError`` or ``TypeError``), with a message naming the fault.  A call
that raised no error before, or a ``ZeroDivisionError``, raises a plain
ScmLabError."""

import numpy as np
import pytest

from scmlab import (Assignment, Dag, Dataset, GbtConfig, MlpConfig,
                    NoiseSpec, StructuralModel, attribution_summary,
                    d_separated, gbt_train, gradient_check,
                    is_valid_backdoor_set, load_graph, load_model,
                    logistic_fit, mlp_train, ols_fit, population_regression,
                    rng, sample, save_graph, save_model, scm, shapley_exact,
                    split, stepwise_forward)
from scmlab.errors import (ConfigValidationError, DatasetShapeError,
                           DegenerateColumnError, EdgeShapeError,
                           FeatureMismatchError, IoError, ModelFileError,
                           NotARealNumberError, RankDeficientError,
                           RowShapeError, ScmLabError, UnknownColumnError,
                           names)
from scmlab.experiments import build_config, parse_config_file, run
from scmlab.experiments.generators import shape_pair_model
from scmlab.flexfit import SplitPlan, predict_on_matrix
from scmlab.rng import derive_seed, substream


def _data():
    return Dataset({"x": [0.0, 1.0, 2.0, 4.0], "y": [1.0, 0.0, 2.0, 3.0]})


def _custom_model(func=np.tanh):
    return StructuralModel({
        "x": Assignment.exogenous(NoiseSpec.gaussian()),
        "y": Assignment.custom(["x"], func, noise=NoiseSpec.gaussian()),
    })


def _linear_model():
    return StructuralModel({"x": Assignment.exogenous(NoiseSpec.gaussian())})


def _sum(X):
    return X[:, 0] + X[:, 1]


def _gbt():
    return gbt_train(_data(), "y", ["x"],
                     GbtConfig(n_trees=1, depth=1, min_leaf=1))


_BACKGROUND = np.array([[0.0, 1.0], [2.0, -1.0]])


def _logistic(regressors, **columns):
    # the classes overlap on x, so only the design's rank can fail
    data = Dataset({"x": np.arange(6.0), "y": [0.0, 1.0, 0.0, 1.0, 1.0, 0.0],
                    **columns})
    return logistic_fit(data, "y", regressors)


def _stepwise(y, test_rows):
    # test_rows: the last rows, held out
    n = len(y)
    data = Dataset({"c1": np.arange(n) % 3, "c2": np.arange(n) % 2, "y": y})
    plan = SplitPlan(np.arange(n - test_rows), np.arange(n - test_rows, n))
    return stepwise_forward(data, "y", ["c1", "c2"], plan)


BAD_CALLS = [
    (lambda tmp: Dataset({"a": [[1.0, 2.0]]}), DatasetShapeError, ValueError,
     "column 'a' is not 1-dimensional"),
    (lambda tmp: Dataset({"a": [1.0, 2.0], "b": [1.0]}), DatasetShapeError,
     ValueError, "column 'b' has length 1, expected 2"),
    (lambda tmp: Dataset({}), DatasetShapeError, ValueError,
     "at least one column and one row"),
    (lambda tmp: Dataset({"a": []}), DatasetShapeError, ValueError,
     "at least one column and one row"),
    (lambda tmp: _data().column("q"), UnknownColumnError, KeyError,
     "no column named 'q'"),
    (lambda tmp: ols_fit(_data(), "y", ["q"]), UnknownColumnError, KeyError,
     "no column named 'q'"),
    (lambda tmp: save_model(_custom_model(), str(tmp / "m.model")),
     ModelFileError, ValueError, "node 'y' has a custom assignment"),
    (lambda tmp: shape_pair_model("spiral"), ConfigValidationError, ValueError,
     "shape = 'spiral' must be one of"),
    (lambda tmp: sample(_custom_model(), 10, -1), ConfigValidationError,
     ValueError, "seed = -1 must lie in"),
    (lambda tmp: sample(_custom_model(), 10, 1.5), ConfigValidationError,
     ValueError, "could not parse seed = 1.5 as int"),
    (lambda tmp: substream(-1), ConfigValidationError, ValueError,
     "seed = -1 must lie in"),
    (lambda tmp: derive_seed(-2, 0), ConfigValidationError, ValueError,
     "seed = -2 must lie in"),
    (lambda tmp: split(_data(), 0.5, seed=-1), ConfigValidationError,
     ValueError, "seed = -1 must lie in"),
    (lambda tmp: gradient_check(MlpConfig(hidden=(2,)), np.ones((4, 1)),
                                np.ones(4), seed=-1),
     ConfigValidationError, ValueError, "seed = -1 must lie in"),
    (lambda tmp: load_model(str(tmp / "none.model")), IoError, OSError,
     "cannot read model file "),
    (lambda tmp: load_model(str(tmp)), IoError, OSError,
     "cannot read model file "),
    (lambda tmp: load_graph(str(tmp / "none.graph")), IoError, OSError,
     "cannot read graph file "),
    (lambda tmp: load_graph(str(tmp)), IoError, OSError,
     "cannot read graph file "),
    (lambda tmp: save_model(_linear_model(), str(tmp / "no" / "m.model")),
     IoError, OSError, "cannot write model file "),
    (lambda tmp: save_graph(Dag(["a"], []), str(tmp / "no" / "g.graph")),
     IoError, OSError, "cannot write graph file "),
    (lambda tmp: shapley_exact(_sum, {"x1": 1.0}, _BACKGROUND,
                               features=["x1", "x2"]),
     UnknownColumnError, KeyError, "instance has no feature 'x2'"),
    (lambda tmp: shapley_exact(_sum, {"x1": 1.0, "x2": "abc"}, _BACKGROUND,
                               features=["x1", "x2"]),
     RowShapeError, ValueError, "instance feature 'x2' is not a number"),
    (lambda tmp: attribution_summary(_sum, _BACKGROUND, _BACKGROUND,
                                     ["x1", "x9"], features=["x1", "x2"]),
     FeatureMismatchError, ValueError, "relevant names ['x9'] are not"),
    (lambda tmp: sample(_custom_model(lambda x: x[:-1]), 10, 0),
     DatasetShapeError, ValueError,
     "node 'y': custom assignment gave shape (9,), not (10,)"),
    (lambda tmp: shapley_exact(_sum, ["abc", 1.0], _BACKGROUND,
                               features=["a", "b"]),
     RowShapeError, ValueError, "instance must hold numbers"),
    (lambda tmp: attribution_summary(_sum, [[1.0, 2.0], [3.0]], _BACKGROUND,
                                     [], features=["a", "b"]),
     RowShapeError, ValueError, "evaluation rows must hold numbers"),
    (lambda tmp: shapley_exact(_sum, [[1.0], 2.0], _BACKGROUND,
                               features=["a", "b"]),
     RowShapeError, ValueError, "instance must hold numbers"),
    (lambda tmp: predict_on_matrix(_gbt(), [["a"]]),
     RowShapeError, ValueError, "model rows must hold numbers"),
    (lambda tmp: Dataset({"a": ["x", "y"]}), DatasetShapeError, ValueError,
     "column 'a' does not hold numbers"),
    (lambda tmp: Dataset({"a": np.array([1 + 1j, 2.0])}), DatasetShapeError,
     ValueError, "column 'a' does not hold numbers: complex128"),
    (lambda tmp: shapley_exact(_sum, np.array([1 + 2j, 1.0]), _BACKGROUND,
                               features=["a", "b"]),
     RowShapeError, ValueError, "instance must hold numbers"),
    (lambda tmp: predict_on_matrix(_gbt(), np.array([[1 + 2j]])),
     RowShapeError, ValueError, "model rows must hold numbers"),
    (lambda tmp: shapley_exact(_sum, [1.0, 2.0], _BACKGROUND,
                               features=["a", "a"]),
     FeatureMismatchError, ValueError, "feature 'a' is listed twice"),
    (lambda tmp: Dataset({"a": [np.complex128(1 + 1j), 2.0]}),
     DatasetShapeError, ValueError,
     "column 'a' does not hold numbers: complex128 values are not real"),
    (lambda tmp: shapley_exact(_sum, [np.complex128(1 + 2j), 1.0],
                               _BACKGROUND, features=["a", "b"]),
     RowShapeError, ValueError, "instance must hold numbers"),
    (lambda tmp: sample(_custom_model(lambda x: x + 1j), 10, 0),
     DatasetShapeError, ValueError, "node 'y': custom assignment did not "
     "give real numbers: complex128 values are not real numbers"),
    (lambda tmp: sample(_custom_model(lambda x: "x"), 10, 0),
     DatasetShapeError, ValueError,
     "node 'y': custom assignment did not give real numbers"),
    # the rows below raised no error, or ZeroDivisionError, before
    (lambda tmp: _logistic(["x", "c"], c=np.full(6, 2.0)),
     RankDeficientError, ScmLabError, "design matrix is rank deficient"),
    (lambda tmp: _logistic(["x", "x"]),
     RankDeficientError, ScmLabError, "design matrix is rank deficient"),
    (lambda tmp: _logistic(["x", "x2"], x2=2.0 * np.arange(6.0)),
     RankDeficientError, ScmLabError, "design matrix is rank deficient"),
    (lambda tmp: _stepwise(np.ones(8), 3), DegenerateColumnError,
     ScmLabError, "target 'y' does not vary on the training rows"),
    (lambda tmp: _stepwise(np.r_[np.arange(5.0), 1.0, 1.0, 1.0], 3),
     DegenerateColumnError, ScmLabError,
     "target 'y' does not vary on the test rows"),
    (lambda tmp: gbt_train(_data(), "y", ["x", "x"],
                           GbtConfig(n_trees=1, depth=1, min_leaf=1)),
     FeatureMismatchError, ValueError, "feature 'x' is listed twice"),
    (lambda tmp: mlp_train(_data(), "y", ["x", "x"],
                           MlpConfig(hidden=(2,), epochs=1)),
     FeatureMismatchError, ValueError, "feature 'x' is listed twice"),
    (lambda tmp: shapley_exact(_sum, {"a": np.complex128(1 + 2j), "b": 1.0},
                               _BACKGROUND, features=["a", "b"]),
     RowShapeError, ValueError,
     "instance feature 'a' is not a number: np.complex128(1+2j)"),
    (lambda tmp: Dag(["x", "y"], ["xy"]), EdgeShapeError, ValueError,
     "edge 'xy' is a string, not a (parent, child) pair"),
    (lambda tmp: Dag(["x", "y"], ("x", "y")), EdgeShapeError, ValueError,
     "edge 'x' is a string, not a (parent, child) pair"),
    (lambda tmp: Dag(["x", "y", "z"], [("x", "y", "z")]), EdgeShapeError,
     ValueError, "edge ('x', 'y', 'z') does not hold two names"),
    # the rows below raised a bare TypeError before
    (lambda tmp: shapley_exact(_sum, {"a": None, "b": 1.0}, _BACKGROUND,
                               features=["a", "b"]),
     NotARealNumberError, TypeError,
     "instance feature 'a' is not a real number: None"),
    (lambda tmp: shapley_exact(_sum, [1 + 2j, 1.0], _BACKGROUND,
                               features=["a", "b"]),
     NotARealNumberError, TypeError, "instance must hold real numbers"),
    (lambda tmp: shapley_exact(_sum, {"a": [1, 2], "b": 1.0}, _BACKGROUND,
                               features=["a", "b"]),
     NotARealNumberError, TypeError,
     "instance feature 'a' is not a real number: [1, 2]"),
]


@pytest.mark.parametrize("call, error, builtin, message", BAD_CALLS, ids=[
    "dataset-2d-column", "dataset-lengths", "dataset-no-column",
    "dataset-no-row", "dataset-column", "ols-unknown-regressor",
    "save-custom-model", "unknown-shape", "negative-seed", "fractional-seed",
    "substream-seed", "derive-seed", "split-seed", "gradient-check-seed",
    "load-model-missing", "load-model-directory", "load-graph-missing",
    "load-graph-directory", "save-model-missing-directory",
    "save-graph-missing-directory", "shapley-instance-missing-feature",
    "shapley-instance-string-value", "summary-unknown-relevant",
    "sample-custom-wrong-length", "shapley-instance-string",
    "summary-ragged-rows", "shapley-ragged-instance",
    "predict-string-rows", "dataset-string-column", "dataset-complex-column",
    "shapley-complex-instance", "predict-complex-rows",
    "shapley-repeated-feature", "dataset-complex-scalar-list",
    "shapley-complex-scalar-instance", "sample-custom-complex",
    "sample-custom-string", "logistic-constant-regressor",
    "logistic-repeated-regressor", "logistic-collinear-regressors",
    "stepwise-constant-training-target", "stepwise-constant-test-target",
    "gbt-repeated-feature", "mlp-repeated-feature",
    "shapley-complex-dict-value", "dag-string-edge", "dag-bare-pair-edges",
    "dag-three-name-edge", "shapley-none-dict-value",
    "shapley-python-complex-instance", "shapley-sequence-dict-value"])
def test_bad_library_calls_raise_named_errors(call, error, builtin, message,
                                              tmp_path):
    with pytest.raises(error) as err:
        call(tmp_path)
    assert isinstance(err.value, ScmLabError)
    assert isinstance(err.value, builtin)
    assert message in str(err.value)


def _fig3_config_file(tmp, line):
    path = tmp / "fig3.cfg"
    path.write_text(line + "\n", encoding="utf-8")
    return run(build_config("fig3_fit", str(tmp / "out"),
                            overrides=parse_config_file(str(path))))


@pytest.mark.parametrize("call, message", [
    (lambda tmp: GbtConfig(loss="huber"),
     "loss = 'huber' must be one of squared, logistic"),
    (lambda tmp: MlpConfig(activation="sigmoid"),
     "activation = 'sigmoid' must be one of tanh, relu"),
    (lambda tmp: d_separated(Dag(["a", "b"], []), {"a"}, {"b"}, set(),
                             method="bfs"),
     "method = 'bfs' must be one of reachable, moral"),
    (lambda tmp: shape_pair_model("spiral"),
     "shape = 'spiral' must be one of quadratic, sinusoid, circle, cross"),
    (lambda tmp: _fig3_config_file(tmp, "activation = sigmoid"),
     "activation = 'sigmoid' must be one of tanh, relu"),
], ids=["gbt-loss", "mlp-activation", "dsep-method", "pair-shape",
        "fig3-config-activation"])
def test_a_choice_outside_its_list_names_the_setting_and_the_choices(
        call, message, tmp_path):
    with pytest.raises(ConfigValidationError) as err:
        call(tmp_path)
    assert str(err.value) == message


def test_a_list_of_complex_values_keeps_its_type_error():
    # numpy raises TypeError for a Python complex; the builtin stays
    for call in (lambda: Dataset({"a": [1 + 1j, 2.0]}),
                 lambda: predict_on_matrix(_gbt(), [[1 + 2j]])):
        with pytest.raises(TypeError):
            call()


def test_a_none_instance_value_keeps_its_type_error():
    # numpy would read None as NaN; float()'s TypeError stays
    with pytest.raises(TypeError, match="not 'NoneType'"):
        shapley_exact(_sum, {"a": None, "b": 1.0}, _BACKGROUND,
                      features=["a", "b"])


def test_a_none_edge_keeps_its_type_error():
    # an edge that is no iterable at all is a TypeError, as None in place
    # of a names argument is
    for edges in ([None], None):
        with pytest.raises(TypeError):
            Dag(["x", "y"], edges)


def test_unknown_column_message_is_not_quoted():
    # KeyError's own str() quotes its message; the CLI prints str(exc)
    with pytest.raises(UnknownColumnError) as err:
        _data().column("q")
    assert str(err.value) == "no column named 'q'"


def test_save_model_writes_no_file_for_a_custom_model(tmp_path):
    path = tmp_path / "m.model"
    with pytest.raises(ModelFileError, match=f"^{path}: "):
        save_model(_custom_model(), str(path))
    assert not path.exists()


def test_sample_checks_the_seed_once_per_call(monkeypatch):
    labels = []
    check = scm.check_value

    def counted(label, *args, **kwargs):
        labels.append(label)
        return check(label, *args, **kwargs)

    monkeypatch.setattr(scm, "check_value", counted)
    model = StructuralModel({f"x{i}": Assignment.exogenous(NoiseSpec.gaussian())
                             for i in range(5)})
    sample(model, 10, 3)
    assert labels.count("seed") == 1


def test_sample_checks_n_once_per_call(monkeypatch):
    labels = []

    def counted(check):
        def wrapper(label, *args, **kwargs):
            labels.append(label)
            return check(label, *args, **kwargs)
        return wrapper

    for module in (scm, rng):
        monkeypatch.setattr(module, "check_value", counted(module.check_value))
    model = StructuralModel({f"x{i}": Assignment.exogenous(NoiseSpec.gaussian())
                             for i in range(5)})
    sample(model, 10, 3)
    assert labels.count("n") == 1


# --- the names rule: a bare string is one name ----------------------------

def _named_columns():
    # read letter by letter, "ab" would be columns a and b, and "x1" would
    # be x and 1
    return Dataset({"a": np.arange(8.0), "b": np.arange(8.0) % 3,
                    "ab": [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
                    "x1": [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0],
                    "y": [0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]})


def _outcome(call):
    """What ``call()`` gives, or the named error it raises."""
    try:
        return call()
    except ScmLabError as exc:
        return f"{type(exc).__name__}: {exc}"


_GAUSS = NoiseSpec.gaussian()
# a -> ab <- b, ab -> c, d -> a: "ab" read as {a, b} would overlap the
# queries' other sets, and has ancestors a, b and d where a and b have d
_AB_GRAPH = Dag(["a", "b", "ab", "c", "d"],
                [("a", "ab"), ("b", "ab"), ("ab", "c"), ("d", "a")])
# x <- ab -> y and x -> y: {ab} is a backdoor set, {a, b} is not
_BACKDOOR = Dag(["a", "b", "ab", "x", "y"],
                [("ab", "x"), ("ab", "y"), ("x", "y")])

BARE_NAME_CALLS = [
    (lambda: _named_columns().matrix("ab")[:, 0].tolist(),
     [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
    (lambda: ols_fit(_named_columns(), "y", "ab").terms, ["intercept", "ab"]),
    (lambda: ols_fit(_named_columns(), "y", "x1").terms, ["intercept", "x1"]),
    (lambda: logistic_fit(_named_columns(), "y", "ab").terms,
     ["intercept", "ab"]),
    (lambda: population_regression(StructuralModel({
        "x1": Assignment.exogenous(_GAUSS),
        "y": Assignment.linear(["x1"], [2.0], noise=_GAUSS)}),
        "y", "x1").tolist(), [0.0, 2.0]),
    (lambda: stepwise_forward(_named_columns(), "y", "ab",
                              SplitPlan(np.arange(5), np.arange(5, 8))),
     "ConfigValidationError: len(candidates) = 1 must lie in [2, inf)"),
    (lambda: gbt_train(_named_columns(), "y", "ab",
                       GbtConfig(n_trees=1, depth=1, min_leaf=1)).feature_names,
     ["ab"]),
    (lambda: mlp_train(_named_columns(), "y", "ab",
                       MlpConfig(hidden=(2,), epochs=1)).feature_names,
     ["ab"]),
    (lambda: shapley_exact(lambda X: X[:, 0], [1.0], np.zeros((2, 1)),
                           features="ab").phi.tolist(), [1.0]),
    (lambda: Assignment.linear("x1", [1.0]).parents, ("x1",)),
    (lambda: Assignment.custom("ab", np.tanh).parents, ("ab",)),
    (lambda: StructuralModel({"ab": Assignment.exogenous(_GAUSS)},
                             nodes="ab").nodes, ["ab"]),
    (lambda: Dag("ab", []).nodes, ["ab"]),
    (lambda: Dag(["ab", "c"], [("ab", "c")], observed="ab").observed, {"ab"}),
    (lambda: sorted(_AB_GRAPH.ancestors_of("ab")), ["a", "b", "d"]),
    (lambda: d_separated(_AB_GRAPH, "ab", "d", ["a"]), True),
    (lambda: d_separated(_AB_GRAPH, "d", "ab", ["a"]), True),
    (lambda: d_separated(_AB_GRAPH, "a", "c", "ab"), True),
    (lambda: is_valid_backdoor_set(_BACKDOOR, "x", "y", "ab"), True),
    (lambda: attribution_summary(_sum, _BACKGROUND, _BACKGROUND, "ab",
                                 features=["ab", "b"]).relevant, ["ab"]),
]


@pytest.mark.parametrize("call, expected", BARE_NAME_CALLS, ids=[
    "dataset-matrix", "ols-ab", "ols-x1", "logistic",
    "population-regression", "stepwise-candidates", "gbt-features",
    "mlp-features", "shapley-features", "assignment-linear",
    "assignment-custom", "model-nodes", "dag-nodes", "dag-observed",
    "dag-ancestors", "dsep-x", "dsep-y", "dsep-z", "backdoor-z",
    "summary-relevant"])
def test_a_bare_string_is_one_name_at_every_entry_point(call, expected):
    assert _outcome(call) == expected


def test_names_lists_an_iterable_and_keeps_none_a_type_error():
    assert names("ab") == ["ab"]
    assert names(("a", "b")) == names(iter("ab")) == ["a", "b"]
    with pytest.raises(TypeError):
        names(None)
