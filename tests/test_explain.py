import dataclasses
from functools import partial

import numpy as np
import pytest

import scmlab.explain as explain
import scmlab.flexfit.gbt as gbt_module
from scmlab import (Dataset, GbtConfig, MlpConfig, attribution_summary,
                    gbt_train, mlp_train, shapley_exact)
from scmlab.errors import (EmptyBackgroundError, EmptyEvaluationError,
                           EmptyFeatureListError, FeatureListRequiredError,
                           FeatureMismatchError, NonFiniteValueError,
                           RowShapeError, ScmLabError, TooManyFeaturesError)
from scmlab.flexfit import GbtModel, predict_on_matrix
from scmlab.rng import normal_column, uniform_column
from shapley_helpers import grid_coalition_outputs
import gbt_helpers


def make_data(**cols):
    return Dataset({k: np.asarray(v, dtype=np.float64)
                    for k, v in cols.items()})


def random_background(seed, n, d):
    return np.column_stack([normal_column(seed, (j,), n) for j in range(d)])


# --- closed forms ---------------------------------------------------------

def test_linear_model_matches_closed_form():
    # Marginal Shapley of a linear model: phi_j = w_j * (x_j - mean(bg_j)).
    w = np.array([1.5, -2.0, 0.25, 3.0])
    b = 0.7
    B = random_background(0, 50, 4)
    x = np.array([0.3, -1.2, 2.0, 0.05])
    att = shapley_exact(lambda X: X @ w + b, x, B,
                        features=["a", "b", "c", "d"])
    expected = w * (x - B.mean(axis=0))
    assert np.max(np.abs(att.phi - expected)) < 1e-9
    assert abs(att.base - (B.mean(axis=0) @ w + b)) < 1e-12
    assert abs(att.prediction - (x @ w + b)) < 1e-12


def test_additive_model_matches_closed_form():
    # f(x) = g1(x1) + g2(x2) makes every marginal contribution of feature j
    # equal g_j(x_j) - mean(g_j(bg_j)), independent of the coalition.
    B = random_background(1, 40, 2)
    x = np.array([0.8, -0.4])
    att = shapley_exact(lambda X: np.sin(X[:, 0]) + X[:, 1] ** 2, x, B,
                        features=["u", "v"])
    expected = np.array([np.sin(x[0]) - np.sin(B[:, 0]).mean(),
                         x[1] ** 2 - (B[:, 1] ** 2).mean()])
    assert np.max(np.abs(att.phi - expected)) < 1e-9


def test_two_feature_hand_computation():
    # d = 2, two background rows: all four coalition values by hand.
    B = np.array([[1.0, 2.0], [3.0, 5.0]])
    x = np.array([2.0, 1.0])

    def f(X):
        return X[:, 0] * X[:, 1] + X[:, 0]

    v_empty = np.mean([1 * 2 + 1, 3 * 5 + 3])          # 10.5
    v_0 = np.mean([2 * 2 + 2, 2 * 5 + 2])              # 9.0
    v_1 = np.mean([1 * 1 + 1, 3 * 1 + 3])              # 4.0
    v_01 = 2 * 1 + 2                                   # 4.0
    phi0 = 0.5 * (v_0 - v_empty) + 0.5 * (v_01 - v_1)
    phi1 = 0.5 * (v_1 - v_empty) + 0.5 * (v_01 - v_0)
    att = shapley_exact(f, x, B, features=["p", "q"])
    assert abs(att.phi[0] - phi0) < 1e-12
    assert abs(att.phi[1] - phi1) < 1e-12
    assert abs(att.base - v_empty) < 1e-12
    assert abs(att.prediction - v_01) < 1e-12


def test_dummy_feature_gets_exactly_zero():
    # A feature the model never reads produces bitwise-equal coalition
    # values, so its Shapley value is exactly 0.0 -- not merely small.
    B = random_background(2, 30, 3)
    att = shapley_exact(lambda X: np.exp(X[:, 0]) - X[:, 2],
                        np.array([0.5, 9.0, -0.3]), B,
                        features=["a", "dummy", "c"])
    assert att.phi[1] == 0.0
    assert att.phi[0] != 0.0 and att.phi[2] != 0.0


def test_gbt_constant_column_gets_exactly_zero():
    # Trees cannot split a constant column, so the fitted model ignores it
    # and its attribution is exactly zero even at off-support instances.
    n = 400
    x = normal_column(3, (0,), n)
    data = make_data(x=x, flat=np.zeros(n), y=2.0 * x)
    model = gbt_train(data, "y", ["x", "flat"],
                      GbtConfig(n_trees=30, depth=2))
    B = np.column_stack([x[:32], np.full(32, 7.0)])
    att = shapley_exact(model, {"x": 0.4, "flat": -3.0}, B)
    assert att.phi[model.feature_names.index("flat")] == 0.0


def test_symmetric_features_get_equal_phi():
    # Model and background both symmetric under swapping the two features.
    b = np.linspace(-1.0, 1.0, 9)
    B = np.column_stack([np.repeat(b, 9), np.tile(b, 9)])
    att = shapley_exact(lambda X: X[:, 0] * X[:, 1] + X[:, 0] + X[:, 1],
                        np.array([0.6, 0.6]), B, features=["l", "r"])
    assert abs(att.phi[0] - att.phi[1]) < 1e-12


# --- efficiency -----------------------------------------------------------

def test_efficiency_residual_mlp():
    n = 300
    x1 = normal_column(4, (0,), n)
    x2 = normal_column(4, (1,), n)
    data = make_data(x1=x1, x2=x2, y=np.tanh(x1) + 0.5 * x2)
    model = mlp_train(data, "y", ["x1", "x2"],
                      MlpConfig(hidden=(8,), learning_rate=0.05,
                                momentum=0.9, epochs=800, seed=2))
    B = np.column_stack([x1[:40], x2[:40]])
    for i in [0, 17, 255]:
        att = shapley_exact(model, np.array([x1[i], x2[i]]), B)
        assert abs(att.efficiency_residual) < 1e-9
        assert abs(att.base + att.phi.sum() - att.prediction) < 1e-9


def test_efficiency_residual_gbt_logistic():
    n = 600
    x1 = normal_column(5, (0,), n)
    x2 = normal_column(5, (1,), n)
    p = 1.0 / (1.0 + np.exp(-(x1 - x2)))
    y = (uniform_column(5, (2,), n) < p).astype(float)
    model = gbt_train(make_data(x1=x1, x2=x2, y=y), "y", ["x1", "x2"],
                      GbtConfig(n_trees=60, depth=2, loss="logistic"))
    B = np.column_stack([x1[:50], x2[:50]])
    att = shapley_exact(model, {"x1": 1.0, "x2": -0.5}, B)
    assert abs(att.efficiency_residual) < 1e-9
    assert 0.0 < att.prediction < 1.0


# --- input handling -------------------------------------------------------

def test_instance_dict_and_array_agree():
    B = random_background(6, 20, 2)

    def f(X):
        return X[:, 0] - 2.0 * X[:, 1]

    a1 = shapley_exact(f, {"g": 0.1, "h": 0.9}, B, features=["g", "h"])
    a2 = shapley_exact(f, np.array([0.1, 0.9]), B, features=["g", "h"])
    assert np.array_equal(a1.phi, a2.phi)


def test_dataset_background_matches_matrix():
    x1 = normal_column(7, (0,), 25)
    x2 = normal_column(7, (1,), 25)
    bg_ds = make_data(x1=x1, x2=x2)
    bg_mat = np.column_stack([x1, x2])

    def f(X):
        return X[:, 0] * X[:, 1]

    a1 = shapley_exact(f, [0.5, 0.5], bg_ds, features=["x1", "x2"])
    a2 = shapley_exact(f, [0.5, 0.5], bg_mat, features=["x1", "x2"])
    assert np.array_equal(a1.phi, a2.phi)


def test_feature_cap_enforced():
    names = [f"f{i}" for i in range(13)]
    B = np.zeros((4, 13))
    with pytest.raises(TooManyFeaturesError):
        shapley_exact(lambda X: X.sum(axis=1), np.zeros(13), B,
                      features=names)
    with pytest.raises(TooManyFeaturesError):
        attribution_summary(lambda X: X.sum(axis=1), np.zeros((2, 13)), B,
                            relevant=["f0"], features=names)


def test_empty_background_rejected():
    with pytest.raises(EmptyBackgroundError):
        shapley_exact(lambda X: X[:, 0], [1.0], np.zeros((0, 1)),
                      features=["x"])


def test_empty_evaluation_rows_rejected():
    def f(X):
        raise AssertionError("model called")
    with pytest.raises(EmptyEvaluationError, match="evaluation rows") as err:
        attribution_summary(f, np.zeros((0, 2)), np.zeros((3, 2)),
                            relevant=["a"], features=["a", "b"])
    assert isinstance(err.value, ValueError)


def test_bad_inputs_rejected():
    B = np.zeros((3, 2))
    with pytest.raises(ValueError):
        shapley_exact(lambda X: X[:, 0], [1.0, 2.0], B)  # no feature names
    with pytest.raises(ValueError):
        shapley_exact(lambda X: X[:, 0], [1.0, 2.0, 3.0], B,
                      features=["a", "b"])
    with pytest.raises(ValueError):
        shapley_exact(lambda X: X[:, 0], [1.0, 2.0], np.zeros((3, 5)),
                      features=["a", "b"])


def two_feature_gbt():
    x = np.arange(20.0)
    return gbt_train(make_data(a=x, b=x % 3, y=x), "y", ["a", "b"],
                     GbtConfig(n_trees=2, depth=1, min_leaf=2))


@pytest.mark.parametrize("call, error", [
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, 2.0], B),
     FeatureListRequiredError),
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, 2.0, 3.0], B,
                             features=["a", "b"]), RowShapeError),
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, 2.0], np.zeros((3, 5)),
                             features=["a", "b"]), RowShapeError),
    (lambda B: attribution_summary(lambda X: X[:, 0], np.zeros((2, 3)), B,
                                   relevant=["a"], features=["a", "b"]),
     RowShapeError),
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, 2.0], B[:0],
                             features=["a", "b"]), EmptyBackgroundError),
    (lambda B: shapley_exact(lambda X: X.sum(axis=1), [], B[:, :0],
                             features=[]), EmptyFeatureListError),
    # a NaN instance gave a GBT a finite attribution (NaN goes right at
    # every split) and a callable or MLP a NaN phi
    (lambda B: shapley_exact(two_feature_gbt(), [np.nan, 1.0], B),
     NonFiniteValueError),
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, np.inf], B,
                             features=["a", "b"]), NonFiniteValueError),
    (lambda B: shapley_exact(lambda X: X[:, 0], [1.0, 2.0], B - np.inf,
                             features=["a", "b"]), NonFiniteValueError),
    (lambda B: attribution_summary(lambda X: X[:, 0], [[1.0, np.nan]], B,
                                   relevant=["a"], features=["a", "b"]),
     NonFiniteValueError),
    # a 2-feature GBT predicted silently from a 4-column matrix
    (lambda B: predict_on_matrix(two_feature_gbt(), np.zeros((3, 4))),
     RowShapeError),
    (lambda B: predict_on_matrix(two_feature_gbt(), np.zeros(2)),
     RowShapeError),
])
def test_bad_inputs_raise_named_errors(call, error):
    with pytest.raises(error) as err:
        call(np.zeros((3, 2)))
    assert isinstance(err.value, ScmLabError)
    assert isinstance(err.value, ValueError)


def pointwise_models(n=300, d=4):
    """An MLP, a GBT and a callable on d features, with rows to explain
    and background rows."""
    names = [f"x{j}" for j in range(d)]
    cols = {f: normal_column(12, (j,), n) for j, f in enumerate(names)}
    y = np.tanh(cols["x0"]) + cols["x1"] * cols["x2"]
    data = make_data(**cols, y=y)
    mlp = mlp_train(data, "y", names,
                    MlpConfig(hidden=(8,), learning_rate=0.05, momentum=0.9,
                              epochs=300, seed=0))
    gbt = gbt_train(data, "y", names, GbtConfig(n_trees=20, depth=3))
    X = data.matrix(names)
    return names, {"mlp": mlp, "gbt": gbt, "callable": lambda M: M.sum(axis=1)}, X


@pytest.mark.parametrize("kind", ["gbt", "mlp", "callable"])
@pytest.mark.parametrize("shape", [(5, 2), (4,)])
def test_evaluation_rows_of_the_wrong_width_rejected(kind, shape):
    names, models, X = pointwise_models()
    with pytest.raises(ValueError, match="evaluation rows"):
        attribution_summary(models[kind], np.zeros(shape), X[:8],
                            relevant=["x0"], features=names)


@pytest.mark.parametrize("kind", ["gbt", "mlp"])
@pytest.mark.parametrize("order", [[3, 2, 1, 0], [0, 1]])
def test_feature_list_other_than_the_models_rejected(kind, order):
    # a permuted list explained the columns under the wrong names, and a
    # short one returned a shorter phi, both without an error
    names, models, X = pointwise_models()
    features = [names[j] for j in order]
    with pytest.raises(FeatureMismatchError, match="feature names") as err:
        shapley_exact(models[kind], X[0, order], X[:8, order],
                      features=features)
    assert isinstance(err.value, ValueError)
    with pytest.raises(FeatureMismatchError):
        attribution_summary(models[kind], X[-3:, order], X[:8, order],
                            relevant=["x0"], features=features)
    # the model's own list, given explicitly, is the default
    same = shapley_exact(models[kind], X[0], X[:8], features=names)
    assert np.array_equal(same.phi, shapley_exact(models[kind], X[0],
                                                  X[:8]).phi)


def test_mlp_prediction_equals_batch_prediction():
    names, models, X = pointwise_models()
    mlp, E, B = models["mlp"], X[-60:], X[:32]
    batch = predict_on_matrix(mlp, E)
    for i in range(E.shape[0]):
        att = shapley_exact(mlp, E[i], B)
        assert att.prediction == batch[i]
        assert abs(att.efficiency_residual) < 1e-9


def test_chunked_evaluation_matches_single_pass(monkeypatch):
    B = random_background(8, 15, 3)
    E = random_background(9, 12, 3)

    def f(X):
        return np.sin(X[:, 0]) + X[:, 1] * X[:, 2]

    full = attribution_summary(f, E, B, relevant=["a"],
                               features=["a", "b", "c"])
    monkeypatch.setattr(explain, "_CHUNK_ROWS", 1)
    tiny = attribution_summary(f, E, B, relevant=["a"],
                               features=["a", "b", "c"])
    assert np.array_equal(full.mean_abs_phi, tiny.mean_abs_phi)


def test_phi_of_a_row_does_not_depend_on_its_batch():
    # 128 coalitions per feature: enough terms that a pairwise sum would
    # round differently from a sequential one
    B = random_background(14, 16, 8)
    E = random_background(15, 6, 8)

    def f(X):   # exact IEEE operations only: each output depends on its row alone
        return (X[:, 0] * X[:, 1] + X[:, 2] * X[:, 2] - X[:, 3]
                + 0.5 * X[:, 4] * X[:, 5] * X[:, 6] + X[:, 7])

    batch, _, _ = explain._phi_matrix(explain._coalition_outputs(f), E, B)
    for i in range(E.shape[0]):
        alone, _, _ = explain._phi_matrix(explain._coalition_outputs(f),
                                          E[i:i + 1], B)
        assert np.array_equal(alone[0], batch[i])


# --- summaries ------------------------------------------------------------

def test_summary_masses_partition_total():
    B = random_background(10, 30, 4)
    E = random_background(11, 20, 4)
    w = np.array([2.0, -1.0, 0.5, 0.0])
    s = attribution_summary(lambda X: X @ w, E, B,
                            relevant=["x2", "x1"],
                            features=["x1", "x2", "x3", "x4"])
    assert s.relevant == ["x1", "x2"]          # reordered to feature order
    assert s.irrelevant == ["x3", "x4"]
    total = float(s.mean_abs_phi.sum())
    assert abs(s.relevant_mass + s.irrelevant_mass - total) < 1e-12
    assert s.mean_abs("x4") == 0.0             # dummy column, exactly zero
    assert s.mean_abs("x1") > s.mean_abs("x3") > 0.0


def test_summary_reads_a_bare_string_as_one_relevant_name():
    B = random_background(14, 10, 3)
    E = random_background(15, 6, 3)
    f = partial(np.sum, axis=1)
    features = ["ab", "a", "b"]
    s = attribution_summary(f, E, B, "ab", features=features)
    listed = attribution_summary(f, E, B, ["ab"], features=features)
    assert s.relevant == listed.relevant == ["ab"]
    assert s.irrelevant == ["a", "b"]
    assert s.relevant_mass == listed.relevant_mass
    with pytest.raises(TypeError):
        attribution_summary(f, E, B, None, features=features)


def test_summary_mean_abs_matches_per_instance_values():
    B = random_background(12, 10, 2)
    E = random_background(13, 6, 2)

    def f(X):
        return X[:, 0] ** 2 - X[:, 1]

    s = attribution_summary(f, E, B, relevant=["a"], features=["a", "b"])
    per_row = np.array([shapley_exact(f, E[i], B, features=["a", "b"]).phi
                        for i in range(E.shape[0])])
    assert np.allclose(s.mean_abs_phi, np.abs(per_row).mean(axis=0),
                       rtol=0, atol=1e-12)


# --- GBT tree-pattern path against the brute-force grid -------------------

def gbt_fixture(d, loss="squared", depth=2, n_trees=25, n=300, seed=20,
                min_leaf=10):
    """A trained GBT on d normal features, with evaluation and background
    rows drawn from the same features."""
    names = [f"x{j}" for j in range(d)]
    cols = {f: normal_column(seed, (j,), n) for j, f in enumerate(names)}
    score = np.sin(cols["x0"]) + cols["x1"] * cols[names[-1]]
    if loss == "logistic":
        y = (uniform_column(seed, (99,), n) < 1.0 / (1.0 + np.exp(-score)))
    else:
        y = score + 0.1 * normal_column(seed, (98,), n)
    model = gbt_train(Dataset({**cols, "y": y.astype(float)}), "y", names,
                      GbtConfig(n_trees=n_trees, depth=depth,
                                min_leaf=min_leaf, loss=loss))
    X = np.column_stack([cols[f] for f in names])
    return model, X[:5], X[-16:]


def assert_matches_grid(model, E, B):
    """Coalition outputs, Shapley values, base and predictions of the tree
    path equal the grid route's bit for bit."""
    grid = partial(grid_coalition_outputs, model)
    masks, _, _ = explain._coalition_tables(E.shape[1])
    assert np.array_equal(explain._coalition_outputs(model)(masks, E, B),
                          grid(masks, E, B))
    phi, base, full = explain._phi_matrix(explain._coalition_outputs(model),
                                          E, B)
    ref_phi, ref_base, _ = explain._phi_matrix(grid, E, B)
    assert np.array_equal(phi, ref_phi)
    assert base == ref_base
    assert np.array_equal(full, predict_on_matrix(model, E))
    att = shapley_exact(model, E[0], B)
    assert np.array_equal(att.phi, explain._phi_matrix(grid, E[:1], B)[0][0])
    assert att.prediction == predict_on_matrix(model, E[:1])[0]
    summary = attribution_summary(model, E, B, relevant=[])
    assert np.array_equal(summary.mean_abs_phi, np.abs(ref_phi).mean(axis=0))
    return phi


@pytest.mark.parametrize("loss", ["squared", "logistic"])
@pytest.mark.parametrize("depth", [1, 2, 3])
def test_gbt_path_matches_grid_by_loss_and_depth(loss, depth):
    model, E, B = gbt_fixture(4, loss=loss, depth=depth)
    assert_matches_grid(model, E, B)


@pytest.mark.parametrize("d", [2, 10])
def test_gbt_path_matches_grid_by_width(d):
    model, E, B = gbt_fixture(d, depth=3, n_trees=15)
    assert_matches_grid(model, E[:3], B[:8])


def test_gbt_path_constant_column_exactly_zero():
    n = 300
    x = normal_column(21, (0,), n)
    z = normal_column(21, (1,), n)
    data = make_data(x=x, flat=np.full(n, 2.0), z=z, y=x * z + x)
    model = gbt_train(data, "y", ["x", "flat", "z"],
                      GbtConfig(n_trees=20, depth=2, min_leaf=10))
    B = np.column_stack([x[:12], np.linspace(-5.0, 5.0, 12), z[:12]])
    E = np.column_stack([x[-4:], np.full(4, 9.0), z[-4:]])
    phi = assert_matches_grid(model, E, B)
    assert np.all(phi[:, 1] == 0.0)
    assert np.all(phi[:, 0] != 0.0)


def test_gbt_path_without_trees():
    model, E, B = gbt_fixture(3, n_trees=0)
    assert model.trees == []
    phi = assert_matches_grid(model, E, B)
    assert np.all(phi == 0.0)


def test_gbt_path_single_leaf_trees():
    # min_leaf above half the rows: no split is allowed, so every tree is
    # one leaf with an empty feature set
    model, E, B = gbt_fixture(3, n_trees=5, n=60, min_leaf=40)
    assert all(t.feature.size == 1 for t in model.trees)
    phi = assert_matches_grid(model, E, B)
    assert np.all(phi == 0.0)
    # single leaves interleaved with split trees
    split_model, _, _ = gbt_fixture(3, n_trees=6)
    trees = list(split_model.trees)
    trees[1:1] = model.trees[:2]
    trees.append(model.trees[0])
    assert_matches_grid(dataclasses.replace(split_model, trees=trees), E, B)


def test_gbt_cell_tables_built_once_per_model(monkeypatch):
    model, E, B = gbt_fixture(4, loss="logistic", depth=3)
    first = shapley_exact(model, E[0], B)
    tables = model.cell_tables

    def rebuilt(*args):
        raise AssertionError("cell tables built again")
    monkeypatch.setattr(gbt_module, "_cell_tables", rebuilt)
    second = shapley_exact(model, E[1], B)
    summary = attribution_summary(model, E, B, relevant=["x0"])
    predicted = predict_on_matrix(model, E)
    assert model.cell_tables is tables
    monkeypatch.undo()
    fresh = dataclasses.replace(model)
    assert "cell_tables" not in vars(fresh)
    assert np.array_equal(first.phi, shapley_exact(fresh, E[0], B).phi)
    assert np.array_equal(second.phi, shapley_exact(fresh, E[1], B).phi)
    assert np.array_equal(
        summary.mean_abs_phi,
        attribution_summary(fresh, E, B, relevant=["x0"]).mean_abs_phi)
    assert np.array_equal(predicted, predict_on_matrix(fresh, E))


@pytest.mark.parametrize("ec, n_bg", [(8, 64), (1, 16)])
def test_gbt_coalition_outputs_match_the_grid(ec, n_bg):
    # gbt.coalition_outputs against the expanded grid at the two sizes
    # where explain once gathered the group sums in blocks: a fig5 chunk
    # (8 rows x 256 coalitions x 64 background rows, one group per block)
    # and one instance (every group in one block)
    model, _, _ = gbt_fixture(8, loss="logistic", depth=2, n_trees=60)
    groups = len(model.tree_groups)
    assert groups >= 2
    if ec == 1:
        assert groups * 256 * n_bg <= explain._CHUNK_ROWS
    else:
        assert ec * 256 * n_bg == explain._CHUNK_ROWS
    masks, _, _ = explain._coalition_tables(8)
    E = random_background(41, ec, 8)
    B = random_background(42, n_bg, 8)
    assert np.array_equal(gbt_module.coalition_outputs(model, masks, E, B),
                          grid_coalition_outputs(model, masks, E, B))


def rows_on_thresholds(model, X):
    """Copies of X's rows with one split feature set exactly to a split
    threshold, cycling through the model's split nodes."""
    splits = [(f, t) for tree in model.trees
              for f, t in zip(tree.feature, tree.threshold) if f >= 0]
    rows = X[np.arange(len(splits)) % X.shape[0]].copy()
    for row, (f, t) in zip(rows, splits):
        row[f] = t
    return rows


def test_gbt_path_on_threshold_rows():
    # a row exactly on a threshold goes right; its cell is the one that
    # threshold opens, for the explained row and the background alike
    model, E, B = gbt_fixture(4, depth=3)
    on = rows_on_thresholds(model, np.vstack((E, B)))
    assert_matches_grid(model, on[:4], on[-16:])


@pytest.mark.parametrize("over", [-1, 0, 1])
def test_gbt_at_the_cell_budget(monkeypatch, over):
    # a model one cell under the budget, at it, and one cell over: over it
    # the model has no tables, predicts by walking its trees and is
    # explained on the coalition grid through predict_on_matrix
    model, E, B = gbt_fixture(4, loss="logistic", depth=3)
    cells = model.cell_tables.values.size
    monkeypatch.setattr(gbt_module, "_MAX_CELLS", cells - over)
    fresh = dataclasses.replace(model)
    assert (fresh.cell_tables is None) == (over == 1)
    X = np.vstack((E, rows_on_thresholds(model, B),
                   np.array([[np.nan, np.inf, -np.inf, 0.0]])))
    arrays = [(t.feature, t.threshold, t.left, t.right, t.value)
              for t in model.trees]
    assert np.array_equal(
        gbt_module.decision_function(fresh, X),
        gbt_helpers.decision_function(arrays, model.learning_rate,
                                      model.base_score, X))
    rows = []
    monkeypatch.setattr(explain, "predict_on_matrix",
                        lambda m, X: rows.append(len(X))
                        or predict_on_matrix(m, X))
    assert_matches_grid(fresh, E, B)
    assert bool(rows) == (over == 1)


@pytest.mark.parametrize("budget", [1, 16_000])
def test_gbt_path_with_small_row_budgets(monkeypatch, budget):
    # 1: one evaluation row per chunk and one coalition of the grid per
    # block; 16 000: one chunk of evaluation rows
    model, E, B = gbt_fixture(4, loss="logistic", depth=3)
    full = attribution_summary(model, E, B, relevant=["x0"])
    monkeypatch.setattr(explain, "_CHUNK_ROWS", budget)
    assert_matches_grid(model, E, B)
    tiny = attribution_summary(model, E, B, relevant=["x0"])
    assert np.array_equal(full.mean_abs_phi, tiny.mean_abs_phi)


# --- the summation order at its edges -------------------------------------

# added up in order these are 1e16, as each 1.0 rounds away; numpy's
# pairwise sum adds the 1.0s together first and gets more
SKEWED = [1e16] + [1.0] * 40


def leaf_tree(value):
    """A tree of one leaf, which splits on no feature."""
    return gbt_module.Tree(np.array([-1], dtype=np.int32), np.array([0.0]),
                           np.array([-1], dtype=np.int32),
                           np.array([-1], dtype=np.int32), np.array([value]))


def stump(feature, left, right):
    """A tree of one split, ``x[feature] < 0`` going left."""
    return gbt_module.Tree(np.array([feature, -1, -1], dtype=np.int32),
                           np.zeros(3), np.array([1, -1, -1], dtype=np.int32),
                           np.array([2, -1, -1], dtype=np.int32),
                           np.array([0.0, left, right]))


def assert_order_matches(trees, d, E, B):
    """A hand-built ensemble (learning rate 1, base 0) predicts what the
    reference twin adds up, and its explain path matches the grid."""
    model = GbtModel(trees, 1.0, 0.0, "squared", [f"x{j}" for j in range(d)])
    arrays = [(t.feature, t.threshold, t.left, t.right, t.value)
              for t in trees]
    assert np.array_equal(predict_on_matrix(model, E),
                          gbt_helpers.decision_function(arrays, 1.0, 0.0, E))
    assert_matches_grid(model, E, B)
    return model


@pytest.mark.parametrize("n_bg", [1, 2])
def test_gbt_single_leaf_trees_add_in_order(n_bg):
    # one group of one cell, whose value adds the 41 leaves in tree order;
    # against one background row each coalition holds one value
    assert sum(SKEWED) == 1e16 != np.sum(SKEWED)
    E = np.array([[0.5]])
    model = assert_order_matches([leaf_tree(v) for v in SKEWED], 1, E,
                                 random_background(40, n_bg, 1))
    assert predict_on_matrix(model, E)[0] == 1e16


@pytest.mark.parametrize("budget", [explain._CHUNK_ROWS, 1])
def test_gbt_interleaved_groups_add_in_order(monkeypatch, budget):
    # three feature sets of 41, 12 and 5 trees, interleaved, so the groups
    # run out of trees at different ranks; the first two groups' sums in
    # order differ from pairwise ones, and budget 1 takes one evaluation row
    # per chunk
    opposite = [-1e16] + [1.0] * 11
    assert sum(opposite) == -1e16 != np.sum(opposite)
    trees = []
    for k, v in enumerate(SKEWED):
        trees.append(stump(0, v, -v))
        if k < 12:
            trees.append(stump(1, opposite[k], opposite[k]))
        if k < 5:
            trees.append(leaf_tree(1.0))
    E = np.array([[-1.0, 0.5], [1.0, -0.5], [-0.5, -2.0]])
    B = np.array([[0.5, 0.5], [-2.0, 0.25]])
    monkeypatch.setattr(explain, "_CHUNK_ROWS", budget)
    model = assert_order_matches(trees, 2, E, B)
    assert [len(g) for g in model.tree_groups] == [41, 12, 5]
    # the groups' sums 1e16, -1e16 and 5.0, added to the base in turn; in
    # plain tree order the large values cancel first and the sum is 56.0
    assert predict_on_matrix(model, E[:1])[0] == 5.0


# --- the background is read on every call ---------------------------------

def assert_same_attribution(a, b):
    assert np.array_equal(a.phi, b.phi)
    assert a.base == b.base and a.prediction == b.prediction


def test_gbt_background_changed_in_place_explains_the_new_rows():
    # a table keyed on the array's identity would explain against the old
    # rows here
    model, E, B = gbt_fixture(4, depth=3)
    other = random_background(31, B.shape[0], 4)
    rows = B.copy()
    before = shapley_exact(model, E[0], rows)
    rows[:] = other
    after = shapley_exact(model, E[0], rows)
    assert not np.array_equal(before.phi, after.phi)
    assert_same_attribution(after, shapley_exact(dataclasses.replace(model),
                                                 E[0], other))
    assert np.array_equal(after.phi,
                          explain._phi_matrix(partial(grid_coalition_outputs,
                                                      model),
                                              E[:1], other)[0][0])


def test_gbt_two_backgrounds_used_alternately():
    model, E, B = gbt_fixture(4, depth=3)
    backgrounds = [B, random_background(32, 9, 4)]
    fresh = [[shapley_exact(dataclasses.replace(model), x, bg) for x in E]
             for bg in backgrounds]
    for _ in range(3):
        for bg, expected in zip(backgrounds, fresh):
            for x, att in zip(E, expected):
                assert_same_attribution(shapley_exact(model, x, bg), att)


@pytest.mark.parametrize("d", [1, 4, 12])
def test_coalition_tables_built_once_and_read_only(d):
    tables = explain._coalition_tables(d)
    assert explain._coalition_tables(d) is tables
    masks, (without, with_j), weights = tables
    for table in (masks, without, with_j, weights):
        with pytest.raises(ValueError, match="read-only"):
            table.flat[0] = 0
    assert not masks[without, np.arange(d)].any()
    assert masks[with_j, np.arange(d)].all()
    assert abs(weights.sum(axis=0) - 1.0).max() < 1e-12
