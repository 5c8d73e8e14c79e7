import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from scmlab import (Dataset, GbtConfig, MlpConfig, gbt_train, gradient_check,
                    mlp_train, predict, split, stepwise_forward)
from scmlab.errors import (ConfigValidationError, DegenerateTargetError,
                           DivergenceError, EmptyFeatureListError,
                           InsufficientDataError, MissingFeatureError,
                           NonBinaryTargetError, NonFiniteValueError,
                           NotAModelError, RankDeficientError, ScmLabError)
from scmlab.experiments import build_config
from scmlab.experiments.generators import (blended_logit_features,
                                           blended_logit_model,
                                           noise_candidates_model)
from scmlab.flexfit import SplitPlan, predict_on_matrix
from scmlab.flexfit import gbt as gbt_module
from scmlab.rng import derive_seed, normal_column, uniform_column
from scmlab.scm import sample
from stepwise_helpers import refit_forward
import gbt_helpers
import mlp_helpers


def make_data(**cols):
    return Dataset({k: np.asarray(v, dtype=np.float64)
                    for k, v in cols.items()})


def sine_data(n=300, seed=0, noise=0.1):
    x = uniform_column(seed, (0,), n) * 6.0 - 3.0
    y = np.sin(x) + noise * normal_column(seed, (1,), n)
    return make_data(x=x, y=y)


# --- MLP ------------------------------------------------------------------

def test_mlp_fits_a_smooth_function():
    train = sine_data(seed=1)
    cfg = MlpConfig(hidden=(16,), learning_rate=0.05, momentum=0.9,
                    epochs=4000, seed=3)
    model = mlp_train(train, "y", ["x"], cfg)
    test = sine_data(seed=2)
    mse = float(np.mean((predict(model, test) - test.column("y")) ** 2))
    assert mse < 0.03
    assert model.loss_history[-1] < model.loss_history[0] / 5


def test_mlp_loss_history_settles():
    model = mlp_train(sine_data(seed=4), "y", ["x"],
                      MlpConfig(hidden=(8,), learning_rate=0.05,
                                momentum=0.9, epochs=1500, seed=0))
    h = model.loss_history
    assert len(h) == 1501
    assert h[-1] <= np.median(h[:100])


def test_mlp_deterministic_given_seed():
    cfg = MlpConfig(hidden=(8,), epochs=200, seed=11)
    m1 = mlp_train(sine_data(), "y", ["x"], cfg)
    m2 = mlp_train(sine_data(), "y", ["x"], cfg)
    for w1, w2 in zip(m1.weights, m2.weights):
        assert np.array_equal(w1, w2)
    m3 = mlp_train(sine_data(), "y", ["x"],
                   MlpConfig(hidden=(8,), epochs=200, seed=12))
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_mlp_divergence_raises():
    with pytest.raises(DivergenceError):
        mlp_train(sine_data(), "y", ["x"],
                  MlpConfig(hidden=(16,), learning_rate=50.0, epochs=500,
                            seed=0))


def test_mlp_relu_trains():
    model = mlp_train(sine_data(seed=7), "y", ["x"],
                      MlpConfig(hidden=(32,), activation="relu",
                                learning_rate=0.02, momentum=0.9,
                                epochs=3000, seed=5))
    train = sine_data(seed=7)
    mse = float(np.mean((predict(model, train) - train.column("y")) ** 2))
    assert mse < 0.05


@pytest.mark.parametrize("hidden", [(6,), (5, 4)])
@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_gradient_check(activation, hidden):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 3))
    y = rng.normal(size=12)
    err = gradient_check(MlpConfig(hidden=hidden, activation=activation),
                         X, y, n_points=5)
    assert err < 1e-4


def test_mlp_predict_requires_features():
    model = mlp_train(sine_data(), "y", ["x"],
                      MlpConfig(hidden=(4,), epochs=50, seed=0))
    with pytest.raises(MissingFeatureError):
        predict(model, make_data(z=np.zeros(5)))


def test_predict_on_matrix_rejects_what_is_not_a_trained_model():
    for thing in (lambda X: X[:, 0], GbtConfig()):
        with pytest.raises(NotAModelError,
                           match=f"not a trained model: {type(thing).__name__}"
                           ) as err:
            predict_on_matrix(thing, np.zeros((2, 1)))
        assert isinstance(err.value, TypeError)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("train", [gbt_train, mlp_train], ids=["gbt", "mlp"])
def test_predict_on_matrix_rejects_non_finite_rows(train, value):
    # a GBT sent NaN right at every split and predicted a number
    config = (GbtConfig(n_trees=2, depth=1, min_leaf=2) if train is gbt_train
              else MlpConfig(hidden=(2,), epochs=5))
    model = train(sine_data(n=20), "y", ["x"], config)
    with pytest.raises(NonFiniteValueError,
                       match="model rows: a value is NaN or infinite"):
        predict_on_matrix(model, np.array([[0.5], [value]]))


def test_predict_rejects_what_is_not_a_trained_model():
    # predict read the object's feature names before the type check, so
    # this ended in an AttributeError
    with pytest.raises(NotAModelError, match="not a trained model: object"):
        predict(object(), make_data(x=np.zeros(2)))


@pytest.mark.parametrize("settings, field", [
    (dict(activation="sigmoid"), "activation"),    # trained relu units
    (dict(hidden=()), "hidden"),
    (dict(hidden=(8, 0)), "hidden"),
    (dict(hidden=(1, float("nan"))), "hidden"),
    (dict(epochs=-1), "epochs"),
    (dict(epochs=float("nan")), "epochs"),
    (dict(init_scale=-1.0), "init_scale"),    # numpy "scale < 0" traceback
    (dict(init_scale=0.0), "init_scale"),
    (dict(init_scale=float("nan")), "init_scale"),  # DivergenceError at epoch 0
    (dict(init_scale=float("inf")), "init_scale"),
    (dict(learning_rate=float("nan")), "learning_rate"),
    (dict(learning_rate=float("inf")), "learning_rate"),
    (dict(learning_rate=0.0), "learning_rate"),
    (dict(momentum=-0.1), "momentum"),
    (dict(momentum=1.0), "momentum"),
    (dict(momentum=float("nan")), "momentum"),
    (dict(epochs=2.5), "epochs"),                  # numpy TypeError
    (dict(hidden=5), "hidden"),                    # bare TypeError
    (dict(hidden=(2.5,)), r"hidden\[0\] = 2.5"),    # numpy TypeError
])
def test_mlp_config_rejects_bad_settings(settings, field):
    with pytest.raises(ConfigValidationError, match=field):
        MlpConfig(**settings)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_matches_reference_bit_for_bit(activation):
    rng = np.random.default_rng(8)
    for n_in, hidden, momentum in itertools.product(
            (1, 4), ((6,), (5, 7), (5, 7, 3)), (0.0, 0.9)):
        X = rng.normal(size=(90, n_in))
        y = np.sin(2.0 * X).sum(axis=1) + 0.1 * rng.normal(size=90)
        features = [f"x{j}" for j in range(n_in)]
        data = make_data(y=y, **{f: X[:, j] for j, f in enumerate(features)})
        cfg = MlpConfig(hidden=hidden, activation=activation,
                        learning_rate=0.05, momentum=momentum, epochs=150,
                        seed=n_in + len(hidden))
        got = mlp_train(data, "y", features, cfg)
        want = mlp_helpers.mlp_train(data, "y", features, cfg)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(got.loss_history, want.loss_history)
        E = rng.normal(size=(40, n_in)) * 2.0
        assert np.array_equal(predict_on_matrix(got, E),
                              mlp_helpers.predict_matrix(want, E))
    diverges = MlpConfig(hidden=(16,), activation=activation,
                         learning_rate=50.0, momentum=0.9, epochs=500)
    messages = []
    for train in (mlp_train, mlp_helpers.mlp_train):
        with pytest.raises(DivergenceError) as err:
            train(sine_data(), "y", ["x"], diverges)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# --- GBT ------------------------------------------------------------------

def test_gbt_fits_step_function_exactly():
    x = np.linspace(0.0, 1.0, 200)
    y = (x > 0.5).astype(float) * 2.0 - 1.0
    model = gbt_train(make_data(x=x, y=y), "y", ["x"],
                      GbtConfig(n_trees=20, depth=1, learning_rate=0.5,
                                min_leaf=5))
    pred = predict(model, make_data(x=x, y=y))
    assert np.max(np.abs(pred - y)) < 0.01


def test_gbt_loss_history_non_increasing():
    d = sine_data(n=400, seed=9)
    model = gbt_train(d, "y", ["x"],
                      GbtConfig(n_trees=80, depth=3, learning_rate=0.1,
                                min_leaf=10))
    h = gbt_helpers.replay_loss(model, d.matrix(["x"]), d.column("y"))
    assert len(h) == 81
    assert (np.diff(h) <= 1e-12).all()
    assert h[-1] < 0.05


def test_gbt_zero_trees_predicts_base_score():
    d = sine_data(n=100)
    model = gbt_train(d, "y", ["x"], GbtConfig(n_trees=0))
    assert model.base_score == pytest.approx(float(d.column("y").mean()))
    assert np.allclose(predict(model, d), model.base_score)


def test_gbt_logistic_loss_probabilities():
    n = 3000
    x = normal_column(10, (0,), n)
    p = 1.0 / (1.0 + np.exp(-(1.5 * x - 0.2)))
    y = (uniform_column(10, (1,), n) < p).astype(float)
    model = gbt_train(make_data(x=x, y=y), "y", ["x"],
                      GbtConfig(n_trees=150, depth=2, learning_rate=0.1,
                                min_leaf=40, loss="logistic"))
    pred = predict(model, make_data(x=x, y=y))
    assert ((0 < pred) & (pred < 1)).all()
    assert np.mean(np.abs(pred - p)) < 0.06


def test_gbt_rejects_an_empty_feature_list():
    with pytest.raises(EmptyFeatureListError) as err:
        gbt_train(make_data(y=np.arange(5.0)), "y", [])
    assert isinstance(err.value, ScmLabError)
    assert isinstance(err.value, ValueError)


def test_gbt_logistic_rejects_non_binary_target():
    d = make_data(x=np.arange(20.0), y=np.arange(20.0) % 3)
    with pytest.raises(NonBinaryTargetError) as err:
        gbt_train(d, "y", ["x"], GbtConfig(loss="logistic"))
    assert isinstance(err.value, ValueError)


def test_gbt_degenerate_logistic_target():
    d = make_data(x=np.arange(20.0), y=np.zeros(20))
    with pytest.raises(DegenerateTargetError):
        gbt_train(d, "y", ["x"], GbtConfig(loss="logistic"))


def test_gbt_degenerate_squared_target():
    d = make_data(x=np.arange(20.0), y=np.full(20, 3.0))
    with pytest.raises(DegenerateTargetError, match="zero variance"):
        gbt_train(d, "y", ["x"], GbtConfig())


@pytest.mark.parametrize("settings, field", [
    (dict(loss="huber"), "loss"),                  # fitted squared loss
    (dict(depth=0), "depth"),
    (dict(depth=float("nan")), "depth"),
    (dict(n_trees=-1), "n_trees"),
    (dict(n_trees=float("nan")), "n_trees"),
    (dict(n_bins=0), "n_bins"),
    (dict(n_bins=65), "n_bins"),
    (dict(n_bins=float("nan")), "n_bins"),
    (dict(min_leaf=0), "min_leaf"),
    (dict(min_leaf=float("nan")), "min_leaf"),
    (dict(learning_rate=float("nan")), "learning_rate"),  # predicted NaN
    (dict(learning_rate=float("inf")), "learning_rate"),
    (dict(learning_rate=0.0), "learning_rate"),
    (dict(n_trees=2.5), "n_trees"),                # bare TypeError
    (dict(depth=2.5), "depth"),                    # trained without error
    (dict(depth=True), "depth"),
    (dict(learning_rate=None), "learning_rate"),   # bare TypeError
])
def test_gbt_config_rejects_bad_settings(settings, field):
    with pytest.raises(ConfigValidationError, match=field):
        GbtConfig(**settings)


def test_gbt_min_leaf_respected():
    # min_leaf larger than half the data: only the root remains, no splits
    x = np.linspace(0, 1, 50)
    y = (x > 0.5).astype(float)
    model = gbt_train(make_data(x=x, y=y), "y", ["x"],
                      GbtConfig(n_trees=5, depth=3, min_leaf=30))
    assert np.allclose(predict(model, make_data(x=x, y=y)), y.mean())


def test_gbt_ignores_pure_noise_feature_mostly():
    n = 500
    x = normal_column(12, (0,), n)
    noise = normal_column(12, (1,), n)
    y = 2.0 * x
    model = gbt_train(make_data(x=x, noise=noise, y=y), "y", ["x", "noise"],
                      GbtConfig(n_trees=60, depth=2, learning_rate=0.2,
                                min_leaf=20))
    d_wiggled = make_data(x=x, noise=noise + 5.0, y=y)
    base = predict(model, make_data(x=x, noise=noise, y=y))
    wiggled = predict(model, d_wiggled)
    assert np.mean(np.abs(base - wiggled)) < 0.1 * np.std(y)


# --- GBT against the plain reference grower -------------------------------

def mixed_columns(n, seed):
    """Columns whose bin counts differ (1, 2 and 64 bins) plus an exact copy
    of the 64-bin column, so ties between features occur."""
    x = normal_column(seed, (0,), n)
    return {"const": np.full(n, 2.5),
            "binary": (uniform_column(seed, (1,), n) < 0.4).astype(float),
            "x": x, "x_copy": x.copy()}


def mixed_target(cols, loss, seed):
    score = np.sin(2.0 * cols["x"]) + cols["binary"]
    if loss == "logistic":
        p = 1.0 / (1.0 + np.exp(-score))
        return (uniform_column(seed, (2,), p.size) < p).astype(float)
    return score + 0.2 * normal_column(seed, (3,), score.size)


def rows_on_thresholds(model, X):
    """Copies of X's first row with one split feature set exactly to a
    split threshold, one row per split node of the model."""
    rows = []
    for tree in model.trees:
        for f, t in zip(tree.feature, tree.threshold):
            if f >= 0:
                rows.append(X[0].copy())
                rows[-1][f] = t
    return np.array(rows).reshape(-1, X.shape[1])


def rows_off_the_line(X):
    """Copies of X's first row with one feature set to NaN, +inf or -inf,
    one row per (feature, value)."""
    rows = np.repeat(X[:1], 3 * X.shape[1], axis=0)
    for j in range(X.shape[1]):
        rows[3 * j:3 * j + 3, j] = (np.nan, np.inf, -np.inf)
    return rows


def counts_by_node(bins, tree):
    """Per-feature bin counts of the training rows each node holds, counted
    directly with one ``bincount`` per feature."""
    d, width = bins.counts.shape
    out = {}
    stack = [(0, np.arange(bins.columns.shape[1]))]
    while stack:
        node, rows = stack.pop()
        out[node] = np.array([np.bincount(c.take(rows), minlength=width)
                              for c in bins.columns]).reshape(d, width)
        f = tree.feature[node]
        if f >= 0:
            i = np.searchsorted(bins.edges[f], tree.threshold[node])
            go_left = bins.columns[f].take(rows) <= i
            stack.append((tree.left[node], rows.compress(go_left)))
            stack.append((tree.right[node], rows.compress(~go_left)))
    return out


GBT_REFERENCE_CASES = {
    **{f"{loss}-depth{depth}": (
        "mixed", dict(n_trees=12, depth=depth, learning_rate=0.3, min_leaf=8,
                      loss=loss))
       for loss in ("squared", "logistic") for depth in (1, 2, 3)},
    "one-bin": ("mixed", dict(n_trees=3, n_bins=1, min_leaf=1)),
    "min-leaf-above-half": ("mixed", dict(n_trees=3, depth=2, min_leaf=201)),
    "fig5-sized": ("fig5", None),
}


def reference_case(case):
    """A reference case's training data, feature names and settings."""
    data, config = GBT_REFERENCE_CASES[case]
    if data == "fig5":
        # the registered fig5 model and GBT at q = 1, on 2000 rows and 25
        # trees
        p = build_config("fig5_sweep", "unused").params
        config = GbtConfig(n_trees=25, depth=p["gbt_depth"],
                           learning_rate=p["gbt_learning_rate"],
                           min_leaf=p["gbt_min_leaf"], n_bins=p["gbt_bins"],
                           loss="logistic")
        names = blended_logit_features(p["n_noise_features"])
        train = sample(blended_logit_model(1.0, p["coefficients"],
                                           p["proxy_sd"],
                                           p["n_noise_features"]), 2000, 5)
    else:
        config = GbtConfig(**config)
        cols = mixed_columns(400, 31)
        names = list(cols)
        train = Dataset({**cols, "y": mixed_target(cols, config.loss, 32)})
    return train, names, config


@pytest.mark.parametrize("case", sorted(GBT_REFERENCE_CASES))
def test_gbt_matches_reference_bit_for_bit(case):
    data = GBT_REFERENCE_CASES[case][0]
    train, names, config = reference_case(case)
    model = gbt_train(train, "y", names, config)
    X, y = train.matrix(names), train.column("y")
    trees, history = gbt_helpers.fit(X, y, config, model.base_score)
    assert len(model.trees) == len(trees)
    for tree, ref in zip(model.trees, trees):
        arrays = (tree.feature, tree.threshold, tree.left, tree.right,
                  tree.value)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(arrays, ref))
    assert np.array_equal(gbt_helpers.replay_loss(model, X, y), history)
    X_pred = np.vstack([X[:50], rows_on_thresholds(model, X),
                        rows_off_the_line(X)])
    for rows in (X_pred, X_pred[:0], X_pred[-1:]):
        assert np.array_equal(
            gbt_module.decision_function(model, rows),
            gbt_helpers.decision_function(trees, config.learning_rate,
                                          model.base_score, rows))
    split_features = {int(f) for t in model.trees for f in t.feature}
    if case in ("one-bin", "min-leaf-above-half"):
        assert split_features == {-1}
    elif data == "mixed":
        # the copy ties with x on every candidate: the earlier feature wins
        assert names.index("x") in split_features
        assert names.index("x_copy") not in split_features
    if data == "fig5":
        bins = gbt_module._bin_columns(X, config.n_bins)
        for tree in model.trees:
            counts = counts_by_node(bins, tree)
            assert np.array_equal(counts[0], bins.counts)
            for node in np.flatnonzero(tree.feature >= 0):
                assert np.array_equal(
                    counts[node] - counts[tree.left[node]],
                    counts[tree.right[node]])


@pytest.mark.parametrize("case", ["fig5-sized", "logistic-depth3"])
def test_gbt_leaves_hold_the_mean_residual_of_their_rows(case):
    # independent of both growers: replay the boosting from the fitted
    # trees, route the training rows by the thresholds, and compare each
    # leaf's value with the exact mean of the residuals that reached it
    train, names, config = reference_case(case)
    model = gbt_train(train, "y", names, config)
    X, y = train.matrix(names), train.column("y")
    rows = np.arange(y.size)
    F = np.full(y.size, model.base_score)
    for tree in model.trees:
        resid = y - expit(F) if config.loss == "logistic" else y - F
        node = np.zeros(y.size, dtype=np.intp)
        for _ in range(config.depth):
            f = tree.feature[node]
            x = X[rows, np.maximum(f, 0)]
            node = np.where(f < 0, node,
                            np.where(x < tree.threshold[node],
                                     tree.left[node], tree.right[node]))
        assert set(node) == set(np.flatnonzero(tree.feature < 0))
        tol = 1e-12 * (1.0 + np.abs(resid).max())
        for leaf in set(node):
            r = resid[node == leaf]
            assert abs(tree.value[leaf] - math.fsum(r) / r.size) <= tol
        F += config.learning_rate * tree.value[node]


def test_gbt_one_feature_set_sums_in_tree_order():
    # every tree splits on x, so the ensemble is one summation group: the
    # margin is base_score plus the trees' shrunk leaf values added up in
    # tree order, which cumsum does
    d = sine_data(n=400, seed=9)
    model = gbt_train(d, "y", ["x"],
                      GbtConfig(n_trees=80, depth=3, min_leaf=10))
    assert model.tree_groups == (tuple(range(80)),)
    X = d.matrix(["x"])
    leaves = np.stack([model.learning_rate * t.predict(X)
                       for t in model.trees])
    assert np.array_equal(gbt_module.decision_function(model, X),
                          model.base_score + np.cumsum(leaves, axis=0)[-1])


# --- GBT prediction in blocks ----------------------------------------------

def many_groups_model(n_trees):
    """A depth-2 GBT on eight features that all carry signal, so its trees
    split on many feature sets (28 groups at 40 trees)."""
    n = 1000
    cols = {f"x{j}": uniform_column(41, (j,), n) * 4.0 - 2.0
            for j in range(8)}
    y = (sum(np.sin((j + 1) * c) for j, c in enumerate(cols.values()))
         + 0.1 * normal_column(41, (9,), n))
    model = gbt_train(make_data(**cols, y=y), "y", list(cols),
                      GbtConfig(n_trees=n_trees, depth=2, learning_rate=0.3,
                                min_leaf=5))
    return model, np.column_stack(list(cols.values()))


@pytest.mark.parametrize("budget", [None, 97])
@pytest.mark.parametrize("kind", ["tables", "few-groups", "walk",
                                  "zero-trees"])
def test_gbt_prediction_in_blocks_matches_reference(kind, budget,
                                                    monkeypatch):
    # row counts on both sides of each block boundary; at the small budget
    # the cell tables are also built in blocks of a few cells
    if budget is not None:
        monkeypatch.setattr(gbt_module, "_CHUNK_ROWS", budget)
    n_trees = {"tables": 40, "few-groups": 3, "walk": 40, "zero-trees": 0}
    model, X = many_groups_model(n_trees[kind])
    if kind == "walk":
        monkeypatch.setattr(gbt_module, "_MAX_CELLS", 0)
    model = dataclasses.replace(model)      # tables built under the patches
    assert (model.cell_tables is None) == (kind == "walk")
    groups = len(model.tree_groups)
    assert {"tables": groups > 8, "few-groups": 0 < groups < 8,
            "walk": groups > 8, "zero-trees": groups == 0}[kind]
    arrays = [(t.feature, t.threshold, t.left, t.right, t.value)
              for t in model.trees]
    pool = np.vstack([X, rows_on_thresholds(model, X), rows_off_the_line(X)])
    # rows per block: the step budget over the wider of the group count
    # and the feature count
    B = gbt_module._CHUNK_ROWS // max(1, groups, len(model.feature_names))
    for count in (1, B - 1, B, B + 1, 2 * B + 3):
        rows = np.resize(pool, (count, pool.shape[1]))
        assert np.array_equal(
            gbt_module.decision_function(model, rows),
            gbt_helpers.decision_function(arrays, model.learning_rate,
                                          model.base_score, rows))


def test_gbt_cell_tables_do_not_depend_on_the_block_size(monkeypatch):
    model, _ = many_groups_model(40)
    tables = model.cell_tables
    for budget in (8, 9, 8 * 37):
        monkeypatch.setattr(gbt_module, "_CHUNK_ROWS", budget)
        small = dataclasses.replace(model).cell_tables
        for field in dataclasses.fields(tables):
            a, b = getattr(tables, field.name), getattr(small, field.name)
            if field.name == "thresholds":
                assert all(map(np.array_equal, a, b))
            else:
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_gbt_prediction_memory_does_not_grow_with_rows_times_groups():
    # 100 000 rows through a 28-group model: besides the output, prediction
    # holds a few blocks of the step budget (8-byte elements), where one
    # (groups x rows) array alone would take 22 MB
    model, X = many_groups_model(40)
    assert len(model.tree_groups) >= 10
    rows = np.resize(X, (100_000, X.shape[1]))
    model.cell_tables                       # built once, before the trace
    tracemalloc.start()
    try:
        out = gbt_module.predict_matrix(model, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 4 * 8 * gbt_module._CHUNK_ROWS


# --- split / stepwise -----------------------------------------------------

def test_split_holdout_partitions():
    d = sine_data(n=100)
    plan = split(d, test_fraction=0.25, seed=4)
    assert plan.train_idx.size == 75 and plan.test_idx.size == 25
    together = np.sort(np.concatenate([plan.train_idx, plan.test_idx]))
    assert np.array_equal(together, np.arange(100))
    plan2 = split(d, test_fraction=0.25, seed=4)
    assert np.array_equal(plan.test_idx, plan2.test_idx)
    assert not np.array_equal(
        plan.test_idx, split(d, test_fraction=0.25, seed=5).test_idx)


def test_split_argument_guards():
    d = sine_data(n=20)
    with pytest.raises(ValueError):
        split(d, test_fraction=1.5)
    with pytest.raises(InsufficientDataError):
        split(make_data(x=np.zeros(1), y=np.zeros(1)), test_fraction=0.5)


def test_stepwise_picks_signal_first():
    n = 200
    signal = normal_column(20, (0,), n)
    d = make_data(signal=signal,
                  n1=normal_column(20, (1,), n),
                  n2=normal_column(20, (2,), n),
                  y=2.0 * signal + 0.5 * normal_column(20, (3,), n))
    plan = split(d, test_fraction=0.3, seed=1)
    trace = stepwise_forward(d, "y", ["n1", "signal", "n2"], plan,
                             min_improvement=0.01)
    assert trace[0].feature == "signal"
    assert trace[0].in_r2 > 0.8
    assert trace[0].out_r2 > 0.7


def test_stepwise_in_sample_r2_monotone():
    n = 120
    cols = {f"c{i}": normal_column(21, (i,), n) for i in range(8)}
    cols["y"] = normal_column(21, (99,), n)
    d = make_data(**cols)
    plan = split(d, test_fraction=0.5, seed=2)
    trace = stepwise_forward(d, "y", [f"c{i}" for i in range(8)], plan)
    in_r2 = [rec.in_r2 for rec in trace]
    assert all(b >= a for a, b in zip(in_r2, in_r2[1:]))
    assert trace[-1].in_r2 > 0.0
    assert trace[-1].out_r2 < trace[-1].in_r2


def test_stepwise_needs_two_held_out_rows():
    # one held-out row ended in ZeroDivisionError in the held-out R^2
    d = sine_data(n=50)
    plan = split(d, test_fraction=0.02, seed=0)
    assert plan.test_idx.size == 1
    d = make_data(x=d.column("x"), y=d.column("y"),
                  c=normal_column(3, (0,), 50))
    with pytest.raises(InsufficientDataError, match="test rows"):
        stepwise_forward(d, "y", ["x", "c"], plan)


def test_stepwise_min_improvement_stops_selection():
    n = 100
    d = make_data(c0=normal_column(22, (0,), n),
                  c1=normal_column(22, (1,), n),
                  y=normal_column(22, (9,), n))
    plan = split(d, test_fraction=0.5, seed=0)
    assert stepwise_forward(d, "y", ["c0", "c1"], plan,
                            min_improvement=np.inf) == []


def test_stepwise_rejects_a_nan_min_improvement():
    # no improvement compares above NaN, so every candidate was selected
    d = make_data(c0=normal_column(22, (0,), 60),
                  c1=normal_column(22, (1,), 60),
                  y=normal_column(22, (9,), 60))
    plan = split(d, test_fraction=0.5, seed=0)
    with pytest.raises(ConfigValidationError, match="min_improvement = nan"):
        stepwise_forward(d, "y", ["c0", "c1"], plan,
                         min_improvement=float("nan"))


@pytest.mark.parametrize("n, k, seed", [(200, 20, 1), (200, 20, 2),
                                        (200, 20, 3), (200, 20, 4),
                                        (200, 20, 5), (2000, 50, 7)])
def test_stepwise_equals_the_refit_loop(n, k, seed):
    # overfit_demo's noise candidates: every gain is small and many are
    # close, so a scoring slip shows as a different order
    data = sample(noise_candidates_model(k), n, seed)
    plan = split(data, test_fraction=0.5, seed=derive_seed(seed, 1))
    candidates = [f"c{i}" for i in range(1, k + 1)]
    trace = stepwise_forward(data, "y", candidates, plan)
    assert len(trace) == k
    assert trace == refit_forward(data, "y", candidates, plan)


def tied_candidates():
    # 16 training rows, so the intercept's reflection has norm 4 and
    # leaves integer columns that sum to 0 and start with 0 unchanged:
    # every sum below is exact, and a and b gain exactly alike
    a = [0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0, 0, 0, 0]
    b = [0, 1, 1, -1, -1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0]
    e = [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 0]
    y = 2 * np.array(a) + 2 * np.array(b) + np.array(e)
    data = make_data(a=a + [1, 0, 2, -1], b=b + [0, 1, -1, 2],
                     e=e + [1, 1, 0, 0], y=list(y) + [1, -1, 2, 0])
    return data, SplitPlan(np.arange(16), np.arange(16, 20))


@pytest.mark.parametrize("order", [["a", "b", "e"], ["b", "a", "e"],
                                   ["e", "b", "a"]])
def test_stepwise_breaks_an_exact_tie_by_the_given_order(order):
    data, plan = tied_candidates()
    trace = stepwise_forward(data, "y", order, plan)
    first = [c for c in order if c != "e"][0]
    assert trace[0].feature == first
    assert [rec.feature for rec in trace] == [
        rec.feature for rec in refit_forward(data, "y", order, plan)]


def test_stepwise_refuses_a_duplicated_candidate():
    n = 80
    x = normal_column(23, (0,), n)
    d = make_data(x=x, x_copy=x.copy(), c=normal_column(23, (1,), n),
                  y=x + 0.5 * normal_column(23, (2,), n))
    plan = split(d, test_fraction=0.5, seed=0)
    for candidates in (["c", "x", "x_copy"], ["x", "c", "x"]):
        with pytest.raises(RankDeficientError) as err:
            stepwise_forward(d, "y", candidates, plan)
        with pytest.raises(RankDeficientError) as twin:
            refit_forward(d, "y", candidates, plan)
        assert str(err.value) == str(twin.value)
