import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import scmlab.cli
import scmlab.experiments
import scmlab.experiments.sweep as sweep
import scmlab.flexfit
from scmlab.cli import main
from scmlab.errors import (ConfigValidationError, IoError,
                           NonFiniteValueError, UnknownExperimentError,
                           _bounds)
from scmlab.experiments import (_REGISTRY, ExperimentConfig, build_config,
                                list_experiments, parse_config_file, run)
from scmlab.experiments.report import format_cell, write_run

ALL_EXPERIMENTS = ["backdoor_report", "fig2_panels", "fig3_fit", "fig5_sweep",
                   "overfit_demo", "part2_regressions", "table2", "table3"]


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- registry and configuration -------------------------------------------

@pytest.mark.parametrize("module", [scmlab, scmlab.flexfit,
                                    scmlab.experiments],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    # a stale __all__ entry breaks ``from module import *``
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_registry_lists_all_experiments():
    listed = list_experiments()
    assert [name for name, _ in listed] == ALL_EXPERIMENTS
    assert all(desc for _, desc in listed)


def test_unknown_experiment_rejected():
    with pytest.raises(UnknownExperimentError):
        build_config("fig9_sweep", out_dir="x")
    with pytest.raises(UnknownExperimentError):
        ExperimentConfig(name="fig9_sweep", seed=0, n=100, out_dir="x")


def test_minimum_sample_size_enforced():
    with pytest.raises(ConfigValidationError):
        build_config("table2", out_dir="x", n=9)
    cfg = build_config("table2", out_dir="x", n=10)
    assert cfg.n == 10


def test_defaults_resolved_from_registry():
    cfg = build_config("fig2_panels", out_dir="x")
    assert cfg.seed == 7 and cfg.n == 2000
    assert cfg.params["mi_k"] == 3
    assert cfg.params["rho_grid"] == (0.0, 0.2, 0.4, 0.6, 0.8, 0.95)
    with pytest.raises(TypeError):          # checked once, so read-only
        cfg.params["mi_k"] = 0


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigValidationError) as err:
        build_config("table3", out_dir="x", overrides={"bogus": "1"})
    assert "bogus" in str(err.value)


def test_unparseable_value_rejected():
    with pytest.raises(ConfigValidationError):
        build_config("fig2_panels", out_dir="x", overrides={"mi_k": "three"})


def test_override_coercion_follows_default_types():
    cfg = build_config("fig3_fit", out_dir="x",
                       overrides={"hidden": "16, 8", "epochs": "100",
                                  "noise_sd": "0.5", "activation": "relu"})
    assert cfg.params["hidden"] == (16, 8)
    assert cfg.params["epochs"] == 100
    assert cfg.params["noise_sd"] == 0.5
    assert cfg.params["activation"] == "relu"
    # a Python tuple resolves element by element
    cfg = build_config("fig3_fit", out_dir="x", overrides={"hidden": (4, 4)})
    assert cfg.params["hidden"] == (4, 4)


def test_python_values_must_convert_exactly(tmp_path):
    # 3.7 ran as int(3.7) = 3 while report.json echoed 3.7
    for name, key, value in [("fig2_panels", "mi_k", 3.7),
                             ("overfit_demo", "n_candidates", 4.9),
                             ("fig2_panels", "mi_k", True),
                             ("fig5_sweep", "q_grid", (0.0, True))]:
        with pytest.raises(ConfigValidationError, match=key):
            build_config(name, out_dir="x", overrides={key: value})
    cfg = build_config("fig3_fit", out_dir="x", overrides={"hidden": (4, 4)})
    assert cfg.params["hidden"] == (4, 4)
    # a config built without build_config checks itself
    params = dict(build_config("fig2_panels", out_dir="x").params, mi_k=3.7)
    with pytest.raises(ConfigValidationError, match="mi_k"):
        ExperimentConfig(name="fig2_panels", seed=7, n=300,
                         out_dir=str(tmp_path / "out"), params=params)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, change, message", [
    ("fig2_panels", {"mi_k": None}, "missing parameter 'mi_k'"),
    ("table2", {"bogus": 1}, "unknown parameter 'bogus'"),
])
def test_run_rejects_a_hand_built_config_with_a_missing_or_unknown_key(
        tmp_path, name, change, message):
    # a missing key ended in a bare KeyError, and an unknown one was
    # dropped from the run and from the config echo
    params = {**build_config(name, out_dir="x").params, **change}
    params = {k: v for k, v in params.items() if v is not None}
    with pytest.raises(ConfigValidationError, match=message):
        ExperimentConfig(name=name, seed=7, n=300,
                         out_dir=str(tmp_path / "out"), params=params)
    assert not (tmp_path / "out").exists()


def test_seed_and_n_precedence():
    # explicit argument > config-file override > registry default
    over = {"seed": "99", "n": "1200"}
    cfg = build_config("table2", out_dir="x", overrides=over)
    assert cfg.seed == 99 and cfg.n == 1200
    cfg = build_config("table2", out_dir="x", seed=5, n=300, overrides=over)
    assert cfg.seed == 5 and cfg.n == 300
    cfg = build_config("table2", out_dir="x")
    assert cfg.seed == 7 and cfg.n == 5000


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n"
                    "\n"
                    "mi_k = 5   # trailing comment\n"
                    "rho_grid = 0.1 0.5\n",
                    encoding="utf-8")
    assert parse_config_file(str(path)) == {"mi_k": "5",
                                            "rho_grid": "0.1 0.5"}


def test_parse_config_file_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mi_k: 5\n", encoding="utf-8")
    with pytest.raises(ConfigValidationError) as err:
        parse_config_file(str(path))
    assert "bad.cfg:1" in str(err.value)


def test_parse_config_file_repeated_key(tmp_path):
    # the second value used to win silently
    path = tmp_path / "twice.cfg"
    path.write_text("epochs = 10\nmi_k = 3\nepochs = 20\n", encoding="utf-8")
    with pytest.raises(ConfigValidationError) as err:
        parse_config_file(str(path))
    assert "twice.cfg:3" in str(err.value)
    assert "epochs" in str(err.value)


def test_parse_config_file_missing():
    with pytest.raises(IoError):
        parse_config_file("/nonexistent/đ/run.cfg")


# --- report emission ------------------------------------------------------

def test_format_cell():
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(0.1) == "0.1"
    assert format_cell(1.0 / 3.0) == repr(1.0 / 3.0)
    assert format_cell(np.float64(2.5)) == "2.5"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell("x0 -> y") == "x0 -> y"


def test_write_run_layout(tmp_path):
    out = str(tmp_path / "run")
    files = write_run(out, name="demo", seed=3, n=100,
                      params={"alpha": 0.5},
                      results={"score": np.float64(1.25), "ok": np.bool_(True),
                               "grid": np.array([1.0, 2.0])},
                      tables={"cells": (["a", "b"], [[1, 2.5], [3, 0.1]])})
    assert files == ["cells.csv", "meta.json", "report.json"]
    report = read_json(tmp_path / "run" / "report.json")
    assert report["experiment"] == "demo"
    assert report["seed"] == 3 and report["n"] == 100
    assert report["config"] == {"seed": 3, "n": 100, "alpha": 0.5}
    assert report["results"] == {"score": 1.25, "ok": True, "grid": [1.0, 2.0]}
    assert report["tables"] == ["cells.csv"]
    meta = read_json(tmp_path / "run" / "meta.json")
    assert meta["files"] == files
    csv_bytes = (tmp_path / "run" / "cells.csv").read_bytes()
    assert csv_bytes == b"a,b\n1,2.5\n3,0.1\n"


@pytest.mark.parametrize("params, results, key", [
    ({"alpha": 0.5}, {"grid": [1.0, np.inf]}, "results.grid[1]"),
    ({"alpha": 0.5}, {"a": {"b": np.float64("nan")}}, "results.a.b"),
    ({"alpha": float("nan")}, {"score": 1.0}, "config.alpha"),
    ({"alpha": 0.5}, {"s": np.float32("nan")}, "results.s"),
    ({"alpha": 0.5}, {"t": (1.0, -np.inf)}, "results.t[1]"),
])
def test_write_run_rejects_non_finite_numbers(tmp_path, params, results,
                                              key):
    out = tmp_path / "run"
    with pytest.raises(NonFiniteValueError) as err:
        write_run(str(out), name="demo", seed=0, n=10, params=params,
                  results=results, tables={"cells": (["a"], [[1.0]])})
    assert str(err.value).startswith(key + " ")
    assert not out.exists()


def test_write_run_unwritable_path():
    with pytest.raises(IoError):
        write_run("/proc/nope/run", name="demo", seed=0, n=10, params={},
                  results={}, tables={})


# --- running experiments --------------------------------------------------

def test_table2_report_structure(tmp_path):
    cfg = build_config("table2", out_dir=str(tmp_path), n=500)
    files = run(cfg)
    assert files == ["coefficients.csv", "meta.json", "report.json"]
    report = read_json(tmp_path / "report.json")
    assert report["experiment"] == "table2"
    assert report["n"] == 500
    lines = (tmp_path / "coefficients.csv").read_text().splitlines()
    assert lines[0].startswith("parameter,")
    assert len(lines) == 5  # header + theta0..theta3


def test_backdoor_report_contents(tmp_path):
    cfg = build_config("backdoor_report", out_dir=str(tmp_path))
    run(cfg)
    text = (tmp_path / "adjustment_sets.csv").read_text()
    assert "{x2},1,true" in text
    assert "{x3},1,true" in text
    report = read_json(tmp_path / "report.json")
    assert report["results"]["identifiable"] is True


@pytest.mark.parametrize("experiment", [
    name for name in ALL_EXPERIMENTS if name not in ("fig3_fit", "fig5_sweep")])
def test_a_runner_returns_results_and_tables_and_run_alone_writes(
        tmp_path, monkeypatch, experiment):
    monkeypatch.chdir(tmp_path)
    cfg = build_config(experiment, out_dir=str(tmp_path / "out"))
    results, tables = _REGISTRY[experiment][0](cfg)
    assert type(results) is dict and type(tables) is dict
    assert all(len(table) == 2 for table in tables.values())  # columns, rows
    assert list(tmp_path.iterdir()) == []
    assert run(cfg) == sorted(["meta.json", "report.json",
                               *(f"{stem}.csv" for stem in tables)])


def test_rerun_is_byte_identical(tmp_path):
    for d in ["a", "b"]:
        cfg = build_config("overfit_demo", out_dir=str(tmp_path / d), n=60,
                           overrides={"n_candidates": "6"})
        files = run(cfg)
    for fname in files:
        assert ((tmp_path / "a" / fname).read_bytes()
                == (tmp_path / "b" / fname).read_bytes()), fname


def test_seed_changes_the_numbers(tmp_path):
    for d, seed in [("a", 7), ("b", 8)]:
        cfg = build_config("overfit_demo", out_dir=str(tmp_path / d), n=60,
                           seed=seed, overrides={"n_candidates": "6"})
        run(cfg)
    r1 = read_json(tmp_path / "a" / "report.json")
    r2 = read_json(tmp_path / "b" / "report.json")
    assert r1["results"] != r2["results"]


# --- command line ---------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_EXPERIMENTS:
        assert name in out


def test_cli_run_success(tmp_path, capsys):
    code = main(["run", "backdoor_report", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("wrote ")
    assert (tmp_path / "report.json").exists()


def test_cli_unknown_experiment_prints_json_error(tmp_path, capsys):
    code = main(["run", "fig9_sweep", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "UnknownExperimentError"
    assert "fig9_sweep" in payload["message"]


def test_cli_bad_override_prints_json_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    code = main(["run", "table2", "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["error"] == "ConfigValidationError"


CLI_CONFIG_ERRORS = [
    ("fig5_sweep", "", "eval_rows"),        # default eval_rows = 100 > n
    ("fig5_sweep", "eval_rows = 10\n", "background_rows"),  # default 64
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\nq_grid = 0 1.5\n",
     "q_grid"),
    ("fig5_sweep",
     "eval_rows = 10\nbackground_rows = 10\ncoefficients = 1 2 3\n",
     "coefficients"),
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\ngbt_depth = 0\n",
     "depth"),
    ("fig5_sweep",
     "eval_rows = 10\nbackground_rows = 10\ngbt_min_leaf = 0\n", "min_leaf"),
    ("fig3_fit", "hidden =\n", "hidden"),
    # rejected before the fit, not after its 20 000 epochs
    ("fig3_fit", "grid_step = 0\n", "grid_step"),
    ("fig3_fit", "grid_step = 1e-300\n", "grid_step"),  # numpy traceback
    ("fig3_fit", "grid_step = inf\n", "grid_step"),     # numpy traceback
    ("fig3_fit", "activation = sigmoid\n", "activation"),  # ran as relu
    ("fig3_fit", "epochs = -1\n", "epochs"),
    ("fig3_fit", "x_lo = 5\n", "x_lo"),
    ("fig3_fit", "noise_sd = -1\n", "noise_sd"),
    ("fig3_fit", "init_scale = -1\n", "init_scale"),   # numpy traceback
    ("fig3_fit", "init_scale = nan\n", "init_scale"),  # DivergenceError
    ("fig3_fit", "learning_rate = nan\n", "learning_rate"),
    ("fig3_fit", "learning_rate = 0\n", "learning_rate"),
    ("fig3_fit", "momentum = -0.1\n", "momentum"),
    ("fig3_fit", "momentum = 1\n", "momentum"),
    ("fig2_panels", "mi_k = 0\n", "mi_k"),
    ("fig2_panels", "rho_grid = 1.5\n", "rho_grid"),
    ("fig2_panels", "shape_noise_sd = -1\n", "shape_noise_sd"),
    ("overfit_demo", "test_fraction = 1.5\n", "test_fraction"),
    ("overfit_demo", "n_candidates = 0\n", "n_candidates"),
    ("table2", "theta = 1 2\n", "theta"),
    ("table2", "seed = -1\n", "seed"),          # SeedSequence traceback
    ("overfit_demo", "n_candidates = 1\n", "n_candidates"),
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\nq_grid =\n",
     "q_grid"),                                # IndexError
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\nq_grid = 0.5\n",
     "q_grid"),                                # NaN Spearman correlation
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\nq_grid = 0 0\n",
     "q_grid"),
    ("fig5_sweep", "eval_rows = 10\nbackground_rows = 10\nproxy_sd = -1\n",
     "proxy_sd"),
    ("fig5_sweep",
     "eval_rows = 10\nbackground_rows = 10\nn_noise_features = -1\n",
     "n_noise_features"),                      # ran with the four features
    ("fig5_sweep",
     "eval_rows = 10\nbackground_rows = 10\ngbt_learning_rate = nan\n",
     "learning_rate"),                         # failed only in write_run
    ("fig5_sweep",
     "eval_rows = 10\nbackground_rows = 10\nn_noise_features = 9\n",
     "n_noise_features"),          # TooManyFeaturesError after the fits
    ("fig3_fit", "trend = nan\n", "trend"),        # NonFiniteValueError 'y'
    ("fig3_fit", "frequency = inf\n", "frequency"),  # and a RuntimeWarning
    ("overfit_demo", "min_improvement = nan\n", "min_improvement"),
]


# the fig5 rows keep the ids they had before the experiment column existed
@pytest.mark.parametrize("experiment, override, key", [
    pytest.param(*row, id="-".join(row[1:] if row[0] == "fig5_sweep" else row))
    for row in CLI_CONFIG_ERRORS])
def test_cli_fig5_rows_above_n_prints_json_error(tmp_path, capsys, experiment,
                                                 override, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(override, encoding="utf-8")
    code = main(["run", experiment, "--out", str(tmp_path / "out"),
                 "--n", "50", "--config", str(cfg)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert sorted(payload) == ["error", "message"]
    assert payload["error"] == "ConfigValidationError"
    assert key in payload["message"]
    assert not (tmp_path / "out").exists()


def run_cli(tmp_path, capsys, experiment, override, *flags):
    """``scmlab run experiment --n 50`` with ``override`` as its config
    file; returns (exit code, stdout lines, output directory)."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(override, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", experiment, "--out", str(out), "--n", "50",
                 "--config", str(cfg), *flags])
    return code, capsys.readouterr().out.splitlines(), out


def assert_one_json_error(code, lines, out, error):
    assert code == 1
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert sorted(payload) == ["error", "message"]
    assert payload["error"] == error
    assert not out.exists()


def test_cli_negative_seed_flag_prints_json_error(tmp_path, capsys):
    assert_one_json_error(*run_cli(tmp_path, capsys, "table2", "",
                                   "--seed", "-1"), "ConfigValidationError")


def test_cli_one_held_out_row_prints_json_error(tmp_path, capsys):
    # 0.02 of 50 rows holds out one row: ZeroDivisionError in its R^2
    assert_one_json_error(*run_cli(tmp_path, capsys, "overfit_demo",
                                   "test_fraction = 0.02\n"),
                          "InsufficientDataError")


def test_cli_ols_overflow_prints_json_error_and_no_warning(tmp_path,
                                                           src_env):
    # resid @ resid overflowed with a RuntimeWarning on stderr, and only
    # write_run stopped the infinite residual variance
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta = 1e300 1 1 1\n", encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scmlab.cli", "run", "table2", "--n", "50",
         "--out", str(out), "--config", str(cfg)],
        capture_output=True, text=True, env=src_env)
    assert_one_json_error(proc.returncode, proc.stdout.splitlines(), out,
                          "NonFiniteValueError")
    assert "residual_variance" in json.loads(proc.stdout)["message"]
    assert "RuntimeWarning" not in proc.stderr


def test_cli_allocation_failure_prints_json_error(tmp_path, capsys,
                                                 monkeypatch):
    # a huge --n ended in numpy's _ArrayMemoryError traceback
    def run(config):
        raise MemoryError("Unable to allocate 7.28 TiB")
    monkeypatch.setattr(scmlab.cli, "run", run)
    code, lines, out = run_cli(tmp_path, capsys, "table3", "")
    assert_one_json_error(code, lines, out, "MemoryError")
    assert "7.28 TiB" in json.loads(lines[0])["message"]


def test_fig5_gbt_settings_checked_before_sampling(tmp_path, monkeypatch):
    def no_sampling(*args, **kwargs):
        pytest.fail("fig5_sweep sampled before checking its GBT settings")
    monkeypatch.setattr(sweep, "sample", no_sampling)
    with pytest.raises(ConfigValidationError, match="depth"):
        run(build_config("fig5_sweep", out_dir=str(tmp_path / "out"), n=50,
                         overrides={"eval_rows": "10",
                                    "background_rows": "10",
                                    "gbt_depth": "0"}))


FIG5_ROWS = "eval_rows = 10\nbackground_rows = 10\n"

# type-valid inputs at the edges of each experiment's range, at n = 50
BOUNDARY_INPUTS = [
    ("fig2_panels", "rho_grid = 1\n"),
    ("fig2_panels", "rho_grid = -1 1\n"),
    ("fig2_panels", "mi_k = 49\n"),
    ("fig3_fit", "epochs = 0\n"),
    ("fig3_fit", "hidden = 1\n"),
    ("fig3_fit", "grid_step = 100\n"),
    ("fig3_fit", "learning_rate = 1e9\n"),
    ("overfit_demo", "test_fraction = 0.02\n"),
    ("overfit_demo", "test_fraction = 0.98\n"),
    ("overfit_demo", "min_improvement = 1e9\n"),
    ("table2", "theta = nan 1 1 1\n"),
    ("table2", "theta = 1e300 1 1 1\n"),
    ("fig5_sweep", "eval_rows = 1\nbackground_rows = 1\ngbt_trees = 0\n"),
    ("fig5_sweep", FIG5_ROWS + "gbt_bins = 1\n"),
    ("fig5_sweep", FIG5_ROWS + "coefficients = 0 0 0 0 0 0\n"),
    ("fig5_sweep", FIG5_ROWS + "n_noise_features = 8\n"),
    ("table3", ""),
    ("part2_regressions", ""),
    ("backdoor_report", ""),
]


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


@pytest.mark.parametrize("experiment, override", BOUNDARY_INPUTS, ids=[
    f"{exp}-{override.splitlines()[-1] if override else 'defaults'}"
    for exp, override in BOUNDARY_INPUTS])
def test_cli_boundary_inputs_end_in_report_or_json_error(
        tmp_path, capsys, experiment, override):
    code, lines, out = run_cli(tmp_path, capsys, experiment, override)
    if code == 0:
        json.loads((out / "report.json").read_text(encoding="utf-8"),
                   parse_constant=_reject_constant)
    else:
        assert len(lines) == 1
        assert sorted(json.loads(lines[0])) == ["error", "message"]
        assert code == 1
        assert not out.exists()


def _first(default, value):
    """``value`` in place of a scalar ``default``, or of a grid's first
    element."""
    return (value,) + default[1:] if isinstance(default, tuple) else value


def _range_edges():
    """(experiment, key, value at a bound or None, value one step past it)
    for every bound in the registry, and NaN for every float."""
    for name, (_, _, n, params, _, _) in sorted(_REGISTRY.items()):
        for key, (default, accepts) in params.items():
            elem = default[0] if isinstance(default, tuple) else default
            if accepts.startswith("length "):
                yield name, key, default, default[:-1]
            lo, lo_open, hi, hi_open = _bounds(accepts, n) or (
                -math.inf, False, math.inf, False)
            for bound, is_open, out in ((lo, lo_open, -1), (hi, hi_open, 1)):
                if not math.isfinite(bound):
                    continue
                if isinstance(elem, int):
                    bound = int(bound)
                    inside, beyond = bound - out, bound + out
                else:
                    inside = float(np.nextafter(bound, -out * math.inf))
                    beyond = float(np.nextafter(bound, out * math.inf))
                at, past = (inside, bound) if is_open else (bound, beyond)
                yield name, key, _first(default, at), _first(default, past)
            if isinstance(elem, float):
                yield name, key, None, _first(default, math.nan)


def _config_text(value):
    if isinstance(value, tuple):
        return " ".join(map(repr, value))
    return repr(value)


RANGE_EDGES = list(_range_edges())


@pytest.mark.parametrize("experiment, key, at, past", RANGE_EDGES, ids=[
    f"{exp}-{key}={_config_text(past)}" for exp, key, _, past in RANGE_EDGES])
def test_registered_ranges_hold_at_each_bound_and_fail_one_step_past(
        tmp_path, capsys, monkeypatch, experiment, key, at, past):
    entry = _REGISTRY[experiment]

    def no_run(config):
        pytest.fail(f"{key} = {past!r} passed the range check")
    monkeypatch.setitem(_REGISTRY, experiment, (no_run,) + entry[1:])
    if at is not None:
        build_config(experiment, out_dir="x", overrides={key: at})
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {_config_text(past)}\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", experiment, "--out", str(out), "--config", str(cfg)])
    lines = capsys.readouterr().out.splitlines()
    assert_one_json_error(code, lines, out, "ConfigValidationError")
    assert key in json.loads(lines[0])["message"]


def parameter_table():
    """The README's parameter table, rendered from the registry."""
    rows = ["| experiment | parameter | default | range |",
            "| --- | --- | --- | --- |"]
    for name, (_, _, _, params, rules, _) in sorted(_REGISTRY.items()):
        for key, (default, accepts) in params.items():
            grid = isinstance(default, tuple)
            ranges = [("each in " if grid and _bounds(accepts, 0) else "")
                      + accepts] if accepts else []
            ranges += [f"must {requirement}" for rule_key, requirement, _
                       in rules if rule_key == key]
            shown = " ".join(map(str, default)) if grid else default
            rows.append(f"| `{name}` | `{key}` | `{shown}` | "
                        f"{'; '.join(ranges) or '—'} |")
    return "\n".join(rows) + "\n"


def test_readme_parameter_table_matches_registry():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert parameter_table() in readme.read_text(encoding="utf-8")


def test_cli_config_file_applies_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_candidates = 4\nseed = 11\n", encoding="utf-8")
    code = main(["run", "overfit_demo", "--out", str(tmp_path / "out"),
                 "--n", "80", "--config", str(cfg)])
    assert code == 0
    report = read_json(tmp_path / "out" / "report.json")
    assert report["seed"] == 11
    assert report["n"] == 80
    assert report["config"]["n_candidates"] == 4


def test_cli_missing_required_out_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "table2"])
    assert err.value.code == 2


def test_import_loads_neither_scipy_stats_nor_spatial(src_env):
    code = ("import sys, scmlab, scmlab.cli; print(sorted(m for m in "
            "('scipy.stats', 'scipy.spatial') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, env=src_env)
    assert proc.stdout.strip() == "[]"


def test_cli_module_entrypoint(tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "scmlab.cli", "run", "backdoor_report",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=src_env)
    assert proc.returncode == 0
    assert "report.json" in proc.stdout
    assert (tmp_path / "paths.csv").exists()


def test_spearman_equals_scipy_bit_for_bit():
    # tie-heavy integer draws, continuous draws, and constant inputs (NaN)
    rng = np.random.default_rng(5)
    constant = 0
    for _ in range(2500):
        n = int(rng.integers(2, 25))
        x, y = (rng.integers(0, rng.integers(1, 6), n).astype(float)
                if rng.random() < 0.8 else rng.standard_normal(n)
                for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            expected = float(stats.spearmanr(x, y).statistic)
        got = sweep._spearman(x, y)
        if np.isnan(expected):
            constant += 1
            assert np.isnan(got)
        else:
            assert got == expected
    assert constant > 100
