"""Registered, seed-deterministic experiments and their configuration.

Each experiment owns a default seed, sample size, and parameter set; a run
writes ``report.json``, one CSV per table, and ``meta.json`` into its output
directory, and rerunning with the same configuration reproduces the files
byte for byte.  Parameters may be overridden from a plain ``key = value``
config file; keys are validated against the experiment's defaults and
values are coerced to the default's type.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigValidationError, IoError, UnknownExperimentError
from .curves import run_fig3_fit
from .identify import run_backdoor_report
from .overfit import run_overfit_demo
from .panels import run_fig2_panels
from .sweep import run_fig5_sweep
from .tables import run_part2_regressions, run_table2, run_table3

__all__ = ["ExperimentConfig", "build_config", "list_experiments",
           "parse_config_file", "run"]

_REGISTRY = {
    "table2": (
        run_table2, 7, 5000,
        {"theta": (3.3, 0.1, 0.3, 0.5)},
        "OLS coefficient recovery on the exogenous-predictor model"),
    "table3": (
        run_table3, 7, 5000,
        {},
        "pairwise correlations vs. analytic values on the confounded chain"),
    "part2_regressions": (
        run_part2_regressions, 7, 5000,
        {},
        "four adjustment strategies for the x0->y effect, with population "
        "oracles"),
    "backdoor_report": (
        run_backdoor_report, 7, 10,
        {},
        "backdoor paths and minimal adjustment sets for x0->y"),
    "fig2_panels": (
        run_fig2_panels, 7, 2000,
        {"rho_grid": (0.0, 0.2, 0.4, 0.6, 0.8, 0.95),
         "shape_noise_sd": 0.1,
         "mi_k": 3},
        "Pearson correlation vs. mutual information on linear and shaped "
        "panels"),
    "fig3_fit": (
        run_fig3_fit, 7, 400,
        {"trend": 0.5, "amplitude": 2.0, "frequency": 3.0,
         "x_lo": -4.0, "x_hi": 4.0, "noise_sd": 0.3,
         "hidden": (32,), "activation": "tanh", "learning_rate": 0.05,
         "epochs": 20000, "momentum": 0.9, "init_scale": 1.5,
         "grid_step": 0.02},
        "linear regression vs. MLP on a sinusoid-over-trend target"),
    "fig5_sweep": (
        run_fig5_sweep, 7, 20000,
        {"q_grid": tuple(i / 10.0 for i in range(11)),
         "coefficients": (0.388, -0.325, 1.714, -1.0, 1.265, 0.0233),
         "proxy_sd": 3.5, "n_noise_features": 4,
         "gbt_trees": 500, "gbt_depth": 2, "gbt_learning_rate": 0.08,
         "gbt_min_leaf": 80, "gbt_bins": 64,
         "eval_rows": 100, "background_rows": 64},
        "logistic vs. boosted-tree loss and Shapley attribution mass over a "
        "nonlinearity blend"),
    "overfit_demo": (
        run_overfit_demo, 7, 200,
        {"n_candidates": 20, "test_fraction": 0.5, "min_improvement": 0.0},
        "forward selection on pure noise: in-sample vs. held-out R^2"),
}


def _lookup(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; choose from "
            f"{', '.join(sorted(_REGISTRY))}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved run request: registered name, seed, sample size,
    parameter dict, and output directory."""

    name: str
    seed: int
    n: int
    out_dir: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _lookup(self.name)
        if self.n < 10:
            raise ConfigValidationError(
                f"n = {self.n} is below the minimum of 10")
        if self.seed < 0:
            raise ConfigValidationError(
                f"seed = {self.seed} must be non-negative")


def _coerce(key, value, default):
    """Parse the string ``value`` to the type of ``default``."""
    try:
        if isinstance(default, int):
            return int(value)
        if isinstance(default, float):
            return float(value)
        if isinstance(default, (tuple, list)):
            elem = type(default[0]) if len(default) else float
            parts = [s for s in value.replace(",", " ").split() if s]
            return tuple(elem(s) for s in parts)
        return value.strip()
    except (TypeError, ValueError):
        raise ConfigValidationError(
            f"could not parse {key} = {value!r} as "
            f"{type(default).__name__}") from None


def parse_config_file(path: str) -> dict:
    """Read a ``key = value`` file (``#`` comments, blank lines allowed)
    into a string-to-string dict; a key may appear once."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise IoError(f"cannot read config file {path}: {exc}") from exc
    overrides = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigValidationError(
                f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in overrides:
            raise ConfigValidationError(
                f"{path}:{lineno}: {key} is set a second time")
        overrides[key] = value
    return overrides


def build_config(name: str, out_dir: str, seed: int = None, n: int = None,
                 overrides: dict = None) -> ExperimentConfig:
    """Resolve CLI arguments and config-file overrides against the
    experiment's defaults.

    ``overrides`` maps parameter names (strings) to replacement values;
    string values are coerced to the default's type, non-strings are taken
    as-is.  ``seed`` and ``n`` may also appear as override keys; explicit
    arguments win over overrides, which win over defaults.
    """
    _, def_seed, def_n, def_params, _ = _lookup(name)
    params = dict(def_params)
    overrides = dict(overrides or {})
    if "seed" in overrides and seed is None:
        seed = _coerce("seed", str(overrides["seed"]), 0)
    overrides.pop("seed", None)
    if "n" in overrides and n is None:
        n = _coerce("n", str(overrides["n"]), 0)
    overrides.pop("n", None)
    for key, value in overrides.items():
        if key not in params:
            raise ConfigValidationError(
                f"unknown parameter {key!r} for experiment {name!r}; "
                f"valid keys: {', '.join(sorted(params)) or '(none)'}")
        params[key] = (_coerce(key, value, params[key])
                       if isinstance(value, str) else value)
    return ExperimentConfig(name=name,
                            seed=def_seed if seed is None else int(seed),
                            n=def_n if n is None else int(n),
                            out_dir=out_dir, params=params)


def run(name: str, config: ExperimentConfig) -> list:
    """Execute a registered experiment; returns the report file names
    written into ``config.out_dir``."""
    runner = _lookup(name)[0]
    if config.name != name:
        raise ConfigValidationError(
            f"config is for {config.name!r}, not {name!r}")
    return runner(config)


def list_experiments() -> list:
    """(name, description) pairs for every registered experiment."""
    return [(name, _REGISTRY[name][4]) for name in sorted(_REGISTRY)]
