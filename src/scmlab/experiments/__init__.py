"""Registered, seed-deterministic experiments and their configuration.

Each experiment owns a default seed, sample size, and parameter set; a run
writes ``report.json``, one CSV per table, and ``meta.json`` into its output
directory, and rerunning with the same configuration reproduces the files
byte for byte.  Parameters may be overridden from a plain ``key = value``
config file.  An :class:`ExperimentConfig` checks itself when it is
built: each value takes its default's type and must lie in the range
registered next to the default, and its ``params`` are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from ..errors import (ConfigValidationError, UnknownExperimentError,
                      check_value, open_file)
from ..explain import _MAX_FEATURES
from ..flexfit import gbt, mlp
from .curves import run_fig3_fit
from .generators import blended_logit_features
from .identify import run_backdoor_report
from .overfit import run_overfit_demo
from .panels import run_fig2_panels
from .sweep import run_fig5_sweep
from .tables import run_part2_regressions, run_table2, run_table3

__all__ = ["ExperimentConfig", "build_config", "list_experiments",
           "parse_config_file", "run"]

# explain's feature cap, less fig5's four features that are not noise
_MAX_NOISE_FEATURES = _MAX_FEATURES - len(blended_logit_features(0))

# Each parameter maps to (default, accepts): "" for any value, "length K"
# for K values, or an interval that the value, or each element of a grid,
# lies in (``check_value``'s grammar; n is the run's sample size).  Every
# float must be finite.  Rules on the parameters jointly follow as
# (key, requirement, predicate).
_REGISTRY = {
    "table2": (
        run_table2, 7, 5000,
        {"theta": ((3.3, 0.1, 0.3, 0.5), "length 4")}, (),
        "OLS coefficient recovery on the exogenous-predictor model"),
    "table3": (
        run_table3, 7, 5000,
        {}, (),
        "pairwise correlations vs. analytic values on the confounded chain"),
    "part2_regressions": (
        run_part2_regressions, 7, 5000,
        {}, (),
        "four adjustment strategies for the x0->y effect, with population "
        "oracles"),
    "backdoor_report": (
        run_backdoor_report, 7, 10,
        {}, (),
        "backdoor paths and minimal adjustment sets for x0->y"),
    "fig2_panels": (
        run_fig2_panels, 7, 2000,
        {"rho_grid": ((0.0, 0.2, 0.4, 0.6, 0.8, 0.95), "[-1, 1]"),
         "shape_noise_sd": (0.1, "[0, inf)"),
         "mi_k": (3, "[1, n)")}, (),
        "Pearson correlation vs. mutual information on linear and shaped "
        "panels"),
    "fig3_fit": (
        run_fig3_fit, 7, 400,
        {"trend": (0.5, ""), "amplitude": (2.0, ""), "frequency": (3.0, ""),
         "x_lo": (-4.0, ""), "x_hi": (4.0, ""), "noise_sd": (0.3, "[0, inf)"),
         "hidden": ((32,), mlp._RANGES["hidden"]),
         "activation": ("tanh", mlp._RANGES["activation"]),
         "learning_rate": (0.05, mlp._RANGES["learning_rate"]),
         "epochs": (20000, mlp._RANGES["epochs"]),
         "momentum": (0.9, mlp._RANGES["momentum"]),
         "init_scale": (1.5, mlp._RANGES["init_scale"]),
         "grid_step": (0.02, "(0, inf)")},
        (("x_lo", "be below x_hi", lambda p: p["x_lo"] < p["x_hi"]),),
        "linear regression vs. MLP on a sinusoid-over-trend target"),
    "fig5_sweep": (
        run_fig5_sweep, 7, 20000,
        {"q_grid": (tuple(i / 10.0 for i in range(11)), "[0, 1]"),
         "coefficients": ((0.388, -0.325, 1.714, -1.0, 1.265, 0.0233),
                          "length 6"),
         "proxy_sd": (3.5, "[0, inf)"),
         "n_noise_features": (4, f"[0, {_MAX_NOISE_FEATURES}]"),
         "gbt_trees": (500, gbt._RANGES["n_trees"]),
         "gbt_depth": (2, gbt._RANGES["depth"]),
         "gbt_learning_rate": (0.08, gbt._RANGES["learning_rate"]),
         "gbt_min_leaf": (80, gbt._RANGES["min_leaf"]),
         "gbt_bins": (64, gbt._RANGES["n_bins"]),
         "eval_rows": (100, "[1, n]"), "background_rows": (64, "[1, n]")},
        (("q_grid", "hold two distinct values",
          lambda p: len(set(p["q_grid"])) >= 2),),
        "logistic vs. boosted-tree loss and Shapley attribution mass over a "
        "nonlinearity blend"),
    "overfit_demo": (
        run_overfit_demo, 7, 200,
        {"n_candidates": (20, "[2, inf)"), "test_fraction": (0.5, "(0, 1)"),
         "min_improvement": (0.0, "")}, (),
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
    parameter mapping, and output directory.

    Building one checks it: ``n``, ``seed`` and every registered parameter
    take their defaults' types and must lie in their registered ranges and
    meet the registered joint rules, and no key may be unknown or missing;
    the first fault raises ``ConfigValidationError`` naming its key.  The
    checked ``params`` are stored read-only."""

    name: str
    seed: int
    n: int
    out_dir: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _, _, _, registered, rules, _ = _lookup(self.name)
        n = check_value("n", self.n, 0, "[10, inf)")
        seed = check_value("seed", self.seed, 0, "[0, inf)")
        for key in (*self.params, *registered):
            if (key in self.params) != (key in registered):
                raise ConfigValidationError(
                    f"{'unknown' if key in self.params else 'missing'} "
                    f"parameter {key!r} for experiment {self.name!r}; valid "
                    f"keys: {', '.join(sorted(registered)) or '(none)'}")
        params = {key: check_value(key, self.params[key], default, accepts, n)
                  for key, (default, accepts) in registered.items()}
        for key, requirement, holds in rules:
            if not holds(params):
                raise ConfigValidationError(
                    f"{key} = {params[key]!r} must {requirement}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "params", MappingProxyType(params))


def parse_config_file(path: str) -> dict:
    """Read a ``key = value`` file (``#`` comments, blank lines allowed)
    into a string-to-string dict; a key may appear once."""
    with open_file(path, "config file") as fh:
        lines = fh.readlines()
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
    """Merge the experiment's defaults, ``overrides`` and the ``seed`` and
    ``n`` flags into an :class:`ExperimentConfig`, which checks them.

    ``overrides`` maps parameter names to replacement values (a string is
    parsed).  ``seed`` and ``n`` may also appear as override keys; explicit
    arguments win over overrides, which win over defaults.
    """
    _, def_seed, def_n, def_params, _, _ = _lookup(name)
    overrides = dict(overrides or {})
    file_seed = overrides.pop("seed", def_seed)
    file_n = overrides.pop("n", def_n)
    params = {key: default for key, (default, _) in def_params.items()}
    return ExperimentConfig(
        name=name, out_dir=out_dir, params={**params, **overrides},
        seed=file_seed if seed is None else seed,
        n=file_n if n is None else n)


def run(config: ExperimentConfig) -> list:
    """Execute ``config``'s experiment; returns the report file names
    written into ``config.out_dir``."""
    return _lookup(config.name)[0](config)


def list_experiments() -> list:
    """(name, description) pairs for every registered experiment."""
    return [(name, _REGISTRY[name][5]) for name in sorted(_REGISTRY)]
