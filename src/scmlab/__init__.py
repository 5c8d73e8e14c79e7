"""Causal-simulation and misspecification-diagnostics toolkit.

Structural causal models with analytic oracles, DAG identification
algorithms (d-separation, backdoor adjustment), classical estimators,
small flexible approximators, exact Shapley attribution, and a seeded
experiment runner producing deterministic CSV/JSON reports.
"""

from . import errors, experiments
from ._version import __version__
from .dataset import Dataset
from .estimators import (CorrResult, FitResult, MiResult, logistic_fit,
                         mutual_information, ols_fit, pearson)
from .experiments import ExperimentConfig
from .explain import (Attribution, AttributionSummary, attribution_summary,
                      shapley_exact)
from .flexfit import (GbtConfig, GbtModel, MlpConfig, MlpModel, SplitPlan,
                      StepRecord, gbt_train, gradient_check, mlp_train,
                      predict, split, stepwise_forward)
from .graph import (AdjustmentAnalysis, Dag, backdoor_paths, d_separated,
                    is_valid_backdoor_set, load_graph, minimal_backdoor_sets,
                    save_graph, to_dot, topological_sort)
from .scm import (Assignment, NoiseSpec, StructuralModel, intervene,
                  load_model, population_covariance, population_mean,
                  population_regression, sample, save_model,
                  total_effect_linear, validate_model)

__all__ = [
    "__version__", "errors", "Dataset",
    "NoiseSpec", "Assignment", "StructuralModel", "validate_model", "sample",
    "intervene", "population_covariance", "population_mean",
    "population_regression", "total_effect_linear", "save_model", "load_model",
    "Dag", "AdjustmentAnalysis", "topological_sort", "d_separated",
    "backdoor_paths", "is_valid_backdoor_set", "minimal_backdoor_sets",
    "save_graph", "load_graph", "to_dot",
    "FitResult", "CorrResult", "MiResult", "ols_fit", "pearson",
    "logistic_fit", "mutual_information",
    "MlpConfig", "MlpModel", "mlp_train", "gradient_check",
    "GbtConfig", "GbtModel", "gbt_train", "predict",
    "SplitPlan", "StepRecord", "split", "stepwise_forward",
    "Attribution", "AttributionSummary", "shapley_exact", "attribution_summary",
    "experiments", "ExperimentConfig",
]
