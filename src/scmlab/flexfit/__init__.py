"""Flexible approximators (MLP, boosted trees) and validation utilities."""

from __future__ import annotations

import numpy as np

from ..dataset import Dataset
from ..errors import MissingFeatureError, NotAModelError
from . import gbt as _gbt
from . import mlp as _mlp
from .gbt import GbtConfig, GbtModel, gbt_train
from .mlp import MlpConfig, MlpModel, gradient_check, mlp_train
from .validation import SplitPlan, StepRecord, split, stepwise_forward

__all__ = [
    "MlpConfig", "MlpModel", "mlp_train", "gradient_check",
    "GbtConfig", "GbtModel", "gbt_train",
    "SplitPlan", "StepRecord", "split", "stepwise_forward",
    "predict", "predict_on_matrix",
]


def predict(model, data: Dataset) -> np.ndarray:
    """Evaluate a trained MLP or GBT on a dataset.

    Columns are looked up by the model's stored feature names; a
    logistic-loss GBT returns probabilities.
    """
    missing = [f for f in model.feature_names if f not in data]
    if missing:
        raise MissingFeatureError(f"dataset lacks feature columns {missing}")
    X = data.matrix(model.feature_names)
    return predict_on_matrix(model, X)


def predict_on_matrix(model, X: np.ndarray) -> np.ndarray:
    """Evaluate on a raw matrix whose columns follow model.feature_names."""
    if isinstance(model, MlpModel):
        return _mlp.predict_matrix(model, X)
    if isinstance(model, GbtModel):
        return _gbt.predict_matrix(model, X)
    raise NotAModelError(f"not a trained model: {type(model).__name__}")
