"""Desk-scale time-series forecasting built on exponential-smoothing and
frequency attention, with classical Holt-Winters baselines."""

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    DomainError,
    EtsforeError,
    EvaluationError,
    ParseError,
    TrainingError,
)
from .autodiff import Tensor, grad_check, no_grad
from .model import DecomposedForecast, ModelConfig, ModelState, forecast
from .trainer import Checkpoint, TrainConfig, evaluate, load_checkpoint, save_checkpoint, train

__version__ = "0.1.0"

__all__ = [
    "Checkpoint",
    "ConfigError",
    "DataError",
    "DecomposedForecast",
    "DimensionError",
    "DomainError",
    "EtsforeError",
    "EvaluationError",
    "ModelConfig",
    "ModelState",
    "ParseError",
    "Tensor",
    "TrainConfig",
    "TrainingError",
    "evaluate",
    "forecast",
    "grad_check",
    "load_checkpoint",
    "no_grad",
    "save_checkpoint",
    "train",
]
