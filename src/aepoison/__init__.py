"""Poisoning attacks on online-trained autoencoder anomaly detectors."""

from .timeseries import (
    NormStats,
    SeriesMatrix,
    export_csv,
    ingest_csv,
    normalize,
    subsample,
    window,
)
from .signals import AttackSpec, SignalSpec, anchor_index, generate, inject_attack
from .nn_core import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainTrajectory,
    TrainingDiverged,
    forward,
    grad_w,
    grad_x,
    init_params,
    loss,
    train,
)
from .detector import (
    AlertReport,
    DetectorConfig,
    reconstruct_series,
    score,
    series_objective_grad,
)

__version__ = "0.1.0"
