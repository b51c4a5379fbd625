"""Autoencoder anomaly detector over long series.

A trained window model is extended to arbitrary-length series by slicing the
series into overlapping windows, reconstructing each, and recombining: each
time point's prediction is the arithmetic mean over all windows covering it.
The combined reconstruction objective (mean window loss) is differentiable
with respect to every cell of the series, which is what the poisoning
algorithms optimize: one changed time point influences every window that
contains it, forward and backward in time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import nn_core
from .nn_core import ModelConfig, ModelParams
from .timeseries import SeriesMatrix, WindowConfig, window

__all__ = [
    "DetectorConfig",
    "AlertReport",
    "window_batch",
    "reconstruct_series",
    "score",
    "series_loss",
    "series_objective_grad",
    "save_detector",
    "load_detector",
]

_RESIDUAL_MODES = ("per-point-abs", "window-mse")


@dataclass(frozen=True)
class DetectorConfig:
    model: ModelConfig
    window: WindowConfig
    threshold: float = 0.2
    residual_mode: str = "per-point-abs"

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.residual_mode not in _RESIDUAL_MODES:
            raise ValueError(f"residual_mode must be one of {_RESIDUAL_MODES}")
        if self.model.input_size % self.window.length != 0:
            raise ValueError(
                f"model input {self.model.input_size} is not a multiple of window length {self.window.length}"
            )

    @property
    def num_features(self) -> int:
        return self.model.input_size // self.window.length


@dataclass(frozen=True)
class AlertReport:
    """Per-time-point residuals and the points exceeding the threshold."""

    residuals: np.ndarray
    alert_count: int
    alert_indices: tuple[int, ...]
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "schema": "aepoison/alert-report/v1",
            "threshold": self.threshold,
            "alert_count": self.alert_count,
            "alert_indices": list(self.alert_indices),
            "residuals": [float(r) for r in self.residuals],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2))


def _check_series(series: SeriesMatrix, cfg: DetectorConfig) -> None:
    if series.num_features != cfg.num_features:
        raise ValueError(
            f"series has {series.num_features} features, detector expects {cfg.num_features}"
        )
    if series.length < cfg.window.length:
        raise ValueError(
            f"series length {series.length} is shorter than the window length {cfg.window.length}"
        )


def window_batch(series: SeriesMatrix, cfg: DetectorConfig) -> np.ndarray:
    """Flattened (count, l*N) window batch; rows are windows, time-major."""
    _check_series(series, cfg)
    wins = window(series, cfg.window)
    return wins.reshape(wins.shape[0], -1)


def _window_starts(series_len: int, cfg: DetectorConfig) -> np.ndarray:
    count = (series_len - cfg.window.length) // cfg.window.stride + 1
    return np.arange(count) * cfg.window.stride


def _scatter_windows(grad_batch: np.ndarray, series_len: int, cfg: DetectorConfig) -> np.ndarray:
    """Sum per-window rows back onto the series rows each window was cut
    from; a row covered by several windows gets their sum, added in window
    order."""
    blocks = grad_batch.reshape(-1, cfg.window.length, cfg.num_features)
    rows = _window_starts(series_len, cfg)[:, None] + np.arange(cfg.window.length)
    out = np.zeros((series_len, cfg.num_features))
    np.add.at(out, rows, blocks)
    return out


def reconstruct_series(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> SeriesMatrix:
    """Model prediction for the whole series.

    Every window is reconstructed; a time point covered by several windows
    gets the mean of their predictions (points near the edges are covered by
    fewer windows and use the mean over those that exist).
    """
    preds = nn_core.forward(params, window_batch(series, cfg))
    total = _scatter_windows(preds, series.length, cfg)
    cover = _scatter_windows(np.ones_like(preds), series.length, cfg)
    return series.with_values(np.where(cover > 0, total / np.maximum(cover, 1.0), series.values))


def score(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> AlertReport:
    """Alert decision: residual per time point compared against the threshold.

    per-point-abs: residual[t] = max over features |predicted - observed|.
    window-mse: each window's MSE is assigned to the window's start index.
    """
    _check_series(series, cfg)
    if cfg.residual_mode == "per-point-abs":
        recon = reconstruct_series(params, series, cfg)
        residuals = np.abs(recon.values - series.values).max(axis=1)
    else:
        batch = window_batch(series, cfg)
        preds = nn_core.forward(params, batch)
        per_window = np.mean((preds - batch) ** 2, axis=1)
        residuals = np.zeros(series.length)
        residuals[_window_starts(series.length, cfg)] = per_window
    alert_idx = np.flatnonzero(residuals > cfg.threshold)
    return AlertReport(residuals, int(alert_idx.size), tuple(int(i) for i in alert_idx), cfg.threshold)


def series_loss(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> float:
    """Combined reconstruction objective: loss over the series' window batch."""
    return nn_core.loss(params, window_batch(series, cfg))


def series_objective_grad(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> np.ndarray:
    """Gradient of :func:`series_loss` with respect to every series cell.

    A cell belonging to k windows accumulates the contributions of all k:
    the windowing is a linear gather, so the chain rule is a scatter-add of
    the per-window input gradients.
    """
    gx = nn_core.grad_x(params, window_batch(series, cfg))
    return _scatter_windows(gx, series.length, cfg)


def save_detector(params: ModelParams, cfg: DetectorConfig, path: str | Path) -> None:
    """Bundle DetectorConfig + parameters in one binary checkpoint."""
    meta = {
        "window_length": cfg.window.length,
        "window_stride": cfg.window.stride,
        "threshold": cfg.threshold,
        "residual_mode": cfg.residual_mode,
        "model": params.config.to_dict(),
    }
    np.savez(
        Path(path),
        detector=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        params=params.flatten(),
    )


def load_detector(path: str | Path) -> tuple[ModelParams, DetectorConfig]:
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["detector"]).decode())
        model_cfg = ModelConfig.from_dict(meta["model"])
        cfg = DetectorConfig(
            model=model_cfg,
            window=WindowConfig(meta["window_length"], meta["window_stride"]),
            threshold=meta["threshold"],
            residual_mode=meta["residual_mode"],
        )
        return ModelParams.from_flat(model_cfg, data["params"]), cfg
