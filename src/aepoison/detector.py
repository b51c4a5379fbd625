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
from .timeseries import SeriesMatrix, window

__all__ = [
    "DetectorConfig",
    "AlertReport",
    "check_series",
    "window_batch",
    "reconstruct_series",
    "score",
    "series_loss",
    "series_objective_grad",
    "save_detector",
    "load_detector",
]

@dataclass(frozen=True)
class DetectorConfig:
    """A model over windows of `window_length` rows that start at every row."""

    model: ModelConfig
    window_length: int
    threshold: float = 0.2

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be > 0")
        if self.window_length < 1:
            raise ValueError(f"window length must be >= 1, got {self.window_length}")
        if self.model.input_size % self.window_length != 0:
            raise ValueError(
                f"model input {self.model.input_size} is not a multiple of window length {self.window_length}"
            )

    @property
    def num_features(self) -> int:
        return self.model.input_size // self.window_length


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


def check_series(series: SeriesMatrix, cfg: DetectorConfig) -> None:
    """Refuse a series of another feature count, or shorter than a window."""
    if series.num_features != cfg.num_features:
        raise ValueError(
            f"series has {series.num_features} features, detector expects {cfg.num_features}"
        )
    if series.length < cfg.window_length:
        raise ValueError(
            f"series length {series.length} is shorter than the window length {cfg.window_length}"
        )


def window_batch(series: SeriesMatrix, cfg: DetectorConfig) -> np.ndarray:
    """Flattened (count, l*N) window batch; rows are windows, time-major."""
    check_series(series, cfg)
    wins = window(series, cfg.window_length)
    return wins.reshape(wins.shape[0], -1)


def _scatter_windows(grad_batch: np.ndarray, series_len: int, cfg: DetectorConfig) -> np.ndarray:
    """Sum per-window rows back onto the series rows they came from; a row
    covered by several windows gets their sum, added in window order (the
    order of np.add.at, which this replaces with one slice-add per window or
    per window position, whichever are fewer)."""
    length, count = cfg.window_length, len(grad_batch)
    blocks = grad_batch.reshape(count, length, -1)
    out = np.zeros((series_len, blocks.shape[-1]))
    if count < length:
        for j in range(count):
            out[j : j + length] += blocks[j]
    else:
        # position p of window j is row j + p: descending p adds in window order
        for p in range(length - 1, -1, -1):
            out[p : p + count] += blocks[:, p]
    return out


def reconstruct_series(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> SeriesMatrix:
    """Model prediction for the whole series.

    Every window is reconstructed; a time point gets the mean of the
    predictions of the windows covering it (every point is covered; points
    near the edges by fewer windows).
    """
    preds = nn_core.forward(params, window_batch(series, cfg))
    total = _scatter_windows(preds, series.length, cfg)
    cover = _scatter_windows(np.ones_like(preds), series.length, cfg)
    return series.with_values(total / cover)


def score(params: ModelParams, series: SeriesMatrix, cfg: DetectorConfig) -> AlertReport:
    """Alert decision: residual per time point compared against the threshold,
    residual[t] = max over features |predicted - observed|."""
    recon = reconstruct_series(params, series, cfg)
    residuals = np.abs(recon.values - series.values).max(axis=1)
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
    """Bundle DetectorConfig + parameters in one binary checkpoint at exactly
    `path` (np.savez appends .npz to a file name, not to an open file)."""
    meta = {"window_length": cfg.window_length, "threshold": cfg.threshold, "model": params.config.to_dict()}
    with Path(path).open("wb") as fh:
        np.savez(fh, detector=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), params=params.flatten())


def load_detector(path: str | Path) -> tuple[ModelParams, DetectorConfig]:
    """Inverse of :func:`save_detector`. A header or model key that no field
    reads (a file naming the removed residual_mode, window_stride or layer
    counts) is refused with a TypeError that names it."""
    with np.load(Path(path)) as data:
        meta = json.loads(bytes(data["detector"]).decode())
        model_cfg = ModelConfig.from_dict(meta.pop("model"))
        return ModelParams(model_cfg, data["params"]), DetectorConfig(model_cfg, **meta)
