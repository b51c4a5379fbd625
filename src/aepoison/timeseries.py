"""Multivariate time-series data model.

A series is a T x N float matrix (time steps by features) with named columns.
All operations are pure: inputs are never mutated, arrays inside SeriesMatrix
are frozen (read-only views), so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "SeriesMatrix",
    "NormStats",
    "WindowConfig",
    "normalize",
    "denormalize",
    "window",
    "subsample",
    "ingest_csv",
    "export_csv",
]


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.array(values, dtype=np.float64, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class SeriesMatrix:
    """T x N multivariate series; `dt` is the sampling interval in seconds."""

    values: np.ndarray
    feature_names: tuple[str, ...]
    dt: float = 1.0

    def __post_init__(self) -> None:
        values = _frozen(np.atleast_2d(self.values))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        if values.ndim != 2:
            raise ValueError(f"series must be 2-D, got shape {values.shape}")
        t, n = values.shape
        if t < 1 or n < 1:
            raise ValueError(f"series needs at least one row and one column, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("series contains NaN or infinite values")
        if len(self.feature_names) != n:
            raise ValueError(f"{n} columns but {len(self.feature_names)} feature names")
        if len(set(self.feature_names)) != n:
            raise ValueError("feature names must be unique")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_features(self) -> int:
        return self.values.shape[1]

    def feature_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature {name!r}; have {list(self.feature_names)}") from None

    def with_values(self, values: np.ndarray) -> "SeriesMatrix":
        return SeriesMatrix(values, self.feature_names, self.dt)


@dataclass(frozen=True)
class NormStats:
    """Per-feature min/max used as the affine normalization base."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self) -> None:
        mn = _frozen(np.atleast_1d(self.min))
        mx = _frozen(np.atleast_1d(self.max))
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)
        if mn.shape != mx.shape or mn.ndim != 1:
            raise ValueError("min and max must be 1-D arrays of equal length")
        if np.any(mn > mx):
            raise ValueError("per-feature min must not exceed max")

    @property
    def degenerate(self) -> np.ndarray:
        """Boolean mask of constant (min == max) features."""
        return self.min == self.max

    @classmethod
    def from_series(cls, series: SeriesMatrix) -> "NormStats":
        return cls(series.values.min(axis=0), series.values.max(axis=0))


@dataclass(frozen=True)
class WindowConfig:
    length: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"window length must be >= 1, got {self.length}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


def normalize(series: SeriesMatrix, base: NormStats | None = None) -> tuple[SeriesMatrix, NormStats]:
    """Min-max map each feature to [0, 1] relative to `base` (computed from
    `series` itself when absent). Out-of-base values land outside [0, 1];
    nothing is clipped. Degenerate features map to 0."""
    stats = NormStats.from_series(series) if base is None else base
    if stats.min.shape[0] != series.num_features:
        raise ValueError(
            f"normalization base has {stats.min.shape[0]} features, series has {series.num_features}"
        )
    span = stats.max - stats.min
    safe_span = np.where(span == 0.0, 1.0, span)
    mapped = (series.values - stats.min) / safe_span
    mapped = np.where(stats.degenerate, 0.0, mapped)
    return series.with_values(mapped), stats


def denormalize(series: SeriesMatrix, stats: NormStats) -> SeriesMatrix:
    """Inverse of :func:`normalize` for non-degenerate features."""
    if stats.min.shape[0] != series.num_features:
        raise ValueError("normalization base does not match series width")
    span = stats.max - stats.min
    return series.with_values(series.values * span + stats.min)


def window(series: SeriesMatrix, cfg: WindowConfig) -> np.ndarray:
    """Overlapping subsequences as an array of shape (count, length, N).

    Windows start at 0, stride, 2*stride, ...; count = (T - l)//stride + 1.
    """
    t = series.length
    if cfg.length > t:
        raise ValueError(f"window length {cfg.length} exceeds series length {t}")
    count = (t - cfg.length) // cfg.stride + 1
    starts = np.arange(count) * cfg.stride
    idx = starts[:, None] + np.arange(cfg.length)[None, :]
    return series.values[idx]


def window_count(t: int, cfg: WindowConfig) -> int:
    if cfg.length > t:
        raise ValueError(f"window length {cfg.length} exceeds series length {t}")
    return (t - cfg.length) // cfg.stride + 1


def subsample(series: SeriesMatrix, factor: int) -> SeriesMatrix:
    """Keep every `factor`-th row starting at row 0; dt scales by `factor`."""
    if factor < 1:
        raise ValueError(f"subsample factor must be >= 1, got {factor}")
    return SeriesMatrix(series.values[::factor], series.feature_names, series.dt * factor)


def ingest_csv(
    path: str | Path,
    feature_selection: Sequence[str] | None = None,
    dt: float = 1.0,
) -> SeriesMatrix:
    """Read a comma-separated file into a SeriesMatrix.

    One header row of feature names, one data row per time step. Columns not
    in `feature_selection` are dropped; selection order is preserved.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        names = list(feature_selection) if feature_selection is not None else header
        try:
            cols = [header.index(name) for name in names]
        except ValueError:
            missing = [n for n in names if n not in header]
            raise ValueError(f"{path}: column(s) {missing} not found in header {header}") from None
        rows: list[list[float]] = []
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            parsed = []
            for col, name in zip(cols, names):
                cell = row[col].strip() if col < len(row) else ""
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at data row {row_no}, column {name!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return SeriesMatrix(np.array(rows, dtype=np.float64), tuple(names), dt)


def export_csv(series: SeriesMatrix, path: str | Path | None = None) -> str:
    """Write a series as CSV; returns the text.

    12 significant digits, so ingest(export(s)) matches s to well under 1e-9
    relative error and re-exporting the round-tripped series is bit-stable.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(series.feature_names)
    for row in series.values:
        writer.writerow([format(v, ".12g") for v in row])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text
