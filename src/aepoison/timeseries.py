"""Multivariate time-series data model.

A series is a T x N float matrix (time steps by features) with named columns.
All operations are pure: inputs are never mutated, arrays inside SeriesMatrix
are frozen (read-only views), so values can be shared freely across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "SeriesMatrix",
    "NormStats",
    "normalize",
    "window",
    "window_rows",
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
    """T x N multivariate series with one name per column."""

    values: np.ndarray
    feature_names: tuple[str, ...]

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
        return SeriesMatrix(values, self.feature_names)


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


def window_rows(t: int, length: int) -> np.ndarray:
    """(count, length) index of the series row behind every window row.

    Windows start at every row 0, 1, ..., T - length; count = T - length + 1.
    """
    if length < 1:
        raise ValueError(f"window length must be >= 1, got {length}")
    if length > t:
        raise ValueError(f"window length {length} exceeds series length {t}")
    return np.arange(t - length + 1)[:, None] + np.arange(length)


def window(series: SeriesMatrix, length: int) -> np.ndarray:
    """Overlapping subsequences, one per start row, as an array of shape
    (count, length, N), gathered through :func:`window_rows`."""
    return series.values[window_rows(series.length, length)]


def subsample(series: SeriesMatrix, factor: int) -> SeriesMatrix:
    """Keep every `factor`-th row starting at row 0."""
    if factor < 1:
        raise ValueError(f"subsample factor must be >= 1, got {factor}")
    return series.with_values(series.values[::factor])


def ingest_csv(path: str | Path, feature_selection: Sequence[str] | None = None) -> SeriesMatrix:
    """Read a comma-separated file into a SeriesMatrix.

    One header row of feature names, one data row per time step. Columns not
    in `feature_selection` are dropped; selection order is preserved. Header
    cells and selected names are stripped of surrounding whitespace; a
    selected name the header lacks is a KeyError.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        names = [name.strip() for name in feature_selection] if feature_selection is not None else header
        try:
            cols = [header.index(name) for name in names]
        except ValueError:
            missing = [n for n in names if n not in header]
            raise KeyError(f"{path}: column(s) {missing} not found in header {header}") from None
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
    return SeriesMatrix(np.array(rows, dtype=np.float64), tuple(names))


def export_csv(series: SeriesMatrix, path: str | Path) -> None:
    """Write a series as CSV to `path`.

    12 significant digits, so ingest(export(s)) matches s to well under 1e-9
    relative error and re-exporting the round-tripped series is bit-stable.
    """
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(series.feature_names)
        for row in series.values:
            writer.writerow([format(v, ".12g") for v in row])
