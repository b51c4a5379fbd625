"""Synthetic periodic signals and spoofed-sensor attack injection.

Signals are built from one unit-amplitude sine; each channel is an affine map
of it plus independent Gaussian noise, deterministic under the spec seed.
Attacks add a constant offset to one feature over a contiguous range (a
spoofed sensor reading); the offset is applied after noise so the injected
deviation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn_core import integer
from .timeseries import SeriesMatrix

__all__ = [
    "SignalSpec",
    "AttackSpec",
    "ATTACK_LOCATIONS",
    "generate",
    "base_waveform",
    "anchor_index",
    "inject_attack",
]

ATTACK_LOCATIONS = ("SIN_TOP", "SIN_BOTTOM", "SIN_SIDE")
ATTACK_SIGNS = ("away-from-zero", "positive", "negative")


@dataclass(frozen=True)
class SignalSpec:
    period: int = 20
    length: int = 100
    noise_std: float = 0.0
    channels: tuple[tuple[float, float], ...] = ((1.0, 0.0),)
    seed: int = 0

    def __post_init__(self) -> None:
        integer(self.seed)  # a TypeError unless an integer, as are the sizes below
        if integer(self.period) < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")
        if integer(self.length) < self.period:
            raise ValueError(f"length {self.length} must be >= period {self.period}")
        if not 0 <= self.noise_std < np.inf:
            raise ValueError("noise_std must be finite and >= 0")
        channels = tuple((float(s), float(o)) for s, o in self.channels)
        if not np.isfinite(channels).all():
            raise ValueError("channel scales and offsets must be finite")
        if not channels:
            raise ValueError("at least one channel is required")
        object.__setattr__(self, "channels", channels)

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"ch{i}" for i in range(len(self.channels)))


@dataclass(frozen=True)
class AttackSpec:
    """Constant-offset spoof of one feature; `location` is a named anchor or
    an explicit time index."""

    location: str | int
    magnitude: float
    duration: int
    sign: str = "away-from-zero"

    def __post_init__(self) -> None:
        if isinstance(self.location, str) and self.location not in ATTACK_LOCATIONS:
            raise ValueError(f"location must be an index or one of {ATTACK_LOCATIONS}")
        if not 0 <= self.magnitude < np.inf:
            raise ValueError("magnitude must be finite and >= 0")
        if integer(self.duration) < 1:
            raise ValueError("duration must be >= 1")
        if self.sign not in ATTACK_SIGNS:
            raise ValueError(f"sign must be one of {ATTACK_SIGNS}")


def base_waveform(spec: SignalSpec) -> np.ndarray:
    """Noiseless unit-amplitude sine b(i) = sin(2 pi i / period), i = 0..length-1."""
    phase = np.arange(spec.length, dtype=np.float64) / spec.period
    return np.sin(2.0 * np.pi * phase)


def generate(spec: SignalSpec) -> SeriesMatrix:
    """Channel j = scale_j * b(i) + offset_j + N(0, noise_std), seeded."""
    b = base_waveform(spec)
    scales = np.array([s for s, _ in spec.channels])
    offsets = np.array([o for _, o in spec.channels])
    clean = b[:, None] * scales[None, :] + offsets[None, :]
    if spec.noise_std > 0:
        rng = np.random.default_rng(spec.seed)
        clean = clean + rng.normal(0.0, spec.noise_std, size=clean.shape)
    return SeriesMatrix(clean, spec.feature_names())


def _anchor_in(col: np.ndarray, location: str | int, period: int) -> int:
    """Index of `location` in the 1-D column `col`: an explicit index, or a
    named anchor in the first period. SIN_TOP/SIN_BOTTOM are its extrema,
    SIN_SIDE its steepest step; ties break toward the earliest index."""
    if isinstance(location, (int, np.integer)):
        idx = int(location)
        if not (0 <= idx < col.shape[0]):
            raise ValueError(f"explicit index {idx} out of range [0, {col.shape[0]})")
        return idx
    if location == "SIN_TOP":
        return int(np.argmax(col[:period]))
    if location == "SIN_BOTTOM":
        return int(np.argmin(col[:period]))
    if location == "SIN_SIDE":
        return int(np.argmax(np.abs(np.diff(col[: period + 1]))))
    raise ValueError(f"unknown location {location!r}")


def anchor_index(spec: SignalSpec, location: str | int) -> int:
    """Resolve an attack location to a time index of the noiseless base
    sine (named anchors fall in its first period)."""
    return _anchor_in(base_waveform(spec), location, spec.period)


def inject_attack(
    series: SeriesMatrix,
    target_feature: str | int,
    attack: AttackSpec,
    period: int,
) -> tuple[SeriesMatrix, tuple[int, int]]:
    """Apply a spoofed offset to one feature; returns (series, attack range).

    Named anchors are resolved against the target feature's first period of
    `series` (exact on noiseless input). A zero magnitude leaves the
    series untouched and reports an empty range.
    """
    feat = series.feature_index(target_feature) if isinstance(target_feature, str) else int(target_feature)
    if not (0 <= feat < series.num_features):
        raise ValueError(f"feature index {feat} out of range")
    if not isinstance(attack.location, (int, np.integer)) and not (2 <= period <= series.length):
        raise ValueError(f"period {period} invalid for series of length {series.length}")
    anchor = _anchor_in(series.values[:, feat], attack.location, period)
    stop = anchor + attack.duration
    if stop > series.length:
        raise ValueError(f"attack range [{anchor}, {stop}) overflows series of length {series.length}")
    if attack.magnitude == 0:
        return series, (anchor, anchor)
    if attack.sign == "positive":
        direction = 1.0
    elif attack.sign == "negative":
        direction = -1.0
    else:
        direction = 1.0 if series.values[anchor, feat] >= 0 else -1.0
    values = series.values.copy()
    values[anchor:stop, feat] += direction * attack.magnitude
    return series.with_values(values), (anchor, stop)
