"""Synthetic periodic signals and spoofed-sensor attack injection.

Signals are built from one base waveform; each channel is an affine map of it
plus independent Gaussian noise, deterministic under the spec seed. Attacks
add a constant offset to one feature over a contiguous range (a spoofed
sensor reading); the offset is applied after noise so the injected deviation
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import SeriesMatrix

__all__ = [
    "SignalSpec",
    "AttackSpec",
    "RampSpec",
    "WAVEFORMS",
    "ATTACK_LOCATIONS",
    "generate",
    "base_waveform",
    "anchor_index",
    "inject_attack",
]

WAVEFORMS = ("sine", "cosine", "square", "sawtooth")
ATTACK_LOCATIONS = ("SIN_TOP", "SIN_BOTTOM", "SIN_SIDE")
ATTACK_SIGNS = ("away-from-zero", "positive", "negative")


@dataclass(frozen=True)
class SignalSpec:
    waveform: str = "sine"
    period: int = 20
    length: int = 100
    amplitude: float = 1.0
    noise_std: float = 0.0
    channels: tuple[tuple[float, float], ...] = ((1.0, 0.0),)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.waveform not in WAVEFORMS:
            raise ValueError(f"waveform must be one of {WAVEFORMS}, got {self.waveform!r}")
        if self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")
        if self.length < self.period:
            raise ValueError(f"length {self.length} must be >= period {self.period}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        channels = tuple((float(s), float(o)) for s, o in self.channels)
        if not channels:
            raise ValueError("at least one channel is required")
        object.__setattr__(self, "channels", channels)

    def feature_names(self) -> tuple[str, ...]:
        return tuple(f"ch{i}" for i in range(len(self.channels)))


@dataclass(frozen=True)
class AttackSpec:
    """Constant-offset spoof of one feature.

    `location` is a named anchor or an explicit time index; `clip` caps the
    applied offset (Table-style clipping of over-large attacks).
    """

    location: str | int
    magnitude: float
    duration: int
    sign: str = "away-from-zero"
    clip: float | None = None

    def __post_init__(self) -> None:
        if isinstance(self.location, str) and self.location not in ATTACK_LOCATIONS:
            raise ValueError(f"location must be an index or one of {ATTACK_LOCATIONS}")
        if self.magnitude < 0:
            raise ValueError("magnitude must be >= 0")
        if self.duration < 1:
            raise ValueError("duration must be >= 1")
        if self.sign not in ATTACK_SIGNS:
            raise ValueError(f"sign must be one of {ATTACK_SIGNS}")
        if self.clip is not None and not (0.0 < self.clip <= self.magnitude):
            raise ValueError("clip must be in (0, magnitude]")

    @property
    def effective_magnitude(self) -> float:
        return self.magnitude if self.clip is None else min(self.magnitude, self.clip)


@dataclass(frozen=True)
class RampSpec:
    """Attack variant with explicit per-step offsets (e.g. a linear ramp)."""

    location: str | int
    offsets: tuple[float, ...]

    def __post_init__(self) -> None:
        offsets = tuple(float(o) for o in self.offsets)
        if not offsets:
            raise ValueError("ramp needs at least one offset")
        object.__setattr__(self, "offsets", offsets)

    @property
    def duration(self) -> int:
        return len(self.offsets)

    @property
    def effective_magnitude(self) -> float:
        return float(np.max(np.abs(self.offsets)))


def base_waveform(spec: SignalSpec) -> np.ndarray:
    """Noiseless base waveform b(i), i = 0..length-1, range [-A, A]."""
    i = np.arange(spec.length, dtype=np.float64)
    phase = i / spec.period
    if spec.waveform == "sine":
        b = np.sin(2.0 * np.pi * phase)
    elif spec.waveform == "cosine":
        b = np.cos(2.0 * np.pi * phase)
    elif spec.waveform == "square":
        # +1 on the first half-period, -1 on the second
        b = np.where((i % spec.period) < spec.period / 2.0, 1.0, -1.0)
    else:  # sawtooth: linear ramp from -1 to +1 each period
        b = 2.0 * ((i % spec.period) / spec.period) - 1.0
    return spec.amplitude * b


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


def anchor_index(spec: SignalSpec, location: str | int) -> int:
    """Resolve a named attack location to a time index in the first period.

    SIN_TOP/SIN_BOTTOM are extrema of the noiseless base waveform, SIN_SIDE
    the steepest step; ties break toward the earliest index.
    """
    if isinstance(location, (int, np.integer)):
        idx = int(location)
        if not (0 <= idx < spec.length):
            raise ValueError(f"explicit index {idx} out of range [0, {spec.length})")
        return idx
    b = base_waveform(spec)[: spec.period]
    if location == "SIN_TOP":
        return int(np.argmax(b))
    if location == "SIN_BOTTOM":
        return int(np.argmin(b))
    if location == "SIN_SIDE":
        ext = base_waveform(spec)[: spec.period + 1]
        return int(np.argmax(np.abs(np.diff(ext))))
    raise ValueError(f"unknown location {location!r}")


def _resolve_anchor_from_series(series: SeriesMatrix, feature: int, location: str | int, period: int) -> int:
    if isinstance(location, (int, np.integer)):
        idx = int(location)
        if not (0 <= idx < series.length):
            raise ValueError(f"explicit index {idx} out of range [0, {series.length})")
        return idx
    if period < 2 or period > series.length:
        raise ValueError(f"period {period} invalid for series of length {series.length}")
    col = series.values[: period + 1, feature]
    if location == "SIN_TOP":
        return int(np.argmax(col[:period]))
    if location == "SIN_BOTTOM":
        return int(np.argmin(col[:period]))
    if location == "SIN_SIDE":
        return int(np.argmax(np.abs(np.diff(col))))
    raise ValueError(f"unknown location {location!r}")


def inject_attack(
    series: SeriesMatrix,
    target_feature: str | int,
    attack: AttackSpec | RampSpec,
    period: int,
) -> tuple[SeriesMatrix, tuple[int, int]]:
    """Apply a spoofed offset to one feature; returns (series, attack range).

    Named anchors are resolved against the target feature's first period of
    `series` (exact on noiseless input). A zero effective offset leaves the
    series untouched and reports an empty range.
    """
    feat = series.feature_index(target_feature) if isinstance(target_feature, str) else int(target_feature)
    if not (0 <= feat < series.num_features):
        raise ValueError(f"feature index {feat} out of range")
    anchor = _resolve_anchor_from_series(series, feat, attack.location, period)
    duration = attack.duration
    if anchor + duration > series.length:
        raise ValueError(
            f"attack range [{anchor}, {anchor + duration}) overflows series of length {series.length}"
        )
    if isinstance(attack, RampSpec):
        offsets = np.asarray(attack.offsets)
    else:
        magnitude = attack.effective_magnitude
        if attack.sign == "positive":
            direction = 1.0
        elif attack.sign == "negative":
            direction = -1.0
        else:
            at_anchor = series.values[anchor, feat]
            direction = 1.0 if at_anchor >= 0 else -1.0
        offsets = np.full(duration, direction * magnitude)
    if not np.any(offsets):
        return series, (anchor, anchor)
    values = series.values.copy()
    values[anchor : anchor + duration, feat] += offsets
    return series.with_values(values), (anchor, anchor + duration)
