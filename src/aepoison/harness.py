"""Experiment orchestration: cells, grids, sweeps, persistence.

A cell fully describes one poisoning experiment (signal family, detector,
attack, algorithm, budgets, seed). Grids run the cartesian product of axis
values over a base cell, flushing one JSONL record per run so interrupted
grids resume without recomputing. All randomness derives from the cell seed
by a fixed counter scheme: stream k of cell seed s is s * 1_000_003 + k
(k = 0 validation noise, 1 attack-base noise, 2 model init, 3.. training
sequences); grid cells get their seed from the grid seed plus the cell
index unless "seed" is itself an axis.

Default grid axes where the source experiments left values unstated:
attack locations {SIN_TOP, SIN_BOTTOM, SIN_SIDE}, signal lengths
{50, 100, 200}; both are this harness's choices, not reported values.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .detector import DetectorConfig
from .nn_core import ModelConfig, TrainConfig
from .poisoning import PoisonConfig, PoisonResult, poison_span, run_pipeline
from .signals import AttackSpec, SignalSpec, anchor_index, generate, inject_attack
from .timeseries import SeriesMatrix, WindowConfig

__all__ = [
    "CellConfig",
    "ExperimentData",
    "GridSpec",
    "MetricsRecord",
    "build_experiment",
    "run_cell",
    "run_grid",
    "max_poisonable_magnitude",
    "export",
    "DEFAULT_LOCATIONS",
    "DEFAULT_SIGNAL_LENGTHS",
]

DEFAULT_LOCATIONS = ("SIN_TOP", "SIN_BOTTOM", "SIN_SIDE")
DEFAULT_SIGNAL_LENGTHS = (50, 100, 200)

_SEED_STRIDE = 1_000_003

_AXIS_NAMES = frozenset(
    {
        "training_set_size",
        "attack_magnitude",
        "attack_location",
        "signal_length",
        "subsequence_length",
        "train_iterations",
        "adversarial_iterations",
        "algorithm",
        "init_mode",
        "seed",
    }
)


@dataclass(frozen=True)
class CellConfig:
    """One poisoning experiment, fully specified."""

    training_set_size: int = 10
    attack_magnitude: float = 0.3
    attack_location: str | int = "SIN_BOTTOM"
    attack_sign: str = "away-from-zero"
    attack_duration: int = 7
    attack_clip: float | None = None
    signal_length: int = 100
    period: int = 20
    waveform: str = "sine"
    noise_std: float = 0.05
    channels: tuple[tuple[float, float], ...] = ((1.0, 0.0),)
    subsequence_length: int = 2
    threshold: float = 0.2
    residual_mode: str = "per-point-abs"
    inflation_factor: int = 2
    code_ratio: int = 2
    init_scale: float = 0.3
    learning_rate: float = 0.3
    train_iterations: int = 2000
    stop_loss: float = 0.0005
    algorithm: str = "interp"
    init_mode: str = "benign-data"
    retrain_mode: str = "append"
    adversarial_iterations: int = 300
    adv_learning_rate: float = 0.3
    anchor_period_shift: int = 2
    context_margin: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.algorithm not in ("interp", "backgrad"):
            raise ValueError(f"algorithm must be interp or backgrad, got {self.algorithm!r}")
        if self.training_set_size < 1:
            raise ValueError("training_set_size must be >= 1")
        if self.subsequence_length > self.signal_length:
            raise ValueError("subsequence length cannot exceed the signal length")
        object.__setattr__(self, "channels", tuple((float(s), float(o)) for s, o in self.channels))

    @property
    def single_sequence(self) -> bool:
        return self.subsequence_length == self.signal_length

    def stream_seed(self, k: int) -> int:
        return self.seed * _SEED_STRIDE + k

    def signal_spec(self, seed: int) -> SignalSpec:
        return SignalSpec(
            waveform=self.waveform,
            period=self.period,
            length=self.signal_length,
            noise_std=self.noise_std,
            channels=self.channels,
            seed=seed,
        )

    def detector_config(self) -> DetectorConfig:
        n = len(self.channels)
        input_size = self.subsequence_length * n
        model = ModelConfig(
            input_size=input_size,
            code_size=max(1, input_size // self.code_ratio),
            inflation_factor=self.inflation_factor,
            init_seed=self.stream_seed(2),
            init_scale=self.init_scale,
        )
        return DetectorConfig(
            model=model,
            window=WindowConfig(self.subsequence_length, 1),
            threshold=self.threshold,
            residual_mode=self.residual_mode,
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            max_epochs=self.train_iterations,
            stop_loss=self.stop_loss,
        )

    def poison_config(self) -> PoisonConfig:
        return PoisonConfig(
            adv_learning_rate=self.adv_learning_rate,
            max_iters=self.adversarial_iterations,
            init_mode=self.init_mode,
            retrain_mode=self.retrain_mode,
            seed=self.stream_seed(4),
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["channels"] = [list(c) for c in self.channels]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CellConfig":
        data = dict(data)
        if "channels" in data:
            data["channels"] = tuple(tuple(c) for c in data["channels"])
        return cls(**data)


@dataclass(frozen=True)
class ExperimentData:
    """Generated inputs for one cell."""

    train: tuple[SeriesMatrix, ...]
    val: SeriesMatrix
    clean: SeriesMatrix
    attack: SeriesMatrix
    attack_range: tuple[int, int]
    span: tuple[int, int]


def build_experiment(cell: CellConfig) -> ExperimentData:
    """Generate training/validation/attack series for a cell.

    The attack anchors at the named location of a middle period
    (anchor + anchor_period_shift periods) so the spoofed range sits away
    from the series edges.
    """
    train = tuple(
        generate(cell.signal_spec(cell.stream_seed(3 + i))) for i in range(cell.training_set_size)
    )
    val = generate(cell.signal_spec(cell.stream_seed(0)))
    clean = generate(cell.signal_spec(cell.stream_seed(1)))
    if isinstance(cell.attack_location, str):
        anchor = anchor_index(cell.signal_spec(0), cell.attack_location)
        anchor += cell.anchor_period_shift * cell.period
        while anchor + cell.attack_duration > cell.signal_length and anchor >= cell.period:
            anchor -= cell.period
    else:
        anchor = int(cell.attack_location)
    spec = AttackSpec(
        location=anchor,
        magnitude=cell.attack_magnitude,
        duration=cell.attack_duration,
        sign=cell.attack_sign,
        clip=cell.attack_clip,
    )
    attack, attack_range = inject_attack(clean, 0, spec, cell.period)
    margin = cell.period if cell.context_margin is None else cell.context_margin
    span = poison_span(cell.signal_length, attack_range, cell.subsequence_length, margin)
    return ExperimentData(train, val, clean, attack, attack_range, span)


@dataclass(frozen=True)
class MetricsRecord:
    cell: dict
    repetition: int
    success: bool
    baseline_attack_alerts: int
    poison_point_count: int
    clean_pads: int
    optimization_iterations: int
    achieved_magnitude: float
    termination: str
    wall_time_s: float
    error: str | None = None

    @property
    def engaged(self) -> bool:
        """True when the baseline model alerted on the attack, so poisoning
        actually had something to conceal."""
        return self.baseline_attack_alerts > 0

    def key(self) -> tuple[str, int]:
        return (json.dumps(self.cell, sort_keys=True), self.repetition)

    def to_json_dict(self) -> dict:
        return {
            "schema": "aepoison/metrics-record/v1",
            "cell": self.cell,
            "repetition": self.repetition,
            "success": self.success,
            "baseline_attack_alerts": self.baseline_attack_alerts,
            "poison_point_count": self.poison_point_count,
            "clean_pads": self.clean_pads,
            "optimization_iterations": self.optimization_iterations,
            "achieved_magnitude": self.achieved_magnitude,
            "termination": self.termination,
            "wall_time_s": self.wall_time_s,
            "error": self.error,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsRecord":
        return cls(
            cell=data["cell"],
            repetition=data["repetition"],
            success=data["success"],
            baseline_attack_alerts=data["baseline_attack_alerts"],
            poison_point_count=data["poison_point_count"],
            clean_pads=data["clean_pads"],
            optimization_iterations=data["optimization_iterations"],
            achieved_magnitude=data["achieved_magnitude"],
            termination=data["termination"],
            wall_time_s=data["wall_time_s"],
            error=data.get("error"),
        )


def run_cell(cell: CellConfig, repetition: int = 0, keep_result: bool = False):
    """Run one full poisoning experiment; never raises, errors are recorded.

    Returns the MetricsRecord, or (record, PoisonResult, ExperimentData)
    with keep_result=True.
    """
    t0 = time.perf_counter()
    result: PoisonResult | None = None
    data: ExperimentData | None = None
    try:
        data = build_experiment(cell)
        baseline, result = run_pipeline(
            data.train,
            data.val,
            data.attack,
            data.clean,
            data.span,
            cell.algorithm,
            cell.poison_config(),
            detector_cfg=cell.detector_config(),
            train_cfg=cell.train_config(),
        )
        record = MetricsRecord(
            cell=cell.to_dict(),
            repetition=repetition,
            success=result.success,
            baseline_attack_alerts=baseline.alerts_attack,
            poison_point_count=result.adversarial_point_count,
            clean_pads=result.clean_pads,
            optimization_iterations=result.iterations,
            achieved_magnitude=result.achieved_magnitude,
            termination=result.termination,
            wall_time_s=time.perf_counter() - t0,
        )
    except Exception as exc:  # cell failures are data, not crashes
        record = MetricsRecord(
            cell=cell.to_dict(),
            repetition=repetition,
            success=False,
            baseline_attack_alerts=0,
            poison_point_count=0,
            clean_pads=0,
            optimization_iterations=0,
            achieved_magnitude=0.0,
            termination="error",
            wall_time_s=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}",
        )
    if keep_result:
        return record, result, data
    return record


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of cell overrides over a base cell."""

    axes: dict
    base: CellConfig = field(default_factory=CellConfig)
    repetitions: int = 1
    budget: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        axes = {str(k): list(v) for k, v in self.axes.items()}
        object.__setattr__(self, "axes", axes)
        unknown = set(axes) - _AXIS_NAMES
        if unknown:
            raise ValueError(f"unknown grid axes {sorted(unknown)}; allowed: {sorted(_AXIS_NAMES)}")
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} is empty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.cell_count() * self.repetitions > self.budget:
            raise ValueError(
                f"{self.cell_count()} cells x {self.repetitions} repetitions exceeds budget {self.budget}"
            )

    def cell_count(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def cells(self) -> list[CellConfig]:
        names = sorted(self.axes)
        out = []
        for index, combo in enumerate(itertools.product(*(self.axes[n] for n in names))):
            overrides = dict(zip(names, combo))
            cell_seed = overrides.pop("seed", self.seed * _SEED_STRIDE + index)
            out.append(replace(self.base, seed=cell_seed, **overrides))
        return out

    def to_dict(self) -> dict:
        return {
            "schema": "aepoison/grid/v1",
            "axes": self.axes,
            "base": self.base.to_dict(),
            "repetitions": self.repetitions,
            "budget": self.budget,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        base = CellConfig.from_dict(data["base"]) if "base" in data else CellConfig()
        return cls(
            axes=data["axes"],
            base=base,
            repetitions=data.get("repetitions", 1),
            budget=data.get("budget", 256),
            seed=data.get("seed", 0),
        )


def _run_cell_rep(args: tuple[CellConfig, int]) -> MetricsRecord:
    cell, rep = args
    return run_cell(cell, rep)


def run_grid(
    spec: GridSpec, out_dir: str | Path | None = None, workers: int = 1
) -> list[MetricsRecord]:
    """One record per (cell, repetition); resumable via records.jsonl.

    Completed (cell, repetition) pairs found in the output file are not
    recomputed; the returned list is sorted by cell coordinates so the
    result is independent of execution order.
    """
    records: dict[tuple[str, int], MetricsRecord] = {}
    jsonl = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
        jsonl = out_path / "records.jsonl"
        if jsonl.exists():
            for line in jsonl.read_text().splitlines():
                if line.strip():
                    rec = MetricsRecord.from_json_dict(json.loads(line))
                    records[rec.key()] = rec
    pending = []
    for cell in spec.cells():
        for rep in range(spec.repetitions):
            key = (json.dumps(cell.to_dict(), sort_keys=True), rep)
            if key not in records:
                pending.append((cell, rep))

    def flush(rec: MetricsRecord) -> None:
        records[rec.key()] = rec
        if jsonl is not None:
            with jsonl.open("a") as fh:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")

    if workers > 1 and pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for rec in pool.map(_run_cell_rep, pending):
                flush(rec)
    else:
        for item in pending:
            flush(_run_cell_rep(item))
    return sorted(records.values(), key=lambda r: r.key())


def max_poisonable_magnitude(
    cell: CellConfig, step: float, ceiling: float = 1.0, exhaustive: bool = False
) -> float:
    """Largest magnitude on the step grid that poisoning conceals.

    Ascending sweep; a rung counts only when the baseline detector alerted
    on the attack (an attack that never alerts needs no poisoning and says
    nothing about the algorithm). Stops at the first such failure unless
    `exhaustive` (sweep assumes harder attacks are never easier; that
    monotonicity is an assumption, not a theorem).
    """
    if step <= 0:
        raise ValueError("step must be > 0")
    best = 0.0
    m = step
    while m <= ceiling + 1e-12:
        record = run_cell(replace(cell, attack_magnitude=round(m, 10)))
        if record.engaged or record.error is not None:
            if record.success:
                best = round(m, 10)
            elif not exhaustive:
                break
        m += step
    return best


def export(records: Sequence[MetricsRecord], out_dir: str | Path, formats: Sequence[str] = ("csv", "json")) -> list[Path]:
    """Write records as CSV/JSON plus plot-data files (x/y series)."""
    if not records:
        raise ValueError("no records to export")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    cell_keys = sorted(records[0].cell.keys())
    if "csv" in formats:
        p = out_path / "records.csv"
        with p.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                cell_keys
                + [
                    "repetition",
                    "success",
                    "baseline_attack_alerts",
                    "poison_point_count",
                    "clean_pads",
                    "optimization_iterations",
                    "achieved_magnitude",
                    "termination",
                    "wall_time_s",
                    "error",
                ]
            )
            for rec in records:
                writer.writerow(
                    [rec.cell.get(k) for k in cell_keys]
                    + [
                        rec.repetition,
                        rec.success,
                        rec.baseline_attack_alerts,
                        rec.poison_point_count,
                        rec.clean_pads,
                        rec.optimization_iterations,
                        rec.achieved_magnitude,
                        rec.termination,
                        rec.wall_time_s,
                        rec.error or "",
                    ]
                )
        written.append(p)
    if "json" in formats:
        p = out_path / "records.json"
        p.write_text(json.dumps([r.to_json_dict() for r in records], indent=2))
        written.append(p)

    # plot data: poison points vs magnitude, one series per training size
    by_size: dict[int, list[tuple[float, int]]] = {}
    for rec in records:
        if rec.success and rec.error is None:
            size = rec.cell.get("training_set_size")
            by_size.setdefault(size, []).append(
                (rec.cell.get("attack_magnitude"), rec.poison_point_count)
            )
    p = out_path / "plot_points_vs_magnitude.csv"
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["training_set_size", "attack_magnitude", "mean_poison_points"])
        for size in sorted(by_size):
            by_mag: dict[float, list[int]] = {}
            for mag, pts in by_size[size]:
                by_mag.setdefault(mag, []).append(pts)
            for mag in sorted(by_mag):
                writer.writerow([size, mag, float(np.mean(by_mag[mag]))])
    written.append(p)

    # plot data: max successful magnitude per (algorithm, training size)
    best: dict[tuple[str, int], float] = {}
    for rec in records:
        if rec.success and rec.engaged and rec.error is None:
            key = (rec.cell.get("algorithm"), rec.cell.get("training_set_size"))
            best[key] = max(best.get(key, 0.0), rec.cell.get("attack_magnitude", 0.0))
    p = out_path / "plot_max_magnitude_vs_training_size.csv"
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "training_set_size", "max_magnitude"])
        for (algo, size), mag in sorted(best.items()):
            writer.writerow([algo, size, mag])
    written.append(p)

    # plot data: iteration counts per algorithm and magnitude
    iters: dict[tuple[str, float], list[int]] = {}
    for rec in records:
        if rec.error is None:
            key = (rec.cell.get("algorithm"), rec.cell.get("attack_magnitude"))
            iters.setdefault(key, []).append(rec.optimization_iterations)
    p = out_path / "plot_iterations_comparison.csv"
    with p.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "attack_magnitude", "mean_iterations"])
        for (algo, mag), values in sorted(iters.items()):
            writer.writerow([algo, mag, float(np.mean(values))])
    written.append(p)
    return written
