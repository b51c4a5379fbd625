"""Experiment orchestration: cells, grids, sweeps, persistence.

A cell fully describes one poisoning experiment (sine signal, detector,
attack, algorithm, budgets, seed). Grids run the cartesian product of axis
values over a base cell, flushing one JSONL record per cell so interrupted
grids resume without recomputing. All randomness derives from the cell seed
by a fixed counter scheme: stream k of cell seed s is s * 1_000_003 + k
(k = 0 validation noise, 1 attack-base noise, 2 model init, 3.. training
sequences); grid cells get their seed from the grid seed plus the cell
index unless "seed" is itself an axis.

Four values the source experiments leave unstated are fixed here, as this
harness's choices rather than reported values: the autoencoder's code layer
is half its input width and its widening layers twice it, a named attack
location anchors two periods into the series, and a poison sequence spans
the attack's window footprint plus one period of context on each side.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import os
import time
from dataclasses import dataclass, field, replace
from operator import index
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .detector import DetectorConfig
from .nn_core import ModelConfig, TrainConfig
from .poisoning import ExperimentData, PoisonConfig, PoisonResult, poison_span, run_pipeline
from .signals import AttackSpec, SignalSpec, anchor_index, generate, inject_attack

__all__ = [
    "CellConfig",
    "GridSpec",
    "MetricsRecord",
    "build_experiment",
    "run_cell",
    "run_grid",
    "magnitude_rungs",
    "max_poisonable_magnitude",
    "export",
]

_SEED_STRIDE = 1_000_003
_INFLATION_FACTOR = 2

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
    signal_length: int = 100
    period: int = 20
    noise_std: float = 0.05
    channels: tuple[tuple[float, float], ...] = ((1.0, 0.0),)
    subsequence_length: int = 2
    threshold: float = 0.2
    init_scale: float = 0.3
    learning_rate: float = 0.3
    train_iterations: int = 2000
    stop_loss: float = 0.0005
    algorithm: str = "interp"
    init_mode: str = "benign-data"
    adversarial_iterations: int = 300
    adv_learning_rate: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in (f.name for f in dataclasses.fields(self) if f.type == "int"):
            index(getattr(self, name))  # a TypeError unless an integer
        if self.algorithm not in ("interp", "backgrad"):
            raise ValueError(f"algorithm must be interp or backgrad, got {self.algorithm!r}")
        if self.training_set_size < 1:
            raise ValueError("training_set_size must be >= 1")
        if self.subsequence_length > self.signal_length:
            raise ValueError("subsequence length cannot exceed the signal length")
        # the parts a run builds refuse their bad values now, not in run_cell
        object.__setattr__(self, "channels", self.signal_spec(0).channels)
        self.attack_spec()
        self.detector_config()
        self.train_config()
        self.poison_config()

    def stream_seed(self, k: int) -> int:
        return self.seed * _SEED_STRIDE + k

    def signal_spec(self, seed: int) -> SignalSpec:
        return SignalSpec(
            period=self.period,
            length=self.signal_length,
            noise_std=self.noise_std,
            channels=self.channels,
            seed=seed,
        )

    def attack_spec(self) -> AttackSpec:
        """The attack, placed at a named location's anchor two periods in (away
        from the series edges) and backed off by periods until it fits, or at
        the given index. Refuses an attack whose rows are not all in the series."""
        if isinstance(self.attack_location, str):
            anchor = anchor_index(self.signal_spec(0), self.attack_location) + 2 * self.period
            while anchor + self.attack_duration > self.signal_length and anchor >= self.period:
                anchor -= self.period
        else:
            anchor = index(self.attack_location)  # a TypeError unless an integer
        if not 0 <= anchor <= self.signal_length - self.attack_duration:
            raise ValueError(f"attack rows [{anchor}, {anchor + self.attack_duration}) leave [0, {self.signal_length})")
        return AttackSpec(
            location=anchor, magnitude=self.attack_magnitude, duration=self.attack_duration, sign=self.attack_sign
        )

    def detector_config(self) -> DetectorConfig:
        n = len(self.channels)
        input_size = self.subsequence_length * n
        model = ModelConfig(
            input_size=input_size,
            code_size=max(1, input_size // 2),
            inflation_factor=_INFLATION_FACTOR,
            init_seed=self.stream_seed(2),
            init_scale=self.init_scale,
        )
        return DetectorConfig(model=model, window_length=self.subsequence_length, threshold=self.threshold)

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
            seed=self.stream_seed(4),
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["channels"] = [list(c) for c in self.channels]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CellConfig":
        return cls(**data)


def build_experiment(cell: CellConfig) -> ExperimentData:
    """Generate training/validation/attack series for a cell, the attack
    placed by :meth:`CellConfig.attack_spec`."""
    train = tuple(
        generate(cell.signal_spec(cell.stream_seed(3 + i))) for i in range(cell.training_set_size)
    )
    val = generate(cell.signal_spec(cell.stream_seed(0)))
    clean = generate(cell.signal_spec(cell.stream_seed(1)))
    attack, attack_range = inject_attack(clean, 0, cell.attack_spec(), cell.period)
    span = poison_span(cell.signal_length, attack_range, cell.subsequence_length, cell.period)
    return ExperimentData(train, val, clean, attack, span)


@dataclass(frozen=True, kw_only=True)
class MetricsRecord:
    """One cell's outcome; the outcome fields default to an errored cell's."""

    cell: dict
    repetition: int
    success: bool = False
    baseline_attack_alerts: int = 0
    poison_point_count: int = 0
    clean_pads: int = 0
    optimization_iterations: int = 0
    termination: str = "error"
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
        return {"schema": "aepoison/metrics-record/v1", **dataclasses.asdict(self)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsRecord":
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls) if f.name in data})


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
            data, cell.algorithm, cell.poison_config(), detector_cfg=cell.detector_config(), train_cfg=cell.train_config()
        )
        outcome = dict(
            success=result.success,
            baseline_attack_alerts=baseline.alerts_attack,
            poison_point_count=result.adversarial_point_count,
            clean_pads=result.clean_pads,
            optimization_iterations=result.iterations,
            termination=result.termination,
        )
    except Exception as exc:  # cell failures are data, not crashes
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    record = MetricsRecord(cell=cell.to_dict(), repetition=repetition, wall_time_s=time.perf_counter() - t0, **outcome)
    if keep_result:
        return record, result, data
    return record


@dataclass(frozen=True)
class GridSpec:
    """Cartesian grid of cell overrides over a base cell."""

    axes: dict
    base: CellConfig = field(default_factory=CellConfig)
    budget: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        index(self.seed)  # a TypeError unless an integer, as is the budget below
        if not isinstance(self.axes, Mapping):
            raise TypeError(f"axes must map axis names to value lists, got {type(self.axes).__name__}")
        axes = {str(k): list(v) for k, v in self.axes.items()}
        object.__setattr__(self, "axes", axes)
        unknown = set(axes) - _AXIS_NAMES
        if unknown:
            raise ValueError(f"unknown grid axes {sorted(unknown)}; allowed: {sorted(_AXIS_NAMES)}")
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} is empty")
        if self.cell_count() > index(self.budget):
            raise ValueError(f"{self.cell_count()} cells exceed budget {self.budget}")
        self.cells()  # a bad axis value is refused here, as a bad base value is

    def cell_count(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def cells(self) -> list[CellConfig]:
        names = sorted(self.axes)
        out = []
        for i, combo in enumerate(itertools.product(*(self.axes[n] for n in names))):
            overrides = dict(zip(names, combo))
            cell_seed = overrides.pop("seed", self.seed * _SEED_STRIDE + i)
            out.append(replace(self.base, seed=cell_seed, **overrides))
        return out

    def to_dict(self) -> dict:
        return {
            "schema": "aepoison/grid/v1",
            "axes": self.axes,
            "base": self.base.to_dict(),
            "budget": self.budget,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        """Refuses (TypeError) a key that names no field, so a misspelled
        budget or seed is not silently replaced by its default."""
        data = {k: v for k, v in data.items() if k != "schema"}
        if "base" in data:
            data["base"] = CellConfig.from_dict(data["base"])
        return cls(**data)


def run_grid(spec: GridSpec, out_dir: str | Path) -> list[MetricsRecord]:
    """One record per cell, each run once (replicates come from the seed
    axis) and appended to ``out_dir/records.jsonl`` as it completes.

    Cells with a record (repetition 0) in that file are not recomputed, a
    row of that file that names no cell of the spec is left out, and a last
    row with no newline (a write cut short) is removed and its cell rerun; the
    returned list is sorted by cell coordinates so the result is
    independent of execution order.
    """
    wanted = {(json.dumps(cell.to_dict(), sort_keys=True), 0): cell for cell in spec.cells()}
    records: dict[tuple[str, int], MetricsRecord] = {}
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    jsonl = out_path / "records.jsonl"
    if jsonl.exists():
        raw = jsonl.read_bytes()
        complete = raw.rfind(b"\n") + 1
        if complete < len(raw):
            os.truncate(jsonl, complete)
        for line in raw[:complete].decode().splitlines():
            if line.strip():
                rec = MetricsRecord.from_json_dict(json.loads(line))
                if rec.key() in wanted:
                    records[rec.key()] = rec
    for key, cell in wanted.items():
        if key not in records:
            rec = records[key] = run_cell(cell)
            with jsonl.open("a") as fh:
                fh.write(json.dumps(rec.to_json_dict()) + "\n")
    return sorted(records.values(), key=lambda r: r.key())


def magnitude_rungs(step: float, ceiling: float) -> list[float]:
    """The sweep's attack magnitudes: step, 2*step, ... up to the ceiling,
    each rounded to 10 decimals."""
    if step <= 0:
        raise ValueError("step must be > 0")
    rungs = []
    m = step
    while m <= ceiling + 1e-12:
        rungs.append(round(m, 10))
        m += step
    return rungs


def max_poisonable_magnitude(records: Iterable[MetricsRecord]) -> float:
    """Largest attack magnitude that poisoning conceals, read from the
    records of an ascending sweep (one per rung of :func:`magnitude_rungs`).

    A rung counts only when the baseline detector alerted on the attack (an
    attack that never alerts needs no poisoning and says nothing about the
    algorithm); a rung that errored counts too. The scan stops at the first
    counted failure and draws no record after it, so a lazy iterable runs no
    later rung: the sweep assumes harder attacks are never easier, and that
    monotonicity is an assumption, not a theorem.
    """
    best = 0.0
    for record in records:
        if record.engaged or record.error is not None:
            if not record.success:
                break
            best = record.cell["attack_magnitude"]
    return best


def _write_csv(path: Path, header: list[str], rows: Iterable[list]) -> Path:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export(records: Sequence[MetricsRecord], out_dir: str | Path) -> list[Path]:
    """Write records as CSV and JSON plus plot-data files (x/y series).

    Its ``largest_successful_magnitude`` is not :func:`max_poisonable_magnitude`:
    grid cells along the magnitude axis carry different seeds
    (``GridSpec.cells``), so they are not one sweep.
    """
    if not records:
        raise ValueError("no records to export")
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    cell_keys = sorted(records[0].cell.keys())
    names = [f.name for f in dataclasses.fields(MetricsRecord) if f.name != "cell"]
    rows = (
        [rec.cell.get(k) for k in cell_keys] + [rec.error or "" if n == "error" else getattr(rec, n) for n in names]
        for rec in records
    )
    json_path = out_path / "records.json"
    json_path.write_text(json.dumps([r.to_json_dict() for r in records], indent=2))
    written = [_write_csv(out_path / "records.csv", cell_keys + names, rows), json_path]

    # plot data, one row per pair of cell values (a group keeps its first key,
    # so -0.0 and 0.0 are one group): file, the pair, the value column, which
    # records count, each one's value and the group's rule (an errored
    # record's success is False)
    tables = (
        ("plot_points_vs_magnitude.csv", ("training_set_size", "attack_magnitude"), "mean_poison_points",
         lambda r: r.success, lambda r: r.poison_point_count, lambda v: float(np.mean(v))),
        ("plot_max_magnitude_vs_training_size.csv", ("algorithm", "training_set_size"), "largest_successful_magnitude",
         lambda r: r.success and r.engaged, lambda r: r.cell.get("attack_magnitude", 0.0), lambda m: max(0.0, *m)),
        ("plot_iterations_comparison.csv", ("algorithm", "attack_magnitude"), "mean_iterations",
         lambda r: r.error is None, lambda r: r.optimization_iterations, lambda v: float(np.mean(v))),
    )
    for name, pair, column, counts, value, rule in tables:
        groups: dict[tuple, list] = {}
        for rec in filter(counts, records):
            groups.setdefault(tuple(rec.cell.get(k) for k in pair), []).append(value(rec))
        rows = ([*key, rule(values)] for key, values in sorted(groups.items()))
        written.append(_write_csv(out_path / name, [*pair, column], rows))
    return written
