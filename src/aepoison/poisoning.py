"""Poison-sequence generation against an online-retrained detector.

Two generators are provided. The interpolative one walks the poison from a
benign starting sequence toward the target attack in alert-bounded steps,
shrinking the step whenever the candidate would trip the detector. The
back-gradient one computes the gradient of the attack's reconstruction loss
with respect to the candidate poison by reversing the recorded training
trajectory and accumulating second-order terms (Hessian-vector products)
step by step, then takes normalized gradient steps with a decaying
adversarial learning rate.

Both share the retraining oracle `train_test`: cold-start retraining of the
detector on the clean data plus the ordered poison set, followed by alert
counts on validation data, the attack, and the poison inputs themselves
(poisons that alert would never be accepted into online retraining).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn_core
from .detector import (
    DetectorConfig,
    scatter_windows,
    score,
    series_loss,
    series_objective_grad,
    window_batch,
)
from .nn_core import ModelParams, TrainConfig, TrainTrajectory, integer
from .timeseries import SeriesMatrix

__all__ = [
    "ExperimentData",
    "PoisonConfig",
    "PoisonPoint",
    "PoisonResult",
    "TrainTestResult",
    "TrainCache",
    "IterationLog",
    "poison_span",
    "train_test",
    "get_poison_grad",
    "init_poison",
    "run_pipeline",
]

_INIT_MODES = ("benign-data", "attack-based")
_TERMINATIONS = ("goal-met", "lambda-floor", "zero-gradient", "iter-budget", "over-poison-unrecoverable")
DECAY = 0.9  # step-rate decay after a rejected step
LAMBDA_EPS = 1e-5  # floor of the adversarial learning rate
INTERP_EPS = 1e-7  # floor of an interp step
_REVERSALS = weakref.WeakKeyDictionary()  # trajectory -> (get_poison_grad's other arguments, its gradient)


@dataclass(frozen=True)
class ExperimentData:
    """One run's inputs: the clean training sequences, the validation series,
    the clean series and its attacked copy, and the rows a poison sequence
    spans. Every series names the attack's features, and the clean series
    has the attack's shape."""

    train: tuple[SeriesMatrix, ...]
    val: SeriesMatrix
    clean: SeriesMatrix
    attack: SeriesMatrix
    span: tuple[int, int]

    def __post_init__(self) -> None:
        if not self.train:
            raise ValueError("empty training set")
        if self.clean.values.shape != self.attack.values.shape:
            raise ValueError(f"clean series shape {self.clean.values.shape} differs from the attack's")
        if any(s.feature_names != self.attack.feature_names for s in (self.clean, self.val, *self.train)):
            raise ValueError(f"every series must name the attack's features {list(self.attack.feature_names)}")


@dataclass(frozen=True)
class PoisonConfig:
    adv_learning_rate: float = 0.3
    max_iters: int = 50
    init_mode: str = "benign-data"
    seed: int = 0

    def __post_init__(self) -> None:
        if not LAMBDA_EPS < self.adv_learning_rate < np.inf:
            raise ValueError(f"adv_learning_rate must be finite and exceed {LAMBDA_EPS}")
        if integer(self.max_iters) < 1:
            raise ValueError("max_iters must be >= 1")
        if self.init_mode not in _INIT_MODES:
            raise ValueError(f"init_mode must be one of {_INIT_MODES}")


@dataclass(frozen=True, eq=False)
class PoisonPoint:
    """One candidate poisoning sequence: a series of the attack's features.

    `span` records which rows of the attacked series the series corresponds
    to (the attack's window footprint plus context margin); clean pads copy
    the training sequences and span their full length. Points compare and
    hash by identity.
    """

    series: SeriesMatrix
    iteration_born: int = 0
    span: tuple[int, int] = (0, 0)
    kind: str = "adversarial"
    source: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("adversarial", "clean-pad"):
            raise ValueError(f"unknown poison kind {self.kind!r}")

    @property
    def values(self) -> np.ndarray:
        return self.series.values

    def as_series(self, _like: SeriesMatrix) -> SeriesMatrix:
        # perfbench/child.py's end-state check still calls this; the package reads `series`
        return self.series


@dataclass(frozen=True)
class IterationLog:
    iteration: int
    lam: float
    alerts_val: int
    alerts_attack: int
    alerts_candidate: int
    attack_loss: float
    accepted: bool
    action: str
    points_so_far: int = 0

    def to_json_dict(self) -> dict:
        return {("lambda" if k == "lam" else k): v for k, v in asdict(self).items()}


@dataclass(frozen=True)
class TrainTestResult:
    """Retrained detector plus the alert breakdown the algorithms branch on."""

    params: ModelParams
    trajectory: TrainTrajectory | None
    alerts_val: int
    alerts_attack: int
    alerts_poisons: int
    alerts_candidate: int
    attack_loss: float

    @property
    def total_alerts(self) -> int:
        return self.alerts_val + self.alerts_attack + self.alerts_poisons + self.alerts_candidate


@dataclass
class PoisonResult:
    points: list[PoisonPoint]
    iterations: int
    termination: str
    algorithm: str
    iteration_log: list[IterationLog] = field(default_factory=list)
    final_params: ModelParams | None = None
    final_alerts: tuple[int, int, int] = (0, 0, 0)  # val, attack, poisons

    def __post_init__(self) -> None:
        if self.termination not in _TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

    @property
    def success(self) -> bool:
        return self.termination == "goal-met"

    @property
    def clean_pads(self) -> int:
        return sum(1 for p in self.points if p.kind == "clean-pad")

    @property
    def adversarial_point_count(self) -> int:
        return sum(1 for p in self.points if p.kind == "adversarial")

    def to_json_dict(self) -> dict:
        return {
            "schema": "aepoison/poison-result/v1",
            "algorithm": self.algorithm,
            "success": self.success,
            "termination": self.termination,
            "iterations": self.iterations,
            "clean_pads": self.clean_pads,
            "poison_points": self.adversarial_point_count,
            "final_alerts": {
                "validation": self.final_alerts[0],
                "attack": self.final_alerts[1],
                "poisons": self.final_alerts[2],
            },
            "points": [
                {
                    "index": i,
                    "kind": p.kind,
                    "source": p.source,
                    "iteration_born": p.iteration_born,
                    "span": list(p.span),
                    "rows": int(p.values.shape[0]),
                }
                for i, p in enumerate(self.points)
            ],
            "iteration_log": [entry.to_json_dict() for entry in self.iteration_log],
        }

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2))

    def write_points_csv(self, path: str | Path, feature_names: Sequence[str]) -> None:
        """All poison sequences in one CSV, block per point."""
        lines = ["point_index,kind,iteration_born,row," + ",".join(feature_names)]
        for i, p in enumerate(self.points):
            for r, row in enumerate(p.values):
                cells = ",".join(format(v, ".9g") for v in row)
                lines.append(f"{i},{p.kind},{p.iteration_born},{r},{cells}")
        Path(path).write_text("\n".join(lines) + "\n")


def poison_span(
    series_len: int, attack_range: tuple[int, int], window_len: int, margin: int
) -> tuple[int, int]:
    """Rows a poison sequence must cover: every window touching the attack
    plus `margin` rows of context on each side, clipped to the series. The
    attack range must lie in the series; an empty one, [a, a), stands for row a."""
    a, b = attack_range
    if not (0 <= a < series_len and a <= b <= series_len):
        raise ValueError(f"attack range [{a}, {b}) is not within the {series_len} rows of the series")
    b = max(b, a + 1)
    start = max(0, a - (window_len - 1) - margin)
    stop = min(series_len, b + (window_len - 1) + margin)
    if stop - start < window_len:
        stop = min(series_len, start + window_len)
        start = max(0, stop - window_len)
    return int(start), int(stop)


class TrainCache:
    """One run's retraining oracle: cold-start fits on the clean training
    sequences with poison points appended.

    The clean windows and the seeded initial weights are fixed for the run
    (`nn_core.train` never writes its input), so they are built once. No fit
    is kept: the caller holds the result it needs.
    """

    def __init__(self, train: Sequence[SeriesMatrix], detector_cfg: DetectorConfig, train_cfg: TrainConfig) -> None:
        self._detector_cfg = detector_cfg
        self._train_cfg = train_cfg
        self._clean = np.concatenate([window_batch(s, detector_cfg) for s in train], axis=0)
        self._init = nn_core.init_params(detector_cfg.model)

    def fit(self, poisons: tuple[PoisonPoint, ...]) -> tuple[ModelParams, TrainTrajectory | None, float]:
        """The fit on the clean windows, then each point's windows in order:
        new data is appended to the training set."""
        windows = [window_batch(p.series, self._detector_cfg) for p in poisons]
        return nn_core.train(self._init, np.concatenate([self._clean, *windows], axis=0), self._train_cfg)


def train_test(state: _RunState, candidate: PoisonPoint | None = None) -> TrainTestResult:
    """Retrain from scratch on the clean sequences plus the run's poisons
    (and the candidate, appended last), then count alerts on validation,
    the attack, and every poison input."""
    poisons = tuple(state.points) if candidate is None else (*state.points, candidate)
    params, trajectory, _ = state.cache.fit(poisons)
    cfg, data = state.detector_cfg, state.data
    return TrainTestResult(
        params=params,
        trajectory=trajectory,
        alerts_val=score(params, data.val, cfg).alert_count,
        alerts_attack=score(params, data.attack, cfg).alert_count,
        alerts_poisons=sum(score(params, p.series, cfg).alert_count for p in state.points),
        alerts_candidate=score(params, candidate.series, cfg).alert_count if candidate is not None else 0,
        attack_loss=series_loss(params, data.attack, cfg),
    )


def get_poison_grad(
    trajectory: TrainTrajectory,
    attack_series: SeriesMatrix,
    poison: PoisonPoint,
    detector_cfg: DetectorConfig,
) -> np.ndarray:
    """Gradient of the attack's reconstruction loss with respect to the
    poison sequence, obtained by reversing the training run.

    Starting from the trained endpoint's weight gradient on the attack, each
    reverse step, at the trajectory's own learning rate, accumulates the
    poison's influence through that step's weight update via one mixed and
    one weight-space Hessian-vector product at the recorded pre-step weights,
    whose linearizations nn_core.linearizations yields newest first. Both are
    Hessians of the loss on the candidate's windows alone, not of the whole
    training loss the fit descended (the adjoint of the unrolled fit is
    ROADMAP item 1). The gradient is read-only; the trajectory's last one is
    returned again for the same four (immutable) objects, as after a
    backgrad rollback that commits nothing. The memo keeps no trajectory alive.
    """
    args, last = (attack_series, poison, detector_cfg), _REVERSALS.get(trajectory)
    if last is not None and all(a is b for a, b in zip(last[0], args)):
        return last[1]
    alpha = trajectory.learning_rate
    model_cfg = detector_cfg.model
    pois_batch = window_batch(poison.series, detector_cfg)
    atk_batch = window_batch(attack_series, detector_cfg)

    cps, series_len = trajectory.checkpoints, poison.series.length
    dw = nn_core.grad_w(ModelParams(model_cfg, cps[-1]), atk_batch)
    dyc, dw_abs = np.zeros_like(poison.values), np.empty_like(dw)
    # dw and dyc are owned here and updated in place, as are each step's new
    # scatter r_gy and its |dw| buffer; step t reverses the update made from
    # checkpoint t - 1. The reverse recursion multiplies dw by (I - alpha*H)
    # each step; when training ran at a rate where some |1 - alpha*h| > 1 this
    # product grows exponentially. Rescaling dw and dyc together is lossless
    # downstream (the poison update uses only the normalized direction), so
    # cap the magnitude instead of overflowing.
    with np.errstate(over="ignore", invalid="ignore"):
        for lin in nn_core.linearizations(model_cfg, cps[:-1], pois_batch):
            r_gw, r_gx = nn_core.hvp_both(lin, dw)
            r_gy = scatter_windows(r_gx, series_len, detector_cfg)
            r_gy *= alpha
            dyc -= r_gy
            r_gw *= alpha
            dw -= r_gw
            peak = float(np.maximum.reduce(np.abs(dw, out=dw_abs), axis=None))  # np.max without its wrapper
            if peak > 1e50:
                dw, dyc = dw / peak, dyc / peak
    if not np.isfinite(dyc).all():
        raise FloatingPointError("training reversal produced a non-finite poison gradient")
    dyc.setflags(write=False)
    _REVERSALS[trajectory] = (args, dyc)
    return dyc


@dataclass
class _RunState:
    """One poisoning run: its data and configs, and the poison set and log
    built so far.

    Constructing it is the one place a run is set up. It builds the run's
    retraining oracle and clean-pad RNG; `train_cfg` records trajectories
    exactly when the algorithm is backgrad, which reverses its fits.
    """

    data: ExperimentData
    algorithm: str
    poison_cfg: PoisonConfig
    detector_cfg: DetectorConfig
    train_cfg: TrainConfig
    cache: TrainCache = field(init=False)
    pad_rng: np.random.Generator = field(init=False)
    points: list[PoisonPoint] = field(default_factory=list)
    log: list[IterationLog] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.algorithm not in ("interp", "backgrad"):
            raise ValueError(f"algorithm must be interp or backgrad, got {self.algorithm!r}")
        self.train_cfg = replace(self.train_cfg, record_trajectory=self.algorithm == "backgrad")
        self.cache = TrainCache(self.data.train, self.detector_cfg, self.train_cfg)
        self.pad_rng = np.random.default_rng([self.poison_cfg.seed, 0xADD])

    def pad_clean(self, result: TrainTestResult, candidate: PoisonPoint | None) -> TrainTestResult:
        """Append clean training sequences while validation alerts persist,
        at most as many pads as there are training sequences.

        Returns the latest result; validation alerts left in it mean the pad
        budget is spent and the model is over-poisoned beyond repair.
        """
        while result.alerts_val > 0 and sum(1 for p in self.points if p.kind == "clean-pad") < len(self.data.train):
            idx = int(self.pad_rng.integers(len(self.data.train)))
            seq, born = self.data.train[idx], len(self.log)
            self.points.append(PoisonPoint(seq, born, span=(0, seq.length), kind="clean-pad", source=f"train[{idx}]"))
            result = train_test(self, candidate)
        return result

    def record(self, iteration: int, lam: float, result: TrainTestResult, accepted: bool, action: str) -> None:
        self.log.append(
            IterationLog(
                iteration=iteration,
                lam=lam,
                alerts_val=result.alerts_val,
                alerts_attack=result.alerts_attack,
                alerts_candidate=result.alerts_candidate,
                attack_loss=result.attack_loss,
                accepted=accepted,
                action=action,
                points_so_far=len(self.points),
            )
        )

    def over_poisoned(self, iteration: int, lam: float, result: TrainTestResult, iterations: int) -> PoisonResult:
        """Record and finish a run whose padded `result` still alerts on validation."""
        self.record(iteration, lam, result, False, "over-poisoned, pad budget exhausted")
        return self.finish("over-poison-unrecoverable", iterations, result)

    def finish(self, termination: str, iterations: int, final: TrainTestResult) -> PoisonResult:
        """The run's result, ending on the retrained detector `final`."""
        return PoisonResult(
            points=list(self.points),
            iterations=iterations,
            termination=termination,
            algorithm=self.algorithm,
            iteration_log=list(self.log),
            final_params=final.params,
            final_alerts=(final.alerts_val, final.alerts_attack, final.alerts_poisons + final.alerts_candidate),
        )


def poison_backgrad(state: _RunState, baseline: TrainTestResult, y_c0: PoisonPoint) -> PoisonResult:
    """Iterative back-gradient poisoning from the quiet starting poison
    `y_c0`, which must not alert under the clean `baseline`.

    Each iteration retrains with the committed poisons plus the current
    candidate appended, succeeds when nothing alerts, otherwise steps the
    candidate along the normalized training-reversal gradient. A candidate
    that itself alerts is rolled back: the last good poison is committed and
    the adversarial learning rate decays, terminating at its floor; the rate
    is restored to its original value after any non-alerting candidate.
    Validation alerts mean the model is over-poisoned and are repaired by
    padding the poison set with clean sequences.
    """
    cfg = state.poison_cfg
    y0_alerts = score(baseline.params, y_c0.series, state.detector_cfg).alert_count
    if y0_alerts > 0:
        raise ValueError(
            f"initial poison raises {y0_alerts} alert(s) under the baseline model; "
            "use init_poison to construct a quiet starting point"
        )

    lam = cfg.adv_learning_rate
    y_c = y_c0
    grad_iters = 0

    result = train_test(state, y_c)
    for i in range(1, cfg.max_iters + 1):
        result = state.pad_clean(result, y_c)
        fitted = len(state.points)  # `result` is the fit on these points and y_c
        if result.alerts_val:
            return state.over_poisoned(i, lam, result, grad_iters)
        if result.total_alerts == 0:
            state.points.append(y_c)
            state.record(i, lam, result, True, "goal met, current poison committed")
            return state.finish("goal-met", grad_iters, result)

        dyc = get_poison_grad(result.trajectory, state.data.attack, y_c, state.detector_cfg)
        grad_iters += 1
        gmax = float(np.max(np.abs(dyc)))
        if gmax < 1e-12:
            state.record(i, lam, result, False, "zero poison gradient")
            return state.finish("zero-gradient", grad_iters, result)
        stepped = y_c.series.with_values(y_c.values - lam * dyc / gmax)
        y_new = PoisonPoint(stepped, iteration_born=i, span=y_c.span, source="gradient-step")

        result2 = state.pad_clean(train_test(state, y_new), y_new)
        if result2.alerts_val:
            return state.over_poisoned(i, lam, result2, grad_iters)

        if result2.alerts_candidate > 0:
            if not state.points or not np.array_equal(state.points[-1].values, y_c.values):
                state.points.append(y_c)
            lam *= DECAY
            state.record(i, lam, result2, False, "candidate alerts; committed last good poison")
            if lam <= LAMBDA_EPS:
                return state.finish("lambda-floor", grad_iters, result2)
            if len(state.points) != fitted:  # points are append-only
                result = train_test(state, y_c)
        else:
            lam = cfg.adv_learning_rate
            state.record(i, lam, result2, True, "candidate accepted")
            y_c = y_new
            result = result2

    return state.finish("iter-budget", grad_iters, result)


def poison_interp(state: _RunState, baseline: TrainTestResult, y_c0: PoisonPoint) -> PoisonResult:
    """Interpolative poisoning from `y_c0`, starting on the clean `baseline`:
    step the poison halfway toward the attack.

    step = rate * (attack - poison) / 2. A candidate that alerts shrinks the
    rate; an accepted candidate joins the poison set, grows the rate back,
    and the attack is retested on the retrained model. Terminates on success,
    when the step falls below INTERP_EPS, or at the iteration budget.
    """
    cfg = state.poison_cfg
    span = y_c0.span
    target = state.data.attack.values[span[0] : span[1]]

    result = state.pad_clean(baseline, None)
    if result.alerts_val:
        return state.over_poisoned(0, 1.0, result, 0)
    if result.total_alerts == 0:
        state.record(0, 1.0, result, True, "attack already passes, no poisoning needed")
        return state.finish("goal-met", 0, result)

    rate = 1.0
    y_p = y_c0
    for iterations in range(1, cfg.max_iters + 1):
        step = rate * (target - y_p.values) / 2.0
        if float(np.max(np.abs(step))) <= INTERP_EPS:
            state.record(iterations, rate, result, False, "step below floor")
            return state.finish("lambda-floor", iterations, result)
        stepped = y_p.series.with_values(y_p.values + step)
        candidate = PoisonPoint(stepped, iteration_born=iterations, span=span, source="interp-step")

        cand_alerts = score(result.params, candidate.series, state.detector_cfg).alert_count
        if cand_alerts > 0:
            rate *= DECAY
            state.record(
                iterations,
                rate,
                replace(result, alerts_candidate=cand_alerts),
                False,
                "candidate alerts; rate decayed",
            )
            continue

        y_p = candidate
        state.points.append(candidate)
        rate /= DECAY
        result = state.pad_clean(train_test(state), None)
        if result.alerts_val:
            return state.over_poisoned(iterations, rate, result, iterations)
        state.record(iterations, rate, result, True, "candidate accepted")
        if result.total_alerts == 0:
            return state.finish("goal-met", iterations, result)

    return state.finish("iter-budget", iterations, result)


def init_poison(
    data: ExperimentData, params: ModelParams, cfg: PoisonConfig, detector_cfg: DetectorConfig
) -> PoisonPoint:
    """Choose the starting poison sequence.

    benign-data mode returns the clean series values over the poison span.
    attack-based mode tests the attacked values (iteration 0), then steps the
    lowest-loss sequence so far down the detector-loss gradient until one no
    longer alerts (the closest quiet sequence to the attack); if none does, it
    falls back to the benign values, flagged in `source`.
    """
    attack, clean, span = data.attack, data.clean, data.span
    lo, hi = span

    def benign(source: str) -> PoisonPoint:
        return PoisonPoint(clean.with_values(clean.values[lo:hi]), iteration_born=0, span=span, source=source)

    if cfg.init_mode == "benign-data":
        return benign("benign-init")

    lr = cfg.adv_learning_rate
    best = attack.values[lo:hi]
    failed = 0
    for it in range(cfg.max_iters + 1):
        cand = best
        if it:
            g = series_objective_grad(params, attack.with_values(best), detector_cfg)
            gmax = float(np.max(np.abs(g)))
            if gmax < 1e-12:
                break
            cand = best - lr * g / gmax
        cand_series = attack.with_values(cand)
        if score(params, cand_series, detector_cfg).alert_count == 0:
            return PoisonPoint(cand_series, iteration_born=it, span=span, source="attack-init")
        cur_loss = series_loss(params, cand_series, detector_cfg)
        if it == 0 or cur_loss < best_loss:  # the attack itself is the first best
            best = cand
            best_loss = cur_loss
            failed = 0
            lr = cfg.adv_learning_rate
        else:
            failed += 1
            lr *= DECAY**failed
            if lr <= LAMBDA_EPS:
                break
    return benign("attack-init-fallback-benign")


def run_pipeline(
    data: ExperimentData,
    algorithm: str,
    poison_cfg: PoisonConfig,
    *,
    detector_cfg: DetectorConfig,
    train_cfg: TrainConfig,
) -> tuple[TrainTestResult, PoisonResult]:
    """One poisoning experiment: fit the detector on the clean training set,
    choose the initial poison under that baseline, then run `algorithm`
    ("interp" or "backgrad") from the baseline against the retrained detector.

    The run's state, with its one retraining oracle, is set up once, and the
    baseline is fitted once.
    """
    state = _RunState(data, algorithm, poison_cfg, detector_cfg, train_cfg)
    baseline = train_test(state)
    y0 = init_poison(data, baseline.params, poison_cfg, detector_cfg)
    algo = poison_backgrad if algorithm == "backgrad" else poison_interp
    return baseline, algo(state, baseline, y0)
