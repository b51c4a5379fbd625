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

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nn_core
from .detector import DetectorConfig, _scatter_windows, score, series_loss, series_objective_grad, window_batch
from .nn_core import ModelParams, TrainConfig, TrainTrajectory
from .timeseries import SeriesMatrix

__all__ = [
    "PoisonConfig",
    "PoisonPoint",
    "PoisonResult",
    "TrainTestResult",
    "TrainCache",
    "IterationLog",
    "poison_span",
    "train_test",
    "get_poison_grad",
    "poison_backgrad",
    "poison_interp",
    "init_poison",
    "run_pipeline",
]

_RETRAIN_MODES = ("append", "reservoir")
_INIT_MODES = ("benign-data", "attack-based")
_ROLLBACK_MODES = ("checkpointed", "literal")
_TERMINATIONS = ("goal-met", "lambda-floor", "iter-budget", "over-poison-unrecoverable")


@dataclass(frozen=True)
class PoisonConfig:
    adv_learning_rate: float = 0.3
    decay: float = 0.9
    lambda_eps: float = 1e-5
    max_iters: int = 50
    interp_eps: float = 1e-7
    clean_pad_budget: int | None = None
    retrain_mode: str = "append"
    init_mode: str = "benign-data"
    rollback_mode: str = "checkpointed"
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.decay < 1.0):
            raise ValueError("decay must be in (0, 1)")
        if self.lambda_eps <= 0 or self.interp_eps <= 0:
            raise ValueError("lambda_eps and interp_eps must be > 0")
        if self.adv_learning_rate <= self.lambda_eps:
            raise ValueError("adv_learning_rate must exceed lambda_eps")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.clean_pad_budget is not None and self.clean_pad_budget < 0:
            raise ValueError("clean_pad_budget must be >= 0")
        if self.retrain_mode not in _RETRAIN_MODES:
            raise ValueError(f"retrain_mode must be one of {_RETRAIN_MODES}")
        if self.init_mode not in _INIT_MODES:
            raise ValueError(f"init_mode must be one of {_INIT_MODES}")
        if self.rollback_mode not in _ROLLBACK_MODES:
            raise ValueError(f"rollback_mode must be one of {_ROLLBACK_MODES}")


@dataclass(frozen=True)
class PoisonPoint:
    """One candidate poisoning sequence.

    `span` records which rows of the attacked series the values correspond
    to (the attack's window footprint plus context margin); clean pads reuse
    the training sequences and span their full length.
    """

    values: np.ndarray
    iteration_born: int = 0
    span: tuple[int, int] = (0, 0)
    kind: str = "adversarial"
    source: str = ""

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64, copy=True)
        if values.ndim != 2:
            raise ValueError(f"poison values must be 2-D (rows x features), got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("poison values must be finite")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.kind not in ("adversarial", "clean-pad"):
            raise ValueError(f"unknown poison kind {self.kind!r}")

    def as_series(self, template: SeriesMatrix) -> SeriesMatrix:
        return SeriesMatrix(self.values, template.feature_names, template.dt)


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
        return {
            "iteration": self.iteration,
            "lambda": self.lam,
            "alerts_val": self.alerts_val,
            "alerts_attack": self.alerts_attack,
            "alerts_candidate": self.alerts_candidate,
            "attack_loss": self.attack_loss,
            "accepted": self.accepted,
            "action": self.action,
            "points_so_far": self.points_so_far,
        }


@dataclass(frozen=True)
class TrainTestResult:
    """Retrained detector plus the alert breakdown the algorithms branch on."""

    params: ModelParams
    trajectory: TrainTrajectory | None
    final_loss: float
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
    clean_pads: int
    iterations: int
    success: bool
    achieved_magnitude: float
    termination: str
    algorithm: str
    iteration_log: list[IterationLog] = field(default_factory=list)
    final_params: ModelParams | None = None
    final_alerts: tuple[int, int, int] = (0, 0, 0)  # val, attack, poisons

    def __post_init__(self) -> None:
        if self.termination not in _TERMINATIONS:
            raise ValueError(f"unknown termination {self.termination!r}")

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
            "achieved_magnitude": self.achieved_magnitude,
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
    plus `margin` rows of context on each side, clipped to the series."""
    a, b = attack_range
    if b <= a:
        b = a + 1
    start = max(0, a - (window_len - 1) - margin)
    stop = min(series_len, b + (window_len - 1) + margin)
    if stop - start < window_len:
        stop = min(series_len, start + window_len)
        start = max(0, stop - window_len)
    return int(start), int(stop)


def _as_train_list(train: SeriesMatrix | Sequence[SeriesMatrix]) -> tuple[SeriesMatrix, ...]:
    if isinstance(train, SeriesMatrix):
        return (train,)
    seqs = tuple(train)
    if not seqs:
        raise ValueError("empty training set")
    return seqs


class TrainCache:
    """Memo of cold-start fits keyed by training-set content.

    Retraining is a pure function of (training batch, model config, train
    config) because every call starts from the same seeded initialization,
    so reusing a fit is exact, not an approximation.
    """

    def __init__(self) -> None:
        self._fits: dict[str, tuple[ModelParams, TrainTrajectory | None, float]] = {}

    def fit(
        self, batch: np.ndarray, detector_cfg: DetectorConfig, train_cfg: TrainConfig
    ) -> tuple[ModelParams, TrainTrajectory | None, float]:
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(batch).tobytes())
        digest.update(repr((detector_cfg.model, train_cfg)).encode())
        key = digest.hexdigest()
        if key not in self._fits:
            init = nn_core.init_params(detector_cfg.model)
            self._fits[key] = nn_core.train(init, batch, train_cfg)
        return self._fits[key]


def _training_batch(
    train_seqs: tuple[SeriesMatrix, ...],
    poison_set: Sequence[PoisonPoint],
    candidate: PoisonPoint | None,
    detector_cfg: DetectorConfig,
    poison_cfg: PoisonConfig,
    template: SeriesMatrix,
) -> np.ndarray:
    sequences: list[SeriesMatrix] = list(train_seqs)
    extra = [p.as_series(template) for p in poison_set]
    if candidate is not None:
        extra.append(candidate.as_series(template))
    if poison_cfg.retrain_mode == "reservoir" and extra:
        budget = len(train_seqs)
        keep_new = extra[-budget:] if len(extra) > budget else extra
        n_clean = max(0, budget - len(keep_new))
        rng = np.random.default_rng([poison_cfg.seed, 0x5E5, len(poison_set), int(candidate is not None)])
        chosen = sorted(rng.choice(len(train_seqs), size=min(n_clean, len(train_seqs)), replace=False))
        sequences = [train_seqs[i] for i in chosen] + keep_new
    else:
        sequences.extend(extra)
    return np.concatenate([window_batch(s, detector_cfg) for s in sequences], axis=0)


def train_test(
    train: SeriesMatrix | Sequence[SeriesMatrix],
    val: SeriesMatrix,
    attack_series: SeriesMatrix,
    poison_set: Sequence[PoisonPoint],
    candidate: PoisonPoint | None = None,
    *,
    detector_cfg: DetectorConfig,
    train_cfg: TrainConfig,
    poison_cfg: PoisonConfig,
    cache: TrainCache | None = None,
) -> TrainTestResult:
    """Retrain from scratch on train + poisons (+ candidate, appended last),
    then count alerts on validation, the attack, and every poison input."""
    train_seqs = _as_train_list(train)
    template = train_seqs[0]
    batch = _training_batch(train_seqs, poison_set, candidate, detector_cfg, poison_cfg, template)
    if cache is not None:
        params, trajectory, final_loss = cache.fit(batch, detector_cfg, train_cfg)
    else:
        init = nn_core.init_params(detector_cfg.model)
        params, trajectory, final_loss = nn_core.train(init, batch, train_cfg)
    alerts_val = score(params, val, detector_cfg).alert_count
    alerts_attack = score(params, attack_series, detector_cfg).alert_count
    alerts_poisons = sum(
        score(params, p.as_series(template), detector_cfg).alert_count for p in poison_set
    )
    alerts_candidate = (
        score(params, candidate.as_series(template), detector_cfg).alert_count
        if candidate is not None
        else 0
    )
    return TrainTestResult(
        params=params,
        trajectory=trajectory,
        final_loss=final_loss,
        alerts_val=alerts_val,
        alerts_attack=alerts_attack,
        alerts_poisons=alerts_poisons,
        alerts_candidate=alerts_candidate,
        attack_loss=series_loss(params, attack_series, detector_cfg),
    )


def get_poison_grad(
    trajectory: TrainTrajectory,
    alpha: float | None,
    attack_series: SeriesMatrix,
    poison: PoisonPoint,
    detector_cfg: DetectorConfig,
    rollback_mode: str = "checkpointed",
) -> np.ndarray:
    """Gradient of the attack's reconstruction loss with respect to the
    poison sequence, obtained by reversing the training run.

    Starting from the trained endpoint's weight gradient on the attack, each
    reverse step accumulates the poison's influence through that step's
    weight update via one mixed and one weight-space Hessian-vector product
    of the loss on the poison alone. Checkpointed mode walks the recorded
    trajectory and evaluates at the pre-step weights (the exact adjoint of
    the unrolled training loop); literal mode re-derives the previous
    weights from the gradient at the current ones, the cheaper first-order
    reversal.
    """
    if rollback_mode not in _ROLLBACK_MODES:
        raise ValueError(f"rollback_mode must be one of {_ROLLBACK_MODES}")
    if alpha is None:
        alpha = trajectory.learning_rate
    model_cfg = detector_cfg.model
    template = attack_series
    poison_series = poison.as_series(template)
    pois_batch = window_batch(poison_series, detector_cfg)
    atk_batch = window_batch(attack_series, detector_cfg)

    w_final = ModelParams.from_flat(model_cfg, trajectory.checkpoints[-1])
    dw = nn_core.grad_w(w_final, atk_batch)
    dyc = np.zeros_like(poison.values)
    steps = trajectory.steps
    if steps == 0:
        return dyc

    # The reverse recursion multiplies dw by (I - alpha*H) each step; when
    # training ran at a rate where some |1 - alpha*h| > 1 this product grows
    # exponentially. Rescaling dw and dyc together is lossless downstream
    # (the poison update uses only the normalized direction), so cap the
    # magnitude instead of overflowing.
    def rescale(dw: np.ndarray, dyc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        peak = float(np.max(np.abs(dw))) if dw.size else 0.0
        if peak > 1e50:
            return dw / peak, dyc / peak
        return dw, dyc

    with np.errstate(over="ignore", invalid="ignore"):
        if rollback_mode == "checkpointed":
            for t in range(steps, 0, -1):
                w_prev = ModelParams.from_flat(model_cfg, trajectory.checkpoints[t - 1])
                r_gw, r_gx = nn_core.hvp_both(w_prev, pois_batch, dw)
                dyc = dyc - alpha * _scatter_windows(r_gx, poison_series.length, detector_cfg)
                dw = dw - alpha * r_gw
                dw, dyc = rescale(dw, dyc)
        else:
            w_cur = trajectory.checkpoints[-1].copy()
            for _ in range(steps, 0, -1):
                params_cur = ModelParams.from_flat(model_cfg, w_cur)
                r_gw, r_gx = nn_core.hvp_both(params_cur, pois_batch, dw)
                dyc = dyc - alpha * _scatter_windows(r_gx, poison_series.length, detector_cfg)
                dw = dw - alpha * r_gw
                dw, dyc = rescale(dw, dyc)
                w_cur = w_cur + alpha * nn_core.grad_w(params_cur, pois_batch)
    if not np.isfinite(dyc).all():
        raise FloatingPointError("training reversal produced a non-finite poison gradient")
    return dyc


@dataclass
class _RunState:
    """Shared bookkeeping for one poisoning run."""

    train_seqs: tuple[SeriesMatrix, ...]
    val: SeriesMatrix
    attack: SeriesMatrix
    detector_cfg: DetectorConfig
    train_cfg: TrainConfig
    poison_cfg: PoisonConfig
    cache: TrainCache
    pad_rng: np.random.Generator
    points: list[PoisonPoint] = field(default_factory=list)
    clean_pads: int = 0
    log: list[IterationLog] = field(default_factory=list)

    @property
    def pad_budget(self) -> int:
        budget = self.poison_cfg.clean_pad_budget
        return len(self.train_seqs) if budget is None else budget

    def run_train_test(self, candidate: PoisonPoint | None) -> TrainTestResult:
        return train_test(
            self.train_seqs,
            self.val,
            self.attack,
            self.points,
            candidate,
            detector_cfg=self.detector_cfg,
            train_cfg=self.train_cfg,
            poison_cfg=self.poison_cfg,
            cache=self.cache,
        )

    def pad_clean(self, result: TrainTestResult, candidate: PoisonPoint | None) -> tuple[TrainTestResult, bool]:
        """Append clean training sequences while validation alerts persist.

        Returns the latest result and whether validation is clean; False with
        the budget exhausted means the model is over-poisoned beyond repair.
        """
        while result.alerts_val > 0 and self.clean_pads < self.pad_budget:
            idx = int(self.pad_rng.integers(len(self.train_seqs)))
            seq = self.train_seqs[idx]
            self.points.append(
                PoisonPoint(
                    seq.values,
                    iteration_born=len(self.log),
                    span=(0, seq.length),
                    kind="clean-pad",
                    source=f"train[{idx}]",
                )
            )
            self.clean_pads += 1
            result = self.run_train_test(candidate)
        return result, result.alerts_val == 0

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


def _effective_magnitude(attack: SeriesMatrix, clean: SeriesMatrix | None) -> float:
    if clean is None:
        return 0.0
    return float(np.max(np.abs(attack.values - clean.values)))


def _make_result(
    state: _RunState,
    algorithm: str,
    success: bool,
    termination: str,
    iterations: int,
    final: TrainTestResult | None,
    achieved: float,
) -> PoisonResult:
    return PoisonResult(
        points=list(state.points),
        clean_pads=state.clean_pads,
        iterations=iterations,
        success=success,
        achieved_magnitude=achieved if success else 0.0,
        termination=termination,
        algorithm=algorithm,
        iteration_log=list(state.log),
        final_params=final.params if final is not None else None,
        final_alerts=(
            (final.alerts_val, final.alerts_attack, final.alerts_poisons + final.alerts_candidate)
            if final is not None
            else (0, 0, 0)
        ),
    )


def poison_backgrad(
    train: SeriesMatrix | Sequence[SeriesMatrix],
    val: SeriesMatrix,
    attack: SeriesMatrix,
    y_c0: PoisonPoint,
    cfg: PoisonConfig,
    *,
    detector_cfg: DetectorConfig,
    train_cfg: TrainConfig,
    clean: SeriesMatrix | None = None,
    cache: TrainCache | None = None,
) -> PoisonResult:
    """Iterative back-gradient poisoning.

    Each iteration retrains with the committed poisons plus the current
    candidate appended, succeeds when nothing alerts, otherwise steps the
    candidate along the normalized training-reversal gradient. A candidate
    that itself alerts is rolled back: the last good poison is committed and
    the adversarial learning rate decays, terminating at its floor; the rate
    is restored to its original value after any non-alerting candidate.
    Validation alerts mean the model is over-poisoned and are repaired by
    padding the poison set with clean sequences.
    """
    train_seqs = _as_train_list(train)
    if not train_cfg.record_trajectory:
        train_cfg = replace(train_cfg, record_trajectory=True)
    state = _RunState(
        train_seqs,
        val,
        attack,
        detector_cfg,
        train_cfg,
        cfg,
        cache if cache is not None else TrainCache(),
        np.random.default_rng([cfg.seed, 0xADD]),
    )
    achieved = _effective_magnitude(attack, clean)

    baseline_params, _, _ = state.cache.fit(
        _training_batch(train_seqs, [], None, detector_cfg, cfg, train_seqs[0]), detector_cfg, train_cfg
    )
    y0_alerts = score(baseline_params, y_c0.as_series(train_seqs[0]), detector_cfg).alert_count
    if y0_alerts > 0:
        raise ValueError(
            f"initial poison raises {y0_alerts} alert(s) under the baseline model; "
            "use init_poison to construct a quiet starting point"
        )

    lam = cfg.adv_learning_rate
    orig_lam = cfg.adv_learning_rate
    y_c = y_c0
    grad_iters = 0

    result = state.run_train_test(y_c)
    for i in range(1, cfg.max_iters + 1):
        result, ok = state.pad_clean(result, y_c)
        if not ok:
            state.record(i, lam, result, False, "over-poisoned, pad budget exhausted")
            return _make_result(state, "backgrad", False, "over-poison-unrecoverable", grad_iters, result, achieved)
        if result.total_alerts == 0:
            state.points.append(y_c)
            state.record(i, lam, result, True, "goal met, current poison committed")
            return _make_result(state, "backgrad", True, "goal-met", grad_iters, result, achieved)

        dyc = get_poison_grad(result.trajectory, train_cfg.learning_rate, attack, y_c, detector_cfg, cfg.rollback_mode)
        grad_iters += 1
        gmax = float(np.max(np.abs(dyc)))
        if gmax < 1e-12:
            state.record(i, lam, result, False, "zero poison gradient")
            return _make_result(state, "backgrad", False, "lambda-floor", grad_iters, result, achieved)
        y_new = PoisonPoint(
            y_c.values - lam * dyc / gmax, iteration_born=i, span=y_c.span, source="gradient-step"
        )

        result2 = state.run_train_test(y_new)
        result2, ok = state.pad_clean(result2, y_new)
        if not ok:
            state.record(i, lam, result2, False, "over-poisoned, pad budget exhausted")
            return _make_result(state, "backgrad", False, "over-poison-unrecoverable", grad_iters, result2, achieved)

        if result2.alerts_candidate > 0:
            if not state.points or not np.array_equal(state.points[-1].values, y_c.values):
                state.points.append(y_c)
            lam *= cfg.decay
            state.record(i, lam, result2, False, "candidate alerts; committed last good poison")
            if lam <= cfg.lambda_eps:
                return _make_result(state, "backgrad", False, "lambda-floor", grad_iters, result2, achieved)
            result = state.run_train_test(y_c)
        else:
            lam = orig_lam
            state.record(i, lam, result2, True, "candidate accepted")
            y_c = y_new
            result = result2

    return _make_result(state, "backgrad", False, "iter-budget", grad_iters, result, achieved)


def poison_interp(
    train: SeriesMatrix | Sequence[SeriesMatrix],
    val: SeriesMatrix,
    attack: SeriesMatrix,
    y_c0: PoisonPoint,
    cfg: PoisonConfig,
    *,
    detector_cfg: DetectorConfig,
    train_cfg: TrainConfig,
    clean: SeriesMatrix | None = None,
    cache: TrainCache | None = None,
) -> PoisonResult:
    """Interpolative poisoning: step the poison halfway toward the attack.

    step = rate * (attack - poison) / 2. A candidate that alerts shrinks the
    rate; an accepted candidate joins the poison set, grows the rate back,
    and the attack is retested on the retrained model. Terminates on success,
    when the step falls below interp_eps, or at the iteration budget.
    """
    train_seqs = _as_train_list(train)
    state = _RunState(
        train_seqs,
        val,
        attack,
        detector_cfg,
        train_cfg,
        cfg,
        cache if cache is not None else TrainCache(),
        np.random.default_rng([cfg.seed, 0xADD]),
    )
    achieved = _effective_magnitude(attack, clean)
    template = train_seqs[0]
    span = y_c0.span
    target = attack.values[span[0] : span[1]]
    if target.shape != y_c0.values.shape:
        raise ValueError(
            f"initial poison shape {y_c0.values.shape} does not match its span of the attack {target.shape}"
        )

    result = state.run_train_test(None)
    result, ok = state.pad_clean(result, None)
    if not ok:
        state.record(0, 1.0, result, False, "over-poisoned, pad budget exhausted")
        return _make_result(state, "interp", False, "over-poison-unrecoverable", 0, result, achieved)
    if result.total_alerts == 0:
        state.record(0, 1.0, result, True, "attack already passes, no poisoning needed")
        return _make_result(state, "interp", True, "goal-met", 0, result, achieved)

    rate = 1.0
    y_p = y_c0
    iterations = 0
    while iterations < cfg.max_iters:
        iterations += 1
        step = rate * (target - y_p.values) / 2.0
        if float(np.max(np.abs(step))) <= cfg.interp_eps:
            state.record(iterations, rate, result, False, "step below floor")
            return _make_result(state, "interp", False, "lambda-floor", iterations, result, achieved)
        candidate = PoisonPoint(y_p.values + step, iteration_born=iterations, span=span, source="interp-step")

        cand_alerts = score(result.params, candidate.as_series(template), detector_cfg).alert_count
        if cand_alerts > 0:
            rate *= cfg.decay
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
        rate /= cfg.decay
        result = state.run_train_test(None)
        result, ok = state.pad_clean(result, None)
        if not ok:
            state.record(iterations, rate, result, False, "over-poisoned, pad budget exhausted")
            return _make_result(state, "interp", False, "over-poison-unrecoverable", iterations, result, achieved)
        accepted_action = "candidate accepted"
        state.record(iterations, rate, result, True, accepted_action)
        if result.total_alerts == 0:
            return _make_result(state, "interp", True, "goal-met", iterations, result, achieved)

    return _make_result(state, "interp", False, "iter-budget", iterations, result, achieved)


def init_poison(
    train: SeriesMatrix | Sequence[SeriesMatrix],
    attack: SeriesMatrix,
    params: ModelParams,
    cfg: PoisonConfig,
    *,
    detector_cfg: DetectorConfig,
    span: tuple[int, int],
    clean: SeriesMatrix | None = None,
) -> PoisonPoint:
    """Choose the starting poison sequence.

    benign-data mode returns the clean series values over the poison span.
    attack-based mode walks downhill from the attacked values along the
    detector-loss gradient until the sequence no longer alerts (the closest
    quiet sequence to the attack); if it fails to converge it falls back to
    the benign values, flagged in `source`.
    """
    train_seqs = _as_train_list(train)
    template = train_seqs[0]
    lo, hi = span
    if clean is None and cfg.init_mode == "benign-data":
        raise ValueError("benign-data initialization needs the clean series")

    def benign(source: str) -> PoisonPoint:
        assert clean is not None
        return PoisonPoint(clean.values[lo:hi], iteration_born=0, span=span, source=source)

    if cfg.init_mode == "benign-data":
        return benign("benign-init")

    cand = attack.values[lo:hi].copy()
    cand_series = SeriesMatrix(cand, template.feature_names, template.dt)
    if score(params, cand_series, detector_cfg).alert_count == 0:
        return PoisonPoint(cand, iteration_born=0, span=span, source="attack-init")

    lr = cfg.adv_learning_rate
    best = cand.copy()
    best_loss = series_loss(params, cand_series, detector_cfg)
    failed = 0
    for it in range(1, cfg.max_iters + 1):
        g = series_objective_grad(params, cand_series, detector_cfg)
        gmax = float(np.max(np.abs(g)))
        if gmax < 1e-12:
            break
        cand = cand - lr * g / gmax
        cand_series = SeriesMatrix(cand, template.feature_names, template.dt)
        cur_loss = series_loss(params, cand_series, detector_cfg)
        if score(params, cand_series, detector_cfg).alert_count == 0:
            return PoisonPoint(cand, iteration_born=it, span=span, source="attack-init")
        if cur_loss < best_loss:
            best_loss = cur_loss
            best = cand.copy()
            failed = 0
            lr = cfg.adv_learning_rate
        else:
            failed += 1
            lr *= cfg.decay**failed
            cand = best.copy()
            cand_series = SeriesMatrix(cand, template.feature_names, template.dt)
            if lr <= cfg.lambda_eps:
                break
    if clean is not None:
        return benign("attack-init-fallback-benign")
    raise ValueError("attack-based initialization failed and no clean series was given for fallback")


def run_pipeline(
    train: SeriesMatrix | Sequence[SeriesMatrix],
    val: SeriesMatrix,
    attack: SeriesMatrix,
    clean: SeriesMatrix,
    span: tuple[int, int],
    algorithm: str,
    poison_cfg: PoisonConfig,
    *,
    detector_cfg: DetectorConfig,
    train_cfg: TrainConfig,
) -> tuple[TrainTestResult, PoisonResult]:
    """One poisoning experiment: fit the detector on the clean training set,
    choose the initial poison under that baseline, then run `algorithm`
    ("interp" or "backgrad") against the retrained detector.

    All fits share one TrainCache. Backgrad reverses its fits, so every fit
    of a backgrad run records its trajectory, the baseline included; its
    own baseline check then reuses the baseline fit.
    """
    if algorithm not in ("interp", "backgrad"):
        raise ValueError(f"algorithm must be interp or backgrad, got {algorithm!r}")
    train_cfg = replace(train_cfg, record_trajectory=algorithm == "backgrad")
    cache = TrainCache()
    baseline = train_test(
        train,
        val,
        attack,
        [],
        None,
        detector_cfg=detector_cfg,
        train_cfg=train_cfg,
        poison_cfg=poison_cfg,
        cache=cache,
    )
    y0 = init_poison(
        train, attack, baseline.params, poison_cfg, detector_cfg=detector_cfg, span=span, clean=clean
    )
    algo = poison_backgrad if algorithm == "backgrad" else poison_interp
    result = algo(
        train,
        val,
        attack,
        y0,
        poison_cfg,
        detector_cfg=detector_cfg,
        train_cfg=train_cfg,
        clean=clean,
        cache=cache,
    )
    return baseline, result
