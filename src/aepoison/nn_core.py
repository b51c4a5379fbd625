"""Minimal dense autoencoder engine.

Everything here is plain numpy with hand-written reverse-mode derivatives:
loss gradients with respect to weights and inputs, and exact Hessian-vector
products computed by pushing a tangent direction through the forward and
backward passes (no Hessian is ever materialized). The trainer is plain
full-batch gradient descent and can record its full parameter trajectory so
the training process can be reversed step by step.

Parameter vector layout (relied on by trajectory rollback and the HVPs):
layer-major, weights then bias, weights raveled row-major (in_dim x out_dim).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "TrainTrajectory",
    "TrainingDiverged",
    "init_params",
    "forward",
    "loss",
    "grad_w",
    "grad_x",
    "hvp_ww",
    "hvp_xw",
    "hvp_both",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

# activation value a = f(z); derivatives expressed in terms of a
_ACTIVATIONS: dict[str, tuple[Callable, Callable, Callable]] = {
    "tanh": (np.tanh, lambda a: 1.0 - a * a, lambda a: -2.0 * a * (1.0 - a * a)),
    "sigmoid": (
        lambda z: 1.0 / (1.0 + np.exp(-z)),
        lambda a: a * (1.0 - a),
        lambda a: a * (1.0 - a) * (1.0 - 2.0 * a),
    ),
    "linear": (lambda z: z, lambda a: np.ones_like(a), lambda a: np.zeros_like(a)),
}


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during gradient descent."""


@dataclass(frozen=True)
class ModelConfig:
    """Undercomplete autoencoder: widening layer, encoder to the code,
    widening layer, linear read-out. Code must be strictly smaller than the
    flattened input."""

    input_size: int
    code_size: int
    inflation_factor: int = 2
    encoder_layers: int = 1
    decoder_layers: int = 1
    activation: str = "tanh"
    output_activation: str = "linear"
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.input_size < 2:
            raise ValueError("input_size must be >= 2")
        if not (1 <= self.code_size < self.input_size):
            raise ValueError(
                f"code_size must satisfy 1 <= code < input_size, got {self.code_size} vs {self.input_size}"
            )
        if self.inflation_factor < 1 or self.encoder_layers < 1 or self.decoder_layers < 1:
            raise ValueError("inflation_factor and layer counts must be >= 1")
        for act in (self.activation, self.output_activation):
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}; have {sorted(_ACTIVATIONS)}")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")

    @property
    def inflated_size(self) -> int:
        return self.inflation_factor * self.input_size

    def layer_dims(self) -> list[tuple[int, int]]:
        enc = np.linspace(self.inflated_size, self.code_size, self.encoder_layers + 1)
        dec = np.linspace(self.code_size, self.inflated_size, self.decoder_layers + 1)
        sizes = [self.input_size]
        sizes.extend(max(1, int(round(s))) for s in enc)
        sizes.extend(max(1, int(round(s))) for s in dec[1:])
        sizes.append(self.input_size)
        return list(zip(sizes[:-1], sizes[1:]))

    def layer_activations(self) -> list[str]:
        n_layers = len(self.layer_dims())
        return [self.activation] * (n_layers - 1) + [self.output_activation]

    @property
    def num_params(self) -> int:
        return sum(nin * nout + nout for nin, nout in self.layer_dims())

    def to_dict(self) -> dict:
        return {
            "input_size": self.input_size,
            "code_size": self.code_size,
            "inflation_factor": self.inflation_factor,
            "encoder_layers": self.encoder_layers,
            "decoder_layers": self.decoder_layers,
            "activation": self.activation,
            "output_activation": self.output_activation,
            "init_seed": self.init_seed,
            "init_scale": self.init_scale,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


def _flatten(layers: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


@dataclass(frozen=True)
class ModelParams:
    """Per-layer (W, b) pairs; flattenable to one parameter vector."""

    config: ModelConfig
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self) -> None:
        dims = self.config.layer_dims()
        if len(self.layers) != len(dims):
            raise ValueError(f"expected {len(dims)} layers, got {len(self.layers)}")
        frozen = []
        for (w, b), (nin, nout) in zip(self.layers, dims):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            if w.shape != (nin, nout) or b.shape != (nout,):
                raise ValueError(f"layer shape mismatch: {w.shape}/{b.shape} vs ({nin},{nout})")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("parameters contain non-finite values")
            w = w.copy()
            b = b.copy()
            w.setflags(write=False)
            b.setflags(write=False)
            frozen.append((w, b))
        object.__setattr__(self, "layers", tuple(frozen))

    def flatten(self) -> np.ndarray:
        return _flatten(self.layers)

    @classmethod
    def from_flat(cls, config: ModelConfig, vec: np.ndarray) -> "ModelParams":
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (config.num_params,):
            raise ValueError(f"expected {config.num_params} parameters, got {vec.shape}")
        layers = []
        pos = 0
        for nin, nout in config.layer_dims():
            w = vec[pos : pos + nin * nout].reshape(nin, nout)
            pos += nin * nout
            b = vec[pos : pos + nout]
            pos += nout
            layers.append((w, b))
        return cls(config, tuple(layers))


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    max_epochs: int
    stop_loss: float = 0.01
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.stop_loss <= 0:
            raise ValueError("stop_loss must be > 0")


@dataclass(frozen=True)
class TrainTrajectory:
    """Checkpoints w_0 .. w_T (flat vectors) plus the step size used."""

    checkpoints: tuple[np.ndarray, ...]
    steps: int
    learning_rate: float

    def __post_init__(self) -> None:
        if len(self.checkpoints) != self.steps + 1:
            raise ValueError("trajectory must hold steps+1 checkpoints")


def init_params(cfg: ModelConfig) -> ModelParams:
    """Uniform weights in [-init_scale, init_scale], zero biases, seeded."""
    rng = np.random.default_rng(cfg.init_seed)
    layers = []
    for nin, nout in cfg.layer_dims():
        w = rng.uniform(-cfg.init_scale, cfg.init_scale, size=(nin, nout))
        layers.append((w, np.zeros(nout)))
    return ModelParams(cfg, tuple(layers))


def _as_batch(cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != cfg.input_size:
        raise ValueError(f"expected batch of width {cfg.input_size}, got shape {x.shape}")
    return x


def _forward_acts(params: ModelParams, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    names = params.config.layer_activations()
    for (w, b), act_name in zip(params.layers, names):
        f = _ACTIVATIONS[act_name][0]
        acts.append(f(acts[-1] @ w + b))
    return acts


def forward(params: ModelParams, window: np.ndarray) -> np.ndarray:
    """Reconstruction of a flattened window (or batch of windows)."""
    arr = np.asarray(window, dtype=np.float64)
    single = arr.ndim == 1
    out = _forward_acts(params, _as_batch(params.config, arr))[-1]
    return out[0] if single else out


def loss(params: ModelParams, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all batch entries."""
    x = _as_batch(params.config, batch)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    out = _forward_acts(params, x)[-1]
    return float(np.mean((out - x) ** 2))


def _backward(
    params: ModelParams, acts: list[np.ndarray]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, list[np.ndarray]]:
    """Reverse pass; returns per-layer gradients, grad wrt input, deltas."""
    cfg = params.config
    names = cfg.layer_activations()
    x = acts[0]
    err = acts[-1] - x
    scale = 2.0 / err.size
    n_layers = len(params.layers)
    deltas: list[np.ndarray] = [np.empty(0)] * n_layers
    g_out = scale * err
    deltas[-1] = g_out * _ACTIVATIONS[names[-1]][1](acts[-1])
    for i in range(n_layers - 1, 0, -1):
        w, _ = params.layers[i]
        g = deltas[i] @ w.T
        deltas[i - 1] = g * _ACTIVATIONS[names[i - 1]][1](acts[i])
    grads = []
    for i in range(n_layers):
        grads.append((acts[i].T @ deltas[i], deltas[i].sum(axis=0)))
    # input enters the loss twice: as network input and as the target
    gx = deltas[0] @ params.layers[0][0].T - scale * err
    return grads, gx, deltas


def grad_w(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the flat parameters."""
    x = _as_batch(params.config, batch)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    acts = _forward_acts(params, x)
    grads, _, _ = _backward(params, acts)
    return _flatten(grads)


def grad_x(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the batch entries.

    Includes both roles of the input (network input and reconstruction
    target), so it matches finite differences of loss(params, batch).
    """
    arr = np.asarray(batch, dtype=np.float64)
    single = arr.ndim == 1
    x = _as_batch(params.config, arr)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    acts = _forward_acts(params, x)
    _, gx, _ = _backward(params, acts)
    return gx[0] if single else gx


def hvp_both(params: ModelParams, batch: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ((d2L/dw dw) v, (d2L/dx dw) v) in one tangent pass.

    The tangent direction v lives in parameter space; the second result is
    the derivative of <grad_w, v> with respect to the batch entries.
    """
    cfg = params.config
    x = _as_batch(cfg, batch)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (cfg.num_params,):
        raise ValueError(f"direction must have length {cfg.num_params}, got {v.shape}")
    vparams = ModelParams.from_flat(cfg, v)
    names = cfg.layer_activations()
    n_layers = len(params.layers)

    acts = _forward_acts(params, x)
    # tangent forward sweep: r_acts[i] = directional derivative of acts[i]
    r_acts: list[np.ndarray] = [np.zeros_like(x)]
    r_zs: list[np.ndarray] = [np.empty(0)] * n_layers
    for i in range(n_layers):
        w, _ = params.layers[i]
        vw, vb = vparams.layers[i]
        rz = acts[i] @ vw + r_acts[i] @ w + vb
        r_zs[i] = rz
        r_acts.append(_ACTIVATIONS[names[i]][1](acts[i + 1]) * rz)

    grads, gx, deltas = _backward(params, acts)
    err = acts[-1] - x
    scale = 2.0 / err.size

    # tangent reverse sweep
    r_deltas: list[np.ndarray] = [np.empty(0)] * n_layers
    d1 = _ACTIVATIONS[names[-1]][1](acts[-1])
    d2 = _ACTIVATIONS[names[-1]][2](acts[-1])
    g_out = scale * err
    r_g = scale * r_acts[-1]
    r_deltas[-1] = r_g * d1 + g_out * d2 * r_zs[-1]
    for i in range(n_layers - 1, 0, -1):
        w, _ = params.layers[i]
        vw, _ = vparams.layers[i]
        g = deltas[i] @ w.T
        r_g = r_deltas[i] @ w.T + deltas[i] @ vw.T
        d1 = _ACTIVATIONS[names[i - 1]][1](acts[i])
        d2 = _ACTIVATIONS[names[i - 1]][2](acts[i])
        r_deltas[i - 1] = r_g * d1 + g * d2 * r_zs[i - 1]

    r_grads = []
    for i in range(n_layers):
        r_gw = r_acts[i].T @ deltas[i] + acts[i].T @ r_deltas[i]
        r_grads.append((r_gw, r_deltas[i].sum(axis=0)))
    w0, _ = params.layers[0]
    vw0, _ = vparams.layers[0]
    r_gx = r_deltas[0] @ w0.T + deltas[0] @ vw0.T - scale * r_acts[-1]
    return _flatten(r_grads), r_gx


def hvp_ww(params: ModelParams, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Weight-space Hessian-vector product of the loss."""
    return hvp_both(params, batch, v)[0]


def hvp_xw(params: ModelParams, batch: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mixed second derivative applied to v: d/dx of <grad_w(x, w), v>."""
    return hvp_both(params, batch, v)[1]


def train(
    params: ModelParams, data: np.ndarray, cfg: TrainConfig
) -> tuple[ModelParams, TrainTrajectory | None, float]:
    """Full-batch gradient descent: w <- w - lr * grad_w.

    Stops on the first epoch whose loss is already below stop_loss, or after
    max_epochs steps. Deterministic; raises TrainingDiverged on non-finite
    loss.
    """
    model_cfg = params.config
    x = _as_batch(model_cfg, data)
    if x.shape[0] == 0:
        raise ValueError("empty training batch")
    layers = [(w.copy(), b.copy()) for w, b in params.layers]
    checkpoints: list[np.ndarray] | None = [_flatten(layers)] if cfg.record_trajectory else None
    steps = 0
    current = ModelParams(model_cfg, tuple(layers))
    cur_loss = loss(current, x)
    if not np.isfinite(cur_loss):
        raise TrainingDiverged(f"initial loss is not finite: {cur_loss}")
    # overflow on a diverging run is the signal we detect, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while steps < cfg.max_epochs and cur_loss >= cfg.stop_loss:
            acts = _forward_acts(current, x)
            grads, _, _ = _backward(current, acts)
            layers = [
                (w - cfg.learning_rate * gw, b - cfg.learning_rate * gb)
                for (w, b), (gw, gb) in zip(layers, grads)
            ]
            steps += 1
            new_flat = _flatten(layers)
            if not np.isfinite(new_flat).all():
                raise TrainingDiverged(f"loss diverged at step {steps}")
            current = ModelParams(model_cfg, tuple(layers))
            if checkpoints is not None:
                checkpoints.append(new_flat)
            cur_loss = loss(current, x)
            if not np.isfinite(cur_loss):
                raise TrainingDiverged(f"loss diverged at step {steps}")
    trajectory = (
        TrainTrajectory(tuple(checkpoints), steps, cfg.learning_rate) if checkpoints is not None else None
    )
    return current, trajectory, cur_loss


def save_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Bit-exact binary checkpoint: model config JSON + flat parameters."""
    np.savez(
        Path(path),
        config=np.frombuffer(json.dumps(params.config.to_dict()).encode(), dtype=np.uint8),
        params=params.flatten(),
    )


def load_checkpoint(path: str | Path) -> ModelParams:
    with np.load(Path(path)) as data:
        cfg = ModelConfig.from_dict(json.loads(bytes(data["config"]).decode()))
        return ModelParams.from_flat(cfg, data["params"])
