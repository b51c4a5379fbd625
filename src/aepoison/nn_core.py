"""Minimal dense autoencoder engine.

Everything here is plain numpy with hand-written reverse-mode derivatives:
loss gradients with respect to weights and inputs, and exact Hessian-vector
products computed by pushing a tangent direction through the forward and
backward passes (no Hessian is ever materialized). A model is one
read-only flat parameter vector whose layers are views into it. The trainer
is plain full-batch gradient descent on a copy of that vector. Each fit
makes one set of work buffers (every layer's activation, output gradient,
slope and delta, plus the residual) and one flat gradient buffer, which
every epoch overwrites, with the bits of the plain allocating expressions,
before it updates the vector in place; an epoch allocates no array. A tall
batch adds each bias to a tile of rows, then the tile to the activation
seen as rows of that tile's size. A trajectory records the vector after
every step as a row of one read-only block, so the training process can be
reversed step by step; a reversal linearizes a block of checkpoints at once
and runs each tangent pass alone.

Parameter vector layout (relied on by trajectory rollback and the HVPs):
layer-major, weights then bias, weights raveled row-major (in_dim x out_dim).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, field
from itertools import repeat
from math import isfinite, isqrt
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
    "Linearization",
    "linearize",
    "hvp_both",
    "train",
]

# (f(z) into out, f'(z) from a = f(z) into out or a new array if out is None,
# f''(z) from a and f'(z)), each with its plain expression's arithmetic. The
# linear layer's identity, slope 1 and curvature 0 are applied by skipping.
_ACTIVATIONS: dict[str, tuple[Callable | None, Callable | None, Callable | None]] = {
    "tanh": (
        np.tanh,
        lambda a, out: np.subtract(1.0, np.multiply(a, a, out=out), out=out),
        lambda a, slope: -2.0 * a * slope,
    ),
    "linear": (None, None, None),
}


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during gradient descent."""


@dataclass(frozen=True)
class ModelConfig:
    """Undercomplete autoencoder with layers (in, f*in, code, f*in, in): a
    widening layer, the encoder to the code and a widening layer, each with
    `activation`, then a linear read-out. Code must be strictly smaller than
    the flattened input."""

    input_size: int
    code_size: int
    inflation_factor: int = 2
    activation: str = "tanh"
    init_seed: int = 0
    init_scale: float = 0.1

    def __post_init__(self) -> None:
        if self.input_size < 2:
            raise ValueError("input_size must be >= 2")
        if not (1 <= self.code_size < self.input_size):
            raise ValueError(
                f"code_size must satisfy 1 <= code < input_size, got {self.code_size} vs {self.input_size}"
            )
        if self.inflation_factor < 1:
            raise ValueError("inflation_factor must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; have {sorted(_ACTIVATIONS)}")
        if self.init_scale < 0:
            raise ValueError("init_scale must be >= 0")
        # derived once; plain attributes, not fields, so repr/eq/hash/to_dict
        # still see only the six fields above
        wide = self.inflation_factor * self.input_size
        sizes = (self.input_size, wide, self.code_size, wide, self.input_size)
        dims = tuple(zip(sizes[:-1], sizes[1:]))
        object.__setattr__(self, "_dims", dims)
        object.__setattr__(self, "_num_params", sum(nin * nout + nout for nin, nout in dims))

    def layer_dims(self) -> tuple[tuple[int, int], ...]:
        return self._dims

    @property
    def num_params(self) -> int:
        return self._num_params

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**data)


_Layers = Sequence[tuple[np.ndarray, np.ndarray]]


def _unflatten(cfg: ModelConfig, vec: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per-layer (W, b) views into a flat vector of cfg.num_params entries, or
    into each row of a (K, num_params) block as (K, in, out) weights and
    (K, 1, out) biases, which broadcast over every model's batch rows."""
    lead = vec.shape[:-1]
    layers = []
    pos = 0
    for nin, nout in cfg.layer_dims():
        w = vec[..., pos : pos + nin * nout].reshape(*lead, nin, nout)
        pos += nin * nout
        b = vec[..., pos : pos + nout]
        layers.append((w, b[:, None] if lead else b))
        pos += nout
    return tuple(layers)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """One flat parameter vector, stored read-only, and per-layer (W, b)
    views of it. A writable input is copied; a read-only one (a trained
    vector, a trajectory row) is kept as it is."""

    config: ModelConfig
    vector: np.ndarray
    layers: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.shape != (self.config.num_params,):
            raise ValueError(f"expected {self.config.num_params} parameters, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("parameters contain non-finite values")
        if vec.flags.writeable:
            vec = vec.copy()
            vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        object.__setattr__(self, "layers", _unflatten(self.config, vec))

    def flatten(self) -> np.ndarray:
        return self.vector


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


@dataclass(frozen=True, eq=False)
class TrainTrajectory:
    """Checkpoints w_0 .. w_T as the rows of one read-only (T+1, P) block,
    plus the step size used."""

    checkpoints: np.ndarray
    learning_rate: float

    @property
    def steps(self) -> int:
        return len(self.checkpoints) - 1


def init_params(cfg: ModelConfig) -> ModelParams:
    """Uniform weights in [-init_scale, init_scale], zero biases, seeded."""
    rng = np.random.default_rng(cfg.init_seed)
    vec = np.zeros(cfg.num_params)
    for w, _ in _unflatten(cfg, vec):
        w[...] = rng.uniform(-cfg.init_scale, cfg.init_scale, size=w.shape)
    return ModelParams(cfg, vec)


def _batch(cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """x as a float64 (rows, input_size) array of at least one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_size:
        raise ValueError(f"expected batch of width {cfg.input_size}, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    return x


# The private passes below take the config, raw (W, b) layers and a _Work;
# the public functions check their batch once and pass params.layers down.


# A batch adds its biases by tiles when that runs at least this many fewer of
# numpy's inner loops: a ufunc over a (rows, width) array runs one loop of
# width entries per row, about 4-5 ns each on a narrow layer, and copying a
# bias into its tile costs about 300 ns. Timed alone (Xeon VM, numpy 2.4,
# width 2-8), the plain add and the tiled one cost the same near 60-80 saved
# loops (64 rows in tiles of 8: 1.21 against 1.18 us; 128 in tiles of 8: 1.8
# against 1.5 us; 990 in tiles of 30: 6.2 against 3.1 us), and a tile of one
# row (a prime count) only adds the copy (131 rows: 1.8 against 2.0 us).
_TILE_MIN_SAVED = 64


class _Work:
    """Buffers for one batch: each layer's activation (acts[0] is the batch
    itself), output gradient, slope (None for a linear layer) and delta (a
    linear layer's is its output gradient), plus the residual and its square;
    for a (K, P) block of models each buffer but the batch is K-stacked.
    Where tiles save _TILE_MIN_SAVED inner loops, bias_tiles holds per layer
    a tile of k batch rows for its bias, the activation seen as rows / k rows
    of k * width entries, and the tile seen as one such row; k is the largest
    divisor of rows up to its square root.
    The activations (each its own array, so the tile views reshape it) and
    tiles are made with the _Work, the rest by the first pass that writes
    them, and later passes overwrite them: train keeps one _Work per fit and
    the public functions one per call, so nothing they return aliases
    another call's result."""

    def __init__(self, cfg: ModelConfig, x: np.ndarray, models: tuple[int, ...] = ()) -> None:
        self.activate, self.slope, self.curv = _ACTIVATIONS[cfg.activation]
        rows = len(x)
        self.acts = [x, *(np.empty((*models, rows, nout)) for _, nout in cfg.layer_dims())]
        self.bias_tiles = None
        k = max(d for d in range(1, isqrt(rows) + 1) if rows % d == 0)
        if rows - rows // k >= _TILE_MIN_SAVED:
            self.bias_tiles = []
            for z in self.acts[1:]:
                tile = np.empty((*models, k, z.shape[-1]))
                wide = k * z.shape[-1]
                self.bias_tiles.append((tile, z.reshape(*models, -1, wide), tile.reshape(*models, 1, wide)))
        self.outs, self.slopes, self.deltas = ([None] * (len(self.acts) - 1) for _ in range(3))
        self.resid = self.sq = None


def _forward_acts(cfg: ModelConfig, layers: _Layers, work: _Work) -> list[np.ndarray]:
    """Writes every layer's activation and the residual out - x."""
    acts = work.acts
    for i, (w, b) in enumerate(layers):
        z = np.matmul(acts[i], w, out=acts[i + 1])
        if work.bias_tiles is None:
            np.add(z, b, out=z)
        else:  # the same sums, in rows / k inner loops of numpy's instead of rows
            tile, z_tiles, tile_row = work.bias_tiles[i]
            tile[...] = b
            np.add(z_tiles, tile_row, out=z_tiles)
        if work.activate is not None and i < len(layers) - 1:  # the read-out is linear
            work.activate(z, out=z)
    work.resid = np.subtract(acts[-1], acts[0], out=work.resid)
    return acts


def _mse(work: _Work) -> float:
    # np.mean's own arithmetic (one pairwise add.reduce over all entries,
    # divided by their count) without its Python wrapper
    sq = work.sq = np.multiply(work.resid, work.resid, out=work.sq)
    return float(np.add.reduce(sq, axis=None) / sq.size)


def _forward(params: ModelParams, x: np.ndarray) -> _Work:
    work = _Work(params.config, x)
    _forward_acts(params.config, params.layers, work)
    return work


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Reconstruction of a batch of flattened windows, one per row."""
    return _forward(params, _batch(params.config, batch)).acts[-1]


def loss(params: ModelParams, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all batch entries."""
    return _mse(_forward(params, _batch(params.config, batch)))


def _deltas(cfg: ModelConfig, layers: _Layers, work: _Work) -> tuple[list, list, list]:
    """Reverse sweep of the loss, after _forward_acts. Per layer i: the
    gradient with respect to its output acts[i + 1], its activation slope
    there (None for a linear layer, whose slope is 1 and is not multiplied
    in), and its delta, the gradient with respect to its pre-activation."""
    outs, slopes, deltas = work.outs, work.slopes, work.deltas
    last = len(layers) - 1
    outs[last] = np.multiply(work.resid, 2.0 / work.acts[0].size, out=outs[last])
    for i in range(last, -1, -1):
        if work.slope is None or i == last:  # the read-out is linear
            deltas[i] = outs[i]
        else:
            slopes[i] = work.slope(work.acts[i + 1], slopes[i])
            deltas[i] = np.multiply(outs[i], slopes[i], out=deltas[i])
        if i:
            outs[i - 1] = np.matmul(deltas[i], layers[i][0].swapaxes(-1, -2), out=outs[i - 1])
    return outs, slopes, deltas


def _row_sum(d: np.ndarray, out: np.ndarray) -> None:
    """out <- d.sum(axis=0), bit for bit: einsum adds the rows in the same order,
    in 6-11 us against 22-25 on the 990-row MULTI_SEQ batch (Xeon, numpy 2.4),
    but is the slower below about 100 rows (3.5 against 2.9 us at 47 rows)."""
    if len(d) >= 128:
        np.einsum("ij->j", d, out=out)
    else:
        np.add.reduce(d, axis=0, out=out)


def _backward(cfg: ModelConfig, layers: _Layers, work: _Work, grads: _Layers) -> None:
    """Reverse pass: writes each layer's weight and bias gradient into the
    matching (gW, gb) view of ``grads``."""
    _, _, deltas = _deltas(cfg, layers, work)
    for a, d, (gw, gb) in zip(work.acts, deltas, grads):
        np.matmul(a.T, d, out=gw)
        _row_sum(d, gb)


def grad_w(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the flat parameters."""
    cfg = params.config
    work = _forward(params, _batch(cfg, batch))
    grad = np.empty(cfg.num_params)
    _backward(cfg, params.layers, work, _unflatten(cfg, grad))
    return grad


def grad_x(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the batch entries.

    Includes both roles of the input (network input and reconstruction
    target), so it matches finite differences of loss(params, batch).
    """
    cfg, layers = params.config, params.layers
    outs, _, deltas = _deltas(cfg, layers, _forward(params, _batch(cfg, batch)))
    # input enters the loss twice: as network input and as the target
    return deltas[0] @ layers[0][0].T - outs[-1]


# What a Hessian-vector product needs of one model and batch before its
# direction is known: per layer the weights, and the loss's activation, slope,
# delta and curvature term (output gradient times f''); plus the hvp_both
# buffers (a _Tangent) that all linearizations of one block share.
Linearization = namedtuple("Linearization", "config weights acts slopes deltas curvs tangent")


class _Tangent:
    """hvp_both's buffers: per layer the tangents of the pre-activation, the
    activation, the delta and the input gradient, a term of each sum, and the
    results; each made by the first call and overwritten by later ones."""

    def __init__(self, cfg: ModelConfig) -> None:
        n_layers = len(cfg.layer_dims())
        self.rz, self.ra, self.rd, self.rg, self.oterm, self.iterm, self.wterm = ([None] * n_layers for _ in range(7))
        self.r_out = self.v = self.vlayers = None
        self.r_grad = np.empty(cfg.num_params)  # every entry written by each call
        self.r_layers = _unflatten(cfg, self.r_grad)


def _linearize(cfg: ModelConfig, block: np.ndarray, x: np.ndarray) -> list[Linearization]:
    """One Linearization per row of a (K, P) parameter block on the batch x,
    all from one forward pass and loss sweep over the K-stacked layers: a
    stacked matmul is one BLAS call per model and a ufunc works entry by
    entry, so each model gets the bits of its own pass."""
    layers = _unflatten(cfg, block)
    work = _Work(cfg, x, block.shape[:-1])
    acts = _forward_acts(cfg, layers, work)
    outs, slopes, deltas = _deltas(cfg, layers, work)
    curvs = [s if s is None else outs[i] * work.curv(acts[i + 1], s) for i, s in enumerate(slopes)]
    # each model's views of the K-stacked arrays (None for a linear layer)
    stacked = ([w for w, _ in layers], acts[1:], slopes, deltas, curvs)
    per_model = (zip(*(repeat(None, len(block)) if a is None else a for a in arrays)) for arrays in stacked)
    tangent = _Tangent(cfg)
    return [Linearization(cfg, w, (x, *a), s, d, c, tangent) for w, a, s, d, c in zip(*per_model)]


def linearize(params: ModelParams, batch: np.ndarray) -> Linearization:
    """The direction-free half of :func:`hvp_both` at params on a batch."""
    return _linearize(params.config, params.vector[None], _batch(params.config, batch))[0]


def hvp_both(lin: Linearization, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ((d2L/dw dw) v, (d2L/dx dw) v) in one tangent pass.

    The tangent direction v lives in parameter space; the second result is
    the derivative of <grad_w, v> with respect to the batch entries. Both are
    buffers of ``lin.tangent``: the next call on ``lin``, or on another
    linearization of its block, overwrites them.
    """
    cfg, ws, acts, slopes, deltas, curvs, t = lin
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (cfg.num_params,):
        raise ValueError(f"direction must have length {cfg.num_params}, got {v.shape}")
    if v is not t.v:
        t.v, t.vlayers = v, _unflatten(cfg, v)
    rz, ra, rd, rg, oterm = t.rz, t.ra, t.rd, t.rg, t.oterm
    # tangent forward sweep: ra[i] = directional derivative of acts[i + 1];
    # the input does not move along v, so layer 0 has no ra term
    for i, (vw, vb) in enumerate(t.vlayers):
        z = rz[i] = np.matmul(acts[i], vw, out=rz[i])
        if i:
            np.add(z, np.matmul(ra[i - 1], ws[i], out=oterm[i]), out=z)
        np.add(z, vb, out=z)
        ra[i] = z if slopes[i] is None else np.multiply(slopes[i], z, out=ra[i])

    # tangent reverse sweep; a linear layer has zero curvature. Its last step,
    # the last read of v (so v may be a previous r_grad), gives the input's
    # gradient, from which the target's term is then taken.
    g = t.r_out = np.multiply(ra[-1], 2.0 / acts[0].size, out=t.r_out)
    for i in range(len(ws) - 1, -1, -1):
        if slopes[i] is None:
            rd[i] = g
        else:
            rd[i] = np.multiply(g, slopes[i], out=rd[i])
            np.add(rd[i], np.multiply(curvs[i], rz[i], out=oterm[i]), out=rd[i])
        g = rg[i] = np.matmul(rd[i], ws[i].T, out=rg[i])
        np.add(g, np.matmul(deltas[i], t.vlayers[i][0].T, out=t.iterm[i]), out=g)
    np.subtract(g, t.r_out, out=g)

    for i, (r_gw, r_gb) in enumerate(t.r_layers):
        np.matmul(acts[i].T, rd[i], out=r_gw)
        if i:
            np.add(r_gw, np.matmul(ra[i - 1].T, deltas[i], out=t.wterm[i]), out=r_gw)
        _row_sum(rd[i], r_gb)
    return t.r_grad, g


def train(
    params: ModelParams, data: np.ndarray, cfg: TrainConfig
) -> tuple[ModelParams, TrainTrajectory | None, float]:
    """Full-batch gradient descent: w <- w - lr * grad_w.

    Stops on the first epoch whose loss is already below stop_loss, or after
    max_epochs steps. Deterministic; raises TrainingDiverged on a non-finite
    loss or weights. The weights live in one flat vector that each epoch
    updates in place; each epoch runs one forward pass into the fit's work
    buffers, which gives the stop-test loss and feeds the weight update.
    A trajectory is one block of max_epochs + 1 rows, each epoch copying the
    vector into its own row; the rows the fit wrote are returned read-only.
    """
    model_cfg = params.config
    x = _batch(model_cfg, data)
    theta = params.flatten().copy()
    layers = _unflatten(model_cfg, theta)
    grad = np.empty_like(theta)
    grads = _unflatten(model_cfg, grad)
    finite = np.empty(theta.shape, dtype=bool)
    work = _Work(model_cfg, x)
    # one block per fit (an array per epoch made malloc trim and re-fault the
    # heap every epoch); the fit touches only the pages of the rows it writes
    checkpoints = np.empty((cfg.max_epochs + 1, theta.size)) if cfg.record_trajectory else None
    steps = 0
    # overflow on a diverging run is the signal we detect, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if checkpoints is not None:
                checkpoints[steps] = theta
            _forward_acts(model_cfg, layers, work)
            cur_loss = _mse(work)
            if not isfinite(cur_loss):
                raise TrainingDiverged(f"loss diverged at step {steps}")
            if steps == cfg.max_epochs or cur_loss < cfg.stop_loss:
                break
            _backward(model_cfg, layers, work, grads)
            grad *= cfg.learning_rate
            theta -= grad
            steps += 1
            if not np.isfinite(theta, out=finite).all():
                raise TrainingDiverged(f"loss diverged at step {steps}")
    if checkpoints is not None:
        checkpoints = checkpoints[: steps + 1].copy()
        checkpoints.setflags(write=False)
    trajectory = TrainTrajectory(checkpoints, cfg.learning_rate) if checkpoints is not None else None
    theta.setflags(write=False)
    return ModelParams(model_cfg, theta), trajectory, cur_loss
