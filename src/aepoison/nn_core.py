"""Minimal dense autoencoder engine.

Everything here is plain numpy with hand-written reverse-mode derivatives:
loss gradients with respect to weights and inputs, and exact Hessian-vector
products computed by pushing a tangent direction through the forward and
backward passes (no Hessian is ever materialized). A model is one
read-only flat parameter vector whose layers are views into it. The trainer
is plain full-batch gradient descent on a copy of that vector. Each fit
makes one set of work buffers (every layer's activation, output gradient,
slope and delta, plus the residual), which binds the layer views and steps
its passes walk, and one flat gradient buffer, which every epoch overwrites
before it updates the vector in place; an epoch allocates no array. The
backward pass is linear in its seed, so a fit seeds it with lr * 2 / size
and the pass writes the update lr * grad itself. Batches run feature-major:
each layer's input is a (width + 1, rows) array whose last row is ones, so
one matmul with the layer's [W; b] view gives its output biases included,
and one matmul with its delta gives its weight and bias gradients at once.
A trajectory records the vector after every step as a row of one read-only
block, so the training process can be reversed step by step: linearizations
walks its checkpoints newest first, REVERSE_BLOCK rows per K-stacked pass,
and each tangent pass (hvp_both) then runs alone as 2-D np.dot calls into
buffers its pass made once.

Parameter vector layout (relied on by trajectory rollback and the HVPs):
layer-major, weights then bias, weights raveled row-major (in_dim x out_dim),
so each layer's segment is the row-major (in_dim + 1, out_dim) array [W; b].
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, field
from itertools import repeat
from math import inf, isfinite
from operator import index
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "integer",
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
    "linearizations",
    "hvp_both",
    "train",
]

# (f(z) into out, f'(z) from a = f(z) into out or a new array if out is None,
# f''(z) from a and f'(z)), each with its plain expression's arithmetic. The
# linear layer's identity, slope 1 and curvature 0 are applied by skipping.
_ACTIVATIONS: dict[str, tuple[Callable | None, Callable | None, Callable | None]] = {
    "tanh": (
        np.tanh,
        lambda a, out: np.subtract(1.0, np.square(a, out=out), out=out),
        lambda a, slope: -2.0 * a * slope,
    ),
    "linear": (None, None, None),
}


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during gradient descent."""


def integer(value: int) -> int:
    """operator.index(value), which refuses a bool too: a config count or seed."""
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    return index(value)


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
        integer(self.init_seed)  # a TypeError unless an integer, as are the sizes below
        if integer(self.input_size) < 2:
            raise ValueError("input_size must be >= 2")
        if not (1 <= integer(self.code_size) < self.input_size):
            raise ValueError(
                f"code_size must satisfy 1 <= code < input_size, got {self.code_size} vs {self.input_size}"
            )
        if integer(self.inflation_factor) < 1:
            raise ValueError("inflation_factor must be >= 1")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}; have {sorted(_ACTIVATIONS)}")
        if not 0 <= self.init_scale < inf:
            raise ValueError("init_scale must be finite and >= 0")
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


_Layers = Sequence[np.ndarray]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _unflatten(cfg: ModelConfig, vec: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-layer (in + 1, out) [W; b] views into a flat vector of
    cfg.num_params entries, or (K, in + 1, out) views into each row of a
    (K, num_params) block."""
    lead = vec.shape[:-1]
    layers, pos = [], 0
    for nin, nout in cfg.layer_dims():
        layers.append(vec[..., pos : pos + (nin + 1) * nout].reshape(*lead, nin + 1, nout))
        pos += (nin + 1) * nout
    return tuple(layers)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """One flat parameter vector, stored read-only, and per-layer [W; b]
    views of it. A writable input is copied; a read-only one (a trained
    vector, a trajectory row) is kept as it is."""

    config: ModelConfig
    vector: np.ndarray
    layers: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vec = _read_only(self.vector)
        if vec.shape != (self.config.num_params,):
            raise ValueError(f"expected {self.config.num_params} parameters, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("parameters contain non-finite values")
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
        if not 0 <= self.learning_rate < inf:
            raise ValueError("learning rate must be finite and >= 0")
        if integer(self.max_epochs) < 0:
            raise ValueError("max_epochs must be >= 0")
        if not 0 < self.stop_loss < inf:
            raise ValueError("stop_loss must be finite and > 0")


@dataclass(frozen=True, eq=False)
class TrainTrajectory:
    """Checkpoints w_0 .. w_T as the rows of one read-only (T+1, P) block (a
    writable one is copied, train's read-only view kept), plus the step size."""

    checkpoints: np.ndarray
    learning_rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "checkpoints", _read_only(self.checkpoints))

    @property
    def steps(self) -> int:
        return len(self.checkpoints) - 1


def init_params(cfg: ModelConfig) -> ModelParams:
    """Uniform weights in [-init_scale, init_scale], zero biases, seeded."""
    rng = np.random.default_rng(cfg.init_seed)
    vec = np.zeros(cfg.num_params)
    for wb in _unflatten(cfg, vec):
        wb[:-1] = rng.uniform(-cfg.init_scale, cfg.init_scale, size=wb[:-1].shape)
    return ModelParams(cfg, vec)


def _batch(cfg: ModelConfig, x: np.ndarray) -> np.ndarray:
    """x as a float64 (rows, input_size) array of at least one row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.input_size:
        raise ValueError(f"expected batch of width {cfg.input_size}, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    return x


# The private passes below take a _Work; the public functions check their batch.


def _stacked(models: tuple[int, ...], shape: tuple[int, int], make: Callable = np.empty) -> np.ndarray:
    """make((*models, *shape)) with each model's block 16-byte aligned, as a
    fresh array is: some BLAS kernels (OpenBLAS's SSE2 dot) add in an order
    set by alignment, and each model must get the bits of its own pass."""
    size = shape[0] * shape[1]
    if not models or size % 2 == 0:
        return make((*models, *shape))
    return make((*models, size + 1))[..., :size].reshape(*models, *shape)


class _Work:
    """One set of layers (or a K-stacked block) on one batch, feature-major:
    each layer's bound [W; b]^T and W views, the loss seed scale * 2 / size
    (the reverse sweep yields scale times the gradient), and buffers: each
    layer's input, (width + 1, rows) over a row of ones (ins[0] holds the
    batch), output (acts[i + 1], the view above the next ones row; the
    read-out's is its own array), output gradient, slope (None if linear) and
    delta (a linear layer's is its output gradient) with its transpose, the
    residual and its square, K-stacked but the batch for a block; and the
    per-layer steps the passes walk. The reverse sweep's buffers and steps
    are made by its first run, the rest here; train keeps one _Work per fit
    and the public functions one per call, so no result aliases another."""

    def __init__(self, cfg: ModelConfig, x: np.ndarray, layers: _Layers, scale: float = 1.0) -> None:
        activate, self.slope, self.curv = _ACTIVATIONS[cfg.activation]
        wbts, self.ws = [wb.swapaxes(-1, -2) for wb in layers], [wb[..., :-1, :] for wb in layers]
        models, rows, layer_dims = layers[0].shape[:-2], len(x), cfg.layer_dims()
        self.seed, self.models = scale * (2.0 / x.size), models
        self.ins = [_stacked(models if i else (), (nin + 1, rows), np.ones) for i, (nin, _) in enumerate(layer_dims)]
        self.ins[0][:-1] = x.T
        self.acts = [a[..., :-1, :] for a in self.ins] + [_stacked(models, (cfg.input_size, rows))]
        self.resid, self.sq = np.empty(self.acts[-1].shape), np.empty(self.acts[-1].shape)
        # per layer: [W; b]^T, input, output, activation
        self.layer_steps = tuple(zip(wbts, self.ins, self.acts[1:], [activate] * (len(layers) - 1) + [None]))
        self.sweep_steps = ()

    def bind_sweep(self) -> tuple:
        """Makes the reverse sweep's buffers and its steps, read-out first:
        W, delta, and the layer below's output gradient, slope, delta, output."""
        self.outs = [_stacked(self.models, a.shape[-2:]) for a in self.acts[1:]]
        self.slopes = [None if self.slope is None else np.empty(o.shape) for o in self.outs[:-1]] + [None]
        self.deltas = [o if s is None else _stacked(self.models, o.shape[-2:]) for o, s in zip(self.outs, self.slopes)]
        self.dts = [d.swapaxes(-1, -2) for d in self.deltas]
        below = zip(self.outs, self.slopes, self.deltas, self.acts[1:])
        self.sweep_steps = tuple((w, d, *b) for w, d, b in zip(self.ws[1:], self.deltas[1:], below))[::-1]
        return self.sweep_steps


def _forward_acts(work: _Work) -> list[np.ndarray]:
    """Writes the hidden layers' activations, the read-out and out - x."""
    for wbt, a, z, activate in work.layer_steps:
        np.matmul(wbt, a, out=z)
        if activate is not None:
            activate(z, out=z)
    np.subtract(work.acts[-1], work.acts[0], out=work.resid)
    return work.acts


def _mse(work: _Work) -> float:
    # np.mean's own arithmetic (np.square, then one pairwise add.reduce over
    # all entries, divided by their count) without its Python wrapper
    sq = np.square(work.resid, out=work.sq)
    return float(np.add.reduce(sq, axis=None) / sq.size)


def _forward(params: ModelParams, x: np.ndarray) -> _Work:
    work = _Work(params.config, x, params.layers)
    _forward_acts(work)
    return work


def forward(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Reconstruction of a batch of flattened windows, one per row."""
    return _forward(params, _batch(params.config, batch)).acts[-1].T


def loss(params: ModelParams, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all batch entries."""
    return _mse(_forward(params, _batch(params.config, batch)))


def _deltas(work: _Work) -> tuple[list, list, list]:
    """Reverse sweep of scale times the loss, after _forward_acts: the read-out,
    then the hidden layers. Per layer i: the gradient with respect to its
    output acts[i + 1], its activation slope there (None for a linear layer,
    whose slope 1 is not multiplied in), and its delta, the gradient with
    respect to its pre-activation."""
    steps, slope = work.sweep_steps or work.bind_sweep(), work.slope
    np.multiply(work.resid, work.seed, out=work.outs[-1])
    for w, d, out, s, below, a in steps:
        np.matmul(w, d, out=out)
        if s is not None:
            slope(a, s)
            np.multiply(out, s, out=below)
    return work.outs, work.slopes, work.deltas


def _backward(work: _Work, grads: _Layers) -> None:
    """Reverse pass: writes each layer's weight and bias gradient, times the
    work's scale, into the matching [gW; gb] view of ``grads``; the input's
    ones row makes the last row of the product the bias gradient."""
    _deltas(work)
    for a, dt, g in zip(work.ins, work.dts, grads):
        np.matmul(a, dt, out=g)


def grad_w(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the flat parameters."""
    cfg = params.config
    work = _forward(params, _batch(cfg, batch))
    grad = np.empty(cfg.num_params)
    _backward(work, _unflatten(cfg, grad))
    return grad


def grad_x(params: ModelParams, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the batch entries.

    Includes both roles of the input (network input and reconstruction
    target), so it matches finite differences of loss(params, batch).
    """
    work = _forward(params, _batch(params.config, batch))
    outs, _, deltas = _deltas(work)
    # input enters the loss twice: as network input and as the target
    return (work.ws[0] @ deltas[0] - outs[-1]).T


# What a Hessian-vector product needs of one model and batch before its
# direction is known: per layer the W and W^T views, and the loss's input
# (over its ones row), slope, delta with its transpose and curvature term
# (output gradient times f''); plus the hvp_both buffers (a _Tangent) that
# all linearizations of one block share.
Linearization = namedtuple("Linearization", "config ws wts ins slopes deltas dts curvs tangent")
REVERSE_BLOCK = 16  # checkpoint rows per stacked pass of linearizations


class _Tangent:
    """hvp_both's buffers for a batch of `rows`, all made here and rewritten
    by each call: per layer the tangents of the pre-activation, activation
    and delta (a linear layer's alias those before them) and of the input
    gradient, a term of each sum, the results, and the views and loss seed
    the pass reads; and the views of the last direction array passed."""

    def __init__(self, cfg: ModelConfig, rows: int) -> None:
        dims = cfg.layer_dims()
        linear = [_ACTIVATIONS[cfg.activation][1] is None] * (len(dims) - 1) + [True]
        self.rz, self.rg = [np.empty((nout, rows)) for _, nout in dims], [np.empty((nin, rows)) for nin, _ in dims]
        self.ra = [z if lin else np.empty(z.shape) for z, lin in zip(self.rz, linear)]
        self.oterm, self.iterm = [np.empty(z.shape) for z in self.rz], [np.empty(g.shape) for g in self.rg]
        self.wterm, self.r_out = [np.empty((nin, nout)) for nin, nout in dims], np.empty((cfg.input_size, rows))
        above = self.rg[1:] + [self.r_out]  # a linear layer's delta tangent: the gradient tangent from above
        self.rd = [g if lin else np.empty(z.shape) for z, g, lin in zip(self.rz, above, linear)]
        self.rdts, self.seed, self.r_x = [d.T for d in self.rd], 2.0 / self.r_out.size, self.rg[0].T
        self.r_grad = np.empty(cfg.num_params)  # every entry written by each call
        self.r_layers = _unflatten(cfg, self.r_grad)
        self.r_ws = [wb[:-1] for wb in self.r_layers]
        self.v = self.vwbts = self.vws = None


def _linearize(cfg: ModelConfig, block: np.ndarray, x: np.ndarray) -> list[Linearization]:
    """One Linearization per row of a (K, P) parameter block on the batch x,
    all from one forward pass and loss sweep over the K-stacked layers: a
    stacked matmul is one BLAS call per model and a ufunc works entry by
    entry, so each model gets the bits of its own pass."""
    work = _Work(cfg, x, _unflatten(cfg, block))
    acts = _forward_acts(work)
    outs, slopes, deltas = _deltas(work)
    curvs = [s if s is None else outs[i] * work.curv(acts[i + 1], s) for i, s in enumerate(slopes)]
    # each model's views of the K-stacked arrays (None for a linear layer)
    stacked = (work.ws, [w.swapaxes(-1, -2) for w in work.ws], work.ins[1:], slopes, deltas, work.dts, curvs)
    per_model = (zip(*(repeat(None, len(block)) if a is None else a for a in arrays)) for arrays in stacked)
    t = _Tangent(cfg, len(x))
    return [Linearization(cfg, w, wt, (work.ins[0], *a), s, d, dt, c, t) for w, wt, a, s, d, dt, c in zip(*per_model)]


def linearize(params: ModelParams, batch: np.ndarray) -> Linearization:
    """The direction-free half of :func:`hvp_both` at params on a batch."""
    return _linearize(params.config, params.vector[None], _batch(params.config, batch))[0]


def linearizations(cfg: ModelConfig, checkpoints: np.ndarray, batch: np.ndarray) -> Iterator[Linearization]:
    """The Linearization at each row of a (T, P) checkpoint block on a batch,
    newest row first, as a reversal walks a trajectory: one stacked pass per
    REVERSE_BLOCK rows, counted from the newest, whose linearizations share
    one set of hvp_both buffers."""
    x = _batch(cfg, batch)
    for end in range(len(checkpoints), 0, -REVERSE_BLOCK):
        yield from reversed(_linearize(cfg, checkpoints[max(end - REVERSE_BLOCK, 0) : end], x))


def hvp_both(lin: Linearization, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ((d2L/dw dw) v, (d2L/dx dw) v) in one tangent pass.

    The tangent direction v lives in parameter space; the second result is
    the derivative of <grad_w, v> with respect to the batch entries. Both are
    buffers of ``lin.tangent``: the next call on ``lin``, or on another
    linearization from the same stacked pass (the same REVERSE_BLOCK rows of
    :func:`linearizations`), overwrites them. Each product is one model's
    2-D np.dot into a buffer; a new direction array is checked and viewed once.
    """
    cfg, ws, wts, ins, slopes, deltas, dts, curvs, t = lin
    if v is not t.v:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (cfg.num_params,):
            raise ValueError(f"direction must have length {cfg.num_params}, got {v.shape}")
        vlayers = _unflatten(cfg, v)
        t.v, t.vwbts, t.vws = v, [vwb.T for vwb in vlayers], [vwb[:-1] for vwb in vlayers]
    rz, ra, rd, rg, oterm, iterm = t.rz, t.ra, t.rd, t.rg, t.oterm, t.iterm
    # tangent forward sweep: ra[i] = directional derivative of layer i's
    # output; the input (and its ones row) does not move along v, so layer 0
    # has no ra term
    for i, vwbt in enumerate(t.vwbts):
        z = np.dot(vwbt, ins[i], rz[i])
        if i:
            np.add(z, np.dot(wts[i], ra[i - 1], oterm[i]), out=z)
        if slopes[i] is not None:
            np.multiply(slopes[i], z, out=ra[i])

    # tangent reverse sweep; a linear layer has zero curvature. Its last step,
    # the last read of v (so v may be a previous r_grad), gives the input's
    # gradient, from which the target's term is then taken. The read-out's
    # tangent has the batch's size.
    g = np.multiply(ra[-1], t.seed, out=t.r_out)
    for i in range(len(ws) - 1, -1, -1):
        if slopes[i] is not None:
            np.multiply(g, slopes[i], out=rd[i])
            np.add(rd[i], np.multiply(curvs[i], rz[i], out=oterm[i]), out=rd[i])
        g = np.dot(ws[i], rd[i], rg[i])
        np.add(g, np.dot(t.vws[i], deltas[i], iterm[i]), out=g)
    np.subtract(g, t.r_out, out=g)

    for i, r_gwb in enumerate(t.r_layers):
        np.dot(ins[i], t.rdts[i], r_gwb)
        if i:
            np.add(t.r_ws[i], np.dot(ra[i - 1], dts[i], t.wterm[i]), out=t.r_ws[i])
    return t.r_grad, t.r_x


def train(
    params: ModelParams, data: np.ndarray, cfg: TrainConfig
) -> tuple[ModelParams, TrainTrajectory | None, float]:
    """Full-batch gradient descent: w <- w - lr * grad_w.

    Stops on the first epoch whose loss is already below stop_loss, or after
    max_epochs steps. Deterministic; raises TrainingDiverged on a non-finite
    loss or weights. The weights live in one flat vector that each epoch
    updates in place; each epoch runs one forward pass into the fit's work
    buffers, which gives the stop-test loss and feeds the backward pass, whose
    seed lr * 2 / size makes it write lr * grad_w (bit for bit when lr is a
    power of two). A trajectory is one block of max_epochs + 1 rows, each
    epoch copying the vector into its own row; the rows the fit wrote are
    returned as a read-only view of it (an early stop keeps the whole block
    allocated, but never touches the pages of the rows it did not write).
    """
    model_cfg = params.config
    x = _batch(model_cfg, data)
    theta = params.flatten().copy()
    grad = np.empty_like(theta)
    grads = _unflatten(model_cfg, grad)
    finite = np.empty(theta.shape, dtype=bool)
    work = _Work(model_cfg, x, _unflatten(model_cfg, theta), cfg.learning_rate)
    # one block per fit (an array per epoch made malloc trim and re-fault the
    # heap every epoch); the fit touches only the pages of the rows it writes
    checkpoints = np.empty((cfg.max_epochs + 1, theta.size)) if cfg.record_trajectory else None
    steps = 0
    # overflow on a diverging run is the signal we detect, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if checkpoints is not None:
                checkpoints[steps] = theta
            _forward_acts(work)
            cur_loss = _mse(work)
            if not isfinite(cur_loss):
                raise TrainingDiverged(f"loss diverged at step {steps}")
            if steps == cfg.max_epochs or cur_loss < cfg.stop_loss:
                break
            _backward(work, grads)
            theta -= grad
            steps += 1
            if not np.logical_and.reduce(np.isfinite(theta, out=finite)):
                raise TrainingDiverged(f"loss diverged at step {steps}")
    if checkpoints is not None:
        checkpoints = checkpoints[: steps + 1]
        checkpoints.setflags(write=False)
    trajectory = TrainTrajectory(checkpoints, cfg.learning_rate) if checkpoints is not None else None
    theta.setflags(write=False)
    return ModelParams(model_cfg, theta), trajectory, cur_loss
