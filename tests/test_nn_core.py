import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from aepoison import nn_core
from aepoison.nn_core import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    TrainingDiverged,
    forward,
    grad_w,
    grad_x,
    hvp_both,
    init_params,
    REVERSE_BLOCK,
    linearize,
    loss,
    train,
)


def small_cfg(**kw):
    defaults = dict(input_size=4, code_size=2, inflation_factor=2, init_seed=0, init_scale=0.1)
    defaults.update(kw)
    return ModelConfig(**defaults)


def subspace_identity_model():
    """Linear model whose reconstruction is exact on a 2-D input subspace."""
    cfg = small_cfg(inflation_factor=1, activation="linear")
    basis, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(4, 2)))
    eye = np.eye(4)
    layers = ((eye, np.zeros(4)), (basis, np.zeros(2)), (basis.T, np.zeros(4)), (eye, np.zeros(4)))
    params = ModelParams(cfg, np.concatenate([a.ravel() for layer in layers for a in layer]))
    z = np.random.default_rng(2).normal(size=(6, 2))
    batch = z @ basis.T
    return params, batch


def fd_grad_w(params, batch, h=1e-6):
    flat = params.flatten()
    out = np.zeros_like(flat)
    for i in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (
            loss(ModelParams(params.config, up), batch)
            - loss(ModelParams(params.config, dn), batch)
        ) / (2 * h)
    return out


def fd_grad_x(params, batch, h=1e-6):
    out = np.zeros_like(batch)
    for idx in np.ndindex(batch.shape):
        up, dn = batch.copy(), batch.copy()
        up[idx] += h
        dn[idx] -= h
        out[idx] = (loss(params, up) - loss(params, dn)) / (2 * h)
    return out


class TestInitParams:
    def test_same_seed_bit_identical(self):
        a = init_params(small_cfg(init_seed=11))
        b = init_params(small_cfg(init_seed=11))
        assert np.array_equal(a.flatten(), b.flatten())

    def test_zero_scale_gives_zero_weights(self):
        p = init_params(small_cfg(init_scale=0.0))
        assert np.all(p.flatten() == 0.0)

    def test_overcomplete_code_rejected(self):
        with pytest.raises(ValueError, match="code"):
            small_cfg(input_size=4, code_size=4)

    def test_layer_counts_of_the_experiment_models(self):
        # MULTI_SEQ: 2 channels x window 2; SINGLE_SEQ: 1 channel x window 100
        assert ModelConfig(input_size=4, code_size=2).num_params == 118
        assert ModelConfig(input_size=100, code_size=50).num_params == 60_550

    def test_config_identity_is_its_six_fields(self):
        cfg = small_cfg(init_seed=7, init_scale=0.3)
        names = [f.name for f in fields(ModelConfig)]
        assert len(names) == 6
        assert list(cfg.to_dict()) == names
        assert repr(cfg) == "ModelConfig(" + ", ".join(f"{k}={v!r}" for k, v in cfg.to_dict().items()) + ")"
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg and hash(again) == hash(cfg)

    def test_flatten_round_trip(self):
        p = init_params(small_cfg(init_seed=5))
        q = ModelParams(p.config, p.flatten())
        assert np.array_equal(p.flatten(), q.flatten())


class TestModelParams:
    def test_vector_of_wrong_length_refused(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="parameters"):
            ModelParams(cfg, np.zeros(cfg.num_params - 1))

    def test_vector_with_nan_refused(self):
        vec = init_params(small_cfg()).flatten().copy()
        vec[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ModelParams(small_cfg(), vec)

    def test_writable_input_is_copied_and_stored_read_only(self):
        cfg = small_cfg(init_seed=3)
        vec = init_params(cfg).flatten().copy()
        p = ModelParams(cfg, vec)
        vec[:] = 7.0
        assert np.array_equal(p.flatten(), init_params(cfg).flatten())
        assert not p.flatten().flags.writeable
        assert all(np.shares_memory(wb, p.flatten()) for wb in p.layers)

    def test_read_only_input_is_kept(self):
        p = init_params(small_cfg())
        assert ModelParams(p.config, p.flatten()).flatten() is p.flatten()


class TestForwardAndLoss:
    def test_zero_weights_odd_activation_gives_zero_output(self):
        p = init_params(small_cfg(init_scale=0.0))
        out = forward(p, np.ones((1, 4)))
        assert np.allclose(out, 0.0)

    def test_factored_identity_reproduces_subspace_inputs(self):
        params, batch = subspace_identity_model()
        assert np.allclose(forward(params, batch), batch, atol=1e-12)

    def test_perfect_reconstruction_loss_zero(self):
        params, batch = subspace_identity_model()
        assert loss(params, batch) == pytest.approx(0.0, abs=1e-24)

    def test_zero_output_on_ones_gives_one(self):
        cfg = small_cfg(init_scale=0.0, activation="linear")
        p = init_params(cfg)
        assert loss(p, np.ones((3, 4))) == pytest.approx(1.0)

    def test_loss_invariant_to_batch_order(self):
        p = init_params(small_cfg(init_seed=4))
        batch = np.random.default_rng(0).normal(size=(8, 4))
        shuffled = batch[::-1].copy()
        assert loss(p, batch) == pytest.approx(loss(p, shuffled), rel=1e-15)

    def test_empty_batch_rejected(self):
        p = init_params(small_cfg())
        for fn in (loss, forward, grad_w, grad_x):
            with pytest.raises(ValueError, match="empty"):
                fn(p, np.zeros((0, 4)))

    def test_single_window_must_be_a_one_row_batch(self):
        p = init_params(small_cfg())
        for fn in (loss, forward, grad_w, grad_x):
            with pytest.raises(ValueError, match="shape"):
                fn(p, np.ones(4))


class TestGradients:
    def test_zero_gradient_at_constructed_minimum(self):
        params, batch = subspace_identity_model()
        assert np.linalg.norm(grad_w(params, batch)) <= 1e-10
        assert np.linalg.norm(grad_x(params, batch)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_w_matches_finite_differences(self, seed):
        p = init_params(small_cfg(init_seed=seed, init_scale=0.4))
        batch = np.random.default_rng(seed).normal(size=(3, 4))
        analytic = grad_w(p, batch)
        fd = fd_grad_w(p, batch)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)) < 1e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_grad_x_matches_finite_differences(self, seed):
        p = init_params(small_cfg(init_seed=seed, init_scale=0.4))
        batch = np.random.default_rng(100 + seed).normal(size=(3, 4))
        analytic = grad_x(p, batch)
        fd = fd_grad_x(p, batch)
        assert np.max(np.abs(analytic - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_grad_x_batch_scaling_of_identical_windows(self):
        p = init_params(small_cfg(init_seed=9, init_scale=0.3))
        row = np.random.default_rng(3).normal(size=4)
        single = grad_x(p, row[None, :])
        repeated = grad_x(p, np.tile(row, (5, 1)))
        assert np.allclose(repeated, single / 5.0, atol=1e-14)
        assert np.allclose(repeated.sum(axis=0), single[0], atol=1e-13)


def ones_below(a):
    """a over a row of ones, row-major: a layer's input in the feature-major
    layout (BLAS reads a column-major operand in another order, so x.T is
    copied as nn_core copies it)."""
    out = np.ones((len(a) + 1, a.shape[1]))
    out[:-1] = a
    return out


def allocating_grad_w(params, x, seed=None):
    """Reference weight gradient for tanh/linear models, every product a
    fresh array: the arithmetic grad_w performs with out= buffers, feature-
    major, each layer's [W; b] times its input over a row of ones. The loss's
    seed is 2 / x.size unless given (train's is lr * 2 / x.size)."""
    names = (params.config.activation,) * 3 + ("linear",)
    ins, acts = [], [x.T]
    for wb, name in zip(params.layers, names):
        ins.append(ones_below(acts[-1]))
        z = wb.T @ ins[-1]
        acts.append(np.tanh(z) if name == "tanh" else z)
    g = (2.0 / x.size if seed is None else seed) * (acts[-1] - x.T)
    grads = []
    for i in range(len(names) - 1, -1, -1):
        delta = g * (1.0 - acts[i + 1] * acts[i + 1]) if names[i] == "tanh" else g
        grads.insert(0, (ins[i] @ delta.T).ravel())
        g = params.layers[i][:-1] @ delta
    return np.concatenate(grads)


@pytest.mark.bit_exact
class TestGradWBuffers:
    @pytest.mark.parametrize("input_size,code_size,rows", [(4, 2, 990), (4, 2, 1038), (4, 2, 131), (100, 50, 16)])
    def test_matches_allocating_reference_bit_exact(self, input_size, code_size, rows):
        # the MULTI_SEQ and SINGLE_SEQ model shapes: the training batch, a
        # training batch with one poison's windows, a prime height and 16 rows
        cfg = ModelConfig(input_size=input_size, code_size=code_size, init_seed=6, init_scale=0.4)
        x = np.sin(np.linspace(0, 40, rows * input_size)).reshape(rows, input_size) * 0.8
        p = init_params(cfg)
        for _ in range(3):
            g = grad_w(p, x)
            assert np.array_equal(g, allocating_grad_w(p, x))
            p = ModelParams(cfg, p.flatten() - 0.5 * g)


def allocating_state(params, x):
    """Reference direction-free half of an HVP for tanh/linear models, every
    product a fresh array: per layer the input over its ones row, slope (None
    for the linear read-out), delta and curvature term outs * f''."""
    names = (params.config.activation,) * 3 + ("linear",)
    ins, acts = [], [x.T]
    for wb, name in zip(params.layers, names):
        ins.append(ones_below(acts[-1]))
        z = wb.T @ ins[-1]
        acts.append(np.tanh(z) if name == "tanh" else z)
    slopes, deltas, curvs = [None] * 4, [None] * 4, [None] * 4
    out = (2.0 / x.size) * (acts[-1] - x.T)
    for i in range(3, -1, -1):
        if names[i] == "tanh":
            slopes[i] = 1.0 - acts[i + 1] * acts[i + 1]
            curvs[i] = out * (-2.0 * acts[i + 1] * slopes[i])
        deltas[i] = out if slopes[i] is None else out * slopes[i]
        out = params.layers[i][:-1] @ deltas[i]
    return ins, slopes, deltas, curvs


def allocating_hvp(params, x, v):
    """Reference ((d2L/dw dw) v, (d2L/dx dw) v) with fresh arrays: the
    arithmetic of hvp_both's tangent pass."""
    ins, slopes, deltas, curvs = allocating_state(params, x)
    layers, vlayers = params.layers, ModelParams(params.config, v).layers
    r_acts, r_zs = [None], []
    for i, (wb, vwb) in enumerate(zip(layers, vlayers)):
        rz = vwb.T @ ins[i] if i == 0 else vwb.T @ ins[i] + wb[:-1].T @ r_acts[i]
        r_zs.append(rz)
        r_acts.append(rz if slopes[i] is None else slopes[i] * rz)
    r_out = (2.0 / x.size) * r_acts[-1]
    r_g, r_deltas = r_out, [None] * 4
    for i in range(3, -1, -1):
        r_deltas[i] = r_g if slopes[i] is None else r_g * slopes[i] + curvs[i] * r_zs[i]
        r_g = layers[i][:-1] @ r_deltas[i] + vlayers[i][:-1] @ deltas[i]
    parts = []
    for i in range(4):
        r_gwb = ins[i] @ r_deltas[i].T
        if i:
            r_gwb[:-1] += r_acts[i] @ deltas[i].T
        parts.append(r_gwb.ravel())
    return np.concatenate(parts), (r_g - r_out).T


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.bit_exact
class TestLinearize:
    # id: (input_size, code_size, inflation_factor, rows). MULTI_SEQ poison
    # and training rows and SINGLE_SEQ; then shapes that give products a
    # size-1 dimension, which BLAS may run as gemv or dot: a width-1 code
    # layer (tiny_detector's 2-2-1-2-2 among them) and one-row batches
    SHAPES = {
        "4-2-48": (4, 2, 2, 48),
        "4-2-990": (4, 2, 2, 990),
        "100-50-16": (100, 50, 2, 16),
        "2-2-1-2-2x48": (2, 1, 1, 48),
        "2-2-1-2-2x2": (2, 1, 1, 2),
        "2-2-1-2-2x1": (2, 1, 1, 1),
        "4-8-2-8-4x1": (4, 2, 2, 1),
        "3-3-1-3-3x5": (3, 1, 1, 5),
        "4-8-1-8-4x7": (4, 1, 2, 7),
    }
    shapes = pytest.mark.parametrize("input_size,code_size,inflation,rows", SHAPES.values(), ids=SHAPES)

    @staticmethod
    def trajectory(input_size, code_size, inflation, rows, steps):
        cfg = ModelConfig(
            input_size=input_size, code_size=code_size, inflation_factor=inflation, init_seed=6, init_scale=0.4
        )
        x = np.sin(np.linspace(0, 40, rows * input_size)).reshape(rows, input_size) * 0.8
        # a one-row batch fits below 1e-12 within these steps
        _, traj, _ = train(init_params(cfg), x, TrainConfig(0.5, steps, 1e-300, record_trajectory=True))
        assert traj.steps == steps
        return cfg, x, traj.checkpoints

    @shapes
    @pytest.mark.parametrize("models", [1, REVERSE_BLOCK - 1, REVERSE_BLOCK, REVERSE_BLOCK + 1])
    def test_stacked_state_matches_plain_pass_bit_for_bit(self, input_size, code_size, inflation, rows, models):
        cfg, x, cps = self.trajectory(input_size, code_size, inflation, rows, models - 1)
        lins = nn_core._linearize(cfg, cps, x)
        assert len(lins) == models
        for lin, vec in zip(lins, cps):
            p = ModelParams(cfg, vec)
            assert all(same_bits(w, ref[:-1]) for w, ref in zip(lin.ws, p.layers))
            assert all(same_bits(wt, ref[:-1].T) for wt, ref in zip(lin.wts, p.layers))
            for got, ref in zip((lin.ins, lin.slopes, lin.deltas, lin.curvs), allocating_state(p, x)):
                assert [g is None for g in got] == [r is None for r in ref]
                assert all(same_bits(g, r) for g, r in zip(got, ref) if r is not None)

    @shapes
    def test_tangent_pass_matches_allocating_reference_bit_exact(self, input_size, code_size, inflation, rows):
        cfg, x, cps = self.trajectory(input_size, code_size, inflation, rows, REVERSE_BLOCK + 2)
        v = np.random.default_rng(rows).normal(size=cfg.num_params)
        for lin, vec in zip(nn_core._linearize(cfg, cps, x), cps):
            # v is the last result, overwritten by the call that reads it
            expected = allocating_hvp(ModelParams(cfg, vec), x, v.copy())
            got = hvp_both(lin, v)
            assert all(same_bits(g, e) for g, e in zip(got, expected))
            v = got[0]

    @pytest.mark.parametrize("rows", [0, 1, REVERSE_BLOCK, REVERSE_BLOCK + 1, 2 * REVERSE_BLOCK + 3])
    def test_walk_yields_every_row_newest_first_one_stacked_pass_per_block(self, rows):
        # as a reversal walks a fit of `rows` steps: every checkpoint but the last
        cfg, x, cps = self.trajectory(4, 2, 2, 7, rows)
        lins = list(nn_core.linearizations(cfg, cps[:-1], x))
        assert len(lins) == rows
        # blocks of REVERSE_BLOCK rows counted from the newest share one pass's buffers
        tangents = [lin.tangent for lin in lins]
        assert [tangents.index(t) for t in tangents] == [j - j % REVERSE_BLOCK for j in range(rows)]
        for lin, vec in zip(lins, cps[:-1][::-1]):
            p = ModelParams(cfg, vec)
            assert all(same_bits(w, ref[:-1]) for w, ref in zip(lin.ws, p.layers))
            for got, ref in zip((lin.ins, lin.slopes, lin.deltas, lin.curvs), allocating_state(p, x)):
                assert all(same_bits(g, r) for g, r in zip(got, ref) if r is not None)


class TestHvp:
    def test_single_linear_layer_closed_form(self):
        # one effective linear map: loss = mean((xW + b - x)^2); the
        # W-block Hessian is (2/(B*n)) X^T X (x) I, computable by hand
        cfg = ModelConfig(
            input_size=3, code_size=2, inflation_factor=1, activation="linear", init_seed=0, init_scale=0.2,
        )
        p = init_params(cfg)
        batch = np.random.default_rng(5).normal(size=(4, 3))
        v = np.random.default_rng(6).normal(size=cfg.num_params)
        eps = 1e-6
        flat = p.flatten()
        fd = (
            grad_w(ModelParams(cfg, flat + eps * v), batch)
            - grad_w(ModelParams(cfg, flat - eps * v), batch)
        ) / (2 * eps)
        assert np.max(np.abs(hvp_both(linearize(p, batch), v)[0] - fd)) / np.max(np.abs(fd)) < 1e-7

    def test_hvp_linear_in_direction(self):
        p = init_params(small_cfg(init_seed=2, init_scale=0.3))
        batch = np.random.default_rng(7).normal(size=(3, 4))
        rng = np.random.default_rng(8)
        v1 = rng.normal(size=p.config.num_params)
        v2 = rng.normal(size=p.config.num_params)
        a, b = 0.7, -1.3
        combo_w, combo_x = hvp_both(linearize(p, batch), a * v1 + b * v2)
        w1, x1 = hvp_both(linearize(p, batch), v1)
        w2, x2 = hvp_both(linearize(p, batch), v2)
        assert np.max(np.abs(combo_w - (a * w1 + b * w2))) < 1e-10
        assert np.max(np.abs(combo_x - (a * x1 + b * x2))) < 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_hvp_matches_finite_differenced_gradients(self, seed):
        p = init_params(small_cfg(init_seed=seed, init_scale=0.4))
        batch = np.random.default_rng(seed).normal(size=(3, 4))
        v = np.random.default_rng(50 + seed).normal(size=p.config.num_params)
        flat = p.flatten()
        eps = 1e-6
        up = ModelParams(p.config, flat + eps * v)
        dn = ModelParams(p.config, flat - eps * v)
        fd_w = (grad_w(up, batch) - grad_w(dn, batch)) / (2 * eps)
        fd_x = (grad_x(up, batch) - grad_x(dn, batch)) / (2 * eps)
        hw, hx = hvp_both(linearize(p, batch), v)
        assert np.max(np.abs(hw - fd_w)) / np.max(np.abs(fd_w)) < 1e-4
        assert np.max(np.abs(hx - fd_x)) / np.max(np.abs(fd_x)) < 1e-4

    def test_direction_length_checked(self):
        p = init_params(small_cfg())
        with pytest.raises(ValueError, match="direction"):
            hvp_both(linearize(p, np.zeros((2, 4))), np.zeros(3))


class TestTrain:
    def batch(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 4 * np.pi, 50)
        sig = np.sin(t)
        return np.column_stack([sig[:-3], sig[1:-2], sig[2:-1], sig[3:]]) * 0.8

    def test_zero_learning_rate_runs_all_epochs_unchanged(self):
        p = init_params(small_cfg(init_seed=1))
        out, traj, _ = train(p, self.batch(), TrainConfig(0.0, 17, stop_loss=1e-9, record_trajectory=True))
        assert np.array_equal(out.flatten(), p.flatten())
        assert traj.steps == 17

    def test_stop_criterion_halts_on_first_epoch_below_threshold(self):
        p = init_params(small_cfg(init_seed=1))
        out, traj, final_loss = train(
            p, self.batch(), TrainConfig(0.5, 30000, stop_loss=0.01, record_trajectory=True)
        )
        assert final_loss < 0.01
        assert traj.steps < 30000
        second_last = ModelParams(p.config, traj.checkpoints[-2])
        assert loss(second_last, self.batch()) >= 0.01

    def test_loss_monotone_for_small_rate_on_linear_autoencoder(self):
        cfg = small_cfg(activation="linear", init_seed=3)
        p = init_params(cfg)
        batch = self.batch()
        _, traj, _ = train(p, batch, TrainConfig(0.05, 200, stop_loss=1e-12, record_trajectory=True))
        losses = [loss(ModelParams(cfg, w), batch) for w in traj.checkpoints]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_divergence_reported(self):
        p = init_params(small_cfg(init_seed=1, init_scale=0.5))
        with pytest.raises(TrainingDiverged):
            train(p, self.batch(), TrainConfig(50.0, 2000, stop_loss=1e-12))

    @pytest.mark.bit_exact
    @pytest.mark.parametrize("scale,lr,check", [(1e-50, 1e200, "weights"), (1.0, 1e20, "loss")])
    def test_diverges_at_the_step_of_an_isfinite_reference_loop(self, scale, lr, check):
        # tiny inputs and a huge step: the weights overflow at step 2 while the
        # loss is still finite; the second run's loss overflows first
        x = np.sin(np.linspace(0, 60, 990 * 4)).reshape(990, 4) * 0.8 * scale
        p = init_params(small_cfg(init_seed=1))
        steps = 0
        with np.errstate(over="ignore", invalid="ignore"):
            while True:
                if not np.isfinite(loss(p, x)):
                    fired = "loss"
                    break
                theta = p.flatten() - lr * grad_w(p, x)
                steps += 1
                if not np.isfinite(theta).all():
                    fired = "weights"
                    break
                p = ModelParams(p.config, theta)
        assert fired == check and steps > 1
        with pytest.raises(TrainingDiverged, match=f"at step {steps}$"):
            train(init_params(small_cfg(init_seed=1)), x, TrainConfig(lr, 100, stop_loss=1e-300))

    @pytest.mark.parametrize("max_epochs", [0, 100])
    @pytest.mark.parametrize("entry", [np.nan, 1e300])
    def test_non_finite_initial_loss_diverges_at_step_0(self, max_epochs, entry):
        # the loss is tested before the stop rule, so a fit of no epochs raises too
        x = self.batch().copy()
        x[0, 0] = entry
        cfg = TrainConfig(0.1, max_epochs, stop_loss=1e-300, record_trajectory=True)
        with pytest.raises(TrainingDiverged, match="at step 0$"):
            train(init_params(small_cfg(init_seed=1)), x, cfg)

    def test_deterministic_training(self):
        a, _, _ = train(init_params(small_cfg(init_seed=2)), self.batch(), TrainConfig(0.3, 200, 1e-9))
        b, _, _ = train(init_params(small_cfg(init_seed=2)), self.batch(), TrainConfig(0.3, 200, 1e-9))
        assert np.array_equal(a.flatten(), b.flatten())

    @pytest.mark.bit_exact
    def test_matches_plain_gradient_descent_loop_bit_exact(self):
        x = self.batch()
        p = init_params(small_cfg(init_seed=1))
        lr, max_epochs, stop_loss = 0.5, 3000, 0.01
        ref = [p.flatten()]
        while len(ref) - 1 < max_epochs and loss(p, x) >= stop_loss:
            p = ModelParams(p.config, p.flatten() - lr * grad_w(p, x))
            ref.append(p.flatten())
        out, traj, final_loss = train(
            init_params(small_cfg(init_seed=1)), x, TrainConfig(lr, max_epochs, stop_loss, record_trajectory=True)
        )
        assert 0 < traj.steps < max_epochs
        assert len(traj.checkpoints) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(traj.checkpoints, ref))
        assert np.array_equal(out.flatten(), ref[-1])
        assert final_loss == loss(p, x)

    @pytest.mark.parametrize("max_epochs, stop_loss", [(0, 1e-12), (63, 1e-12), (64, 1e-12), (129, 1e-12), (3000, 0.3309)])
    def test_trajectory_of_any_length_matches_plain_loop(self, max_epochs, stop_loss):
        # checkpoints fill the first rows of one block of max_epochs + 1 rows,
        # which is cut to the steps run; 0.3309 stops after 22 of 3,000
        x = self.batch()
        p = init_params(small_cfg(init_seed=1))
        ref = [p.flatten()]
        while len(ref) - 1 < max_epochs and loss(p, x) >= stop_loss:
            p = ModelParams(p.config, p.flatten() - 0.5 * grad_w(p, x))
            ref.append(p.flatten())
        _, traj, _ = train(
            init_params(small_cfg(init_seed=1)), x, TrainConfig(0.5, max_epochs, stop_loss, record_trajectory=True)
        )
        assert len(traj.checkpoints) == len(ref) == traj.steps + 1
        assert all(np.array_equal(a, b) for a, b in zip(traj.checkpoints, ref))
        assert not any(c.flags.writeable for c in traj.checkpoints)

    def test_recorded_fit_run_to_max_peaks_below_one_and_a_half_blocks(self):
        # the trajectory is a read-only view of the rows the fit wrote, not a
        # copy of them: a copy would hold the block twice at its peak
        cfg = small_cfg(init_seed=1)
        x = np.sin(np.linspace(0, 20, 48 * 4)).reshape(48, 4) * 0.8
        train_cfg = TrainConfig(0.3, 3000, 1e-300, record_trajectory=True)
        block, params = (train_cfg.max_epochs + 1) * cfg.num_params * 8, init_params(cfg)
        tracemalloc.start()
        try:
            _, traj, _ = train(params, x, train_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.steps == 3000 and not traj.checkpoints.flags.writeable
        assert peak < 1.5 * block, f"peak {peak / block:.2f} blocks"

    @staticmethod
    def single_seq_fit(lr, epochs):
        # the 60,550-parameter SINGLE_SEQ shape: one window of 100 points
        cfg = ModelConfig(input_size=100, code_size=50, init_seed=4, init_scale=0.3)
        x = np.sin(np.linspace(0, 16 * np.pi, 1600)).reshape(16, 100) * 0.8
        return cfg, x, train(init_params(cfg), x, TrainConfig(lr, epochs, 1e-12, record_trajectory=True))

    @pytest.mark.bit_exact
    def test_single_seq_model_matches_plain_loop_bit_exact(self):
        # the fit seeds its backward pass with lr * 2 / size, so the reference
        # is a plain allocating loop whose backward takes that seed too
        lr, epochs = 0.45, 20
        cfg, x, (out, traj, final_loss) = self.single_seq_fit(lr, epochs)
        p = init_params(cfg)
        ref = [p.flatten()]
        for _ in range(epochs):
            p = ModelParams(cfg, p.flatten() - allocating_grad_w(p, x, seed=lr * (2.0 / x.size)))
            ref.append(p.flatten())
        assert traj.steps == epochs
        assert all(np.array_equal(a, b) for a, b in zip(traj.checkpoints, ref))
        assert np.array_equal(out.flatten(), ref[-1])
        assert final_loss == loss(p, x)

    @pytest.mark.bit_exact
    def test_single_seq_folded_rate_stays_within_rounding_of_lr_times_grad_w(self):
        # 0.45 is no power of two, so lr * grad_w and the folded seed round
        # differently; after 20 epochs they still agree to 1e-12
        lr, epochs = 0.45, 20
        cfg, x, (out, traj, _) = self.single_seq_fit(lr, epochs)
        p = init_params(cfg)
        for _ in range(epochs):
            p = ModelParams(cfg, p.flatten() - lr * grad_w(p, x))
        assert traj.steps == epochs
        assert np.abs(out.flatten() - p.flatten()).max() <= 1e-12

    @pytest.mark.bit_exact
    def test_multi_seq_shape_matches_plain_loop_bit_exact(self):
        # the MULTI_SEQ shape: 4-8-2-8-4 model, 990x4 window batch
        cfg = ModelConfig(input_size=4, code_size=2, init_seed=0, init_scale=0.5)
        x = np.sin(np.linspace(0, 60, 990 * 4)).reshape(990, 4) * 0.8
        lr, epochs = 1.0, 100
        p = init_params(cfg)
        ref = [p.flatten()]
        for _ in range(epochs):
            p = ModelParams(cfg, p.flatten() - lr * grad_w(p, x))
            ref.append(p.flatten())
        out, traj, final_loss = train(init_params(cfg), x, TrainConfig(lr, epochs, 1e-12, record_trajectory=True))
        assert traj.steps == epochs
        assert all(np.array_equal(a, b) for a, b in zip(traj.checkpoints, ref))
        assert np.array_equal(out.flatten(), ref[-1])
        assert final_loss == loss(p, x)

    def test_input_params_left_untouched(self):
        first, _, _ = train(init_params(small_cfg(init_seed=1)), self.batch(), TrainConfig(0.5, 5, 1e-9))
        # an untrained model, and a trained one whose layers are views of one vector
        for p in (init_params(small_cfg(init_seed=1)), first):
            before = p.flatten()
            out, _, _ = train(p, self.batch(), TrainConfig(0.5, 50, 1e-9))
            assert not np.array_equal(out.flatten(), before)
            assert np.array_equal(p.flatten(), before)
            ins, outs = list(p.layers), list(out.layers)
            assert not any(a.flags.writeable for a in ins + outs)
            assert not any(np.shares_memory(a, b) for a in ins for b in outs)

    def test_checkpoints_are_distinct_read_only_copies(self):
        out, traj, _ = train(
            init_params(small_cfg(init_seed=2)), self.batch(), TrainConfig(0.3, 30, 1e-9, record_trajectory=True)
        )
        cps = traj.checkpoints
        assert len(cps) == 31
        assert not any(c.flags.writeable for c in cps)
        assert not any(np.shares_memory(a, b) for i, a in enumerate(cps) for b in cps[i + 1 :])
        assert not any(np.shares_memory(c, wb) for c in cps for wb in out.layers)
        assert not any(np.array_equal(a, b) for a, b in zip(cps, cps[1:]))

    def test_one_forward_and_one_backward_pass_per_epoch(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(nn_core, "_forward_acts", counted("forward", nn_core._forward_acts))
        monkeypatch.setattr(nn_core, "_backward", counted("backward", nn_core._backward))
        _, traj, _ = train(
            init_params(small_cfg(init_seed=1)), self.batch(), TrainConfig(0.5, 3000, 0.01, record_trajectory=True)
        )
        assert traj.steps > 0
        assert calls == {"forward": traj.steps + 1, "backward": traj.steps}

    def test_trajectory_endpoint_is_trained_params_bit_exact(self):
        out, traj, _ = train(
            init_params(small_cfg(init_seed=2)),
            self.batch(),
            TrainConfig(0.3, 150, 1e-9, record_trajectory=True),
        )
        assert len(traj.checkpoints) == traj.steps + 1
        assert np.array_equal(traj.checkpoints[-1], out.flatten())


class TestWorkBuffers:
    def batch(self):
        return np.sin(np.linspace(0, 60, 990 * 4)).reshape(990, 4) * 0.8

    def recorded_fit(self, monkeypatch):
        """Trains the MULTI_SEQ shape; returns the fit and, per forward and
        per reverse sweep, its work object and the arrays it wrote."""
        forwards, sweeps = [], []
        real_forward, real_deltas = nn_core._forward_acts, nn_core._deltas

        def forward_acts(work):
            acts = real_forward(work)
            forwards.append((work, [*acts[1:], work.resid]))
            return acts

        def deltas(work):
            outs, slopes, ds = real_deltas(work)
            sweeps.append((work, [a for a in (*outs, *slopes, *ds) if a is not None]))
            return outs, slopes, ds

        monkeypatch.setattr(nn_core, "_forward_acts", forward_acts)
        monkeypatch.setattr(nn_core, "_deltas", deltas)
        cfg = ModelConfig(input_size=4, code_size=2, init_seed=0, init_scale=0.5)
        fit = train(init_params(cfg), self.batch(), TrainConfig(1.0, 40, 1e-12, record_trajectory=True))
        return fit, forwards, sweeps

    def test_every_epoch_of_a_fit_writes_the_same_buffers(self, monkeypatch):
        (_, traj, _), forwards, sweeps = self.recorded_fit(monkeypatch)
        assert len(forwards) == traj.steps + 1 and len(sweeps) == traj.steps == 40
        for calls in (forwards, sweeps):
            first = [a.ctypes.data for a in calls[0][1]]
            assert all([a.ctypes.data for a in arrays] == first for _, arrays in calls)
            assert all(work is calls[0][0] for work, _ in calls)

    def test_trained_vector_and_checkpoints_share_no_memory_with_buffers(self, monkeypatch):
        (out, traj, _), forwards, _ = self.recorded_fit(monkeypatch)
        work = forwards[0][0]
        made = (*work.acts[1:], *work.outs, *work.slopes, *work.deltas, work.resid, work.sq)
        buffers = [a for a in made if a is not None]
        # a linear layer's delta is its output gradient
        assert len({id(a) for a in buffers}) == 4 + 4 + 3 + 3 + 2
        results = [out.flatten(), traj.checkpoints]
        assert not any(np.shares_memory(r, b) for r in results for b in buffers)

    def test_public_results_share_no_memory_across_calls(self):
        p = init_params(ModelConfig(input_size=4, code_size=2, init_seed=0, init_scale=0.5))
        x = self.batch()
        v = np.random.default_rng(0).normal(size=p.config.num_params)
        calls = [lambda: (forward(p, x),), lambda: (grad_w(p, x),), lambda: (grad_x(p, x),), lambda: hvp_both(linearize(p, x), v)]
        for call in calls:
            first, second = call(), call()
            assert not any(np.shares_memory(a, b) for a in first for b in second)
