import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from test_acceptance import MULTI_SEQ

from aepoison import nn_core, poisoning
from aepoison.detector import DetectorConfig, scatter_windows, score, series_loss, window_batch
from aepoison.harness import build_experiment
from aepoison.nn_core import ModelConfig, ModelParams, TrainConfig
from aepoison.poisoning import (
    LAMBDA_EPS,
    ExperimentData,
    IterationLog,
    PoisonConfig,
    PoisonPoint,
    PoisonResult,
    _RunState,
    get_poison_grad,
    init_poison,
    poison_span,
    run_pipeline,
    train_test,
)
from aepoison.signals import AttackSpec, SignalSpec, generate, inject_attack
from aepoison.timeseries import SeriesMatrix

PERIOD = 20
CHANNELS = ((1.0, 0.0), (0.5, 0.0))


def make_series(seed, channels=CHANNELS):
    return generate(
        SignalSpec(period=PERIOD, length=100, noise_std=0.05, channels=channels, seed=seed)
    )


def multi_seq_setup(size=10, magnitude=0.2, sign="away-from-zero", anchor=55, duration=7):
    train = [make_series(100 + i) for i in range(size)]
    val = make_series(999)
    clean = make_series(555)
    attacked, attack_range = inject_attack(
        clean, 0, AttackSpec(location=anchor, magnitude=magnitude, duration=duration, sign=sign), PERIOD
    )
    n = len(CHANNELS)
    model = ModelConfig(
        input_size=2 * n, code_size=n, inflation_factor=2, init_seed=3, init_scale=0.5
    )
    dcfg = DetectorConfig(model=model, window_length=2, threshold=0.2)
    tcfg = TrainConfig(1.0, 3000, 0.003)
    span = poison_span(100, attack_range, 2, PERIOD)
    return ExperimentData(tuple(train), val, clean, attacked, span), dcfg, tcfg


def run_state(data, dcfg, tcfg, algorithm="interp"):
    """A run set up as run_pipeline sets it up, for tests that need a bare fit."""
    return _RunState(data, algorithm, PoisonConfig(), dcfg, tcfg)


@pytest.fixture
def train_batches(monkeypatch):
    """The batch of every nn_core.train call the test makes."""
    batches = []
    real_train = nn_core.train

    def recording_train(params, data, cfg):
        batches.append(data)
        return real_train(params, data, cfg)

    monkeypatch.setattr(nn_core, "train", recording_train)
    return batches


def tiny_series(values):
    return SeriesMatrix(np.asarray(values, dtype=float)[:, None], ("x",))


def tiny_detector(activation="tanh", seed=0, scale=0.3):
    cfg = ModelConfig(
        input_size=2, code_size=1, inflation_factor=1, activation=activation,
        init_seed=seed, init_scale=scale,
    )
    return DetectorConfig(model=cfg, window_length=2, threshold=0.2)


class TestExperimentData:
    def test_no_training_sequence_is_refused(self):
        data, _, _ = multi_seq_setup(size=1)
        with pytest.raises(ValueError, match="empty training set"):
            replace(data, train=())

    def test_clean_series_of_another_shape_is_refused(self):
        # its span of rows is the benign starting poison for the attack's span
        data, _, _ = multi_seq_setup(size=1)
        for rows in (data.clean.values[:60], np.hstack([data.clean.values, data.clean.values[:, :1]])):
            names = tuple(f"ch{i}" for i in range(rows.shape[1]))
            with pytest.raises(ValueError, match="clean series shape"):
                replace(data, clean=SeriesMatrix(rows, names))

    def test_series_naming_other_features_is_refused(self):
        data, _, _ = multi_seq_setup(size=2)
        renamed = SeriesMatrix(data.clean.values, ("a", "b"))
        for field_name, value in (("clean", renamed), ("val", renamed), ("train", (data.train[0], renamed))):
            with pytest.raises(ValueError, match="attack's features"):
                replace(data, **{field_name: value})


class TestPoisonSpan:
    def test_window_footprint_plus_margin(self):
        assert poison_span(100, (55, 62), 2, 20) == (34, 83)

    def test_whole_series_in_single_sequence_mode(self):
        assert poison_span(100, (55, 62), 100, 20) == (0, 100)

    def test_clipped_at_edges(self):
        assert poison_span(50, (2, 5), 2, 20) == (0, 26)
        assert poison_span(50, (45, 48), 2, 20) == (24, 50)

    def test_never_shorter_than_window(self):
        assert poison_span(10, (0, 1), 4, 0)[1] - poison_span(10, (0, 1), 4, 0)[0] >= 4

    def test_empty_range_of_a_zero_magnitude_attack_spans_its_row(self):
        assert poison_span(100, (55, 55), 2, 20) == poison_span(100, (55, 56), 2, 20)
        assert poison_span(100, (99, 99), 2, 0) == (98, 100)

    @pytest.mark.parametrize("attack_range", [(500, 507), (-50, -40), (95, 101), (100, 100), (60, 55)])
    def test_range_outside_the_series_is_refused(self, attack_range):
        # clipping it would poison an edge of the series the attack never touched
        with pytest.raises(ValueError, match="not within the 100 rows"):
            poison_span(100, attack_range, 2, 20)


class TestTrainTest:
    def test_zero_magnitude_attack_never_alerts(self):
        data, dcfg, tcfg = multi_seq_setup(size=6, magnitude=0.0)
        res = train_test(run_state(data, dcfg, tcfg))
        assert res.alerts_attack == 0
        assert res.alerts_val == 0

    def test_significant_attack_alerts(self):
        data, dcfg, tcfg = multi_seq_setup(size=6, magnitude=0.5)
        res = train_test(run_state(data, dcfg, tcfg))
        assert res.alerts_attack > 0

    def test_candidate_windows_appended_last(self, train_batches):
        data, dcfg, tcfg = multi_seq_setup(size=4)
        state = run_state(data, dcfg, replace(tcfg, max_epochs=5))
        clean, span = data.clean, data.span
        state.points.append(PoisonPoint(clean, span=(0, clean.length), kind="clean-pad"))
        cand = PoisonPoint(clean.with_values(clean.values[span[0] : span[1]]), span=span)
        train_test(state, cand)
        expected = [window_batch(s, dcfg) for s in data.train]
        expected += [window_batch(p.series, dcfg) for p in (*state.points, cand)]
        assert len(train_batches) == 1
        assert np.array_equal(train_batches[0], np.concatenate(expected))


class TestTrainCache:
    def test_run_windows_each_clean_sequence_once_and_seeds_once(self, monkeypatch, train_batches):
        data, dcfg, tcfg = multi_seq_setup(size=6, magnitude=0.3)
        windowed, seeded = [], []
        real_window_batch, real_init = poisoning.window_batch, nn_core.init_params

        def counting_window_batch(series, cfg):
            windowed.append(series)
            return real_window_batch(series, cfg)

        def counting_init(cfg):
            seeded.append(cfg)
            return real_init(cfg)

        monkeypatch.setattr(poisoning, "window_batch", counting_window_batch)
        monkeypatch.setattr(nn_core, "init_params", counting_init)
        run_pipeline(data, "interp", PoisonConfig(seed=1, max_iters=3), detector_cfg=dcfg, train_cfg=tcfg)
        assert len(train_batches) >= 2
        assert [sum(w is s for w in windowed) for s in data.train] == [1] * len(data.train)
        assert len(seeded) == 1

    def test_oracle_keeps_no_fit(self):
        # a run's fits live only as long as the caller holds them
        data, dcfg, tcfg = multi_seq_setup(size=3)
        state = run_state(data, dcfg, replace(tcfg, max_epochs=20), algorithm="backgrad")
        a, b = data.span
        poison = PoisonPoint(data.clean.with_values(data.clean.values[a:b]), span=data.span)
        params, trajectory, _ = state.cache.fit((poison,))
        assert trajectory is not None
        fitted = weakref.ref(params)
        del params, trajectory
        assert fitted() is None


class TestGetPoisonGrad:
    def unrolled_pipeline(self, dcfg, w0, poison_values, attack, steps, lr):
        """Independent oracle: train on the poison alone for `steps` epochs,
        then evaluate the attack reconstruction loss."""
        poison_series = tiny_series(poison_values)
        batch = window_batch(poison_series, dcfg)
        params = w0
        for _ in range(steps):
            g = nn_core.grad_w(params, batch)
            params = ModelParams(dcfg.model, params.flatten() - lr * g)
        return series_loss(params, attack, dcfg)

    def test_matches_unrolled_finite_difference_oracle(self):
        dcfg = tiny_detector(seed=2)
        assert dcfg.model.num_params <= 30
        rng = np.random.default_rng(0)
        poison_values = rng.normal(size=6) * 0.5
        attack = tiny_series(rng.normal(size=8) * 0.5)
        lr, steps = 0.05, 12
        w0 = nn_core.init_params(dcfg.model)

        batch = window_batch(tiny_series(poison_values), dcfg)
        _, traj, _ = nn_core.train(
            w0, batch, TrainConfig(lr, steps, stop_loss=1e-12, record_trajectory=True)
        )
        assert traj.steps == steps

        poison = PoisonPoint(tiny_series(poison_values), span=(0, 6))
        analytic = get_poison_grad(traj, attack, poison, dcfg)

        h = 1e-5
        fd = np.zeros(6)
        for i in range(6):
            up, dn = poison_values.copy(), poison_values.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                self.unrolled_pipeline(dcfg, w0, up, attack, steps, lr)
                - self.unrolled_pipeline(dcfg, w0, dn, attack, steps, lr)
            ) / (2 * h)
        rel = np.max(np.abs(analytic[:, 0] - fd)) / np.max(np.abs(fd))
        assert rel < 1e-3

    def test_one_step_linear_model_matches_chain_rule(self):
        dcfg = tiny_detector(activation="linear", seed=5, scale=0.4)
        rng = np.random.default_rng(1)
        poison_values = rng.normal(size=5) * 0.4
        attack = tiny_series(rng.normal(size=6) * 0.4)
        lr = 0.1
        w0 = nn_core.init_params(dcfg.model)
        batch = window_batch(tiny_series(poison_values), dcfg)
        _, traj, _ = nn_core.train(w0, batch, TrainConfig(lr, 1, 1e-12, record_trajectory=True))
        poison = PoisonPoint(tiny_series(poison_values), span=(0, 5))
        analytic = get_poison_grad(traj, attack, poison, dcfg)
        h = 1e-6
        fd = np.zeros(5)
        for i in range(5):
            up, dn = poison_values.copy(), poison_values.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                self.unrolled_pipeline(dcfg, w0, up, attack, 1, lr)
                - self.unrolled_pipeline(dcfg, w0, dn, attack, 1, lr)
            ) / (2 * h)
        assert np.max(np.abs(analytic[:, 0] - fd)) / np.max(np.abs(fd)) < 1e-6

    @staticmethod
    def reversal_and_reference_loop(steps):
        """get_poison_grad's arguments for a fit of `steps` epochs on clean
        plus poison windows, and that reversal as a loop of public calls."""
        exp, dcfg, _ = multi_seq_setup(size=3)
        poison = PoisonPoint(exp.clean.with_values(exp.clean.values[slice(*exp.span)]), span=exp.span)
        args = fit_to_reverse(exp.train, exp.attack, poison, dcfg, steps)
        expected, peak = reference_reversal(*args)
        assert peak <= 1e50  # get_poison_grad would rescale
        return args, expected

    @staticmethod
    def single_window_reversal_and_reference_loop(steps):
        """As reversal_and_reference_loop, in SINGLE_SEQ's layout: every
        series is cut to the same 12 rows around the attack, and a window
        spans all of them, so the poison sequence is one window."""
        exp, _, _ = multi_seq_setup(size=3)
        model = ModelConfig(input_size=24, code_size=2, inflation_factor=1, init_seed=3, init_scale=0.3)
        dcfg = DetectorConfig(model=model, window_length=12, threshold=0.2)

        def cut(series):
            return series.with_values(series.values[52:64])

        poison = PoisonPoint(cut(exp.clean), span=(0, 12))
        args = fit_to_reverse([cut(s) for s in exp.train], cut(exp.attack), poison, dcfg, steps)
        expected, peak = reference_reversal(*args)
        assert peak <= 1e50  # get_poison_grad would rescale
        return args, expected

    @pytest.mark.bit_exact
    def test_matches_public_reference_loop_bit_exact(self):
        args, expected = self.reversal_and_reference_loop(150)
        got = get_poison_grad(*args)
        assert np.any(got != 0.0)
        assert np.array_equal(got, expected)

    @pytest.mark.bit_exact
    @pytest.mark.parametrize(
        "steps", [0, 1, nn_core.REVERSE_BLOCK - 1, nn_core.REVERSE_BLOCK, nn_core.REVERSE_BLOCK + 1]
    )
    def test_any_count_of_checkpoint_blocks_matches_reference_loop(self, steps):
        args, expected = self.reversal_and_reference_loop(steps)
        got = get_poison_grad(*args)
        assert np.any(got != 0.0) or steps == 0
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.bit_exact
    @pytest.mark.parametrize("steps", [1, nn_core.REVERSE_BLOCK + 1, 150])
    def test_single_window_detector_matches_reference_loop_bit_exact(self, steps):
        # one window per sequence: the count < window_length scatter branch
        args, expected = self.single_window_reversal_and_reference_loop(steps)
        assert len(window_batch(args[2].series, args[3])) < args[3].window_length
        got = get_poison_grad(*args)
        assert np.any(got != 0.0)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.bit_exact
    def test_rescaled_reversal_stays_parallel_to_the_unrescaled_loop(self):
        # 40 reverse steps at a rate of 50 through one repeated checkpoint:
        # |dw| passes 1e50, so get_poison_grad divides dw and dyc by their
        # peak, and every later step runs on the new dw array
        (traj, attacked, poison, dcfg), _ = self.reversal_and_reference_loop(40)
        cps = np.repeat(traj.checkpoints[-1:], 41, axis=0)
        cps.setflags(write=False)
        args = (nn_core.TrainTrajectory(cps, 50.0), attacked, poison, dcfg)
        expected, peak = reference_reversal(*args)
        assert 1e50 < peak and np.isfinite(expected).all()
        got = get_poison_grad(*args)
        assert np.isfinite(got).all() and np.max(np.abs(got)) < np.max(np.abs(expected))
        cos = np.vdot(got, expected) / (np.linalg.norm(got) * np.linalg.norm(expected))
        assert cos == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("steps", [0, 1, nn_core.REVERSE_BLOCK, 2 * nn_core.REVERSE_BLOCK + 3])
    def test_one_hvp_both_call_per_reverse_step(self, steps, monkeypatch):
        args, _ = self.reversal_and_reference_loop(steps)
        calls = []
        hvp_both = nn_core.hvp_both
        monkeypatch.setattr(nn_core, "hvp_both", lambda lin, v: calls.append(lin) or hvp_both(lin, v))
        get_poison_grad(*args)
        assert len(calls) == steps == args[0].steps
        assert len({id(lin) for lin in calls}) == steps

    def test_no_training_steps_gives_zero_gradient(self):
        dcfg = tiny_detector()
        w0 = nn_core.init_params(dcfg.model)
        traj = nn_core.TrainTrajectory(w0.flatten()[None], 0.05)
        poison = PoisonPoint(tiny_series(np.zeros(4)), span=(0, 4))
        g = get_poison_grad(traj, tiny_series(np.ones(6)), poison, dcfg)
        assert np.all(g == 0.0)


def fit_to_reverse(train, attacked, poison, dcfg, steps):
    """get_poison_grad's arguments for a fit of `steps` epochs at rate 0.8
    on the training sequences' windows plus the poison's."""
    pois_batch = window_batch(poison.series, dcfg)
    data = np.vstack([window_batch(s, dcfg) for s in train] + [pois_batch])
    w0 = nn_core.init_params(dcfg.model)
    _, traj, _ = nn_core.train(w0, data, TrainConfig(0.8, steps, 1e-9, record_trajectory=True))
    assert traj.steps == steps
    return traj, attacked, poison, dcfg


def reference_reversal(traj, attacked, poison, dcfg):
    """get_poison_grad as a loop of public calls, with validated weights and
    fresh arrays at every step and no rescaling: the gradient, and the
    largest |dw| entry any step reached."""
    cfg, cps, lr = dcfg.model, traj.checkpoints, traj.learning_rate
    pois_batch = window_batch(poison.series, dcfg)
    dw = nn_core.grad_w(ModelParams(cfg, cps[-1]), window_batch(attacked, dcfg))
    dyc, peak = np.zeros_like(poison.values), 0.0
    for t in range(traj.steps, 0, -1):
        r_gw, r_gx = nn_core.hvp_both(nn_core.linearize(ModelParams(cfg, cps[t - 1]), pois_batch), dw)
        dyc = dyc - lr * scatter_windows(r_gx, poison.series.length, dcfg)
        dw = dw - lr * r_gw
        peak = max(peak, float(np.max(np.abs(dw))))
    return dyc, peak


def reference_attack_init(data, params, cfg, dcfg):
    """attack-based init_poison as a plain two-phase walk: test the attack,
    then step from the lowest-loss sequence so far, decaying the rate after a
    step that does not lower the loss. Returns (values, iteration, source)."""
    lo, hi = data.span
    best = data.attack.values[lo:hi]
    if score(params, data.attack.with_values(best), dcfg).alert_count == 0:
        return best, 0, "attack-init"
    lr, failed = cfg.adv_learning_rate, 0
    best_loss = series_loss(params, data.attack.with_values(best), dcfg)
    for it in range(1, cfg.max_iters + 1):
        g = poisoning.series_objective_grad(params, data.attack.with_values(best), dcfg)
        gmax = float(np.max(np.abs(g)))
        if gmax < 1e-12:
            break
        cand = best - lr * g / gmax
        if score(params, data.attack.with_values(cand), dcfg).alert_count == 0:
            return cand, it, "attack-init"
        cur_loss = series_loss(params, data.attack.with_values(cand), dcfg)
        if cur_loss < best_loss:
            best, best_loss, failed, lr = cand, cur_loss, 0, cfg.adv_learning_rate
        else:
            failed += 1
            lr *= poisoning.DECAY**failed
            if lr <= LAMBDA_EPS:
                break
    return data.clean.values[lo:hi], 0, "attack-init-fallback-benign"


class TestInitPoison:
    def test_benign_mode_returns_pure_signal_slice(self):
        data, dcfg, tcfg = multi_seq_setup(size=4)
        params, _, _ = nn_core.train(
            nn_core.init_params(dcfg.model),
            np.concatenate([window_batch(s, dcfg) for s in data.train]),
            tcfg,
        )
        p = init_poison(data, params, PoisonConfig(init_mode="benign-data"), dcfg)
        span = data.span
        assert np.array_equal(p.values, data.clean.values[span[0] : span[1]])
        assert p.source == "benign-init"

    def test_quiet_attack_returned_unchanged(self):
        data, dcfg, tcfg = multi_seq_setup(size=6, magnitude=0.05)
        base = train_test(run_state(data, dcfg, tcfg))
        p = init_poison(data, base.params, PoisonConfig(init_mode="attack-based"), dcfg)
        span = data.span
        assert p.iteration_born == 0
        assert np.array_equal(p.values, data.attack.values[span[0] : span[1]])

    def test_attack_based_reduces_loss_and_is_quiet(self):
        data, dcfg, tcfg = multi_seq_setup(size=10, magnitude=0.3)
        base = train_test(run_state(data, dcfg, tcfg))
        attacked, span = data.attack, data.span
        attack_slice = attacked.values[span[0] : span[1]]
        assert score(base.params, SeriesMatrix(attack_slice, attacked.feature_names), dcfg).alert_count > 0
        p = init_poison(
            data, base.params, PoisonConfig(init_mode="attack-based", adv_learning_rate=0.05, max_iters=200), dcfg
        )
        cand = p.series
        assert score(base.params, cand, dcfg).alert_count == 0
        loss_attack = series_loss(base.params, SeriesMatrix(attack_slice, attacked.feature_names), dcfg)
        assert series_loss(base.params, cand, dcfg) < loss_attack

    def test_walk_that_finds_no_quiet_sequence_falls_back_to_benign(self):
        # three steps of 0.05 do not quiet a 1.0 attack
        data, dcfg, tcfg = multi_seq_setup(size=4, magnitude=1.0)
        base = train_test(run_state(data, dcfg, tcfg))
        cfg = PoisonConfig(init_mode="attack-based", adv_learning_rate=0.05, max_iters=3)
        p = init_poison(data, base.params, cfg, dcfg)
        lo, hi = data.span
        assert p.source == "attack-init-fallback-benign"
        assert (p.kind, p.iteration_born, p.span) == ("adversarial", 0, data.span)
        assert np.array_equal(p.values, data.clean.values[lo:hi])

    @pytest.mark.parametrize(
        "magnitude, rate, iters, ascent",
        [
            (0.05, 0.3, 50, False),  # the attack is already quiet
            (1.0, 0.05, 3, False),  # the budget runs out
            (3.0, 5.0, 100, False),  # quiet at step 13, after 10 rejected steps
            (1.0, 0.3, 100, True),  # every step rejected down to the rate floor
        ],
    )
    def test_attack_based_walk_matches_two_phase_reference(self, monkeypatch, magnitude, rate, iters, ascent):
        data, dcfg, tcfg = multi_seq_setup(size=4, magnitude=magnitude)
        base = train_test(run_state(data, dcfg, tcfg))
        if ascent:
            grad = poisoning.series_objective_grad
            monkeypatch.setattr(poisoning, "series_objective_grad", lambda *args: -grad(*args))
        cfg = PoisonConfig(init_mode="attack-based", adv_learning_rate=rate, max_iters=iters)
        p = init_poison(data, base.params, cfg, dcfg)
        values, iteration, source = reference_attack_init(data, base.params, cfg, dcfg)
        assert (p.iteration_born, p.source) == (iteration, source)
        assert np.array_equal(p.values, values)


class TestPoisonInterp:
    def test_quiet_attack_succeeds_with_zero_points(self):
        data, dcfg, tcfg = multi_seq_setup(size=6, magnitude=0.05)
        r = run_pipeline(
            data, "interp", PoisonConfig(seed=1),
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        assert r.success
        assert r.adversarial_point_count == 0
        assert r.iterations == 0
        assert r.termination == "goal-met"

    def test_first_accepted_point_is_the_midpoint(self):
        data, dcfg, tcfg = multi_seq_setup(size=10, magnitude=0.2)
        span = data.span
        y0 = data.clean.values[span[0] : span[1]]  # the benign-data initial poison
        r = run_pipeline(
            data, "interp", PoisonConfig(seed=1, max_iters=60),
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        adversarial = [p for p in r.points if p.kind == "adversarial"]
        assert adversarial, "no poison accepted"
        target = data.attack.values[span[0] : span[1]]
        expected_first = y0 + (target - y0) / 2.0
        assert np.allclose(adversarial[0].values, expected_first, atol=1e-12)

    def test_accepted_points_form_monotone_interpolation(self):
        data, dcfg, tcfg = multi_seq_setup(size=10, magnitude=0.25)
        r = run_pipeline(
            data, "interp", PoisonConfig(seed=1, max_iters=80),
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        target = data.attack.values[data.span[0] : data.span[1]]
        gaps = [
            np.max(np.abs(target - p.values)) for p in r.points if p.kind == "adversarial"
        ]
        assert len(gaps) >= 2
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_prefix_replay_reproduces_accepted_outcomes(self):
        data, dcfg, tcfg = multi_seq_setup(size=8, magnitude=0.2)
        pcfg = PoisonConfig(seed=1, max_iters=40)
        r = run_pipeline(
            data, "interp", pcfg,
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        accepted = [e for e in r.iteration_log if e.accepted and e.points_so_far > 0]
        assert accepted
        for entry in accepted[:3]:
            state = run_state(data, dcfg, tcfg)
            state.points.extend(r.points[: entry.points_so_far])
            replay = train_test(state)
            assert (replay.alerts_val, replay.alerts_attack) == (entry.alerts_val, entry.alerts_attack)


class TestPoisonBackgrad:
    def backgrad_setup(self, size=10, magnitude=0.2):
        data, dcfg, _ = multi_seq_setup(size=size, magnitude=magnitude)
        tcfg = TrainConfig(1.0, 3000, 0.003, record_trajectory=True)
        return data, dcfg, tcfg

    def test_zero_magnitude_attack_is_immediate_success(self):
        data, dcfg, tcfg = self.backgrad_setup(size=6, magnitude=0.0)
        r = run_pipeline(
            data, "backgrad", PoisonConfig(seed=2, max_iters=10),
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        assert r.success
        assert r.iterations == 0
        assert r.adversarial_point_count <= 1
        assert r.termination == "goal-met"

    def test_alerting_initial_poison_rejected(self):
        data, dcfg, tcfg = self.backgrad_setup(size=6, magnitude=0.5)
        # benign init over the attacked series starts from the alerting attack slice
        with pytest.raises(ValueError, match="initial poison"):
            run_pipeline(
                replace(data, clean=data.attack), "backgrad", PoisonConfig(seed=2, max_iters=5),
                detector_cfg=dcfg, train_cfg=tcfg,
            )

    def test_pinned_bottom_cell_regression(self):
        # sine SIN_BOTTOM, magnitude 0.2, 10 training sequences, theta 0.2
        data, dcfg, tcfg = self.backgrad_setup(size=10, magnitude=0.2)
        r = run_pipeline(
            data, "backgrad",
            PoisonConfig(adv_learning_rate=0.3, seed=42, max_iters=40),
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        assert r.success
        assert r.adversarial_point_count >= 1
        # pinned regression values for this exact configuration
        assert r.adversarial_point_count == 5
        assert r.iterations == 39
        assert r.final_alerts == (0, 0, 0)

    def test_lambda_bookkeeping(self):
        data, dcfg, tcfg = self.backgrad_setup(size=6, magnitude=0.3)
        pcfg = PoisonConfig(adv_learning_rate=0.3, seed=2, max_iters=12)
        r = run_pipeline(
            data, "backgrad", pcfg,
            detector_cfg=dcfg, train_cfg=tcfg,
        )[1]
        lams = [e.lam for e in r.iteration_log]
        assert all(l <= pcfg.adv_learning_rate + 1e-15 for l in lams)
        if r.termination != "lambda-floor":
            assert all(l > LAMBDA_EPS for l in lams)

    def test_zero_gradient_ends_the_run_as_zero_gradient(self, monkeypatch):
        # a vanishing gradient is its own stop, not the step-size floor
        data, dcfg, tcfg = self.backgrad_setup(size=6, magnitude=0.3)
        monkeypatch.setattr(poisoning, "get_poison_grad", lambda traj, atk, poison, cfg: np.zeros_like(poison.values))
        r = run_pipeline(data, "backgrad", PoisonConfig(seed=2, max_iters=10), detector_cfg=dcfg, train_cfg=tcfg)[1]
        assert r.termination == "zero-gradient"
        assert not r.success
        assert r.iterations == 1
        assert r.iteration_log[-1].action == "zero poison gradient"


class TestPoisonResult:
    def test_json_round_trip_and_points_csv(self, tmp_path):
        p = PoisonPoint(SeriesMatrix(np.ones((3, 2)), ("a", "b")), iteration_born=1, span=(5, 8))
        r = PoisonResult(
            points=[p], iterations=2, termination="goal-met", algorithm="interp",
            iteration_log=[IterationLog(1, 0.3, 2, 3, 4, 0.001, True, "ok", 5)],
        )
        jpath = tmp_path / "result.json"
        r.write_json(jpath)
        data = json.loads(jpath.read_text())
        assert data["success"] is True
        assert data["poison_points"] == 1
        assert data["iteration_log"][0]["accepted"] is True
        assert list(data["iteration_log"][0].items()) == [
            ("iteration", 1), ("lambda", 0.3), ("alerts_val", 2), ("alerts_attack", 3), ("alerts_candidate", 4),
            ("attack_loss", 0.001), ("accepted", True), ("action", "ok"), ("points_so_far", 5),
        ]
        cpath = tmp_path / "points.csv"
        r.write_points_csv(cpath, ("a", "b"))
        lines = cpath.read_text().splitlines()
        assert lines[0] == "point_index,kind,iteration_born,row,a,b"
        assert len(lines) == 4

    def test_unknown_termination_rejected(self):
        with pytest.raises(ValueError, match="unknown termination 'gave-up'"):
            PoisonResult(points=[], iterations=0, termination="gave-up", algorithm="interp")

    def test_success_and_pad_count_follow_termination_and_points(self):
        series = SeriesMatrix(np.zeros((3, 1)), ("x",))
        points = [PoisonPoint(series, kind="clean-pad"), PoisonPoint(series), PoisonPoint(series, kind="clean-pad")]
        met = PoisonResult(points=points, iterations=1, termination="goal-met", algorithm="interp")
        spent = replace(met, termination="iter-budget")
        assert (met.success, met.clean_pads, met.adversarial_point_count) == (True, 2, 1)
        assert (spent.success, spent.clean_pads) == (False, 2)
        assert PoisonResult(points=[], iterations=0, termination="goal-met", algorithm="interp").clean_pads == 0

    def test_json_keys_keep_their_order(self):
        # poison_result.json's layout is a published format
        r = PoisonResult(points=[], iterations=0, termination="iter-budget", algorithm="backgrad")
        assert list(r.to_json_dict()) == [
            "schema", "algorithm", "success", "termination", "iterations", "clean_pads", "poison_points",
            "final_alerts", "points", "iteration_log",
        ]
        assert r.to_json_dict()["success"] is False


class TestLeverageBound:
    """Under the pinned MULTI_SEQ settings the attack has more pull on the
    detector than a poison: retrained with up to two verbatim copies of the
    attack's own poison span beside the 10 clean sequences, the detector
    still alerts on the attack at magnitude 0.2. Recorded largest residuals
    at k = 2: 0.208 (SIN_BOTTOM) and 0.211 (SIN_TOP), against a threshold
    of 0.2."""

    @pytest.mark.parametrize("location", ["SIN_BOTTOM", "SIN_TOP"])
    def test_copies_of_the_attack_leave_it_alerting(self, location):
        cell = replace(MULTI_SEQ, attack_magnitude=0.2, attack_location=location)
        data = build_experiment(cell)
        dcfg = cell.detector_config()
        cache = poisoning.TrainCache(data.train, dcfg, cell.train_config())
        a, b = data.span
        copy = PoisonPoint(data.attack.with_values(data.attack.values[a:b]), span=data.span)
        for k in range(3):
            params, _, _ = cache.fit((copy,) * k)
            report = score(params, data.attack, dcfg)
            assert report.alert_count > 0, f"{k} copies silenced the attack at {location}"
