import json

import numpy as np
import pytest

from aepoison import nn_core
from aepoison.detector import (
    AlertReport,
    DetectorConfig,
    load_detector,
    reconstruct_series,
    save_detector,
    scatter_windows,
    score,
    series_loss,
    series_objective_grad,
    window_batch,
)
from aepoison.nn_core import ModelConfig, ModelParams, TrainConfig
from aepoison.signals import SignalSpec, generate
from aepoison.timeseries import SeriesMatrix


def series_1d(values):
    return SeriesMatrix(np.asarray(values, dtype=float)[:, None], ("x",))


def zero_model(window_len=2, features=1):
    """Linear model with all-zero weights: reconstruction is identically 0."""
    input_size = window_len * features
    cfg = ModelConfig(
        input_size=input_size, code_size=max(1, input_size // 2), inflation_factor=1,
        activation="linear", init_scale=0.0,
    )
    return nn_core.init_params(cfg), DetectorConfig(
        model=cfg, window_length=window_len, threshold=0.2
    )


def subspace_detector():
    """Detector that reconstructs exactly any constant-row series.

    The code basis spans windows of the form (a, b, a, b), i.e. length-2
    windows of a series whose rows are all equal, so those series are fixed
    points of the model (window length 2, 2 features).
    """
    cfg = ModelConfig(
        input_size=4, code_size=2, inflation_factor=1,
        activation="linear", init_scale=0.0,
    )
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)
    eye = np.eye(4)
    layers = ((eye, np.zeros(4)), (basis, np.zeros(2)), (basis.T, np.zeros(4)), (eye, np.zeros(4)))
    params = ModelParams(cfg, np.concatenate([a.ravel() for layer in layers for a in layer]))
    dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
    return params, dcfg


def constant_series(row, length=8):
    return SeriesMatrix(np.tile(np.asarray(row, dtype=float), (length, 1)), ("a", "b"))


def trained_sine_detector(channels=((1.0, 0.0), (0.5, 0.0)), size=6):
    spec0 = SignalSpec(period=20, length=100, noise_std=0.05, channels=channels, seed=0)
    train = [
        generate(SignalSpec(period=20, length=100, noise_std=0.05, channels=channels, seed=100 + i))
        for i in range(size)
    ]
    n = len(channels)
    cfg = ModelConfig(input_size=2 * n, code_size=n, inflation_factor=2, init_seed=3, init_scale=0.5)
    dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
    batch = np.concatenate([window_batch(s, dcfg) for s in train])
    params, _, _ = nn_core.train(nn_core.init_params(cfg), batch, TrainConfig(1.0, 3000, 0.003))
    return params, dcfg, spec0


class TestReconstructSeries:
    def test_single_window_equals_model_output(self):
        params, dcfg = zero_model(window_len=3)
        s = series_1d([0.5, -0.2, 0.9])
        recon = reconstruct_series(params, s, dcfg)
        assert np.allclose(recon.values, 0.0)

    def test_interior_point_is_mean_of_covering_windows(self):
        rng = np.random.default_rng(0)
        cfg = ModelConfig(input_size=2, code_size=1, inflation_factor=2, init_seed=4, init_scale=0.4)
        params = nn_core.init_params(cfg)
        dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
        s = series_1d(rng.normal(size=4))
        batch = window_batch(s, dcfg)
        preds = nn_core.forward(params, batch)
        recon = reconstruct_series(params, s, dcfg)
        # point 1 is covered by windows (0,1) and (1,2)
        expected = (preds[0, 1] + preds[1, 0]) / 2.0
        assert recon.values[1, 0] == pytest.approx(expected, rel=1e-14)
        # edge point 0 is covered only by window 0
        assert recon.values[0, 0] == pytest.approx(preds[0, 0], rel=1e-14)

    def test_identity_model_zero_residuals(self):
        params, dcfg = subspace_detector()
        s = constant_series([0.8, -0.3])
        recon = reconstruct_series(params, s, dcfg)
        assert np.allclose(recon.values, s.values, atol=1e-12)
        assert score(params, s, dcfg).alert_count == 0

    def test_shape_preserved(self):
        params, dcfg = zero_model(window_len=4)
        s = series_1d(np.arange(11.0))
        assert reconstruct_series(params, s, dcfg).values.shape == s.values.shape

    def test_series_shorter_than_window_rejected(self):
        params, dcfg = zero_model(window_len=4)
        with pytest.raises(ValueError, match="shorter"):
            reconstruct_series(params, series_1d([1.0, 2.0]), dcfg)


class TestScore:
    def test_alert_at_known_index(self):
        # zero model: residual[t] = |value[t]|
        params, dcfg = zero_model(window_len=2)
        report = score(params, series_1d([0.1, 0.25, 0.15]), dcfg)
        assert report.alert_count == 1
        assert report.alert_indices == (1,)
        assert np.allclose(report.residuals, [0.1, 0.25, 0.15])

    def test_perfect_model_never_alerts(self):
        params, dcfg = subspace_detector()
        report = score(params, constant_series([1.2, -0.7], length=12), dcfg)
        assert report.alert_count == 0

    def test_alert_monotone_in_threshold(self):
        params, dcfg = zero_model(window_len=2)
        s = series_1d(np.random.default_rng(5).normal(size=40))
        counts = []
        for theta in [0.05, 0.1, 0.2, 0.4, 0.8]:
            cfg = DetectorConfig(dcfg.model, dcfg.window_length, theta)
            counts.append(score(params, s, cfg).alert_count)
        assert counts == sorted(counts, reverse=True)

    def test_report_json_round_trip(self, tmp_path):
        params, dcfg = zero_model()
        report = score(params, series_1d([0.5, 0.0, 0.3]), dcfg)
        path = tmp_path / "report.json"
        report.write_json(path)
        data = json.loads(path.read_text())
        assert data["alert_count"] == report.alert_count
        assert data["alert_indices"] == list(report.alert_indices)

    def test_trained_detector_clean_on_validation(self):
        params, dcfg, spec0 = trained_sine_detector()
        val = generate(
            SignalSpec(period=20, length=100, noise_std=0.05, channels=spec0.channels, seed=991)
        )
        assert score(params, val, dcfg).alert_count == 0

    def test_trained_detector_residual_below_threshold_on_clean_window(self):
        params, dcfg, spec0 = trained_sine_detector()
        clean = generate(
            SignalSpec(period=20, length=100, noise_std=0.05, channels=spec0.channels, seed=992)
        )
        report = score(params, clean, dcfg)
        assert report.residuals.max() < 0.2


class TestSeriesObjectiveGrad:
    def test_zero_gradient_at_perfect_reconstruction(self):
        params, dcfg = subspace_detector()
        g = series_objective_grad(params, constant_series([0.4, 0.9]), dcfg)
        assert np.max(np.abs(g)) < 1e-12

    def test_matches_finite_differences_on_10x1_series(self):
        cfg = ModelConfig(input_size=2, code_size=1, inflation_factor=2, init_seed=6, init_scale=0.4)
        params = nn_core.init_params(cfg)
        dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
        s = series_1d(np.random.default_rng(8).normal(size=10))
        g = series_objective_grad(params, s, dcfg)
        h = 1e-6
        fd = np.zeros_like(s.values)
        for t in range(10):
            up = s.values.copy()
            dn = s.values.copy()
            up[t, 0] += h
            dn[t, 0] -= h
            fd[t, 0] = (
                series_loss(params, s.with_values(up), dcfg)
                - series_loss(params, s.with_values(dn), dcfg)
            ) / (2 * h)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_gradient_is_sum_of_per_window_contributions(self):
        cfg = ModelConfig(input_size=2, code_size=1, inflation_factor=2, init_seed=7, init_scale=0.4)
        params = nn_core.init_params(cfg)
        dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
        s = series_1d(np.random.default_rng(9).normal(size=6))
        g = series_objective_grad(params, s, dcfg)
        batch = window_batch(s, dcfg)
        k = batch.shape[0]
        total = np.zeros_like(s.values)
        for i in range(k):
            per_win = nn_core.grad_x(params, batch[i : i + 1]) / k
            total[i : i + 2] += per_win.reshape(2, 1)
        assert np.max(np.abs(g - total)) < 1e-12


class TestScatterWindows:
    @staticmethod
    def check_against_loop(length, features, rows, signed_zeros):
        size = length * features
        cfg = ModelConfig(input_size=size, code_size=max(1, size // 2))
        dcfg = DetectorConfig(model=cfg, window_length=length, threshold=0.2)
        count = rows - length + 1
        grad_batch = np.random.default_rng(rows).normal(size=(count, size)) * 1e3
        if signed_zeros:
            # -0.0 in every other entry, and rows whose every window gives -0.0
            grad_batch[:, ::2] = -0.0
            grad_batch[: count // 2, features : 2 * features] = -0.0
        expected = np.zeros((rows, features))
        for k in range(count):
            expected[k : k + length] += grad_batch[k].reshape(length, features)
        got = scatter_windows(grad_batch, rows, dcfg)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes()

    # (30, 2, 40) and (100, 1, 100) have fewer windows than window rows
    CASES = [(2, 2, 48), (100, 1, 100), (3, 2, 50), (4, 1, 40), (30, 2, 40)]

    @pytest.mark.parametrize("length,features,rows", CASES)
    def test_matches_loop_reference_bit_for_bit(self, length, features, rows):
        self.check_against_loop(length, features, rows, signed_zeros=False)

    @pytest.mark.parametrize("length,features,rows", CASES)
    def test_signed_zeros_match_loop_reference_bit_for_bit(self, length, features, rows):
        self.check_against_loop(length, features, rows, signed_zeros=True)

    # the windows of a 10-row, 2-feature series under 3-row windows are (8, 6)
    @pytest.mark.parametrize("shape,rows", [((8, 6), 11), ((8, 6), 9), ((8, 3), 10), ((8, 9), 10), ((48,), 10)])
    def test_batch_that_does_not_window_the_series_is_refused(self, shape, rows):
        # a longer series would keep zero rows, a wider window another feature count
        dcfg = DetectorConfig(model=ModelConfig(input_size=6, code_size=3), window_length=3, threshold=0.2)
        assert scatter_windows(np.ones((8, 6)), 10, dcfg).shape == (10, 2)
        with pytest.raises(ValueError, match="windows"):
            scatter_windows(np.ones(shape), rows, dcfg)


class TestDetectorCheckpoint:
    def test_round_trip(self, tmp_path):
        params, dcfg = zero_model()
        path = tmp_path / "detector.npz"
        save_detector(params, dcfg, path)
        loaded_params, loaded_cfg = load_detector(path)
        assert loaded_cfg == dcfg
        assert np.array_equal(loaded_params.flatten(), params.flatten())

    @staticmethod
    def saved_with_scoring_rule(path, rule):
        """A detector file as older versions wrote it, naming its scoring rule."""
        params, dcfg = zero_model()
        save_detector(params, dcfg, path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["detector"]).decode())
            flat = data["params"]
        assert "residual_mode" not in meta
        meta["residual_mode"] = rule
        np.savez(path, detector=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), params=flat)
        return params, dcfg

    def test_file_with_a_nan_parameter_is_refused(self, tmp_path):
        params, dcfg = zero_model()
        path = tmp_path / "detector.npz"
        save_detector(params, dcfg, path)
        with np.load(path) as data:
            meta, flat = data["detector"], data["params"].copy()
        flat[0] = np.nan
        np.savez(path, detector=meta, params=flat)
        with pytest.raises(ValueError, match="non-finite"):
            load_detector(path)

    @pytest.mark.parametrize("key", ["window_stride", "encoder_layers"])
    def test_file_naming_a_removed_key_is_refused(self, tmp_path, key):
        # files written before the window stride (a header key) and the layer
        # counts (model keys) were removed
        params, dcfg = zero_model()
        path = tmp_path / "detector.npz"
        save_detector(params, dcfg, path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["detector"]).decode())
            flat = data["params"]
        assert key not in meta and key not in meta["model"]
        (meta["model"] if key == "encoder_layers" else meta)[key] = 1
        np.savez(path, detector=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), params=flat)
        with pytest.raises(TypeError, match=key):
            load_detector(path)

    def test_file_naming_a_removed_scoring_rule_is_refused(self, tmp_path):
        # per-point-abs is the only rule, so the key that named it is refused too
        path = tmp_path / "detector.npz"
        for rule in ("window-mse", "per-point-abs"):
            self.saved_with_scoring_rule(path, rule)
            with pytest.raises(TypeError, match="residual_mode"):
                load_detector(path)
