import numpy as np
import pytest

from aepoison import nn_core
from aepoison.detector import (
    AlertReport,
    DetectorConfig,
    _scatter_windows,
    load_detector,
    reconstruct_series,
    save_detector,
    score,
    series_loss,
    series_objective_grad,
    window_batch,
)
from aepoison.nn_core import ModelConfig, ModelParams, TrainConfig
from aepoison.signals import SignalSpec, generate
from aepoison.timeseries import SeriesMatrix, WindowConfig


def series_1d(values):
    return SeriesMatrix(np.asarray(values, dtype=float)[:, None], ("x",))


def zero_model(window_len=2, features=1):
    """Linear model with all-zero weights: reconstruction is identically 0."""
    input_size = window_len * features
    cfg = ModelConfig(
        input_size=input_size, code_size=max(1, input_size // 2), inflation_factor=1,
        activation="linear", output_activation="linear", init_scale=0.0,
    )
    return nn_core.init_params(cfg), DetectorConfig(
        model=cfg, window=WindowConfig(window_len, 1), threshold=0.2
    )


def subspace_detector():
    """Detector that reconstructs exactly any constant-row series.

    The code basis spans windows of the form (a, b, a, b), i.e. length-2
    windows of a series whose rows are all equal, so those series are fixed
    points of the model (window length 2, 2 features).
    """
    cfg = ModelConfig(
        input_size=4, code_size=2, inflation_factor=1,
        activation="linear", output_activation="linear", init_scale=0.0,
    )
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]) / np.sqrt(2.0)
    eye = np.eye(4)
    params = ModelParams(
        cfg, ((eye, np.zeros(4)), (basis, np.zeros(2)), (basis.T, np.zeros(4)), (eye, np.zeros(4)))
    )
    dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 1), threshold=0.2)
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
    dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 1), threshold=0.2)
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
        dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 1), threshold=0.2)
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
            cfg = DetectorConfig(dcfg.model, dcfg.window, theta, dcfg.residual_mode)
            counts.append(score(params, s, cfg).alert_count)
        assert counts == sorted(counts, reverse=True)

    def test_window_mse_mode(self):
        params, dcfg = zero_model(window_len=2)
        cfg = DetectorConfig(dcfg.model, dcfg.window, 0.2, "window-mse")
        s = series_1d([1.0, 1.0, 0.0, 0.0])
        report = score(params, s, cfg)
        # window MSEs: (1,1)->1, (1,0)->.5, (0,0)->0 at start indices
        assert np.allclose(report.residuals[:3], [1.0, 0.5, 0.0])
        assert report.alert_count == 2

    def test_report_json_round_trip(self, tmp_path):
        params, dcfg = zero_model()
        report = score(params, series_1d([0.5, 0.0, 0.3]), dcfg)
        path = tmp_path / "report.json"
        report.write_json(path)
        import json

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
        dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 1), threshold=0.2)
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
        dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 1), threshold=0.2)
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
    @pytest.mark.parametrize(
        "length,features,stride,rows", [(2, 2, 1, 48), (100, 1, 1, 100), (3, 2, 2, 50), (4, 1, 3, 40)]
    )
    def test_matches_loop_reference_bit_for_bit(self, length, features, stride, rows):
        size = length * features
        cfg = ModelConfig(input_size=size, code_size=max(1, size // 2))
        dcfg = DetectorConfig(model=cfg, window=WindowConfig(length, stride), threshold=0.2)
        count = (rows - length) // stride + 1
        grad_batch = np.random.default_rng(rows).normal(size=(count, size)) * 1e3
        expected = np.zeros((rows, features))
        for k in range(count):
            expected[k * stride : k * stride + length] += grad_batch[k].reshape(length, features)
        assert np.array_equal(_scatter_windows(grad_batch, rows, dcfg), expected)


class TestOverlapConsistency:
    def test_non_overlapping_stride_equals_plain_model(self):
        cfg = ModelConfig(input_size=2, code_size=1, inflation_factor=2, init_seed=3, init_scale=0.4)
        params = nn_core.init_params(cfg)
        dcfg = DetectorConfig(model=cfg, window=WindowConfig(2, 2), threshold=0.2)
        s = series_1d(np.random.default_rng(4).normal(size=8))
        recon = reconstruct_series(params, s, dcfg)
        batch = window_batch(s, dcfg)
        preds = nn_core.forward(params, batch).reshape(-1, 1)
        assert np.allclose(recon.values, preds, atol=1e-14)


class TestDetectorCheckpoint:
    def test_round_trip(self, tmp_path):
        params, dcfg = zero_model()
        path = tmp_path / "detector.npz"
        save_detector(params, dcfg, path)
        loaded_params, loaded_cfg = load_detector(path)
        assert loaded_cfg == dcfg
        assert np.array_equal(loaded_params.flatten(), params.flatten())
