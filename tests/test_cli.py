import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aepoison
from aepoison.cli import main
from aepoison.detector import load_detector
from aepoison.nn_core import TrainConfig
from aepoison.poisoning import TrainCache
from aepoison.timeseries import ingest_csv


@pytest.fixture
def signal_json(tmp_path):
    p = tmp_path / "signal.json"
    p.write_text(
        json.dumps(
            {
                "schema": "aepoison/signal/v1",
                "period": 20,
                "length": 100,
                "noise_std": 0.05,
                "channels": [[1.0, 0.0], [0.5, 0.0]],
                "seed": 11,
            }
        )
    )
    return p


@pytest.fixture
def detector_json(tmp_path):
    p = tmp_path / "detector.json"
    p.write_text(
        json.dumps(
            {
                "schema": "aepoison/detector/v1",
                "model": {
                    "input_size": 4,
                    "code_size": 2,
                    "inflation_factor": 2,
                    "activation": "tanh",
                    "init_seed": 3,
                    "init_scale": 0.5,
                },
                "window_length": 2,
                "threshold": 0.2,
                "train": {"learning_rate": 1.0, "max_epochs": 1500, "stop_loss": 0.003},
            }
        )
    )
    return p


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


def test_runtime_error_exit_code(tmp_path):
    assert main(["gen", "--spec", str(tmp_path / "missing.json"), "--out", str(tmp_path / "x.csv")]) == 2


def test_gen_attack_train_score_poison_pipeline(tmp_path, signal_json, detector_json):
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    s = ingest_csv(series_csv)
    assert s.values.shape == (100, 2)

    # training set: a few reseeded copies
    train_paths = []
    for i in range(4):
        p = tmp_path / f"train{i}.csv"
        assert main(["--seed", str(100 + i), "gen", "--spec", str(signal_json), "--out", str(p)]) == 0
        train_paths.append(str(p))
    val_csv = tmp_path / "val.csv"
    assert main(["--seed", "991", "gen", "--spec", str(signal_json), "--out", str(val_csv)]) == 0
    clean_csv = tmp_path / "clean.csv"
    assert main(["--seed", "555", "gen", "--spec", str(signal_json), "--out", str(clean_csv)]) == 0

    attack_json = tmp_path / "attack.json"
    attack_json.write_text(
        json.dumps(
            {
                "schema": "aepoison/attack/v1",
                "location": 55,
                "magnitude": 0.1,
                "duration": 5,
                "sign": "away-from-zero",
            }
        )
    )
    attacked_csv = tmp_path / "attacked.csv"
    range_json = tmp_path / "range.json"
    assert (
        main(
            [
                "attack",
                "--series", str(clean_csv),
                "--attack", str(attack_json),
                "--feature", "ch0",
                "--period", "20",
                "--out", str(attacked_csv),
                "--range-out", str(range_json),
            ]
        )
        == 0
    )
    rng_info = json.loads(range_json.read_text())
    assert rng_info["stop"] - rng_info["start"] == 5

    model_npz = tmp_path / "model.npz"
    assert (
        main(["train", "--series", *train_paths, "--detector", str(detector_json), "--out", str(model_npz)])
        == 0
    )
    report_json = tmp_path / "report.json"
    assert (
        main(["score", "--model", str(model_npz), "--series", str(val_csv), "--out", str(report_json)]) == 0
    )
    report = json.loads(report_json.read_text())
    assert report["alert_count"] == 0

    out_dir = tmp_path / "poison_out"
    rc = main(
        [
            "--out-dir", str(out_dir),
            "poison",
            "--algo", "interp",
            "--train", *train_paths,
            "--val", str(val_csv),
            "--attack", str(attacked_csv),
            "--clean", str(clean_csv),
            "--attack-range", str(range_json),
            "--detector", str(detector_json),
            "--max-iters", "10",
        ]
    )
    assert rc == 0
    result = json.loads((out_dir / "poison_result.json").read_text())
    assert result["schema"] == "aepoison/poison-result/v1"
    assert (out_dir / "poison_points.csv").exists()

    backgrad_dir = tmp_path / "poison_backgrad_out"
    rc = main(
        [
            "--out-dir", str(backgrad_dir),
            "poison",
            "--algo", "backgrad",
            "--train", *train_paths,
            "--val", str(val_csv),
            "--attack", str(attacked_csv),
            "--clean", str(clean_csv),
            "--attack-range", str(range_json),
            "--detector", str(detector_json),
            "--max-iters", "2",
        ]
    )
    assert rc == 0
    result = json.loads((backgrad_dir / "poison_result.json").read_text())
    assert result["algorithm"] == "backgrad"
    assert result["iterations"] <= 2


def test_grid_command(tmp_path):
    grid_json = tmp_path / "grid.json"
    grid_json.write_text(
        json.dumps(
            {
                "schema": "aepoison/grid/v1",
                "axes": {"attack_magnitude": [0.0, 0.05]},
                "base": {
                    "training_set_size": 3,
                    "signal_length": 60,
                    "channels": [[1.0, 0.0], [0.5, 0.0]],
                    "subsequence_length": 2,
                    "train_iterations": 300,
                    "learning_rate": 1.0,
                    "stop_loss": 0.003,
                    "init_scale": 0.5,
                    "adversarial_iterations": 5,
                    "algorithm": "interp",
                },
                "budget": 4,
                "seed": 3,
            }
        )
    )
    out_dir = tmp_path / "grid_out"
    assert main(["--out-dir", str(out_dir), "grid", "--spec", str(grid_json)]) == 0
    assert (out_dir / "records.jsonl").exists()
    assert (out_dir / "records.csv").exists()
    assert (out_dir / "plot_points_vs_magnitude.csv").exists()


def test_grid_refuses_a_removed_option(tmp_path):
    # a spec the grid cannot be built from is a usage error (exit 1)
    base = {"training_set_size": 3, "signal_length": 60}
    refused = [
        {"base": {**base, "retrain_mode": "reservoir"}},
        {"base": {**base, "attack_clip": 0.1}},
        {"base": {**base, "waveform": "sine"}},
        {"base": {**base, "inflation_factor": 2}},
        {"base": {"trainig_set_size": 3, "signal_length": 60}},
        {"base": base, "budgt": 1},
        {"base": base, "repetitions": 1},
        {"base": base, "axes": [["attack_magnitude", [0.0]]]},
        # an axis value is checked as the same value in base is
        {"base": base, "axes": {"algorithm": ["magic"]}},
        {"base": base, "axes": {"training_set_size": [0]}},
        # a cell value the configs a run builds would refuse is refused up front
        {"base": base, "axes": {"init_mode": ["benign"], "attack_location": ["SIN_MIDDLE"]}},
        # an attack whose rows [a, a + 7) the cell cannot place in the series
        *({"base": {**base, "signal_length": 100, "attack_location": a}} for a in (500, -3, 95)),
        {"base": {**base, "signal_length": 20}},  # SIN_BOTTOM backs off to rows [15, 22)
    ]
    for i, extra in enumerate(refused):
        grid_json = tmp_path / f"grid{i}.json"
        grid_json.write_text(
            json.dumps({"schema": "aepoison/grid/v1", "axes": {"attack_magnitude": [0.0]}, "budget": 1, **extra})
        )
        out_dir = tmp_path / f"grid_out{i}"
        assert main(["--out-dir", str(out_dir), "grid", "--spec", str(grid_json)]) == 1, extra
        assert not (out_dir / "records.jsonl").exists()


def test_non_finite_config_number_is_usage_error(tmp_path, signal_json, detector_json):
    # JSON's NaN and Infinity parse as floats, and every comparison with NaN is
    # false, so each config refuses a non-finite number itself: exit 1, no output
    nan, inf = float("nan"), float("inf")
    base = {"training_set_size": 3, "signal_length": 60}
    refused = [
        {"threshold": nan, "stop_loss": nan},
        *({name: value} for name in ("threshold", "stop_loss", "learning_rate") for value in (nan, inf)),
        *({name: value} for name in ("attack_magnitude", "noise_std", "adv_learning_rate") for value in (nan, inf)),
        {"init_scale": inf},
        {"channels": [[1.0, nan]]},
    ]
    for i, extra in enumerate(refused):
        grid_json = tmp_path / f"grid{i}.json"
        spec = {"schema": "aepoison/grid/v1", "axes": {"seed": [0]}, "base": {**base, **extra}, "budget": 1}
        grid_json.write_text(json.dumps(spec))
        assert "NaN" in grid_json.read_text() or "Infinity" in grid_json.read_text()
        out_dir = tmp_path / f"grid_out{i}"
        assert main(["--out-dir", str(out_dir), "grid", "--spec", str(grid_json)]) == 1, extra
        assert not (out_dir / "records.jsonl").exists()
    series_csv, model = tmp_path / "series.csv", tmp_path / "model.npz"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    detector = json.loads(detector_json.read_text())
    for threshold in (nan, inf):
        detector_json.write_text(json.dumps({**detector, "threshold": threshold}))
        argv = ["train", "--series", str(series_csv), "--detector", str(detector_json), "--out", str(model)]
        assert main(argv) == 1, threshold
        assert not model.exists()


def test_non_integer_config_count_is_usage_error(tmp_path):
    # a fit's stop test is steps == max_epochs, so a fractional epoch count
    # never stops it: each integer field is refused when the grid is built.
    # The run is a child with a time limit, so a fit that never ends fails it.
    src = str(Path(aepoison.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    base = {"training_set_size": 2, "signal_length": 60, "adversarial_iterations": 1}
    refused = [
        ({"train_iterations": 2.5}, {}),
        ({"adversarial_iterations": 1.5}, {}),
        ({"training_set_size": 2.0}, {}),
        ({"seed": 1.5}, {}),
        ({"period": 20.0}, {}),
        ({"attack_duration": 7.5}, {}),
        ({"subsequence_length": 2.0}, {}),
        ({"attack_location": 30.5}, {}),
        ({}, {"budget": 1.5}),
        ({}, {"seed": 0.5}),
    ]
    for i, (extra, top) in enumerate(refused):
        grid_json = tmp_path / f"grid{i}.json"
        spec = {"schema": "aepoison/grid/v1", "axes": {"seed": [0]}, "base": {**base, **extra}, "budget": 1, **top}
        grid_json.write_text(json.dumps(spec))
        out_dir = tmp_path / f"grid_out{i}"
        argv = ["--out-dir", str(out_dir), "grid", "--spec", str(grid_json)]
        run = subprocess.run(
            [sys.executable, "-m", "aepoison.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert run.returncode == 1, (extra, top, run.stderr[-2000:])
        assert "integer" in run.stderr, run.stderr[-2000:]
        assert not (out_dir / "records.jsonl").exists()


def test_global_seed_reaches_grid_and_train(tmp_path, signal_json, detector_json):
    # --seed replaces the grid's seed and the model's init_seed, so each
    # seeded run equals the run of a file holding that seed
    def records(out_dir):
        rows = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
        for row in rows:
            row.pop("wall_time_s")
        return rows

    grid = {
        "schema": "aepoison/grid/v1",
        "axes": {"attack_magnitude": [0.1]},
        "base": {"training_set_size": 2, "signal_length": 60, "channels": [[1.0, 0.0], [0.5, 0.0]],
                 "train_iterations": 50, "adversarial_iterations": 1},
        "budget": 1,
        "seed": 0,
    }
    grid_json = tmp_path / "grid.json"
    grid_json.write_text(json.dumps(grid))
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    detector = json.loads(detector_json.read_text())
    grids, weights = {}, {}
    for seed in (1, 2):
        seeded_grid = tmp_path / f"grid-seed{seed}.json"
        seeded_grid.write_text(json.dumps({**grid, "seed": seed}))
        seeded_detector = tmp_path / f"detector-seed{seed}.json"
        seeded_detector.write_text(json.dumps({**detector, "model": {**detector["model"], "init_seed": seed}}))
        runs = {"flag": (grid_json, detector_json, ["--seed", str(seed)]), "file": (seeded_grid, seeded_detector, [])}
        for how, (grid_path, detector_path, flag) in runs.items():
            out_dir, model = tmp_path / f"grid-{how}{seed}", tmp_path / f"model-{how}{seed}.npz"
            assert main([*flag, "--out-dir", str(out_dir), "grid", "--spec", str(grid_path)]) == 0
            assert main([*flag, "train", "--series", str(series_csv), "--detector", str(detector_path),
                         "--out", str(model)]) == 0
            grids[how, seed] = records(out_dir)
            weights[how, seed] = load_detector(model)[0].flatten().tobytes()
    for results in (grids, weights):
        assert results["flag", 1] == results["file", 1]
        assert results["flag", 2] == results["file", 2]
        assert results["flag", 1] != results["flag", 2]


def test_config_that_cannot_be_built_is_usage_error(tmp_path, signal_json, detector_json):
    # the same rule as a grid spec: exit 1, and no output file is written
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    signal = json.loads(signal_json.read_text())
    attack = {"schema": "aepoison/attack/v1", "location": 55, "magnitude": 0.1, "duration": 5}
    detector = json.loads(detector_json.read_text())
    windowless = {k: v for k, v in detector.items() if k != "window_length"}
    bad = {
        "signal_removed_key": {**signal, "amplitude": 2.0},
        "signal_removed_waveform": {**signal, "waveform": "sine"},
        "signal_bad_value": {**signal, "period": 1},
        "attack_misspelled": {**{k: v for k, v in attack.items() if k != "magnitude"}, "magnitud": 0.1},
        "attack_removed_clip": {**attack, "clip": 0.05},
        "detector_unknown_model_key": {**detector, "model": {**detector["model"], "widening": 3}},
        "detector_without_train": {k: v for k, v in detector.items() if k != "train"},
        "detector_old_window": {**windowless, "window": {"length": 2, "stride": 1}},
        "detector_removed_layers": {**detector, "model": {**detector["model"], "encoder_layers": 1}},
    }
    paths = {}
    for name, data in bad.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    out = tmp_path / "out"
    commands = [
        ["gen", "--spec", str(paths["signal_removed_key"]), "--out", str(out)],
        ["gen", "--spec", str(paths["signal_removed_waveform"]), "--out", str(out)],
        ["gen", "--spec", str(paths["signal_bad_value"]), "--out", str(out)],
        *(
            ["attack", "--series", str(series_csv), "--attack", str(paths[name]), "--feature", "ch0",
             "--period", "20", "--out", str(out), "--range-out", str(tmp_path / "range.json")]
            for name in ("attack_misspelled", "attack_removed_clip")
        ),
        ["train", "--series", str(series_csv), "--detector", str(paths["detector_without_train"]),
         "--out", str(out)],
    ]
    for name in ("detector_unknown_model_key", "detector_old_window", "detector_removed_layers"):
        commands += [
            ["train", "--series", str(series_csv), "--detector", str(paths[name]), "--out", str(out)],
            ["--out-dir", str(out), "poison", "--algo", "interp", "--train", str(series_csv),
             "--val", str(series_csv), "--attack", str(series_csv), "--clean", str(series_csv),
             "--attack-range", str(tmp_path / "missing-range.json"), "--detector", str(paths[name])],
        ]
    # the threshold lives in the detector file; there is no global override
    model = tmp_path / "detector.npz"
    assert main(["train", "--series", str(series_csv), "--detector", str(detector_json), "--out", str(model)]) == 0
    commands.append(["--threshold", "0.3", "score", "--model", str(model), "--series", str(series_csv),
                     "--out", str(out)])
    for argv in commands:
        assert main(argv) == 1, argv
        assert not out.exists(), argv
        assert not (tmp_path / "range.json").exists()


def test_refused_detector_file_is_usage_error(tmp_path, signal_json, detector_json, capsys):
    # a detector file naming a removed key, or holding a bad value, is refused
    # as a config file is: exit 1 and no report; a missing one is a runtime error
    series_csv = tmp_path / "series.csv"
    model = tmp_path / "detector.npz"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    assert main(["train", "--series", str(series_csv), "--detector", str(detector_json), "--out", str(model)]) == 0
    with np.load(model) as data:
        meta = json.loads(bytes(data["detector"]).decode())
        flat = data["params"]
    nan_params = flat.copy()
    nan_params[0] = np.nan
    bad = {
        "window_stride": ({**meta, "window_stride": 1}, flat),
        "residual_mode": ({**meta, "residual_mode": "per-point-abs"}, flat),
        "encoder_layers": ({**meta, "model": {**meta["model"], "encoder_layers": 1}}, flat),
        "nan_parameter": (meta, nan_params),
        "sigmoid": ({**meta, "model": {**meta["model"], "activation": "sigmoid"}}, flat),
    }
    out = tmp_path / "report.json"
    errors = {}
    for name, (header, params) in bad.items():
        path = tmp_path / f"{name}.npz"
        np.savez(path, detector=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8), params=params)
        capsys.readouterr()
        assert main(["score", "--model", str(path), "--series", str(series_csv), "--out", str(out)]) == 1, name
        assert not out.exists(), name
        errors[name] = capsys.readouterr().err
    # tanh and linear are the activations a model can have
    assert "'linear'" in errors["sigmoid"] and "'tanh'" in errors["sigmoid"]
    missing = ["score", "--model", str(tmp_path / "missing.npz"), "--series", str(series_csv), "--out", str(out)]
    assert main(missing) == 2
    assert main(["score", "--model", str(model), "--series", str(series_csv), "--out", str(out)]) == 0


def test_poison_max_iters_below_one_is_usage_error(tmp_path, signal_json, detector_json):
    # a bad flag value is refused as a bad config value is: exit 1, no result
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    range_json = tmp_path / "range.json"
    range_json.write_text(json.dumps({"schema": "aepoison/attack-range/v1", "start": 55, "stop": 60, "period": 20}))
    for iters in ("0", "-1"):
        out = tmp_path / f"poison{iters}"
        argv = ["--out-dir", str(out), "poison", "--algo", "interp", "--train", str(series_csv),
                "--val", str(series_csv), "--attack", str(series_csv), "--clean", str(series_csv),
                "--attack-range", str(range_json), "--detector", str(detector_json), "--max-iters", iters]
        assert main(argv) == 1, iters
        assert not (out / "poison_result.json").exists(), iters


def test_attack_unknown_feature_or_overflowing_range_is_usage_error(tmp_path, signal_json):
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    attack = {"schema": "aepoison/attack/v1", "location": 55, "magnitude": 0.1, "duration": 5}
    cases = {"unknown_feature": (attack, "ch9"), "overflow": ({**attack, "location": 97}, "ch0")}
    for name, (spec, feature) in cases.items():
        attack_json = tmp_path / f"{name}.json"
        attack_json.write_text(json.dumps(spec))
        out, range_out = tmp_path / f"{name}.csv", tmp_path / f"{name}-range.json"
        argv = ["attack", "--series", str(series_csv), "--attack", str(attack_json), "--feature", feature,
                "--period", "20", "--out", str(out), "--range-out", str(range_out)]
        assert main(argv) == 1, name
        assert not out.exists() and not range_out.exists(), name


def test_poison_range_outside_the_series_is_usage_error(tmp_path, signal_json, detector_json):
    # rows the attacked series does not have are refused, not clipped to its edge
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    for start, stop in ((500, 507), (-50, -40), (98, 103)):
        range_json = tmp_path / f"range{start}.json"
        range_json.write_text(
            json.dumps({"schema": "aepoison/attack-range/v1", "start": start, "stop": stop, "period": 20})
        )
        out = tmp_path / f"poison{start}"
        argv = ["--out-dir", str(out), "poison", "--algo", "interp", "--train", str(series_csv),
                "--val", str(series_csv), "--attack", str(series_csv), "--clean", str(series_csv),
                "--attack-range", str(range_json), "--detector", str(detector_json), "--max-iters", "1"]
        assert main(argv) == 1, (start, stop)
        assert not (out / "poison_result.json").exists(), (start, stop)


def test_train_fits_as_a_run_fits_its_baseline(tmp_path, signal_json, detector_json):
    # the saved detector is, bit for bit, the clean fit run_pipeline uses as its baseline
    paths = [tmp_path / f"train{i}.csv" for i in range(2)]
    for i, path in enumerate(paths):
        assert main(["--seed", str(100 + i), "gen", "--spec", str(signal_json), "--out", str(path)]) == 0
    model = tmp_path / "model.npz"
    assert main(["train", "--series", *map(str, paths), "--detector", str(detector_json), "--out", str(model)]) == 0
    params, cfg = load_detector(model)
    train_cfg = TrainConfig(**json.loads(detector_json.read_text())["train"])
    baseline, _, _ = TrainCache([ingest_csv(p) for p in paths], cfg, train_cfg).fit(())
    assert params.flatten().tobytes() == baseline.flatten().tobytes()


def test_missing_config_file_is_runtime_error(tmp_path, signal_json):
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    commands = [
        ["attack", "--series", str(series_csv), "--attack", missing,
         "--feature", "ch0", "--period", "20", "--out", str(out), "--range-out", str(tmp_path / "range.json")],
        ["train", "--series", str(series_csv), "--detector", missing, "--out", str(out)],
        ["--out-dir", str(out), "poison", "--algo", "interp", "--train", str(series_csv),
         "--val", str(series_csv), "--attack", str(series_csv), "--clean", str(series_csv),
         "--attack-range", missing, "--detector", missing],
    ]
    for argv in commands:
        assert main(argv) == 2, argv
        assert not out.exists(), argv


def test_ingest_command(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("LIT101,FIT101,P101\n0,10,1\n5,20,1\n10,30,1\n15,40,1\n")
    out = tmp_path / "norm.csv"
    stats = tmp_path / "stats.json"
    rc = main(
        [
            "ingest",
            "--csv", str(raw),
            "--features", "LIT101,FIT101",
            "--subsample", "2",
            "--out", str(out),
            "--stats-out", str(stats),
        ]
    )
    assert rc == 0
    s = ingest_csv(out)
    assert s.values.shape == (2, 2)
    assert np.allclose(s.values[:, 0], [0.0, 1.0])
    info = json.loads(stats.read_text())
    assert info["min"] == [0.0, 10.0]
    assert info["max"] == [10.0, 30.0]
    # a factor below 1 is a usage error, and nothing is written
    for factor in ("0", "-3"):
        out, stats = tmp_path / f"norm{factor}.csv", tmp_path / f"stats{factor}.json"
        argv = ["ingest", "--csv", str(raw), "--subsample", factor, "--out", str(out), "--stats-out", str(stats)]
        assert main(argv) == 1, factor
        assert not out.exists() and not stats.exists()


def test_ingest_base_must_name_the_selected_features_in_order(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b\n0,10\n10,30\n")
    base = tmp_path / "base.json"
    argv = ["ingest", "--csv", str(raw), "--features", "b,a", "--out", str(tmp_path / "ba.csv"), "--stats-out", str(base)]
    assert main(argv) == 0

    def ingest(features, base_path):
        out, stats = tmp_path / "norm.csv", tmp_path / "stats.json"
        argv = ["ingest", "--csv", str(raw), "--features", features, "--base", str(base_path)]
        rc = main([*argv, "--out", str(out), "--stats-out", str(stats)])
        written = out.exists() and stats.exists()
        out.unlink(missing_ok=True)
        stats.unlink(missing_ok=True)
        return rc, written

    assert ingest("b,a", base) == (0, True)
    # the same names in another order would put b's range on column a
    assert ingest("a,b", base) == (1, False)
    # a base of the wrong width, by its names or by its min/max entries
    assert ingest("a", base) == (1, False)
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({**json.loads(base.read_text()), "features": ["b"]}))
    assert ingest("b", wide) == (1, False)


def test_ingest_of_a_column_the_csv_lacks_is_usage_error(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b\n0,10\n10,30\n")
    out, stats = tmp_path / "norm.csv", tmp_path / "stats.json"
    assert main(["ingest", "--csv", str(raw), "--features", "a,XYZ", "--out", str(out), "--stats-out", str(stats)]) == 1
    assert not out.exists() and not stats.exists()


def test_ingest_strips_the_selected_names(tmp_path):
    raw = tmp_path / "raw.csv"
    raw.write_text("a,b\n0,10\n10,30\n")
    out, stats = tmp_path / "norm.csv", tmp_path / "stats.json"
    assert main(["ingest", "--csv", str(raw), "--features", "b, a", "--out", str(out), "--stats-out", str(stats)]) == 0
    assert ingest_csv(out).feature_names == ("b", "a")
    assert json.loads(stats.read_text())["features"] == ["b", "a"]


def test_train_writes_the_path_score_reads(tmp_path, signal_json, detector_json):
    # a path without the .npz suffix is written as given, not as model.npz
    series_csv = tmp_path / "series.csv"
    model = tmp_path / "model"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    assert main(["train", "--series", str(series_csv), "--detector", str(detector_json), "--out", str(model)]) == 0
    assert main(["score", "--model", str(model), "--series", str(series_csv), "--out", str(tmp_path / "r.json")]) == 0
    assert model.is_file() and not list(tmp_path.glob("*.npz"))


def test_schema_mismatch_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "aepoison/grid/v1", "waveform": "sine"}))
    assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


@pytest.mark.parametrize("algo", ["interp", "backgrad"])
def test_poison_with_a_clean_series_unlike_the_attack_is_usage_error(tmp_path, signal_json, detector_json, algo):
    # the benign starting poison is the clean series' span of the attack's rows
    series_csv, short_csv = tmp_path / "series.csv", tmp_path / "short.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    short = json.loads(signal_json.read_text())
    signal_json.write_text(json.dumps({**short, "length": 60}))
    assert main(["gen", "--spec", str(signal_json), "--out", str(short_csv)]) == 0
    range_json = tmp_path / "range.json"
    range_json.write_text(json.dumps({"schema": "aepoison/attack-range/v1", "start": 55, "stop": 62, "period": 20}))
    out = tmp_path / "poison"
    argv = ["--out-dir", str(out), "poison", "--algo", algo, "--train", str(series_csv),
            "--val", str(series_csv), "--attack", str(series_csv), "--clean", str(short_csv),
            "--attack-range", str(range_json), "--detector", str(detector_json), "--max-iters", "1"]
    assert main(argv) == 1
    assert not (out / "poison_result.json").exists()


def test_config_that_is_not_json_is_usage_error(tmp_path, signal_json):
    # a config that does not parse is refused as a bad value is (exit 1)
    series_csv = tmp_path / "series.csv"
    assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
    broken = tmp_path / "broken.json"
    broken.write_text('{"schema": "aepoison/grid/v1", "axes": ')
    out = tmp_path / "out"
    commands = [
        ["--out-dir", str(out), "grid", "--spec", str(broken)],
        ["gen", "--spec", str(broken), "--out", str(out)],
        ["train", "--series", str(series_csv), "--detector", str(broken), "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 1, argv
        assert not out.exists(), argv


def test_csv_cell_that_is_not_a_number_is_usage_error(tmp_path, detector_json):
    # a bad CSV is a bad input (exit 1); a missing one is a runtime error (exit 2)
    broken = tmp_path / "broken.csv"
    broken.write_text("ch0,ch1\n0.1,0.2\n0.3,abc\n")
    out, stats = tmp_path / "out.csv", tmp_path / "stats.json"
    commands = [
        ["ingest", "--csv", str(broken), "--out", str(out), "--stats-out", str(stats)],
        ["train", "--series", str(broken), "--detector", str(detector_json), "--out", str(out)],
    ]
    for argv in commands:
        assert main(argv) == 1, argv
        assert not out.exists() and not stats.exists(), argv
    missing = ["ingest", "--csv", str(tmp_path / "missing.csv"), "--out", str(out), "--stats-out", str(stats)]
    assert main(missing) == 2


@pytest.mark.parametrize("command", ["train", "score", "poison"])
def test_series_that_does_not_fit_the_detector_is_usage_error(tmp_path, signal_json, detector_json, command, capsys):
    # a 1-feature series against a detector over 2 features is refused before the run: exit 1, no output
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("ch0\n" + "".join(f"{np.sin(t / 3.0):.6f}\n" for t in range(100)))
    model = tmp_path / "model.npz"
    if command == "score":
        series_csv = tmp_path / "series.csv"
        assert main(["gen", "--spec", str(signal_json), "--out", str(series_csv)]) == 0
        assert main(["train", "--series", str(series_csv), "--detector", str(detector_json), "--out", str(model)]) == 0
    range_json = tmp_path / "range.json"
    range_json.write_text(json.dumps({"schema": "aepoison/attack-range/v1", "start": 55, "stop": 60, "period": 20}))
    out = tmp_path / "out"
    argv = {
        "train": ["train", "--series", str(narrow), "--detector", str(detector_json), "--out", str(out)],
        "score": ["score", "--model", str(model), "--series", str(narrow), "--out", str(out)],
        "poison": ["--out-dir", str(out), "poison", "--algo", "interp", "--train", str(narrow), "--val", str(narrow),
                   "--attack", str(narrow), "--clean", str(narrow), "--attack-range", str(range_json),
                   "--detector", str(detector_json), "--max-iters", "1"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
