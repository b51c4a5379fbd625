import json

import numpy as np
import pytest

from aepoison.cli import main
from aepoison.timeseries import ingest_csv


@pytest.fixture
def signal_json(tmp_path):
    p = tmp_path / "signal.json"
    p.write_text(
        json.dumps(
            {
                "schema": "aepoison/signal/v1",
                "waveform": "sine",
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
                    "encoder_layers": 1,
                    "decoder_layers": 1,
                    "activation": "tanh",
                    "output_activation": "linear",
                    "init_seed": 3,
                    "init_scale": 0.5,
                },
                "window": {"length": 2, "stride": 1},
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


def test_schema_mismatch_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "aepoison/grid/v1", "waveform": "sine"}))
    assert main(["gen", "--spec", str(bad), "--out", str(tmp_path / "x.csv")]) == 1
