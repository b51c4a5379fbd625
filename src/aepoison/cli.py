"""Command-line interface.

Subcommands compose into a pipeline: `gen` a signal, `attack` it, `train` a
detector, `score` series, `poison` a detector, `grid` a whole experiment
matrix, `ingest` raw CSV data. All config files are JSON with a versioned
`schema` field. Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import detector as detector_mod
from . import nn_core
from .detector import DetectorConfig, load_detector, save_detector, score
from .harness import GridSpec, export, run_grid
from .nn_core import ModelConfig, TrainConfig
from .poisoning import PoisonConfig, poison_span, run_pipeline
from .signals import AttackSpec, SignalSpec, generate, inject_attack
from .timeseries import NormStats, WindowConfig, export_csv, ingest_csv, normalize, subsample

_SCHEMAS = {
    "signal": "aepoison/signal/v1",
    "attack": "aepoison/attack/v1",
    "detector": "aepoison/detector/v1",
    "grid": "aepoison/grid/v1",
    "cell": "aepoison/cell/v1",
    "attack-range": "aepoison/attack-range/v1",
    "norm-stats": "aepoison/norm-stats/v1",
}


class UsageError(Exception):
    pass


def _load_config(path: str, kind: str) -> dict:
    data = json.loads(Path(path).read_text())
    schema = data.pop("schema", None)
    if schema is not None and schema != _SCHEMAS[kind]:
        raise UsageError(f"{path}: expected schema {_SCHEMAS[kind]}, got {schema}")
    return data


def _signal_spec(data: dict, seed_override: int | None) -> SignalSpec:
    if "channels" in data:
        data["channels"] = tuple(tuple(c) for c in data["channels"])
    if seed_override is not None:
        data["seed"] = seed_override
    return SignalSpec(**data)


def _detector_parts(data: dict, threshold_override: float | None) -> tuple[DetectorConfig, TrainConfig]:
    train = data.pop("train")
    model = ModelConfig.from_dict(data.pop("model"))
    window = WindowConfig(**data.pop("window"))
    if threshold_override is not None:
        data["threshold"] = threshold_override
    cfg = DetectorConfig(model=model, window=window, **data)
    return cfg, TrainConfig(**train)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _signal_spec(_load_config(args.spec, "signal"), args.seed)
    series = generate(spec)
    export_csv(series, args.out)
    print(f"wrote {series.length}x{series.num_features} series to {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    series = ingest_csv(args.series)
    data = _load_config(args.attack, "attack")
    spec = AttackSpec(**data)
    attacked, attack_range = inject_attack(series, args.feature, spec, args.period)
    export_csv(attacked, args.out)
    range_info = {
        "schema": _SCHEMAS["attack-range"],
        "start": attack_range[0],
        "stop": attack_range[1],
        "period": args.period,
        "feature": args.feature,
        "effective_magnitude": spec.effective_magnitude,
    }
    Path(args.range_out).write_text(json.dumps(range_info, indent=2))
    print(f"attack over rows [{attack_range[0]}, {attack_range[1]}) written to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, train_cfg = _detector_parts(_load_config(args.detector, "detector"), args.threshold)
    batches = [detector_mod.window_batch(ingest_csv(p), cfg) for p in args.series]
    batch = np.concatenate(batches, axis=0)
    params, _, final_loss = nn_core.train(nn_core.init_params(cfg.model), batch, train_cfg)
    save_detector(params, cfg, args.out)
    print(f"trained to loss {final_loss:.6f}; checkpoint at {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    params, cfg = load_detector(args.model)
    if args.threshold is not None:
        cfg = DetectorConfig(cfg.model, cfg.window, args.threshold, cfg.residual_mode)
    series = ingest_csv(args.series)
    report = score(params, series, cfg)
    report.write_json(args.out)
    print(f"{report.alert_count} alert(s); report at {args.out}")
    return 0


def _cmd_poison(args: argparse.Namespace) -> int:
    cfg, train_cfg = _detector_parts(_load_config(args.detector, "detector"), args.threshold)
    train_series = [ingest_csv(p) for p in args.train]
    val = ingest_csv(args.val)
    attack = ingest_csv(args.attack)
    clean = ingest_csv(args.clean)
    range_info = _load_config(args.attack_range, "attack-range")
    attack_range = (range_info["start"], range_info["stop"])
    period = range_info["period"]

    poison_cfg = PoisonConfig(
        init_mode="attack-based" if args.init == "attack" else "benign-data",
        seed=args.seed if args.seed is not None else 0,
        max_iters=args.max_iters,
    )
    span = poison_span(attack.length, attack_range, cfg.window.length, period)
    _, result = run_pipeline(
        train_series, val, attack, clean, span, args.algo, poison_cfg, detector_cfg=cfg, train_cfg=train_cfg
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.write_json(out_dir / "poison_result.json")
    result.write_points_csv(out_dir / "poison_points.csv", attack.feature_names)
    print(
        f"success={result.success} points={result.adversarial_point_count} "
        f"pads={result.clean_pads} termination={result.termination}; artifacts in {out_dir}"
    )
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    spec = GridSpec.from_dict(_load_config(args.spec, "grid"))
    records = run_grid(spec, out_dir=args.out_dir, workers=args.workers)
    export(records, args.out_dir)
    n_err = sum(1 for r in records if r.error)
    print(f"{len(records)} records ({n_err} errored) in {args.out_dir}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    features = args.features.split(",") if args.features else None
    series = ingest_csv(args.csv, feature_selection=features)
    if args.subsample > 1:
        series = subsample(series, args.subsample)
    base = None
    if args.base:
        stats = _load_config(args.base, "norm-stats")
        base = NormStats(np.array(stats["min"]), np.array(stats["max"]))
    normalized, stats = normalize(series, base)
    export_csv(normalized, args.out)
    Path(args.stats_out).write_text(
        json.dumps(
            {
                "schema": _SCHEMAS["norm-stats"],
                "features": list(series.feature_names),
                "min": [float(v) for v in stats.min],
                "max": [float(v) for v in stats.max],
                "degenerate": [bool(v) for v in stats.degenerate],
            },
            indent=2,
        )
    )
    print(f"normalized {series.length} rows x {series.num_features} features to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aepoison",
        description="Poisoning attacks on online-trained autoencoder anomaly detectors.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override config seeds")
    parser.add_argument("--threshold", type=float, default=None, help="override detection threshold")
    parser.add_argument("--out-dir", default="out", help="default output directory")
    parser.add_argument("--workers", type=int, default=1, help="parallel cells for grid runs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic signal (SignalSpec JSON -> series CSV)")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("attack", help="inject a spoofed-sensor attack into a series")
    p.add_argument("--series", required=True)
    p.add_argument("--attack", required=True, help="AttackSpec JSON")
    p.add_argument("--feature", required=True)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--range-out", required=True)
    p.set_defaults(fn=_cmd_attack)

    p = sub.add_parser("train", help="train a detector on series CSVs")
    p.add_argument("--series", nargs="+", required=True)
    p.add_argument("--detector", required=True, help="DetectorConfig JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("score", help="score a series with a trained detector")
    p.add_argument("--model", required=True)
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_score)

    p = sub.add_parser("poison", help="generate a poisoning sequence set")
    p.add_argument("--algo", choices=["interp", "backgrad"], required=True)
    p.add_argument("--init", choices=["benign", "attack"], default="benign")
    p.add_argument("--train", nargs="+", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--attack", required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--attack-range", required=True, help="range JSON from the attack command")
    p.add_argument("--detector", required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.set_defaults(fn=_cmd_poison)

    p = sub.add_parser("grid", help="run a grid of poisoning experiments")
    p.add_argument("--spec", required=True, help="GridSpec JSON")
    p.set_defaults(fn=_cmd_grid)

    p = sub.add_parser("ingest", help="ingest and normalize a raw CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--features", default=None, help="comma-separated column names")
    p.add_argument("--subsample", type=int, default=1)
    p.add_argument("--base", default=None, help="normalization stats JSON to reuse")
    p.add_argument("--out", required=True)
    p.add_argument("--stats-out", required=True)
    p.set_defaults(fn=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
