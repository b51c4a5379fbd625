"""Command-line interface.

Subcommands compose into a pipeline: `gen` a signal, `attack` it, `train` a
detector, `score` series, `poison` a detector, `grid` a whole experiment
matrix, `ingest` raw CSV data. All config files are JSON with a versioned
`schema` field. Exit codes: 0 success, 1 usage error (a bad flag value, or
an input file that does not parse or builds no valid object), 2 runtime
failure (a missing file, or a failure while the command runs).
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, TypeVar

import numpy as np

from .detector import DetectorConfig, check_series, load_detector, save_detector, score
from .harness import GridSpec, export, run_grid
from .nn_core import ModelConfig, TrainConfig
from .poisoning import ExperimentData, PoisonConfig, TrainCache, poison_span, run_pipeline
from .signals import AttackSpec, SignalSpec, generate, inject_attack
from .timeseries import NormStats, export_csv, ingest_csv, normalize, subsample

_SCHEMAS = {
    "signal": "aepoison/signal/v1",
    "attack": "aepoison/attack/v1",
    "detector": "aepoison/detector/v1",
    "grid": "aepoison/grid/v1",
    "attack-range": "aepoison/attack-range/v1",
    "norm-stats": "aepoison/norm-stats/v1",
}


T = TypeVar("T")


class UsageError(Exception):
    pass


@contextmanager
def _usage(source: str = "") -> Iterator[None]:
    """Where a command reads its input files and builds their objects: a
    KeyError, TypeError or ValueError raised there is a usage error."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{source}{': ' if source else ''}{type(exc).__name__}: {exc}") from exc


def _load_config(path: str, kind: str, build: Callable[[dict], T]) -> T:
    """build(the file's JSON object); JSON that does not parse or builds no valid object is a usage error."""
    with _usage(path):
        data = json.loads(Path(path).read_text())
        schema = data.pop("schema", None)
        if schema is not None and schema != _SCHEMAS[kind]:
            raise UsageError(f"{path}: expected schema {_SCHEMAS[kind]}, got {schema}")
        return build(data)


def _seeded(data: dict, seed: int | None, key: str = "seed") -> dict:
    """data with data[key] set to the global --seed, when one is given."""
    if seed is not None:
        data[key] = seed
    return data


def _detector_parts(data: dict, seed: int | None = None) -> tuple[DetectorConfig, TrainConfig]:
    """The detector file's configs; a given seed replaces the model's init_seed."""
    train = data.pop("train")
    model = ModelConfig.from_dict(_seeded(data.pop("model"), seed, "init_seed"))
    return DetectorConfig(model=model, **data), TrainConfig(**train)


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = _load_config(args.spec, "signal", lambda data: SignalSpec(**_seeded(data, args.seed)))
    series = generate(spec)
    export_csv(series, args.out)
    print(f"wrote {series.length}x{series.num_features} series to {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    spec = _load_config(args.attack, "attack", lambda data: AttackSpec(**data))
    with _usage():  # also an unknown feature, a bad period, or rows past the series end
        attacked, attack_range = inject_attack(ingest_csv(args.series), args.feature, spec, args.period)
    export_csv(attacked, args.out)
    range_info = {
        "schema": _SCHEMAS["attack-range"],
        "start": attack_range[0],
        "stop": attack_range[1],
        "period": args.period,
        "feature": args.feature,
        "magnitude": spec.magnitude,
    }
    Path(args.range_out).write_text(json.dumps(range_info, indent=2))
    print(f"attack over rows [{attack_range[0]}, {attack_range[1]}) written to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg, train_cfg = _load_config(args.detector, "detector", lambda data: _detector_parts(data, args.seed))
    with _usage():
        cache = TrainCache([ingest_csv(p) for p in args.series], cfg, train_cfg)
    params, _, final_loss = cache.fit(())
    save_detector(params, cfg, args.out)
    print(f"trained to loss {final_loss:.6f}; checkpoint at {args.out}")
    return 0


def _cmd_score(args: argparse.Namespace) -> int:
    with _usage(args.model):  # a key no field reads, or a bad value
        params, cfg = load_detector(args.model)
    with _usage():  # also a series the detector cannot window
        series = ingest_csv(args.series)
        check_series(series, cfg)
    report = score(params, series, cfg)
    report.write_json(args.out)
    print(f"{report.alert_count} alert(s); report at {args.out}")
    return 0


def _cmd_poison(args: argparse.Namespace) -> int:
    cfg, train_cfg = _load_config(args.detector, "detector", _detector_parts)
    with _usage():  # also a series the detector cannot window
        poison_cfg = PoisonConfig(
            init_mode="attack-based" if args.init == "attack" else "benign-data",
            seed=args.seed if args.seed is not None else 0,
            max_iters=args.max_iters,
        )
        attack = ingest_csv(args.attack)
        span = _load_config(
            args.attack_range,
            "attack-range",
            lambda data: poison_span(attack.length, (data["start"], data["stop"]), cfg.window_length, data["period"]),
        )
        data = ExperimentData(
            train=tuple(ingest_csv(p) for p in args.train),
            val=ingest_csv(args.val),
            clean=ingest_csv(args.clean),
            attack=attack,
            span=span,
        )
        for series in (*data.train, data.val, data.clean, attack):
            check_series(series, cfg)
    _, result = run_pipeline(data, args.algo, poison_cfg, detector_cfg=cfg, train_cfg=train_cfg)
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
    spec = _load_config(args.spec, "grid", lambda data: GridSpec.from_dict(_seeded(data, args.seed)))
    records = run_grid(spec, out_dir=args.out_dir)
    export(records, args.out_dir)
    n_err = sum(1 for r in records if r.error)
    print(f"{len(records)} records ({n_err} errored) in {args.out_dir}")
    return 0


def _norm_base(data: dict, features: tuple[str, ...]) -> NormStats:
    """The stats of a --stats-out file, which must name `features` in order."""
    if data["features"] != list(features):
        raise ValueError(f"base normalizes features {data['features']}, the selection is {list(features)}")
    base = NormStats(np.array(data["min"]), np.array(data["max"]))
    if len(base.min) != len(features):
        raise ValueError(f"base has {len(base.min)} min/max entries for {len(features)} features")
    return base


def _cmd_ingest(args: argparse.Namespace) -> int:
    features = args.features.split(",") if args.features else None
    with _usage():  # also a selected column the CSV lacks, or a factor below 1
        series = subsample(ingest_csv(args.csv, feature_selection=features), args.subsample)
    base = None
    if args.base:
        base = _load_config(args.base, "norm-stats", lambda data: _norm_base(data, series.feature_names))
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
    parser.add_argument("--out-dir", default="out", help="default output directory")
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
