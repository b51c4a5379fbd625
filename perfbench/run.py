"""aepoison benchmark: one workload per invocation, closed loop, one cell at a time.

    python3 perfbench/run.py --workload backgrad-multi --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. Each workload runs in a fresh child process
(perfbench/child.py) with OPENBLAS_NUM_THREADS=1 set for that child only and
the checkout's src/ first on its import path. Human-readable report lines go
to standard output; the last line is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_ROOT = ROOT / ".bench_run"
SETUP_SAMPLES = 4  # set-up-only children before and again after the measuring child
# setup_s is scaled to a machine on which one reference step (child.SpeedProbe)
# takes this long: the median over 30 runs on the 2-core Xeon VM where the
# bounds were set
REFERENCE_STEP_S = 180e-6
CHILD_TIMEOUT_S = 170

END_TO_END = {"step_cost_ref": "ref_steps", "setup_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def run_child(args: argparse.Namespace, run_dir: Path, setup_only: bool) -> tuple[float, float, dict]:
    """Run one child; returns (set-up seconds, reference step seconds right
    after set-up, the child's JSON result)."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--run-dir", str(run_dir),
    ] + (["--setup-only"] if setup_only else [])
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result["ready_ref_s"], result


def git_commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("backgrad-multi", "interp-single", "grid-multi"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "aepoison" / "__init__.py").is_file():
        print(f"no aepoison sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    run_dir = RUN_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    # set-up time is an end-to-end metric; a traced run measures it once
    samples = 0 if args.trace else SETUP_SAMPLES
    try:
        setups = [run_child(args, run_dir, setup_only=True)[:2] for _ in range(samples)]
        setup, ref, res = run_child(args, run_dir, setup_only=False)
        setups += [(setup, ref)] + [run_child(args, run_dir, setup_only=True)[:2] for _ in range(samples)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setup_raw_s = statistics.median(s for s, _ in setups)
    setup_s = statistics.median(s * REFERENCE_STEP_S / ref for s, ref in setups)

    rep = res["report"]
    work = rep["work"]
    env = dict(res["env"], git_commit=git_commit())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {res['passes']}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload digest {res['workload_digest']} ({res['cells_per_pass']} cells per pass)")
    print(f"  wall_s        {rep['wall_s']:.4f} s   (median over {res['passes']} pass(es): {' '.join(f'{w:.3f}' for w in rep['pass_walls'])})")
    print(f"  cell_s.p50    {rep['cell_s.p50']:.4f} s   (n={rep['cell_count']} cells)")
    print(
        f"  ms_per_step   {rep['ms_per_step']:.5f} ms  ({work['distinct_epochs']} distinct epochs + {work['reverse_steps']}"
        f" reverse steps per pass; {work['fits']} fits ({work['distinct_fits']} distinct), {work['epochs']} epochs in all)"
    )
    if rep["step_cost_ref"] is not None:
        print(f"  step_cost_ref {rep['step_cost_ref']:.5f} reference steps  (reference step {rep['ref_step_ms'] * 1e3:.2f} us)")
    print(f"  setup_s       {setup_s:.4f} s   (median of {len(setups)} children, scaled to a"
          f" {REFERENCE_STEP_S * 1e6:.0f} us reference step; unscaled {setup_raw_s:.4f} s)")
    print(f"  peak_rss_mb   {rep['peak_rss_mb']:.2f} MB")
    print(f"  cells_failed  {rep['cells_failed']:.4f}   ({res['failed']} of {res['attempted']})")
    for problem in res["problems"]:
        print(f"  PROBLEM: {problem}")

    if args.trace:
        metrics = {name: metric(value, unit_of(name)) for name, value in res["layers"].items()}
        print("per-layer (one traced pass):")
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
        print("span self time, all spans:")
        for name, t in sorted(res["span_totals"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:24s} calls {t['calls']:8d}  self {t['self_s']:9.4f} s  incl {t['incl_s']:9.4f} s")
    else:
        values = {"step_cost_ref": rep["step_cost_ref"], "setup_s": setup_s}
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}

    print(
        json.dumps(
            {
                "correct": not res["problems"] and res["failed"] == 0,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.startswith("us_per"):
        return "us"
    if last.endswith("_mb"):
        return "MB"
    if last == "hit_ratio":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
