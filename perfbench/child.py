"""One benchmark workload in one fresh process (started by run.py).

Prints one JSON line with the result; run.py turns it into the report.
With --setup-only it stops as soon as the workload is ready and prints only
the wall-clock instant at which it became ready.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import numpy as np  # noqa: E402

import aepoison  # noqa: E402
from aepoison import cli, harness  # noqa: E402
from aepoison.detector import score  # noqa: E402
from aepoison.harness import CellConfig, GridSpec  # noqa: E402

import tracing  # noqa: E402

# Copies of the pinned acceptance families (tests/test_acceptance.py); the
# benchmark does not import the test module.
SINGLE_SEQ = CellConfig(
    training_set_size=10,
    attack_location="SIN_BOTTOM",
    attack_sign="away-from-zero",
    attack_duration=7,
    signal_length=100,
    period=20,
    noise_std=0.05,
    channels=((1.0, 0.0),),
    subsequence_length=100,
    threshold=0.2,
    learning_rate=0.45,
    train_iterations=1600,
    stop_loss=0.0005,
    init_scale=0.3,
    algorithm="interp",
    adversarial_iterations=100,
    adv_learning_rate=0.3,
    seed=0,
)
MULTI_SEQ = CellConfig(
    training_set_size=10,
    attack_location="SIN_BOTTOM",
    attack_sign="away-from-zero",
    attack_duration=7,
    signal_length=100,
    period=20,
    noise_std=0.05,
    channels=((1.0, 0.0), (0.5, 0.0)),
    subsequence_length=2,
    threshold=0.2,
    learning_rate=1.0,
    train_iterations=3000,
    stop_loss=0.003,
    init_scale=0.5,
    algorithm="backgrad",
    adversarial_iterations=120,
    adv_learning_rate=0.3,
    seed=0,
)

WORKLOADS = ("backgrad-multi", "interp-single", "grid-multi")
WARM_PASS_S = 10.0


def make_workload(name: str, seed: int, run_dir: Path):
    """(pass, cells per pass): ``pass()`` runs every cell of the workload once."""
    if name == "backgrad-multi":
        cells = [
            replace(MULTI_SEQ, attack_magnitude=0.2, adversarial_iterations=20, attack_location=loc, seed=seed)
            for loc in ("SIN_BOTTOM", "SIN_TOP")
        ]
    elif name == "interp-single":
        cells = [replace(SINGLE_SEQ, attack_magnitude=m, seed=seed) for m in (0.15, 0.2)]
    else:
        spec = GridSpec(
            axes={
                "attack_magnitude": [round(0.05 * k, 2) for k in range(1, 9)],
                "attack_location": ["SIN_TOP", "SIN_BOTTOM", "SIN_SIDE"],
                "init_mode": ["benign-data", "attack-based"],
            },
            base=replace(MULTI_SEQ, algorithm="interp", adversarial_iterations=30),
            seed=seed,
        )
        spec_path = run_dir / "grid.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        passes = [0]

        def run_grid_pass() -> None:
            out = run_dir / f"grid-pass{passes[0]}"
            passes[0] += 1
            code = cli.main(["--out-dir", str(out), "grid", "--spec", str(spec_path)])
            if code != 0:
                raise RuntimeError(f"aepoison grid exited with code {code}")
            exported = json.loads((out / "records.json").read_text())
            if len(exported) != spec.cell_count():
                raise RuntimeError(f"grid exported {len(exported)} records for {spec.cell_count()} cells")

        return run_grid_pass, spec.cell_count()

    def run_cells_pass() -> None:
        for cell in cells:
            harness.run_cell(cell)

    return run_cells_pass, len(cells)


class SpeedProbe:
    """How fast this machine runs right now, from a fixed reference step.

    Other tenants of a shared machine slow every process on it, for seconds
    to minutes at a time, by 20% and more; the same inputs then take longer
    without the program having changed. A reference step is one full-batch
    gradient step of a plain numpy autoencoder (4-8-2-8-4, tanh) on a fixed
    990x4 batch, the shape of a MULTI_SEQ training epoch; it does not use
    the package. ``sample`` runs a few of them at most every PERIOD seconds
    (it is called once per training epoch), and the time it takes is
    subtracted from the pass it interrupted.
    """

    PERIOD = 0.25
    STEPS = 8

    def __init__(self) -> None:
        self.step_times: list[float] = []
        self.spent = 0.0
        self._next = 0.0
        self._x = np.linspace(-1.0, 1.0, 990 * 4).reshape(990, 4)
        self._w0 = [np.linspace(-0.5, 0.5, a * b).reshape(a, b) for a, b in ((4, 8), (8, 2), (2, 8), (8, 4))]

    def steps(self, n: int) -> float:
        """Run n reference steps; returns the seconds they took."""
        start = time.perf_counter()
        x, ws = self._x, list(self._w0)
        for _ in range(n):
            acts = [x]
            for w in ws[:-1]:
                acts.append(np.tanh(acts[-1] @ w))
            err = acts[-1] @ ws[-1] - x
            float(np.mean(err**2))
            delta = 2.0 * err / err.size
            for i in range(len(ws) - 1, -1, -1):
                grad = acts[i].T @ delta
                if i:
                    delta = (delta @ ws[i].T) * (1.0 - acts[i] ** 2)
                ws[i] = ws[i] - 0.1 * grad
        return time.perf_counter() - start

    def sample(self) -> None:
        if time.perf_counter() < self._next:
            return
        took = self.steps(self.STEPS)
        self.step_times.append(took / self.STEPS)
        self.spent += took
        self._next = time.perf_counter() + self.PERIOD


class ResultLog:
    """Keeps every run_cell result, whoever called run_cell."""

    def __init__(self, patcher: tracing.Patcher) -> None:
        self.trios: list[tuple] = []

        def keep(fn):
            def kept(cell, repetition=0, keep_result=False):
                trio = fn(cell, repetition, keep_result=True)
                self.trios.append(trio)
                return trio if keep_result else trio[0]

            return kept

        patcher.patch(harness, "run_cell", keep)


def digest(record, result) -> str:
    h = hashlib.sha256()
    if result is None:
        h.update(str(record.error).encode())
    else:
        h.update(json.dumps(result.to_json_dict(), sort_keys=True).encode())
        if result.final_params is not None:
            h.update(result.final_params.flatten().tobytes())
    return h.hexdigest()


def contract_violations(record, result, data) -> list[str]:
    """AC-7 end-state contract: a successful cell leaves 0 alerts on
    validation, on the attack and on every accepted point."""
    if record.error is not None:
        return [f"error: {record.error}"]
    if not record.success or result is None or result.final_params is None:
        return []
    cfg = CellConfig.from_dict(record.cell).detector_config()
    template = data.train[0]
    series = [("validation", data.val), ("attack", data.attack)]
    series += [(f"point {i}", p.as_series(template)) for i, p in enumerate(result.points)]
    return [
        f"{label} raises {n} alert(s) under final_params"
        for label, s in series
        if (n := score(result.final_params, s, cfg).alert_count) > 0
    ]


def openblas_info() -> dict:
    info = {"coretype_env": os.environ.get("OPENBLAS_CORETYPE"), "threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    for lib_path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            core = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if core is not None and threads is not None:
                core.argtypes, core.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                info["core"] = core().decode()
                info["threads"] = threads()
                return info
    return info


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "openblas": openblas_info(),
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    if not Path(aepoison.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"aepoison imported from {aepoison.__file__}, not from this checkout", file=sys.stderr)
        return 3
    run_dir = Path(args.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    run_pass, cells_per_pass = make_workload(args.workload, args.seed, run_dir)
    ready = time.time()
    # the machine's speed right after set-up, to scale the set-up time
    probe = SpeedProbe()
    probe.steps(5)
    ready_ref_s = probe.steps(40) / 40
    if args.setup_only:
        print(json.dumps({"ready": ready, "ready_ref_s": ready_ref_s}))
        return 0
    patcher = tracing.Patcher()
    results = ResultLog(patcher)
    counters = tracing.Counters(patcher)

    def timed_pass() -> dict:
        start = len(results.trios)
        mark = counters.mark()
        probe.sample()  # so that even a pass without epochs has a reference
        s0, n0 = probe.spent, len(probe.step_times)
        t0 = time.perf_counter()
        run_pass()
        spent = probe.spent - s0
        # a pass shorter than the probe period reuses the latest sample
        ref = probe.step_times[n0:] or probe.step_times[-1:]
        return {
            "wall_s": time.perf_counter() - t0 - spent,
            "ref_step_ms": statistics.fmean(ref) * 1e3,
            "work": counters.since(mark),
            "trios": results.trios[start:],
        }

    untimed = []
    tracer = None
    if args.trace:
        # per-layer numbers come from one traced pass; the untraced pass
        # before it gives the tracing overhead. First-call costs bias a
        # short first pass, so it is repeated warm; a long one (up to 50 s
        # on some seeds) is kept, to end within the time limit.
        untimed = [timed_pass()]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if untimed[0]["wall_s"] < WARM_PASS_S:
            untimed.append(timed_pass())
        tracer = tracing.Tracer(patcher)
        passes = [timed_pass()]
    else:
        counters.on_epoch = probe.sample
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 + statistics.median(p["wall_s"] for p in passes) <= args.seconds:
            passes.append(timed_pass())
            if len(passes) == 1:
                # later passes keep more results alive; how many run
                # depends on the machine's speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # output checks, outside the timed phase; every pass must reproduce the
    # first one's digests, including the untraced passes of a traced run
    counters.on_epoch = None
    problems = counters.check()
    patcher.restore()
    attempted = failed = 0
    cell_walls = []
    checked = untimed + passes
    first_digests = [digest(r, res) for r, res, _ in checked[0]["trios"]]
    for k, p in enumerate(checked):
        if len(p["trios"]) != cells_per_pass:
            problems.append(f"pass {k} ran {len(p['trios'])} cells, expected {cells_per_pass}")
        for i, (record, result, data) in enumerate(p["trios"]):
            bad = contract_violations(record, result, data)
            if i >= len(first_digests) or digest(record, result) != first_digests[i]:
                bad.append(f"digest differs from pass 0 in pass {k}")
            attempted += 1
            failed += bool(bad)
            cell_walls.append(record.wall_time_s)
            problems.extend(f"pass {k} cell {i} (seed {record.cell['seed']}): {b}" for b in bad)
    if any(p["work"] != checked[0]["work"] for p in checked):
        problems.append("passes of the same inputs counted different work: " + json.dumps([p["work"] for p in checked]))
    # a repeated fit counts once: the work a pass needed, not the work it did
    steps = [max(1, p["work"]["distinct_epochs"] + p["work"]["reverse_steps"]) for p in passes]

    walls = [p["wall_s"] for p in passes]
    out = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "passes": len(passes),
        "cells_per_pass": cells_per_pass,
        "workload_digest": hashlib.sha256("".join(first_digests).encode()).hexdigest(),
        "cell_digests": first_digests,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "ready": ready,
        "ready_ref_s": ready_ref_s,
        "report": {
            "wall_s": statistics.median(walls),
            "pass_walls": walls,
            "cell_s.p50": statistics.median(cell_walls),
            "cell_count": len(cell_walls),
            "cells_failed": failed / attempted if attempted else 1.0,
            "peak_rss_mb": peak_rss_mb,
            "work": passes[0]["work"],
            "ms_per_step": statistics.median(w * 1e3 / s for w, s in zip(walls, steps)),
            "ref_step_ms": statistics.median(p["ref_step_ms"] for p in passes) if not args.trace else None,
            "step_cost_ref": statistics.median(
                w * 1e3 / s / p["ref_step_ms"] for w, s, p in zip(walls, steps, passes)
            ) if not args.trace else None,
        },
    }
    if tracer is not None:
        layer, totals = tracer.layer_metrics(passes[0]["work"])
        layer["trace.wall_s"] = walls[0]
        layer["trace.overhead_s"] = walls[0] - untimed[-1]["wall_s"]
        out["layers"] = layer
        out["span_totals"] = totals
        fired = {name for name, t in totals.items() if t["calls"]}
        expected = set(tracing.COMMON_SPANS)
        absent = set()
        if args.workload == "backgrad-multi":
            # one reversal per gradient iteration, as the results count
            # them; on some seeds every cell stops before its first one
            expected.add("poison_backgrad")
            iterations = layer["poisoning.poison_algorithm.iterations"]
            if layer["poisoning.get_poison_grad.calls"] != iterations:
                problems.append(
                    f"get_poison_grad ran {layer['poisoning.get_poison_grad.calls']} times"
                    f" for {iterations} gradient iterations"
                )
            (expected if iterations else absent).update(tracing.REVERSAL_SPANS - {"poison_backgrad"})
        else:
            absent |= tracing.REVERSAL_SPANS
            expected.add("poison_interp")
        if args.workload == "grid-multi":
            expected |= tracing.GRID_SPANS
        problems.extend(f"expected span {s!r} never fired" for s in sorted(expected - fired))
        problems.extend(f"span {s!r} fired but this workload must not run it" for s in sorted(absent & fired))
        tracer.write(run_dir.parent / f"trace-{args.workload}-seed{args.seed}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
