"""Patching of the aepoison layers from outside the package.

Two kinds of instrument share one patcher:

* ``Counters`` (installed in every run, traced or not): one record per
  fit (the epochs it ran and a key of its inputs) and a sum of reverse
  steps, used to normalise end-to-end time by the gradient steps a run
  needed.
* ``Tracer`` (``--trace 1`` only): one span per call of every public layer
  function, with name, start, end, parent span and cell id, kept in memory
  and written out when the run ends.

A function is patched at every module of the package that binds it, so
names imported with ``from ... import`` (``score`` in poisoning, harness and
cli; ``window`` in detector; ``run_cell`` in cli, ...) are traced too.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from aepoison import cli, detector, harness, nn_core, poisoning, signals, timeseries

# (home module or class, function name)
TRACED = (
    (nn_core, "train"),
    (nn_core, "forward"),
    (nn_core, "grad_w"),
    (nn_core, "hvp_both"),
    (nn_core, "init_params"),
    (detector, "score"),
    (detector, "series_loss"),
    (detector, "series_objective_grad"),
    (detector, "window_batch"),
    (timeseries, "window"),
    (signals, "generate"),
    (poisoning, "train_test"),
    (poisoning.TrainCache, "fit"),
    (poisoning, "get_poison_grad"),
    (poisoning, "init_poison"),
    (poisoning, "poison_backgrad"),
    (poisoning, "poison_interp"),
    (harness, "build_experiment"),
    (harness, "run_cell"),
    (harness, "run_grid"),
    (harness, "export"),
    (cli, "main"),
)

# spans every workload must produce, plus the ones only some workloads run
COMMON_SPANS = frozenset(
    {
        "train", "forward", "init_params", "score", "series_loss", "window_batch",
        "window", "generate", "train_test", "TrainCache.fit", "init_poison",
        "build_experiment", "run_cell",
    }
)
REVERSAL_SPANS = frozenset({"hvp_both", "grad_w", "get_poison_grad", "poison_backgrad"})
GRID_SPANS = frozenset({"series_objective_grad", "run_grid", "export", "main"})


def span_name(home, attr: str) -> str:
    return f"{home.__name__}.{attr}" if isinstance(home, type) else attr


class Patcher:
    """Replaces a function at its home and at every package module that
    imported it by name; ``restore`` puts every original back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, home, attr: str, make_wrapper) -> None:
        original = getattr(home, attr)
        wrapper = make_wrapper(original)
        sites = [home]
        if not isinstance(home, type):
            sites += [
                mod
                for name, mod in sorted(sys.modules.items())
                if name.startswith("aepoison") and mod is not home and getattr(mod, attr, None) is original
            ]
        for site in sites:
            self._saved.append((site, attr, original))
            setattr(site, attr, wrapper)
        return wrapper

    def restore(self) -> None:
        for site, attr, original in reversed(self._saved):
            setattr(site, attr, original)
        self._saved.clear()


class Fit:
    """One call of nn_core.train: its inputs' key, the epochs it ran and
    the trajectory it returned."""

    __slots__ = ("key", "epochs", "trajectory_steps", "trajectory_bytes")

    def __init__(self, key: str, epochs: int, trajectory) -> None:
        self.key = key
        self.epochs = epochs
        self.trajectory_steps = None if trajectory is None else trajectory.steps
        self.trajectory_bytes = 0 if trajectory is None else sum(c.nbytes for c in trajectory.checkpoints)


def fit_key(params, data, cfg) -> str:
    """A fit is a pure function of its initial weights, data and train
    config; the same three give the same result, trajectory included."""
    h = hashlib.sha1()
    h.update(params.flatten().tobytes())
    h.update(np.ascontiguousarray(data, dtype=np.float64).tobytes())
    h.update(repr((np.shape(data), params.config, cfg)).encode())
    return h.hexdigest()


class Counters:
    """Work a run performed: fits, their epochs, and reverse steps.

    Every call of ``nn_core.train`` is one fit; its key holds the cell it
    ran in (cells are independent, so only a repeat within a cell is work
    the program could have reused). Its epochs are the calls of
    ``nn_core._backward`` made while it runs: each epoch is one weight
    update and so one backward pass, however the forward passes around it
    are arranged. ``check`` proves the rule on the run's own fits. Reverse
    steps are the trajectory lengths handed to get_poison_grad.
    ``on_epoch``, when set, is called once per counted epoch.
    """

    def __init__(self, patcher: Patcher) -> None:
        self.fits: list[Fit] = []
        self.reverse_steps = 0
        self.on_epoch = None
        self._in_train = 0
        self._epochs = 0
        self._cells = 0
        self._longest = (-1, None)  # (epochs, train arguments) of the longest fit

        def count_cell(fn):
            def counted(*args, **kwargs):
                self._cells += 1
                return fn(*args, **kwargs)

            return counted

        def count_backward(fn):
            def counted(*args, **kwargs):
                if self._in_train:
                    self._epochs += 1
                    if self.on_epoch is not None:
                        self.on_epoch()
                return fn(*args, **kwargs)

            return counted

        def count_train(fn):
            def counted(params, data, cfg):
                key = f"{self._cells}:{fit_key(params, data, cfg)}"
                outer, self._epochs = self._epochs, 0
                self._in_train += 1
                try:
                    out = fn(params, data, cfg)
                finally:
                    self._in_train -= 1
                    epochs, self._epochs = self._epochs, outer
                self.fits.append(Fit(key, epochs, out[1]))
                if epochs > self._longest[0]:
                    self._longest = (epochs, (params, data, cfg))
                return out

            return counted

        def count_reverse(fn):
            def counted(trajectory, *args, **kwargs):
                self.reverse_steps += trajectory.steps
                return fn(trajectory, *args, **kwargs)

            return counted

        patcher.patch(harness, "run_cell", count_cell)
        patcher.patch(nn_core, "_backward", count_backward)
        # check() refits through this wrapper, past any tracer
        self._train = patcher.patch(nn_core, "train", count_train)
        patcher.patch(poisoning, "get_poison_grad", count_reverse)

    def mark(self) -> tuple[int, int]:
        return len(self.fits), self.reverse_steps

    def since(self, mark: tuple[int, int]) -> dict:
        """Work done since ``mark``. ``distinct_epochs`` counts the epochs
        of a fit repeated within a cell once."""
        fits = self.fits[mark[0] :]
        first = {}
        for f in fits:
            first.setdefault(f.key, f.epochs)
        return {
            "fits": len(fits),
            "distinct_fits": len(first),
            "epochs": sum(f.epochs for f in fits),
            "distinct_epochs": sum(first.values()),
            "reverse_steps": self.reverse_steps - mark[1],
            "trajectory_bytes": sum(f.trajectory_bytes for f in fits),
        }

    def check(self, probe_epochs: int = 3) -> list[str]:
        """Problems with the epoch count: every fit that recorded a
        trajectory must count trajectory.steps epochs, and so must a short
        refit, with and without a trajectory, of the run's longest fit."""
        problems = [
            f"fit {i}: {f.epochs} epochs counted, trajectory has {f.trajectory_steps} steps"
            for i, f in enumerate(self.fits)
            if f.trajectory_steps is not None and f.epochs != f.trajectory_steps
        ]
        if not self.fits:
            return problems + ["no nn_core.train call was seen"]
        if sum(f.epochs for f in self.fits) == 0:
            problems.append("no training epoch was counted")
        params, data, cfg = self._longest[1]
        counted = []
        for record in (False, True):
            before = len(self.fits)
            _, trajectory, _ = self._train(params, data, replace(cfg, max_epochs=probe_epochs, record_trajectory=record))
            counted.append(self.fits[before].epochs)
            del self.fits[before:]
        if counted != [trajectory.steps] * 2:
            problems.append(
                f"a {probe_epochs}-epoch refit counted {counted} epochs (without, with trajectory);"
                f" its trajectory has {trajectory.steps} steps"
            )
        return problems


class Tracer:
    """In-memory spans: [name, start, end, parent index, cell id, extra]."""

    def __init__(self, patcher: Patcher) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cells = 0
        self.cell = -1  # spans outside any run_cell belong to cell -1
        for home, attr in TRACED:
            patcher.patch(home, attr, lambda fn, name=span_name(home, attr): self._wrap(name, fn))

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cell, None]
            if name == "run_cell":
                span[4] = self.cell = self._cells
                self._cells += 1
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if name == "run_cell":
                    self.cell = -1
            if name in ("poison_backgrad", "poison_interp"):
                span[5] = out.iterations
            elif name == "run_cell":
                record = out[0] if isinstance(out, tuple) else out
                span[5] = record.error is not None
            return out

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, start, end, parent, cell, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, cell]) + "\n")

    def layer_metrics(self, work: dict) -> tuple[dict, dict]:
        """Per-layer metrics and per-span totals; ``work`` is what
        ``Counters.since`` counted over the traced pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        fit_trained = set()
        for name, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "train" and spans[parent][0] == "TrainCache.fit":
                    fit_trained.add(parent)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        for i, (name, start, end, *_) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            incl_s[name] += end - start

        iterations = errors = 0
        for name, _, _, _, _, extra in spans:
            if name in ("poison_backgrad", "poison_interp"):
                iterations += extra
            elif name == "run_cell":
                errors += bool(extra)
        fits = calls["TrainCache.fit"]
        hits = fits - len(fit_trained)

        def per(total: float, n: int, scale: float = 1e6) -> float:
            return total * scale / n if n else 0.0

        m = {
            "nn_core.train.calls": calls["train"],
            "nn_core.train.distinct_calls": work["distinct_fits"],
            "nn_core.train.epochs": work["epochs"],
            "nn_core.train.distinct_epochs": work["distinct_epochs"],
            "nn_core.train.self_s": self_s["train"],
            "nn_core.train.us_per_epoch": per(incl_s["train"], work["epochs"]),
            "nn_core.train.trajectory_mb": work["trajectory_bytes"] / 2**20,
            "nn_core.hvp_both.calls": calls["hvp_both"],
            "nn_core.grad_w.calls": calls["grad_w"],
            "nn_core.forward.calls": calls["forward"],
            "nn_core.forward.self_s": self_s["forward"],
            "nn_core.init_params.calls": calls["init_params"],
            "detector.score.calls": calls["score"],
            "detector.score.self_s": self_s["score"],
            "detector.score.us_per_call": per(incl_s["score"], calls["score"]),
            "detector.series_objective_grad.calls": calls["series_objective_grad"],
            "detector.series_loss.calls": calls["series_loss"],
            "detector.series_loss.self_s": self_s["series_loss"],
            "detector.window_batch.calls": calls["window_batch"],
            "detector.window_batch.self_s": self_s["window_batch"],
            "timeseries.window.calls": calls["window"],
            "timeseries.window.self_s": self_s["window"],
            "signals.generate.calls": calls["generate"],
            "signals.generate.self_s": self_s["generate"],
            "poisoning.train_test.calls": calls["train_test"],
            "poisoning.train_test.self_s": self_s["train_test"],
            "poisoning.TrainCache.fit.calls": fits,
            "poisoning.TrainCache.fit.hits": hits,
            "poisoning.TrainCache.fit.hit_ratio": hits / fits if fits else 0.0,
            "poisoning.get_poison_grad.calls": calls["get_poison_grad"],
            "poisoning.get_poison_grad.reverse_steps": work["reverse_steps"],
            "poisoning.init_poison.calls": calls["init_poison"],
            "poisoning.init_poison.self_s": self_s["init_poison"],
            "poisoning.poison_algorithm.self_s": self_s["poison_backgrad"] + self_s["poison_interp"],
            "poisoning.poison_algorithm.iterations": iterations,
            "harness.build_experiment.self_s": self_s["build_experiment"],
            "harness.run_cell.calls": calls["run_cell"],
            "harness.run_cell.errors": errors,
            "harness.run_grid.calls": calls["run_grid"],
            "harness.export.calls": calls["export"],
            "cli.main.calls": calls["main"],
        }
        totals = {name: {"calls": calls[name], "self_s": self_s[name], "incl_s": incl_s[name]} for name in calls}
        return m, totals
