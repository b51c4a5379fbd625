"""The benchmark's tracer patches package functions by name; an API change
that drops or moves one must fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from aepoison import nn_core

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    missing = [tracing.span_name(home, name) for home, name in tracing.TRACED if not callable(getattr(home, name, None))]
    assert not missing, f"perfbench traces names the package no longer defines: {missing}"


def test_expected_spans_name_traced_functions(tracing):
    traced = {tracing.span_name(home, name) for home, name in tracing.TRACED}
    expected = tracing.COMMON_SPANS | tracing.REVERSAL_SPANS | tracing.GRID_SPANS
    assert expected <= traced, f"expected spans that nothing traces: {sorted(expected - traced)}"


def test_instruments_install_and_restore(tracing):
    originals = [(home, name, getattr(home, name)) for home, name in tracing.TRACED]
    patcher = tracing.Patcher()
    try:
        tracing.Counters(patcher)
        tracing.Tracer(patcher)
        assert all(getattr(home, name) is not fn for home, name, fn in originals)
    finally:
        patcher.restore()
    assert all(getattr(home, name) is fn for home, name, fn in originals)


def test_counters_count_one_recorded_fit(tracing):
    cfg = nn_core.ModelConfig(input_size=4, code_size=2)
    data = np.linspace(-1.0, 1.0, 40).reshape(10, 4)
    patcher = tracing.Patcher()
    try:
        counters = tracing.Counters(patcher)
        mark = counters.mark()
        _, trajectory, _ = nn_core.train(
            nn_core.init_params(cfg), data, nn_core.TrainConfig(0.1, 7, 1e-12, record_trajectory=True)
        )
        work = counters.since(mark)
        assert counters.check() == []
    finally:
        patcher.restore()
    assert trajectory.steps == 7
    assert work["fits"] == 1 and work["epochs"] == 7
    assert work["trajectory_bytes"] == 8 * (trajectory.steps + 1) * cfg.num_params == 7552
