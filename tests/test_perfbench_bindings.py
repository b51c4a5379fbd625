"""The benchmark's tracer patches package functions by name, and its child
process reads every kept run; an API change that drops or moves what either
uses must fail here, not in a benchmark run."""

import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from test_harness import fast_cell

from aepoison import harness, nn_core
from aepoison.timeseries import SeriesMatrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def child(tracing):
    # child.py imports its sibling as `tracing`, as it does when run from perfbench/
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "tracing", tracing)
        return load("child")


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


def test_kept_run_data_has_what_the_end_state_check_reads():
    # child.contract_violations reads data.train[0], data.val and data.attack
    _, _, data = harness.run_cell(fast_cell(), keep_result=True)
    assert isinstance(data.train, tuple) and data.train
    assert all(isinstance(s, SeriesMatrix) for s in data.train)
    assert isinstance(data.val, SeriesMatrix) and isinstance(data.attack, SeriesMatrix)


def test_child_digests_and_checks_a_kept_run(child):
    # the positional call ResultLog makes; the digest reads to_json_dict and
    # final_params, the end-state check reads every point's series
    record, result, data = harness.run_cell(fast_cell(attack_magnitude=0.3), 0, keep_result=True)
    assert record.success and result.points
    assert re.fullmatch(r"[0-9a-f]{64}", child.digest(record, result))
    assert child.contract_violations(record, result, data) == []


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


def traced_cell(tracing, cell):
    """Run one cell under Counters and Tracer, as a traced benchmark run
    does; returns (per-layer metrics, names of the spans that fired, the
    problems Counters.check found). The patcher must restore every original."""
    patched = list(tracing.TRACED) + [(nn_core, "_backward")]
    originals = [(home, name, getattr(home, name)) for home, name in patched]
    patcher = tracing.Patcher()
    try:
        counters = tracing.Counters(patcher)
        tracer = tracing.Tracer(patcher)
        mark = counters.mark()
        record = harness.run_cell(cell)
        layer, totals = tracer.layer_metrics(counters.since(mark))
        problems = counters.check()
    finally:
        patcher.restore()
    assert all(getattr(home, name) is fn for home, name, fn in originals)
    assert record.error is None and record.engaged
    return layer, {name for name, t in totals.items() if t["calls"]}, problems


def test_traced_backgrad_cell_fires_every_reversal_span(tracing):
    # the checks of a traced backgrad-multi benchmark run, on one small cell:
    # a path that bypasses hvp_both, grad_w or forward fails here
    cell = fast_cell(algorithm="backgrad", attack_magnitude=0.3, adversarial_iterations=5)
    layer, fired, problems = traced_cell(tracing, cell)
    assert problems == []
    assert not (tracing.COMMON_SPANS | tracing.REVERSAL_SPANS) - fired
    iterations = layer["poisoning.poison_algorithm.iterations"]
    assert iterations > 0
    assert layer["poisoning.get_poison_grad.calls"] == iterations


def test_traced_interp_cell_runs_no_reversal(tracing):
    layer, fired, problems = traced_cell(tracing, fast_cell(attack_magnitude=0.3, adversarial_iterations=5))
    assert problems == []
    assert not (tracing.COMMON_SPANS | {"poison_interp"}) - fired
    assert not fired & tracing.REVERSAL_SPANS
    assert layer["poisoning.poison_algorithm.iterations"] > 0
