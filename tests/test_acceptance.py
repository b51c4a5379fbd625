"""Acceptance suite: one test per criterion, one PASS line each (run -s).

Numeric experiment cells are pinned (seeds, training budgets, attack
geometry); every cell result is memoized for the session so criteria that
share cells (the magnitude curves, the end-state contract) reuse runs
instead of recomputing them.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aepoison import nn_core
from aepoison.detector import DetectorConfig, score, series_loss, series_objective_grad, window_batch
from aepoison.harness import CellConfig, build_experiment, magnitude_rungs, max_poisonable_magnitude, run_cell
from aepoison.nn_core import ModelConfig, ModelParams, TrainConfig
from aepoison.poisoning import PoisonPoint, get_poison_grad
from aepoison.timeseries import SeriesMatrix

# ---------------------------------------------------------------------------
# pinned experiment families
# ---------------------------------------------------------------------------

# single-sequence cells (whole signal as one window), used by AC-2/AC-3
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

# multi-sequence cells (windows of length 2, one per start row), used by AC-4/5/6
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

AC2_MAGNITUDES = (0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
AC2_SIZES = (10, 30)


class CellRunner:
    """Session-wide memo of run_cell results keyed by the cell itself."""

    def __init__(self):
        self._memo = {}

    def run(self, cell: CellConfig):
        key = repr(cell.to_dict())
        if key not in self._memo:
            self._memo[key] = run_cell(cell, keep_result=True)
        return self._memo[key]

    def successes(self):
        return [trio for trio in self._memo.values() if trio[0].success and trio[0].error is None]


@pytest.fixture(scope="module")
def runner():
    return CellRunner()


def report(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def pearson(xs, ys) -> float:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) < 3 or np.std(y) == 0:
        return float("nan")
    return float(np.corrcoef(x, y)[0, 1])


def swept_max(runner, base: CellConfig, ceiling: float) -> float:
    """harness.max_poisonable_magnitude over the 0.05-step rungs of `base`,
    each run through the session memo; no rung after the first engaged
    failure runs."""
    records = (runner.run(replace(base, attack_magnitude=m))[0] for m in magnitude_rungs(0.05, ceiling))
    return max_poisonable_magnitude(records)


# ---------------------------------------------------------------------------
# AC-1: numerical oracles
# ---------------------------------------------------------------------------


class TestAC1NumericalOracles:
    def random_model_and_batch(self, rng):
        input_size = int(rng.integers(3, 7))
        cfg = ModelConfig(
            input_size=input_size,
            code_size=int(rng.integers(1, input_size)),
            inflation_factor=int(rng.integers(1, 3)),
            activation=("tanh", "linear")[int(rng.integers(0, 2))],
            init_seed=int(rng.integers(0, 10_000)),
            init_scale=0.4,
        )
        params = nn_core.init_params(cfg)
        batch = rng.normal(size=(int(rng.integers(1, 5)), input_size))
        return params, batch

    def test_ac1_gradients_hvps_and_poison_grad(self):
        rng = np.random.default_rng(20260808)
        worst_gw = worst_gx = 0.0
        for _ in range(100):
            params, batch = self.random_model_and_batch(rng)
            flat = params.flatten()
            h = 1e-6
            fd_w = np.zeros_like(flat)
            for i in range(flat.size):
                up, dn = flat.copy(), flat.copy()
                up[i] += h
                dn[i] -= h
                fd_w[i] = (
                    nn_core.loss(ModelParams(params.config, up), batch)
                    - nn_core.loss(ModelParams(params.config, dn), batch)
                ) / (2 * h)
            rel_w = np.max(np.abs(nn_core.grad_w(params, batch) - fd_w)) / max(np.max(np.abs(fd_w)), 1e-30)
            worst_gw = max(worst_gw, rel_w)

            fd_x = np.zeros_like(batch)
            for idx in np.ndindex(batch.shape):
                up, dn = batch.copy(), batch.copy()
                up[idx] += h
                dn[idx] -= h
                fd_x[idx] = (nn_core.loss(params, up) - nn_core.loss(params, dn)) / (2 * h)
            rel_x = np.max(np.abs(nn_core.grad_x(params, batch) - fd_x)) / max(np.max(np.abs(fd_x)), 1e-30)
            worst_gx = max(worst_gx, rel_x)
        report(
            "AC-1a",
            worst_gw < 1e-5 and worst_gx < 1e-5,
            f"grad_w/grad_x vs central differences over 100 probes: worst rel {worst_gw:.2e}/{worst_gx:.2e} < 1e-5",
        )

        # series objective gradient against finite differences
        worst_series = 0.0
        for probe in range(10):
            cfg = ModelConfig(input_size=2, code_size=1, inflation_factor=2, init_seed=probe, init_scale=0.4)
            params = nn_core.init_params(cfg)
            dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
            values = rng.normal(size=(10, 1))
            s = SeriesMatrix(values, ("x",))
            g = series_objective_grad(params, s, dcfg)
            h = 1e-6
            fd = np.zeros_like(values)
            for t in range(10):
                up, dn = values.copy(), values.copy()
                up[t, 0] += h
                dn[t, 0] -= h
                fd[t, 0] = (
                    series_loss(params, s.with_values(up), dcfg)
                    - series_loss(params, s.with_values(dn), dcfg)
                ) / (2 * h)
            worst_series = max(worst_series, np.max(np.abs(g - fd)) / np.max(np.abs(fd)))
        report(
            "AC-1b",
            worst_series < 1e-5,
            f"series_objective_grad vs central differences: worst rel {worst_series:.2e} < 1e-5",
        )

        worst_hw = worst_hx = 0.0
        for _ in range(30):
            params, batch = self.random_model_and_batch(rng)
            v = rng.normal(size=params.config.num_params)
            flat = params.flatten()
            eps = 1e-6
            up = ModelParams(params.config, flat + eps * v)
            dn = ModelParams(params.config, flat - eps * v)
            fd_hw = (nn_core.grad_w(up, batch) - nn_core.grad_w(dn, batch)) / (2 * eps)
            fd_hx = (nn_core.grad_x(up, batch) - nn_core.grad_x(dn, batch)) / (2 * eps)
            hw, hx = nn_core.hvp_both(nn_core.linearize(params, batch), v)
            worst_hw = max(worst_hw, np.max(np.abs(hw - fd_hw)) / max(np.max(np.abs(fd_hw)), 1e-30))
            worst_hx = max(worst_hx, np.max(np.abs(hx - fd_hx)) / max(np.max(np.abs(fd_hx)), 1e-30))
        report(
            "AC-1c",
            worst_hw < 1e-4 and worst_hx < 1e-4,
            f"hvp_both vs differenced gradients over 30 probes: worst rel {worst_hw:.2e}/{worst_hx:.2e} < 1e-4",
        )

        # unrolled bilevel oracle for the training-reversal gradient
        worst_pg = 0.0
        for probe in range(5):
            cfg = ModelConfig(
                input_size=2, code_size=1, inflation_factor=1, init_seed=probe, init_scale=0.3
            )
            assert cfg.num_params <= 30
            dcfg = DetectorConfig(model=cfg, window_length=2, threshold=0.2)
            prng = np.random.default_rng(probe)
            poison_values = prng.normal(size=6) * 0.5
            attack = SeriesMatrix((prng.normal(size=8) * 0.5)[:, None], ("x",))
            lr, steps = 0.05, int(prng.integers(5, 21))
            w0 = nn_core.init_params(cfg)
            batch = window_batch(SeriesMatrix(poison_values[:, None], ("x",)), dcfg)
            _, traj, _ = nn_core.train(
                w0, batch, TrainConfig(lr, steps, stop_loss=1e-15, record_trajectory=True)
            )
            assert traj.steps == steps

            def pipeline(values):
                pb = window_batch(SeriesMatrix(values[:, None], ("x",)), dcfg)
                p = w0
                for _ in range(steps):
                    p = ModelParams(cfg, p.flatten() - lr * nn_core.grad_w(p, pb))
                return series_loss(p, attack, dcfg)

            analytic = get_poison_grad(traj, attack, PoisonPoint(poison_values[:, None], span=(0, 6)), dcfg)
            h = 1e-5
            fd = np.zeros(6)
            for i in range(6):
                up, dn = poison_values.copy(), poison_values.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (pipeline(up) - pipeline(dn)) / (2 * h)
            worst_pg = max(worst_pg, np.max(np.abs(analytic[:, 0] - fd)) / np.max(np.abs(fd)))
        report(
            "AC-1d",
            worst_pg < 1e-3,
            f"get_poison_grad vs unrolled finite-difference bilevel oracle (T<=20): worst rel {worst_pg:.2e} < 1e-3",
        )


# ---------------------------------------------------------------------------
# AC-2 / AC-3: single-sequence magnitude curves and ceiling
# ---------------------------------------------------------------------------


class TestAC2PointsVsMagnitude:
    def test_ac2_linear_growth_and_size_dominance(self, runner):
        t0 = time.perf_counter()
        curves = {}
        for size in AC2_SIZES:
            counts = {}
            for m in AC2_MAGNITUDES:
                record, _, _ = runner.run(
                    replace(SINGLE_SEQ, training_set_size=size, attack_magnitude=m)
                )
                assert record.error is None, record.error
                if record.success:
                    counts[m] = record.poison_point_count
            curves[size] = counts
        elapsed = time.perf_counter() - t0

        rs = {}
        for size, counts in curves.items():
            mags = sorted(counts)
            rs[size] = pearson(mags, [counts[m] for m in mags])
        shared = sorted(set(curves[10]) & set(curves[30]))
        dominance = all(curves[30][m] >= curves[10][m] for m in shared)
        ok = all(r >= 0.9 for r in rs.values()) and dominance and len(shared) >= 3 and elapsed < 600
        detail = (
            f"points-vs-magnitude Pearson r: size10={rs[10]:.3f}, size30={rs[30]:.3f} (>= 0.9); "
            f"size-30 dominates size-10 at all {len(shared)} shared magnitudes: {dominance}; "
            f"curves: 10->{curves[10]}, 30->{curves[30]}; runtime {elapsed:.0f}s < 600s"
        )
        report("AC-2", ok, detail)


class TestAC3MagnitudeCeiling:
    def test_ac3_ceiling_and_point_ratio(self, runner):
        t0 = time.perf_counter()
        ceiling = swept_max(runner, SINGLE_SEQ, ceiling=0.8)
        elapsed = time.perf_counter() - t0
        ok_range = 0.30 <= ceiling <= 0.50
        ceiling_record, _, _ = runner.run(replace(SINGLE_SEQ, attack_magnitude=ceiling))
        ok_points = ceiling_record.poison_point_count > SINGLE_SEQ.training_set_size
        report(
            "AC-3",
            ok_range and ok_points and elapsed < 900,
            f"max poisonable magnitude {ceiling} in [0.30, 0.50]; at the ceiling "
            f"{ceiling_record.poison_point_count} poison points > {SINGLE_SEQ.training_set_size} "
            f"training sequences; incremental runtime {elapsed:.0f}s < 900s",
        )


# ---------------------------------------------------------------------------
# AC-4 / AC-5 / AC-6: multi-sequence location, algorithm, and init effects
# ---------------------------------------------------------------------------


class TestAC4TopLocationRobustness:
    def test_ac4_top_resists_bottom_yields(self, runner):
        maxima = {}
        for algo in ("interp", "backgrad"):
            for loc in ("SIN_TOP", "SIN_BOTTOM"):
                base = replace(MULTI_SEQ, algorithm=algo, attack_location=loc)
                maxima[(algo, loc)] = swept_max(runner, base, ceiling=0.45)
        top_ok = all(maxima[(a, "SIN_TOP")] <= 0.1 for a in ("interp", "backgrad"))
        bottom_best = max(maxima[(a, "SIN_BOTTOM")] for a in ("interp", "backgrad"))
        ok = top_ok and bottom_best >= 0.2
        report(
            "AC-4",
            ok,
            f"SIN_TOP max poisonable {maxima[('interp','SIN_TOP')]}/{maxima[('backgrad','SIN_TOP')]} <= 0.1 "
            f"for both algorithms; SIN_BOTTOM reaches {bottom_best} >= 0.2 under identical settings",
        )


class TestAC5AlgorithmOrdering:
    def test_ac5_backgrad_reaches_at_least_interp(self, runner):
        cells = {}
        for size in (10, 20, 30):
            for algo in ("interp", "backgrad"):
                base = replace(MULTI_SEQ, algorithm=algo, training_set_size=size)
                cells[(algo, size)] = swept_max(runner, base, ceiling=0.45)
        ordering = all(cells[("backgrad", s)] >= cells[("interp", s)] for s in (10, 20, 30))
        strict = any(cells[("backgrad", s)] > cells[("interp", s)] for s in (10, 20, 30))
        report(
            "AC-5",
            ordering and strict,
            "back-gradient max magnitude >= interpolative in every training-size cell "
            f"({ {s: (cells[('backgrad', s)], cells[('interp', s)]) for s in (10, 20, 30)} }), "
            f"strictly greater in at least one: {strict}",
        )


class TestAC6InitialPoisonEffect:
    def test_ac6_attack_init_needs_no_more_points(self, runner):
        cell_cfg = replace(MULTI_SEQ, attack_magnitude=0.2)
        benign, _, _ = runner.run(replace(cell_cfg, init_mode="benign-data"))
        attack_init, _, _ = runner.run(replace(cell_cfg, init_mode="attack-based"))
        ok = (
            attack_init.error is None
            and benign.error is None
            and attack_init.poison_point_count <= benign.poison_point_count
            and (attack_init.success or not benign.success)
        )
        report(
            "AC-6",
            ok,
            f"attack-based init: {attack_init.poison_point_count} points, success "
            f"{attack_init.success}; benign init: {benign.poison_point_count} points, "
            f"success {benign.success}",
        )


# ---------------------------------------------------------------------------
# AC-7: end-state contract over every successful run above
# ---------------------------------------------------------------------------


class TestAC7EndStateContract:
    def test_ac7_success_end_state(self, runner):
        checked = engaged = 0
        for record, result, data in runner.successes():
            if result is None or result.final_params is None:
                # trivially successful cells that never entered an algorithm
                continue
            checked += 1
            dcfg = CellConfig.from_dict(record.cell).detector_config()
            template = data.train[0]
            assert score(result.final_params, data.val, dcfg).alert_count == 0, record.cell
            assert score(result.final_params, data.attack, dcfg).alert_count == 0, record.cell
            for p in result.points:
                assert (
                    score(result.final_params, p.as_series(template), dcfg).alert_count == 0
                ), record.cell
            if record.engaged:
                engaged += 1
                assert record.baseline_attack_alerts > 0
        report(
            "AC-7",
            checked > 0 and engaged > 0,
            f"re-scored {checked} successful runs: 0 alerts on validation + attack + accepted poisons; "
            f"{engaged} engaged runs had alerting baselines (exact, no tolerance)",
        )


# ---------------------------------------------------------------------------
# AC-8: determinism and reversal
# ---------------------------------------------------------------------------


class TestAC8DeterminismAndReversal:
    def test_ac8_bit_identical_results_and_exact_rollback(self):
        cell = replace(MULTI_SEQ, attack_magnitude=0.15, adversarial_iterations=25)
        rec_a, res_a, _ = run_cell(cell, keep_result=True)
        rec_b, res_b, _ = run_cell(cell, keep_result=True)
        assert res_a is not None and res_b is not None
        json_a, json_b = res_a.to_json_dict(), res_b.to_json_dict()
        identical = json_a == json_b
        da, db = rec_a.to_json_dict(), rec_b.to_json_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        identical = identical and da == db
        points_identical = len(res_a.points) == len(res_b.points) and all(
            np.array_equal(pa.values, pb.values) for pa, pb in zip(res_a.points, res_b.points)
        )

        # checkpointed reversal: retraining reproduces every recorded w_t bit-exactly
        data = build_experiment(cell)
        dcfg = cell.detector_config()
        tcfg = replace(cell.train_config(), record_trajectory=True)
        batch = np.concatenate([window_batch(s, dcfg) for s in data.train])
        _, traj1, _ = nn_core.train(nn_core.init_params(dcfg.model), batch, tcfg)
        _, traj2, _ = nn_core.train(nn_core.init_params(dcfg.model), batch, tcfg)
        rollback_exact = len(traj1.checkpoints) == len(traj2.checkpoints) and all(
            np.array_equal(a, b) for a, b in zip(traj1.checkpoints, traj2.checkpoints)
        )
        assert np.array_equal(traj1.checkpoints[0], nn_core.init_params(dcfg.model).flatten())

        # zero-magnitude attacks terminate successfully without optimization
        zero_iters = True
        for algo in ("interp", "backgrad"):
            rec, res, _ = run_cell(
                replace(MULTI_SEQ, attack_magnitude=0.0, algorithm=algo), keep_result=True
            )
            zero_iters = zero_iters and rec.success and rec.optimization_iterations == 0

        ok = identical and points_identical and rollback_exact and zero_iters
        report(
            "AC-8",
            ok,
            f"identical seeds give bit-identical results (json={identical}, points={points_identical}); "
            f"trajectory checkpoints reproduce bit-exactly: {rollback_exact}; "
            f"zero-magnitude attacks: success with 0 optimization iterations: {zero_iters}",
        )
