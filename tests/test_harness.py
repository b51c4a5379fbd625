import json
from dataclasses import replace

import numpy as np
import pytest

from aepoison import harness, nn_core, poisoning
from aepoison.detector import DetectorConfig
from aepoison.harness import (
    CellConfig,
    GridSpec,
    MetricsRecord,
    build_experiment,
    export,
    magnitude_rungs,
    max_poisonable_magnitude,
    run_cell,
    run_grid,
)
from aepoison.nn_core import ModelConfig
from aepoison.poisoning import PoisonConfig
from aepoison.signals import AttackSpec, SignalSpec


def fast_cell(**kw):
    """Small multi-sequence cell that runs in well under a second."""
    defaults = dict(
        training_set_size=4,
        attack_magnitude=0.0,
        attack_location="SIN_BOTTOM",
        signal_length=60,
        period=20,
        channels=((1.0, 0.0), (0.5, 0.0)),
        subsequence_length=2,
        train_iterations=400,
        learning_rate=1.0,
        stop_loss=0.003,
        init_scale=0.5,
        adversarial_iterations=10,
        algorithm="interp",
        seed=7,
    )
    defaults.update(kw)
    return CellConfig(**defaults)


def attacked_rows(data):
    """[start, stop) of the rows the attack changed, which must be contiguous."""
    rows = np.flatnonzero((data.attack.values != data.clean.values).any(axis=1))
    assert np.array_equal(rows, np.arange(rows[0], rows[-1] + 1))
    return int(rows[0]), int(rows[-1]) + 1


@pytest.mark.parametrize(
    "build, kwargs",
    [
        (fast_cell, {"attack_location": True}),
        (fast_cell, {"training_set_size": True}),
        (fast_cell, {"seed": False}),
        (GridSpec, {"axes": {"seed": [0]}, "budget": True}),
        (GridSpec, {"axes": {"seed": [0]}, "seed": False}),
        (SignalSpec, {"period": True}),
        (SignalSpec, {"seed": False}),
        (AttackSpec, {"location": 5, "magnitude": 0.1, "duration": True}),
        (DetectorConfig, {"model": ModelConfig(4, 2), "window_length": True}),
        (PoisonConfig, {"max_iters": True}),
    ],
    ids=lambda arg: getattr(arg, "__name__", None),
)
def test_bool_is_refused_where_an_integer_is_expected(build, kwargs):
    # bool is an int subclass, so operator.index alone would take it
    with pytest.raises(TypeError, match="integer"):
        build(**kwargs)


class TestCellConfig:
    def test_round_trip_dict(self):
        cell = fast_cell(attack_magnitude=0.25)
        assert CellConfig.from_dict(cell.to_dict()) == cell

    @pytest.mark.parametrize(
        "key, value",
        [
            ("retrain_mode", "reservoir"),
            ("residual_mode", "window-mse"),
            ("code_ratio", 2),
            ("anchor_period_shift", 2),
            ("context_margin", 20),
            ("waveform", "sine"),
            ("inflation_factor", 2),
        ],
    )
    def test_removed_option_is_refused(self, key, value):
        data = fast_cell().to_dict()
        data[key] = value
        with pytest.raises(TypeError, match=key):
            CellConfig.from_dict(data)

    def test_invalid_algorithm(self):
        with pytest.raises(ValueError, match="algorithm"):
            fast_cell(algorithm="magic")

    def test_detector_config_shapes(self):
        dcfg = fast_cell().detector_config()
        assert dcfg.model.input_size == 4
        assert dcfg.model.code_size == 2


class TestBuildExperiment:
    def test_shapes_and_determinism(self):
        cell = fast_cell(attack_magnitude=0.3)
        a = build_experiment(cell)
        b = build_experiment(cell)
        assert len(a.train) == 4
        assert a.attack.values.shape == (60, 2)
        assert np.array_equal(a.attack.values, b.attack.values)
        assert np.array_equal(a.train[0].values, b.train[0].values)
        # train sequences differ from each other (independent noise)
        assert not np.array_equal(a.train[0].values, a.train[1].values)

    def test_attack_anchored_in_middle_period(self):
        cell = fast_cell(attack_magnitude=0.3, signal_length=100)
        data = build_experiment(cell)
        start, stop = attacked_rows(data)
        assert stop - start == cell.attack_duration
        assert start == 15 + 2 * 20  # SIN_BOTTOM of a sine + 2 periods

    def test_anchor_backs_off_when_it_would_overflow(self):
        # length 60: anchor 55 + duration 7 overflows, retreat one period
        data = build_experiment(fast_cell(attack_magnitude=0.3, signal_length=60))
        assert attacked_rows(data)[0] == 35

    def test_anchor_backs_off_to_the_first_period(self):
        # length 25: SIN_BOTTOM's anchor 55 backs off to 15, and rows [15, 22) fit
        data = build_experiment(fast_cell(attack_magnitude=0.3, signal_length=25))
        assert attacked_rows(data) == (15, 22)

    def test_attack_touches_only_target_feature(self):
        data = build_experiment(fast_cell(attack_magnitude=0.4))
        assert np.array_equal(data.attack.values[:, 1], data.clean.values[:, 1])


class TestRunCell:
    def test_zero_magnitude_cell_succeeds_trivially(self):
        rec = run_cell(fast_cell())
        assert rec.error is None
        assert rec.success
        assert rec.poison_point_count <= 1
        assert not rec.engaged

    def test_record_is_deterministic_excluding_walltime(self):
        a = run_cell(fast_cell(attack_magnitude=0.2))
        b = run_cell(fast_cell(attack_magnitude=0.2))
        da, db = a.to_json_dict(), b.to_json_dict()
        da.pop("wall_time_s")
        db.pop("wall_time_s")
        assert da == db

    def test_errors_are_recorded_not_raised(self):
        # training diverges at an absurd learning rate
        rec = run_cell(fast_cell(learning_rate=500.0))
        assert rec.error is not None
        assert not rec.success
        assert rec.termination == "error"
        # every outcome field is the errored record's default
        assert rec == MetricsRecord(cell=rec.cell, repetition=0, wall_time_s=rec.wall_time_s, error=rec.error)

    @pytest.mark.parametrize("magnitude, iterations", [(0.2, 3), (0.3, 5)])
    def test_backgrad_cell_trains_no_batch_twice(self, monkeypatch, magnitude, iterations):
        # the baseline fit and backgrad's own baseline check share one fit;
        # at 0.3 a candidate alerts, and its rollback reuses the last good fit
        seen = []
        real_train = nn_core.train

        def counting_train(params, data, cfg):
            seen.append((params.flatten().tobytes(), np.ascontiguousarray(data).tobytes()))
            return real_train(params, data, cfg)

        monkeypatch.setattr(nn_core, "train", counting_train)
        rec = run_cell(fast_cell(algorithm="backgrad", attack_magnitude=magnitude, adversarial_iterations=iterations))
        assert rec.error is None
        assert len(seen) >= 2
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("algorithm", ["interp", "backgrad"])
    def test_baseline_batch_reaches_the_cache_once(self, monkeypatch, algorithm):
        # run_pipeline fits the clean baseline; the algorithm starts from it.
        # At 0.3 the baseline alerts, so the algorithm goes on to fit poisons.
        # The baseline is the fit with no poison points appended.
        cell = fast_cell(algorithm=algorithm, attack_magnitude=0.3, adversarial_iterations=3)
        keys = []
        real_fit = poisoning.TrainCache.fit

        def counting_fit(self, poisons):
            keys.append(poisons)
            return real_fit(self, poisons)

        monkeypatch.setattr(poisoning.TrainCache, "fit", counting_fit)
        rec = run_cell(cell)
        assert rec.error is None
        assert rec.engaged
        assert len(keys) >= 2
        assert keys.count(()) == 1


class TestGridSpec:
    def test_cell_count_and_budget(self):
        spec = GridSpec(axes={"attack_magnitude": [0.1, 0.2], "training_set_size": [4, 6]}, budget=4)
        assert spec.cell_count() == 4
        with pytest.raises(ValueError, match="budget"):
            GridSpec(axes={"attack_magnitude": [0.1, 0.2, 0.3]}, budget=2)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axes"):
            GridSpec(axes={"flux_capacitor": [1]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GridSpec(axes={"attack_magnitude": []})

    def test_cells_expand_with_deterministic_seeds(self):
        spec = GridSpec(axes={"attack_magnitude": [0.1, 0.2]}, base=fast_cell(), seed=5)
        cells = spec.cells()
        assert [c.attack_magnitude for c in cells] == [0.1, 0.2]
        assert cells[0].seed != cells[1].seed
        assert spec.cells() == cells

    def test_seed_axis_overrides_grid_seed(self):
        spec = GridSpec(axes={"seed": [11, 22]}, base=fast_cell())
        assert [c.seed for c in spec.cells()] == [11, 22]

    def test_bad_axis_value_refused_as_a_bad_base_value_is(self):
        for axes in ({"algorithm": ["interp", "magic"]}, {"training_set_size": [0]}):
            with pytest.raises(ValueError):
                GridSpec(axes=axes, base=fast_cell())

    @pytest.mark.parametrize(
        "key, value",
        [
            ("init_mode", "benign"),  # the poison command's spelling, not a PoisonConfig mode
            ("attack_location", "SIN_MIDDLE"),
            ("attack_sign", "up"),
            ("threshold", -1),
            ("learning_rate", -1),
            ("adv_learning_rate", 0),
            ("period", 1),
            # an attack the cell cannot place: rows [a, a + 7) of the 60
            ("attack_location", 500),
            ("attack_location", -3),
            ("attack_location", 55),
            ("signal_length", 20),  # SIN_BOTTOM backs off no further than rows [15, 22)
        ],
    )
    def test_value_its_run_would_refuse_is_refused_up_front(self, key, value):
        # the signal, attack, detector, training and poison configs a run
        # builds refuse these; a cell, and so a grid, refuses them when built
        with pytest.raises(ValueError):
            fast_cell(**{key: value})
        with pytest.raises(ValueError):
            GridSpec.from_dict({"axes": {"seed": [0]}, "base": {**fast_cell().to_dict(), key: value}})
        if key in harness._AXIS_NAMES:
            with pytest.raises(ValueError):
                GridSpec(axes={key: [value]}, base=fast_cell())

    def test_unknown_top_level_key_refused(self):
        with pytest.raises(TypeError, match="repetitons"):
            GridSpec.from_dict({"axes": {"attack_magnitude": [0.1]}, "repetitons": 3, "budgt": 1})
        # replicates come from the seed axis, so a repetition count is a removed key
        with pytest.raises(TypeError, match="repetitions"):
            GridSpec.from_dict({"axes": {"attack_magnitude": [0.1]}, "repetitions": 3})

    def test_json_round_trip(self):
        spec = GridSpec(axes={"attack_magnitude": [0.1]}, base=fast_cell(), budget=8)
        again = GridSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.axes == spec.axes
        assert again.base == spec.base
        assert again.budget == 8
        assert "repetitions" not in spec.to_dict()


class TestRunGrid:
    def grid(self):
        return GridSpec(
            axes={"attack_magnitude": [0.0, 0.1], "training_set_size": [3, 4]},
            base=fast_cell(),
            budget=8,
        )

    def test_one_record_per_cell(self, tmp_path, monkeypatch):
        runs = []
        real_run_cell = harness.run_cell

        def counting_run_cell(cell, *args, **kwargs):
            runs.append(cell)
            return real_run_cell(cell, *args, **kwargs)

        monkeypatch.setattr(harness, "run_cell", counting_run_cell)
        records = run_grid(self.grid(), out_dir=tmp_path / "g")
        assert len(records) == 4
        assert runs == self.grid().cells()
        assert {r.repetition for r in records} == {0}

    def test_determinism_across_runs(self, tmp_path):
        a = run_grid(self.grid(), out_dir=tmp_path / "a")
        b = run_grid(self.grid(), out_dir=tmp_path / "b")
        for ra, rb in zip(a, b):
            da, db = ra.to_json_dict(), rb.to_json_dict()
            da.pop("wall_time_s")
            db.pop("wall_time_s")
            assert da == db

    def test_resume_skips_completed_cells(self, tmp_path):
        out = tmp_path / "resume"
        first = run_grid(self.grid(), out_dir=out)
        jsonl = (out / "records.jsonl").read_text()
        second = run_grid(self.grid(), out_dir=out)
        assert (out / "records.jsonl").read_text() == jsonl
        assert [r.to_json_dict() for r in second] == [r.to_json_dict() for r in first]

    def test_resume_reads_rows_that_name_a_removed_metric(self, tmp_path, monkeypatch):
        # rows written before achieved_magnitude was removed still count as done
        out = tmp_path / "old"
        first = run_grid(self.grid(), out_dir=out)
        jsonl = out / "records.jsonl"
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        jsonl.write_text("".join(json.dumps({**row, "achieved_magnitude": 0.0}) + "\n" for row in rows))
        monkeypatch.setattr(harness, "run_cell", lambda *a, **k: pytest.fail("a completed cell was rerun"))
        second = run_grid(self.grid(), out_dir=out)
        assert [r.to_json_dict() for r in second] == [r.to_json_dict() for r in first]
        assert "achieved_magnitude" not in second[0].to_json_dict()

    def test_resume_leaves_out_rows_of_cells_not_in_the_spec(self, tmp_path):
        # a row written before a cell field was removed names no cell of the spec
        out = tmp_path / "stale"
        spec = GridSpec(axes={"training_set_size": [3, 4]}, base=fast_cell(), budget=2)
        first = run_grid(spec, out_dir=out)
        jsonl = out / "records.jsonl"
        stale = json.loads(jsonl.read_text().splitlines()[0])
        stale["cell"]["attack_clip"] = 0.5
        with jsonl.open("a") as fh:
            fh.write(json.dumps(stale) + "\n")
        second = run_grid(spec, out_dir=out)
        assert len(second) == 2
        assert [r.to_json_dict() for r in second] == [r.to_json_dict() for r in first]
        assert len(jsonl.read_text().splitlines()) == 3
        export(second, out)
        header = (out / "records.csv").read_text().splitlines()[0].split(",")
        assert "attack_clip" not in header and "training_set_size" in header

    def test_resume_reruns_the_cell_of_a_row_cut_short(self, tmp_path):
        # an interrupted append leaves a last row with no newline
        out = tmp_path / "cut"
        first = run_grid(self.grid(), out_dir=out)
        jsonl = out / "records.jsonl"
        lines = jsonl.read_text().splitlines(keepends=True)
        jsonl.write_text(lines[0] + lines[1][: len(lines[1]) // 2])
        second = run_grid(self.grid(), out_dir=out)
        resumed = jsonl.read_text().splitlines(keepends=True)
        assert resumed[0] == lines[0]
        assert [json.loads(line)["cell"] for line in resumed] == [json.loads(line)["cell"] for line in lines]
        timeless = [{**r.to_json_dict(), "wall_time_s": 0} for r in first]
        assert [{**r.to_json_dict(), "wall_time_s": 0} for r in second] == timeless

    def test_resume_refuses_a_complete_row_that_does_not_parse(self, tmp_path):
        out = tmp_path / "bad"
        out.mkdir()
        (out / "records.jsonl").write_text('{"cell": \n')
        with pytest.raises(json.JSONDecodeError):
            run_grid(self.grid(), out_dir=out)

    def test_partial_results_flushed_incrementally(self, tmp_path):
        out = tmp_path / "partial"
        run_grid(GridSpec(axes={"attack_magnitude": [0.0]}, base=fast_cell(), budget=2), out_dir=out)
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        rec = MetricsRecord.from_json_dict(json.loads(lines[0]))
        assert rec.success


def rung(magnitude, engaged=True, success=True, error=None):
    """A sweep record at one magnitude, with only the fields the rule reads."""
    return MetricsRecord(
        cell={"attack_magnitude": magnitude},
        repetition=0,
        success=success,
        baseline_attack_alerts=int(engaged),
        poison_point_count=0,
        clean_pads=0,
        optimization_iterations=0,
        termination="error" if error else ("goal-met" if success else "iter-budget"),
        wall_time_s=0.0,
        error=error,
    )


class TestMaxPoisonableMagnitude:
    def test_rungs_ascend_by_step_up_to_the_ceiling(self):
        assert magnitude_rungs(0.05, 0.8) == [round(0.05 * k, 10) for k in range(1, 17)]
        assert magnitude_rungs(0.1, 0.2) == [0.1, 0.2]

    def test_unengaged_rungs_are_skipped(self):
        failed_quietly = [rung(0.1), rung(0.2, engaged=False, success=False), rung(0.3)]
        assert max_poisonable_magnitude(failed_quietly) == 0.3
        passed_quietly = [rung(0.1), rung(0.2, engaged=False)]
        assert max_poisonable_magnitude(passed_quietly) == 0.1

    def test_scan_stops_at_first_engaged_failure(self):
        drawn = []

        def records():
            for m, ok in ((0.1, True), (0.2, False), (0.3, True)):
                drawn.append(m)
                yield rung(m, success=ok)

        assert max_poisonable_magnitude(records()) == 0.1
        assert drawn == [0.1, 0.2]

    def test_errored_rung_counts_as_engaged(self):
        records = [rung(0.1), rung(0.2, engaged=False, success=False, error="RuntimeError: boom"), rung(0.3)]
        assert max_poisonable_magnitude(records) == 0.1

    def test_all_alerting_detector_returns_zero(self):
        # an unconverged detector alerts on everything, including validation
        cell = fast_cell(train_iterations=1, learning_rate=0.0, stop_loss=1e-9,
                         adversarial_iterations=2)
        records = (run_cell(replace(cell, attack_magnitude=m)) for m in magnitude_rungs(0.1, 0.2))
        assert max_poisonable_magnitude(records) == 0.0

    def test_step_validation(self):
        with pytest.raises(ValueError, match="step"):
            magnitude_rungs(0.0, 1.0)


class TestExport:
    def test_files_written(self, tmp_path):
        records = run_grid(
            GridSpec(axes={"attack_magnitude": [0.0, 0.1]}, base=fast_cell(), budget=4),
            out_dir=tmp_path / "grid",
        )
        written = export(records, tmp_path / "exp")
        names = {p.name for p in written}
        assert "records.csv" in names
        assert "records.json" in names
        assert "plot_points_vs_magnitude.csv" in names
        assert "plot_max_magnitude_vs_training_size.csv" in names
        assert "plot_iterations_comparison.csv" in names
        csv_lines = (tmp_path / "exp" / "records.csv").read_text().splitlines()
        assert len(csv_lines) == 3  # header + 2 records

    def test_csv_round_trip_of_numeric_fields(self, tmp_path):
        records = run_grid(
            GridSpec(axes={"attack_magnitude": [0.0]}, base=fast_cell(), budget=2),
            out_dir=tmp_path / "grid",
        )
        export(records, tmp_path / "exp")
        data = json.loads((tmp_path / "exp" / "records.json").read_text())
        assert data[0]["poison_point_count"] == records[0].poison_point_count
        assert data[0]["optimization_iterations"] == records[0].optimization_iterations
        assert "achieved_magnitude" not in data[0]
        assert "achieved_magnitude" not in (tmp_path / "exp" / "records.csv").read_text()

    def test_max_magnitude_plot_names_its_own_rule(self, tmp_path):
        # largest successful magnitude, not max_poisonable_magnitude: cells
        # along the grid's magnitude axis carry different seeds
        cell = {"algorithm": "interp", "training_set_size": 4}
        records = [
            replace(rung(m, success=ok), cell={**cell, "attack_magnitude": m})
            for m, ok in ((0.1, True), (0.2, False), (0.3, True))
        ]
        export(records, tmp_path / "exp")
        lines = (tmp_path / "exp" / "plot_max_magnitude_vs_training_size.csv").read_text().splitlines()
        assert lines == ["algorithm,training_set_size,largest_successful_magnitude", "interp,4,0.3"]
        assert max_poisonable_magnitude(records) == 0.1

    def test_plot_tables_pinned_line_by_line(self, tmp_path):
        # 96 records over two algorithms, training sizes 2, 4 and 8 (size 8 at
        # magnitudes -0.0 and 0.0 only, -0.0 first) and five outcomes: engaged
        # and unengaged successes, engaged failures, errors, engaged successes.
        # A group keeps its first key (-0.0 == 0.0), the largest-magnitude
        # table floors at 0.0 and no table reads an errored record.
        records = []
        for i in range(96):
            size = (2, 4, 8)[i // 2 % 3]
            mags = (-0.0, 0.0) if size == 8 else (0.0, -0.0, 0.1, 0.3)
            cell = {
                "algorithm": ("interp", "backgrad")[i % 2],
                "training_set_size": size,
                "attack_magnitude": mags[i // 6 % len(mags)],
            }
            outcome = (
                dict(success=True, baseline_attack_alerts=2, poison_point_count=i % 7, optimization_iterations=i % 13),
                dict(success=True),
                dict(baseline_attack_alerts=3, poison_point_count=i % 4, optimization_iterations=i % 9),
                dict(error="RuntimeError: boom"),
                dict(success=True, baseline_attack_alerts=1, poison_point_count=i % 5 + 1, optimization_iterations=i % 17),
            )[i % 5]
            records.append(MetricsRecord(cell=cell, repetition=0, wall_time_s=0.25, **outcome))
        export(records, tmp_path / "exp")

        def lines(name):
            return (tmp_path / "exp" / name).read_text().splitlines()

        assert lines("plot_points_vs_magnitude.csv") == [
            "training_set_size,attack_magnitude,mean_poison_points",
            "2,0.0,2.909090909090909",
            "2,0.1,2.0",
            "2,0.3,2.75",
            "4,-0.0,2.111111111111111",
            "4,0.1,2.75",
            "4,0.3,3.8",
            "8,-0.0,2.7",
        ]
        assert lines("plot_max_magnitude_vs_training_size.csv") == [
            "algorithm,training_set_size,largest_successful_magnitude",
            "backgrad,2,0.3",
            "backgrad,4,0.3",
            "backgrad,8,0.0",
            "interp,2,0.3",
            "interp,4,0.3",
            "interp,8,0.0",
        ]
        assert lines("plot_iterations_comparison.csv") == [
            "algorithm,attack_magnitude,mean_iterations",
            "backgrad,0.0,4.884615384615385",
            "backgrad,0.1,3.5",
            "backgrad,0.3,2.1666666666666665",
            "interp,0.0,3.6153846153846154",
            "interp,0.1,7.0",
            "interp,0.3,6.166666666666667",
        ]

    def test_records_keep_their_column_order(self, tmp_path):
        # records.csv and records.json are published formats: cell keys sorted, then the record's fields in order
        record = MetricsRecord(cell={"seed": 3, "algorithm": "interp"}, repetition=1, wall_time_s=0.5)
        export([record], tmp_path / "exp")
        header = (tmp_path / "exp" / "records.csv").read_text().splitlines()[0]
        assert header == (
            "algorithm,seed,repetition,success,baseline_attack_alerts,poison_point_count,clean_pads,"
            "optimization_iterations,termination,wall_time_s,error"
        )
        assert list(json.loads((tmp_path / "exp" / "records.json").read_text())[0]) == [
            "schema", "cell", "repetition", "success", "baseline_attack_alerts", "poison_point_count", "clean_pads",
            "optimization_iterations", "termination", "wall_time_s", "error",
        ]

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            export([], tmp_path / "exp")
