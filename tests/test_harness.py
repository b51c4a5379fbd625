import json

import numpy as np
import pytest

from aepoison import nn_core
from aepoison.harness import (
    CellConfig,
    GridSpec,
    MetricsRecord,
    build_experiment,
    export,
    max_poisonable_magnitude,
    run_cell,
    run_grid,
)


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


class TestCellConfig:
    def test_single_sequence_mode_flag(self):
        assert fast_cell(subsequence_length=60).single_sequence
        assert not fast_cell().single_sequence

    def test_round_trip_dict(self):
        cell = fast_cell(attack_magnitude=0.25)
        assert CellConfig.from_dict(cell.to_dict()) == cell

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
        start, stop = data.attack_range
        assert stop - start == cell.attack_duration
        assert start == 15 + 2 * 20  # SIN_BOTTOM of a sine + 2 periods

    def test_anchor_backs_off_when_it_would_overflow(self):
        # length 60: anchor 55 + duration 7 overflows, retreat one period
        data = build_experiment(fast_cell(attack_magnitude=0.3, signal_length=60))
        assert data.attack_range[0] == 35

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

    def test_backgrad_cell_trains_no_batch_twice(self, monkeypatch):
        # the baseline fit and backgrad's own baseline check share one fit
        seen = []
        real_train = nn_core.train

        def counting_train(params, data, cfg):
            seen.append((params.flatten().tobytes(), np.ascontiguousarray(data).tobytes()))
            return real_train(params, data, cfg)

        monkeypatch.setattr(nn_core, "train", counting_train)
        rec = run_cell(fast_cell(algorithm="backgrad", attack_magnitude=0.2, adversarial_iterations=3))
        assert rec.error is None
        assert len(seen) >= 2
        assert len(set(seen)) == len(seen)


class TestGridSpec:
    def test_cell_count_and_budget(self):
        spec = GridSpec(axes={"attack_magnitude": [0.1, 0.2], "training_set_size": [4, 6]}, budget=4)
        assert spec.cell_count() == 4
        with pytest.raises(ValueError, match="budget"):
            GridSpec(axes={"attack_magnitude": [0.1, 0.2]}, repetitions=3, budget=5)

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

    def test_json_round_trip(self):
        spec = GridSpec(axes={"attack_magnitude": [0.1]}, base=fast_cell(), repetitions=2, budget=8)
        again = GridSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.axes == spec.axes
        assert again.base == spec.base
        assert again.repetitions == 2


class TestRunGrid:
    def grid(self):
        return GridSpec(
            axes={"attack_magnitude": [0.0, 0.1], "training_set_size": [3, 4]},
            base=fast_cell(),
            budget=8,
        )

    def test_one_record_per_cell(self, tmp_path):
        records = run_grid(self.grid(), out_dir=tmp_path / "g")
        assert len(records) == 4

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

    def test_partial_results_flushed_incrementally(self, tmp_path):
        out = tmp_path / "partial"
        run_grid(GridSpec(axes={"attack_magnitude": [0.0]}, base=fast_cell(), budget=2), out_dir=out)
        lines = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1
        rec = MetricsRecord.from_json_dict(json.loads(lines[0]))
        assert rec.success


class TestMaxPoisonableMagnitude:
    def test_all_alerting_detector_returns_zero(self):
        # an unconverged detector alerts on everything, including validation
        cell = fast_cell(train_iterations=1, learning_rate=0.0, stop_loss=1e-9,
                         adversarial_iterations=2)
        assert max_poisonable_magnitude(cell, step=0.1, ceiling=0.2) == 0.0

    def test_step_validation(self):
        with pytest.raises(ValueError, match="step"):
            max_poisonable_magnitude(fast_cell(), step=0.0)


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
        assert data[0]["achieved_magnitude"] == records[0].achieved_magnitude

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            export([], tmp_path / "exp")
