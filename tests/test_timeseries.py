import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aepoison.timeseries import (
    NormStats,
    SeriesMatrix,
    export_csv,
    ingest_csv,
    normalize,
    subsample,
    window,
)


def series(values, names=None):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if names is None:
        names = [f"f{i}" for i in range(arr.shape[1])]
    return SeriesMatrix(arr, tuple(names))


class TestSeriesMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            series([1.0, np.nan])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            SeriesMatrix(np.zeros((3, 2)), ("a", "a"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="feature names"):
            SeriesMatrix(np.zeros((3, 2)), ("a",))

    def test_values_are_immutable(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0, 0] = 5.0

    def test_feature_index(self):
        s = series(np.zeros((2, 2)), names=["LIT101", "FIT101"])
        assert s.feature_index("FIT101") == 1
        with pytest.raises(KeyError, match="XYZ"):
            s.feature_index("XYZ")


class TestNormalize:
    def test_linear_map_endpoints(self):
        s = series([0.0, 5.0, 10.0])
        out, stats = normalize(s)
        assert np.allclose(out.values[:, 0], [0.0, 0.5, 1.0])
        assert stats.min[0] == 0.0 and stats.max[0] == 10.0

    def test_out_of_base_values_not_clipped(self):
        base = NormStats(np.array([0.0]), np.array([10.0]))
        out, _ = normalize(series([12.0]), base)
        assert out.values[0, 0] == pytest.approx(1.2)

    def test_train_stats_reused_for_test_split(self):
        train = series([0.0, 5.0, 10.0])
        test = series([2.0, 20.0])
        _, train_stats = normalize(train)
        _, used = normalize(test, train_stats)
        assert np.array_equal(used.min, train_stats.min)
        assert np.array_equal(used.max, train_stats.max)

    def test_degenerate_feature_maps_to_zero_and_is_flagged(self):
        s = series(np.column_stack([[1.0, 1.0, 1.0], [0.0, 1.0, 2.0]]), names=["const", "var"])
        out, stats = normalize(s)
        assert np.all(out.values[:, 0] == 0.0)
        assert stats.degenerate.tolist() == [True, False]

    def test_dimension_mismatch(self):
        base = NormStats(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="features"):
            normalize(series([1.0, 2.0]), base)


class TestWindow:
    def test_count_100_2_1(self):
        assert window(series(np.arange(100.0)), 2).shape[0] == 99

    def test_first_window_rows(self):
        wins = window(series(np.arange(5.0)), 2)
        assert wins.shape[0] == 4
        assert np.array_equal(wins[0][:, 0], [0.0, 1.0])

    def test_window_longer_than_series(self):
        with pytest.raises(ValueError, match="exceeds"):
            window(series(np.arange(5.0)), 6)

    def test_length_below_one_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            window(series(np.arange(5.0)), 0)

    @settings(max_examples=200)
    @given(st.integers(1, 200), st.integers(1, 20))
    def test_count_formula(self, t, length):
        if length > t:
            return
        wins = window(series(np.zeros(t)), length)
        assert wins.shape[0] == t - length + 1

    @given(st.integers(2, 12), st.integers(20, 60))
    def test_interior_point_covered_exactly_length_times(self, length, t):
        wins = window(series(np.arange(float(t))), length)
        cover = np.zeros(t)
        for k in range(wins.shape[0]):
            cover[k : k + length] += 1
        interior = np.arange(length, t - length + 1)
        assert np.all(cover[interior] == length)


class TestSubsample:
    def test_keeps_every_factor_rows(self):
        out = subsample(series(np.arange(10.0)), 5)
        assert out.length == 2
        assert np.array_equal(out.values[:, 0], [0.0, 5.0])

    def test_factor_one_is_identity(self):
        s = series(np.arange(7.0))
        out = subsample(s, 1)
        assert np.array_equal(out.values, s.values)
        assert out.feature_names == s.feature_names

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            subsample(series(np.arange(4.0)), 0)


class TestCsv:
    def test_ingest_basic(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("LIT101,FIT101\n1,2\n3,4\n5,6\n")
        s = ingest_csv(p, ["LIT101", "FIT101"])
        assert s.values.shape == (3, 2)
        assert s.feature_names == ("LIT101", "FIT101")

    def test_column_selection_drops_and_orders(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a,b,c\n1,2,3\n")
        s = ingest_csv(p, ["c", "a"])
        assert s.feature_names == ("c", "a")
        assert np.array_equal(s.values, [[3.0, 1.0]])

    def test_missing_column_named_in_error(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("LIT101,FIT101\n1,2\n")
        with pytest.raises(KeyError, match="XYZ"):
            ingest_csv(p, ["XYZ"])

    def test_selected_names_are_stripped_as_header_cells_are(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("a, b ,c\n1,2,3\n")
        s = ingest_csv(p, [" c", "b ", "a"])
        assert s.feature_names == ("c", "b", "a")
        assert np.array_equal(s.values, [[3.0, 2.0, 1.0]])

    def test_non_numeric_cell_cites_row(self, tmp_path):
        p = tmp_path / "data.csv"
        rows = "\n".join("1,2" if i != 6 else "abc,2" for i in range(10))
        p.write_text("a,b\n" + rows + "\n")
        with pytest.raises(ValueError, match="row 7"):
            ingest_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ingest_csv(p)

    def test_export_ingest_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        s = series(rng.normal(size=(20, 3)), names=["x", "y", "z"])
        p = tmp_path / "out.csv"
        export_csv(s, p)
        back = ingest_csv(p)
        assert back.feature_names == s.feature_names
        rel = np.max(np.abs(back.values - s.values)) / np.max(np.abs(s.values))
        assert rel < 1e-9
