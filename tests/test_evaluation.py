from __future__ import annotations

import csv
import dataclasses
import math

import numpy as np
import pytest

from btcforecast.evaluation import (
    ForecastReport,
    compare,
    emit_plot_data,
    mse,
    naive_baseline,
    rmse,
)
from btcforecast.dataset import MergedSeries, fit_scaler, scale
from btcforecast.synthetic import random_walk


def _report(name, rmse_value, build_ms=1.0, fit_ms=2.0):
    actual = np.array([0.0, 0.0])
    predicted = np.array([rmse_value, -rmse_value])
    return ForecastReport(name, [1, 2], actual, predicted, build_ms, fit_ms)


class TestErrors:
    def test_identical_series_zero(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_computed(self):
        # errors (1, 0, 1) -> mse 2/3, rmse sqrt(2/3)
        assert mse([2.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)
        assert rmse([2.0, 2.0, 4.0], [1.0, 2.0, 3.0]) == pytest.approx(0.81650, abs=5e-6)

    def test_symmetry(self):
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([0.5, 7.0, 2.5])
        assert rmse(a, b) == rmse(b, a)

    def test_rejects_mismatch_and_empty(self):
        with pytest.raises(ValueError):
            mse([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse([], [])

    def test_rmse_squared_is_mse(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a, b = rng.normal(size=n), rng.normal(size=n)
            m, r = mse(a, b), rmse(a, b)
            assert r * r == pytest.approx(m, rel=1e-12)
            assert r >= 0.0


class TestReport:
    def test_rmse_consistency_invariant(self):
        rep = _report("m", 3.0)
        assert rep.rmse == pytest.approx(math.sqrt(rep.mse), rel=1e-12)

    def test_rejects_empty_predictions(self):
        with pytest.raises(ValueError):
            ForecastReport("m", [], [], [])

    def test_rejects_times_of_another_length(self):
        with pytest.raises(ValueError, match="1 times for 2 predictions"):
            ForecastReport("m", [10], [1.0, 2.0], [1.0, 2.0])

    def test_replace_recomputes_the_errors(self):
        rep = ForecastReport("m", [10, 20], [1.0, 2.0], [1.0, 2.0])
        moved = dataclasses.replace(rep, predicted=[2.0, 4.0])  # errors 1 and 2
        assert (rep.mse, rep.rmse) == (0.0, 0.0)
        assert (moved.mse, moved.rmse) == (2.5, math.sqrt(2.5))


class TestNaiveBaseline:
    def test_constant_series_perfect(self):
        values = np.full(20, 42.0)
        rep = naive_baseline(np.arange(20), values)
        assert rep.rmse == 0.0

    def test_linear_series_unit_error(self):
        values = np.arange(50.0)
        rep = naive_baseline(np.arange(50), values)
        assert rep.rmse == pytest.approx(1.0)

    def test_random_walk_rmse_near_sigma(self):
        values = random_walk(2000, sigma=3.0, seed=14)
        rep = naive_baseline(np.arange(2000), values)
        assert rep.rmse == pytest.approx(3.0, rel=0.05)

    def test_report_shape(self):
        values = np.arange(10.0)
        rep = naive_baseline(np.arange(10), values)
        assert rep.model_name == "naive_last_value"
        assert len(rep.predicted) == 3
        assert np.array_equal(rep.predicted, values[6:9])


class TestCompare:
    def test_headline_rmse_ordering(self):
        # headline ordering: multi-feature LSTM edges out single-feature; ARIMA trails
        table = compare(
            [
                _report("lstm_single", 198.448),
                _report("lstm_multi", 197.515),
                _report("arima(10,1,0)", 209.263),
            ]
        )
        assert [r.model_name for r in table.rows] == [
            "lstm_multi",
            "lstm_single",
            "arima(10,1,0)",
        ]
        assert table.winner == "lstm_multi"

    def test_tie_broken_by_name(self):
        table = compare([_report("bravo", 5.0), _report("alpha", 5.0)])
        assert [r.model_name for r in table.rows] == ["alpha", "bravo"]

    def test_timings_passed_through(self):
        table = compare([_report("a", 1.0, 11.5, 20.25), _report("b", 2.0, 1.0, 2.0)])
        assert table.rows[0].build_time_ms == 11.5
        assert table.rows[0].train_or_fit_time_ms == 20.25

    def test_requires_two_reports(self):
        with pytest.raises(ValueError):
            compare([_report("solo", 1.0)])

    def test_text_and_csv_outputs(self, tmp_path):
        table = compare([_report("a", 1.0), _report("b", 2.0)])
        text = table.to_text()
        assert "rmse" in text and "a" in text and "*" in text
        path = tmp_path / "cmp.csv"
        table.to_csv(path)
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows[0]["model"] == "a" and rows[0]["winner"] == "1"
        assert "build_time_ms" in rows[0]
        table.to_csv(path, include_timings=False)
        with open(path, newline="") as f:
            assert "build_time_ms" not in csv.DictReader(f).fieldnames


class TestPlotData:
    def test_forecast_overlay_schema_and_roundtrip(self, tmp_path):
        rep = ForecastReport("m", [10, 20], [1.5, 2.5], [1.25, 2.75])
        path = emit_plot_data("forecast_overlay", rep, tmp_path / "f.csv")
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["time", "actual", "predicted"]
            rows = list(reader)
        assert [int(r["time"]) for r in rows] == [10, 20]
        assert [float(r["actual"]) for r in rows] == [1.5, 2.5]
        assert [float(r["predicted"]) for r in rows] == [1.25, 2.75]

    def test_train_loss_schema(self, tmp_path):
        rep = ForecastReport("m", [10, 20], [1.5, 2.5], [1.25, 2.75], losses=[0.5, 0.25, 0.125])
        path = emit_plot_data("train_loss", rep, tmp_path / "l.csv")
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            assert reader.fieldnames == ["epoch", "loss"]
            rows = list(reader)
        assert [r["epoch"] for r in rows] == ["0", "1", "2"]
        assert [float(r["loss"]) for r in rows] == [0.5, 0.25, 0.125]

    def test_normalized_series_row_count(self, tmp_path):
        series = MergedSeries([1, 2, 3], [5.0, 6.0, 7.0], [0.1, 0.0, -0.1])
        scaled = scale(series, fit_scaler(series))
        path = emit_plot_data("normalized_series", scaled, tmp_path / "n.csv")
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 3
        assert float(rows[0]["price"]) == 0.0 and float(rows[2]["price"]) == 1.0

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot_data("pie_chart", None, tmp_path / "x.csv")

    @pytest.mark.parametrize("kind, inputs", [
        ("train_loss", ForecastReport("naive", [10], [1.5], [1.25])),  # no loss curve
        ("train_loss", [0.5, 0.25]),
        ("forecast_overlay", MergedSeries([1], [5.0], [0.0])),
        ("normalized_series", ForecastReport("m", [10], [1.5], [1.25])),
    ])
    def test_inputs_of_another_kind_are_rejected(self, tmp_path, kind, inputs):
        with pytest.raises(ValueError, match=repr(kind)):
            emit_plot_data(kind, inputs, tmp_path / "x.csv")
        assert not (tmp_path / "x.csv").exists()
