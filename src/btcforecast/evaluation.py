"""Forecast metrics, wall-clock timing, the naive baseline, and the
model-comparison table with plot-ready data files."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import MergedSeries, train_test_counts
from .table import read_table

PLOT_KINDS = ("normalized_series", "train_loss", "forecast_overlay")


def mse(actual, predicted) -> float:
    """Mean squared error."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.shape != predicted.shape:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("empty input")
    # an inf or huge input gives an inf or nan error, not a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean((actual - predicted) ** 2))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    return math.sqrt(mse(actual, predicted))


def time_call(fn, *args, **kwargs):
    """Run fn, returning (result, elapsed milliseconds on a monotonic clock)."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, (time.perf_counter() - t0) * 1000.0


@dataclass
class ForecastReport:
    """Per-model predictions in USD with error metrics and timings, and the
    per-epoch training loss of models that have one (None otherwise)."""

    model_name: str
    times: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    mse: float
    rmse: float
    build_time_ms: float
    train_or_fit_time_ms: float
    losses: list[float] | None = None

    @classmethod
    def create(
        cls,
        model_name: str,
        times,
        actual,
        predicted,
        build_time_ms: float = 0.0,
        train_or_fit_time_ms: float = 0.0,
        losses: list[float] | None = None,
    ) -> "ForecastReport":
        times = np.asarray(times)
        actual = np.asarray(actual, dtype=np.float64)
        predicted = np.asarray(predicted, dtype=np.float64)
        if not (len(times) == len(actual) == len(predicted)):
            raise ValueError("times/actual/predicted lengths differ")
        if len(actual) == 0:
            raise ValueError("empty predictions")
        err = mse(actual, predicted)
        return cls(
            model_name=model_name,
            times=times,
            actual=actual,
            predicted=predicted,
            mse=err,
            rmse=math.sqrt(err),
            build_time_ms=float(build_time_ms),
            train_or_fit_time_ms=float(train_or_fit_time_ms),
            losses=losses,
        )


def naive_baseline(times, values, train_fraction: float = 0.7) -> ForecastReport:
    """Predict each test value as the previous true value."""
    times = np.asarray(times)
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    n_train, n_test = train_test_counts(n, train_fraction)
    if n_test < 1 or n_train < 1:
        raise ValueError("series too short for a naive baseline")

    def _predict():
        return values[n_train - 1 : n - 1].copy()

    preds, elapsed = time_call(_predict)
    return ForecastReport.create(
        "naive_last_value",
        times[n_train:],
        values[n_train:],
        preds,
        build_time_ms=0.0,
        train_or_fit_time_ms=elapsed,
    )


@dataclass(frozen=True)
class ComparisonRow:
    model_name: str
    mse: float
    rmse: float
    build_time_ms: float
    train_or_fit_time_ms: float
    winner: bool


@dataclass
class ComparisonTable:
    rows: list[ComparisonRow]

    @property
    def winner(self) -> str:
        return self.rows[0].model_name

    def to_text(self) -> str:
        header = f"{'model':<24}{'rmse':>14}{'mse':>16}{'build_ms':>12}{'fit_ms':>12}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            mark = " *" if r.winner else ""
            lines.append(
                f"{r.model_name:<24}{r.rmse:>14.6f}{r.mse:>16.4f}"
                f"{r.build_time_ms:>12.3f}{r.train_or_fit_time_ms:>12.3f}{mark}"
            )
        lines.append("* lowest RMSE")
        return "\n".join(lines)

    def to_csv(self, path: str | Path, include_timings: bool = True) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            if include_timings:
                writer.writerow(
                    ["model", "mse", "rmse", "build_time_ms", "train_or_fit_time_ms", "winner"]
                )
                for r in self.rows:
                    writer.writerow(
                        [
                            r.model_name,
                            repr(r.mse),
                            repr(r.rmse),
                            repr(r.build_time_ms),
                            repr(r.train_or_fit_time_ms),
                            int(r.winner),
                        ]
                    )
            else:
                writer.writerow(["model", "mse", "rmse", "winner"])
                for r in self.rows:
                    writer.writerow([r.model_name, repr(r.mse), repr(r.rmse), int(r.winner)])


def compare(reports: list[ForecastReport]) -> ComparisonTable:
    """Rank reports by ascending RMSE (ties broken by name); flag the winner."""
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    ordered = sorted(reports, key=lambda r: (r.rmse, r.model_name))
    rows = [
        ComparisonRow(
            model_name=r.model_name,
            mse=r.mse,
            rmse=r.rmse,
            build_time_ms=r.build_time_ms,
            train_or_fit_time_ms=r.train_or_fit_time_ms,
            winner=(i == 0),
        )
        for i, r in enumerate(ordered)
    ]
    return ComparisonTable(rows)


def _write_rows(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def emit_plot_data(kind: str, inputs, path: str | Path) -> Path:
    """Write a columnar plot-data file whose headers match the figure axes.

    kinds: normalized_series (time,price,sentiment), train_loss (epoch,loss),
    forecast_overlay (time,actual,predicted).
    """
    path = Path(path)
    if kind == "normalized_series":
        if not isinstance(inputs, MergedSeries):
            raise ValueError("normalized_series expects a MergedSeries")
        _write_rows(
            path,
            ["time", "price", "sentiment"],
            (
                [int(t), repr(float(p)), repr(float(s))]
                for t, p, s in zip(inputs.time, inputs.price, inputs.sentiment)
            ),
        )
    elif kind == "train_loss":
        losses = inputs.losses if hasattr(inputs, "losses") else list(inputs)
        _write_rows(
            path,
            ["epoch", "loss"],
            ([i, repr(float(v))] for i, v in enumerate(losses)),
        )
    elif kind == "forecast_overlay":
        if not isinstance(inputs, ForecastReport):
            raise ValueError("forecast_overlay expects a ForecastReport")
        _write_rows(
            path,
            ["time", "actual", "predicted"],
            (
                [int(t), repr(float(a)), repr(float(p))]
                for t, a, p in zip(inputs.times, inputs.actual, inputs.predicted)
            ),
        )
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    return path


def read_forecast_csv(path: str | Path) -> ForecastReport:
    """Reload a forecast_overlay file into a report (timings zeroed)."""
    times, actual, predicted = [], [], []
    for _, (t, a, p) in read_table(path, {"time": int, "actual": float, "predicted": float}):
        times.append(t)
        actual.append(a)
        predicted.append(p)
    return ForecastReport.create(Path(path).stem, times, actual, predicted)
