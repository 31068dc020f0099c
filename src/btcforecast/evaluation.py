"""Forecast metrics, the naive baseline, the model-comparison table, and
the plot-data files that `evaluate` writes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import MergedSeries, train_test_counts
from .table import write_table


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


@dataclass
class ForecastReport:
    """Per-model predictions in USD with timings, and the per-epoch training
    loss of models that have one (None otherwise). mse and rmse are computed
    from actual and predicted on construction, a dataclasses.replace too."""

    model_name: str
    times: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray
    build_time_ms: float = 0.0
    train_or_fit_time_ms: float = 0.0
    losses: list[float] | None = None
    mse: float = field(init=False)
    rmse: float = field(init=False)

    def __post_init__(self):
        self.times = np.asarray(self.times)
        self.actual = np.asarray(self.actual, dtype=np.float64)
        self.predicted = np.asarray(self.predicted, dtype=np.float64)
        self.mse = mse(self.actual, self.predicted)
        if len(self.times) != len(self.actual):
            raise ValueError(f"{len(self.times)} times for {len(self.actual)} predictions")
        self.rmse = math.sqrt(self.mse)


def naive_baseline(times, values, train_fraction: float = 0.7) -> ForecastReport:
    """Predict each test value as the previous true value. Nothing is
    fitted, so both timings are 0."""
    times = np.asarray(times)
    values = np.asarray(values, dtype=np.float64)
    n_train, _ = train_test_counts(len(values), train_fraction)
    predicted = values[n_train - 1 : -1]
    return ForecastReport("naive_last_value", times[n_train:], values[n_train:], predicted)


@dataclass
class ComparisonTable:
    """Reports in ascending RMSE order; rows[0] is the winner."""

    rows: list[ForecastReport]

    @property
    def winner(self) -> str:
        return self.rows[0].model_name

    def to_text(self) -> str:
        header = f"{'model':<24}{'rmse':>14}{'mse':>16}{'build_ms':>12}{'fit_ms':>12}"
        lines = [header, "-" * len(header)]
        for i, r in enumerate(self.rows):
            mark = " *" if i == 0 else ""
            lines.append(
                f"{r.model_name:<24}{r.rmse:>14.6f}{r.mse:>16.4f}"
                f"{r.build_time_ms:>12.3f}{r.train_or_fit_time_ms:>12.3f}{mark}"
            )
        lines.append("* lowest RMSE")
        return "\n".join(lines)

    def to_csv(self, path: str | Path, include_timings: bool = True) -> None:
        timings = ["build_time_ms", "train_or_fit_time_ms"] if include_timings else []
        rows = (
            [r.model_name, repr(r.mse), repr(r.rmse), *(repr(getattr(r, name)) for name in timings), int(i == 0)]
            for i, r in enumerate(self.rows)
        )
        write_table(path, ["model", "mse", "rmse", *timings, "winner"], rows)


def compare(reports: list[ForecastReport]) -> ComparisonTable:
    """Rank reports by ascending RMSE (ties broken by name)."""
    if len(reports) < 2:
        raise ValueError("need at least 2 reports to compare")
    return ComparisonTable(sorted(reports, key=lambda r: (r.rmse, r.model_name)))


def emit_plot_data(kind: str, inputs, path: str | Path) -> Path:
    """Write a columnar plot-data file whose headers match the figure axes.

    kinds: normalized_series (time,price,sentiment) from a MergedSeries,
    train_loss (epoch,loss) and forecast_overlay (time,actual,predicted)
    from a ForecastReport.
    """
    path = Path(path)
    if kind == "normalized_series" and isinstance(inputs, MergedSeries):
        header, rows = ["time", "price", "sentiment"], zip(inputs.time, inputs.price, inputs.sentiment)
    elif kind == "train_loss" and isinstance(inputs, ForecastReport) and inputs.losses is not None:
        header, rows = ["epoch", "loss"], enumerate(inputs.losses)
    elif kind == "forecast_overlay" and isinstance(inputs, ForecastReport):
        header, rows = ["time", "actual", "predicted"], zip(inputs.times, inputs.actual, inputs.predicted)
    else:
        raise ValueError(f"no {kind!r} plot data from a {type(inputs).__name__}")
    write_table(path, header, ([int(t), *(repr(float(v)) for v in values)] for t, *values in rows))
    return path
