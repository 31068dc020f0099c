"""Merged (time, price, sentiment) series and supervised-learning framing.

Buckets are right-closed intervals ((k-1)*b, k*b]; a row's time is the
bucket's right edge, its price the last observation in the bucket, and its
sentiment the mean polarity of the posts in the bucket (0.0 when empty).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import read_table

COLUMNS = ("time", "price", "sentiment")

PRICE_ONLY = "price_only"
PRICE_AND_SENTIMENT = "price_and_sentiment"


class MergedSeries:
    """Time-ordered rows of exactly (time, price, sentiment).

    Timestamps must be strictly increasing. Prices may be NaN until
    fill_missing has run (loaded files can have gaps); ±inf is rejected.
    """

    def __init__(self, time, price, sentiment):
        self.time = np.asarray(time, dtype=np.int64)
        self.price = np.asarray(price, dtype=np.float64)
        self.sentiment = np.asarray(sentiment, dtype=np.float64)
        if not (len(self.time) == len(self.price) == len(self.sentiment)):
            raise ValueError("column lengths differ")
        if len(self.time) > 1 and not np.all(np.diff(self.time) > 0):
            raise ValueError("timestamps must be strictly increasing and unique")
        if np.isinf(self.price).any() or np.isinf(self.sentiment).any():
            raise ValueError("price and sentiment must not be infinite (NaN marks a gap)")

    def __len__(self) -> int:
        return len(self.time)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MergedSeries):
            return NotImplemented
        return (
            np.array_equal(self.time, other.time)
            and np.array_equal(self.price, other.price, equal_nan=True)
            and np.array_equal(self.sentiment, other.sentiment, equal_nan=True)
        )

    def rows(self) -> list[tuple[int, float, float]]:
        return list(zip(self.time.tolist(), self.price.tolist(), self.sentiment.tolist()))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(COLUMNS)
            for t, p, s in self.rows():
                writer.writerow([t, "" if math.isnan(p) else repr(p), repr(s)])

    @classmethod
    def from_csv(cls, path: str | Path) -> "MergedSeries":
        time, price, sentiment = [], [], []
        columns = dict(zip(COLUMNS, (int, _float_or_nan, _float_or_nan)))
        for _, (t, p, s) in read_table(path, columns, exact=True):
            time.append(t)
            price.append(p)
            sentiment.append(s)
        try:
            return cls(time, price, sentiment)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _float_or_nan(field: str) -> float:
    """An empty field marks a gap."""
    return float(field) if field else math.nan


@dataclass(frozen=True)
class ScalerParams:
    """Per-column min/max for the affine [0, 1] mapping."""

    columns: tuple[str, ...]
    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        if np.any(self.maxs < self.mins):
            raise ValueError("max < min")


@dataclass
class SupervisedDataset:
    """Lag windows paired with next-step scaled-price targets.

    inputs has shape (n, lag, n_features); targets and target_times have
    shape (n,). The scaler is carried along so predictions can be mapped
    back to USD.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_times: np.ndarray
    lag: int
    scaler: ScalerParams
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.targets)


def merge(prices, sentiments, bucket: int) -> MergedSeries:
    """Combine a price stream and scored posts into one three-column series.

    prices: ordered (time, price) pairs; sentiments: ordered SentimentRecord
    objects or (time, polarity) pairs; bucket: bucket width in seconds.
    """
    prices = list(prices)
    if not prices:
        raise ValueError("cannot merge: price input is empty")
    if bucket <= 0:
        raise ValueError("bucket must be positive")

    p_times = [int(t) for t, _ in prices]
    if any(b < a for a, b in zip(p_times, p_times[1:])):
        raise ValueError("price input must be time-ordered")

    def _bucket(t: int) -> int:
        return -((-t) // bucket)  # ceil(t / bucket)

    last_price: dict[int, float] = {}
    for t, p in prices:
        last_price[_bucket(int(t))] = float(p)

    s_sum: dict[int, float] = {}
    s_count: dict[int, int] = {}
    prev_t = None
    for rec in sentiments:
        t, pol = (rec.timestamp, rec.polarity) if hasattr(rec, "timestamp") else rec
        if prev_t is not None and t < prev_t:
            raise ValueError("sentiment input must be time-ordered")
        prev_t = t
        k = _bucket(int(t))
        s_sum[k] = s_sum.get(k, 0.0) + float(pol)
        s_count[k] = s_count.get(k, 0) + 1

    ks = sorted(last_price)
    time = [k * bucket for k in ks]
    price = [last_price[k] for k in ks]
    sentiment = [s_sum[k] / s_count[k] if k in s_count else 0.0 for k in ks]
    return MergedSeries(time, price, sentiment)


def fill_missing(series: MergedSeries) -> MergedSeries:
    """Forward-fill missing prices, back-fill a missing head, zero missing
    sentiment. Errors if every price is missing."""
    price = series.price.copy()
    valid = ~np.isnan(price)
    if not valid.any():
        raise ValueError("cannot fill: all prices missing")
    # forward fill
    idx = np.where(valid, np.arange(len(price)), -1)
    np.maximum.accumulate(idx, out=idx)
    filled = np.where(idx >= 0, price[np.maximum(idx, 0)], np.nan)
    # back fill the leading gap
    first = np.argmax(valid)
    filled[: int(first)] = price[first]
    sentiment = np.where(np.isnan(series.sentiment), 0.0, series.sentiment)
    return MergedSeries(series.time, filled, sentiment)


def fit_scaler(series: MergedSeries) -> ScalerParams:
    """Column-wise min/max over (price, sentiment)."""
    cols = np.stack([series.price, series.sentiment], axis=1)
    return ScalerParams(
        columns=("price", "sentiment"),
        mins=cols.min(axis=0),
        maxs=cols.max(axis=0),
    )


def _scale_cols(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    span = params.maxs - params.mins
    out = np.zeros_like(values, dtype=np.float64)
    nonconst = span > 0
    out[:, nonconst] = (values[:, nonconst] - params.mins[nonconst]) / span[nonconst]
    return out


def scale(series: MergedSeries, params: ScalerParams) -> MergedSeries:
    """Map price and sentiment into [0, 1]; a constant column maps to 0.0."""
    cols = np.stack([series.price, series.sentiment], axis=1)
    scaled = _scale_cols(cols, params)
    return MergedSeries(series.time, scaled[:, 0], scaled[:, 1])


def unscale(values: np.ndarray, params: ScalerParams) -> np.ndarray:
    """Exact inverse of scale for a (n, n_columns) matrix."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(params.columns):
        raise ValueError(
            f"expected {len(params.columns)} columns, got shape {values.shape}"
        )
    return values * (params.maxs - params.mins) + params.mins


def unscale_column(values: np.ndarray, params: ScalerParams, column: str) -> np.ndarray:
    """Inverse-map a single column (e.g. model predictions back to USD)."""
    if column not in params.columns:
        raise ValueError(f"unknown column {column!r}")
    i = params.columns.index(column)
    return np.asarray(values, dtype=np.float64) * (params.maxs[i] - params.mins[i]) + params.mins[i]


def to_supervised(series: MergedSeries, lag: int, features: str, scaler: ScalerParams) -> SupervisedDataset:
    """Frame a scaled series as (lag-window -> next scaled price) samples.

    Sample i uses rows i..i+lag-1 as input and the price at row i+lag as
    target; the sample count is len(series) - lag.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if len(series) <= lag:
        raise ValueError(f"series of length {len(series)} too short for lag {lag}")
    if features == PRICE_ONLY:
        names: tuple[str, ...] = ("price",)
        cols = series.price[:, None]
    elif features == PRICE_AND_SENTIMENT:
        names = ("price", "sentiment")
        cols = np.stack([series.price, series.sentiment], axis=1)
    else:
        raise ValueError(f"unknown feature mode {features!r}")

    n = len(series) - lag
    inputs = np.stack([cols[i : i + lag] for i in range(n)])
    targets = series.price[lag:].copy()
    target_times = series.time[lag:].copy()
    return SupervisedDataset(inputs, targets, target_times, lag, scaler, names)


def train_test_counts(n: int, train_fraction: float = 0.7) -> tuple[int, int]:
    """Chronological split sizes: (floor(train_fraction * n), remainder)."""
    n_train = math.floor(train_fraction * n + 1e-9)
    return n_train, n - n_train


def split(
    dataset: SupervisedDataset, train_fraction: float = 0.7
) -> tuple[SupervisedDataset, SupervisedDataset]:
    """Chronological train/test split with no shuffling."""
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    k, _ = train_test_counts(n, train_fraction)

    def _take(sl: slice) -> SupervisedDataset:
        return SupervisedDataset(
            dataset.inputs[sl],
            dataset.targets[sl],
            dataset.target_times[sl],
            dataset.lag,
            dataset.scaler,
            dataset.feature_names,
        )

    return _take(slice(None, k)), _take(slice(k, None))
