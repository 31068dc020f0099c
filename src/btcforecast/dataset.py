"""Merged (time, price, sentiment) series and supervised-learning framing.

Buckets are right-closed intervals ((k-1)*b, k*b]; a row's time is the
bucket's right edge, its price the last observation in the bucket, and its
sentiment the mean polarity of the posts in the bucket (0.0 when empty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .table import int64_field, polarity_field, price_field, read_table, time_ordered, write_table

COLUMNS = ("time", "price", "sentiment")

PRICE_ONLY = "price_only"
PRICE_AND_SENTIMENT = "price_and_sentiment"


class MergedSeries:
    """Time-ordered rows of exactly (time, price, sentiment).

    Timestamps must be strictly increasing. Prices and sentiment may be NaN
    until fill_missing has run (loaded files can have gaps); an infinite
    price or a sentiment outside [-1, 1] is rejected.
    """

    def __init__(self, time, price, sentiment):
        try:
            self.time = np.asarray(time, dtype=np.int64)
        except OverflowError:
            raise ValueError("timestamps must fit in 64-bit integers") from None
        self.price = np.asarray(price, dtype=np.float64)
        self.sentiment = np.asarray(sentiment, dtype=np.float64)
        if not (len(self.time) == len(self.price) == len(self.sentiment)):
            raise ValueError("column lengths differ")
        if not np.all(self.time[1:] > self.time[:-1]):  # np.diff could wrap around
            raise ValueError("timestamps must be strictly increasing and unique")
        if np.isinf(self.price).any():
            raise ValueError("price must not be infinite (NaN marks a gap)")
        if (np.abs(self.sentiment) > 1.0).any():
            raise ValueError("sentiment must lie in [-1, 1] (NaN marks a gap)")

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
        """A NaN price or sentiment (a gap) is written as an empty field."""
        rows = ([t, _field_or_gap(p), _field_or_gap(s)] for t, p, s in self.rows())
        write_table(path, COLUMNS, rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "MergedSeries":
        """Each row is checked on its line: a time that does not exceed the
        one before, a price that is neither empty (a gap) nor finite and > 0, or
        a sentiment that is neither empty nor in [-1, 1] is an error naming
        the file and the line."""
        columns = dict(zip(COLUMNS, (int64_field, _or_gap(price_field), _or_gap(polarity_field))))
        rows = time_ordered(path, read_table(path, columns, exact=True), "merged", strict=True)
        time, price, sentiment = [], [], []  # three flat lists, not one list per row
        for _, (t, p, s) in rows:
            time.append(t)
            price.append(p)
            sentiment.append(s)
        return cls(time, price, sentiment)


def _field_or_gap(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def _or_gap(convert):
    """convert, with an empty field read as NaN (a gap)."""
    return lambda field: convert(field) if field else math.nan


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
    back to USD. to_supervised makes inputs a read-only view of the series'
    columns, so overlapping windows share memory; nothing writes into it.
    """

    inputs: np.ndarray
    targets: np.ndarray
    target_times: np.ndarray
    scaler: ScalerParams
    feature_names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.targets)


def merge(prices, sentiments, bucket: int) -> MergedSeries:
    """Combine a price stream and scored posts into one three-column series.

    prices: (time, price) pairs; sentiments: (time, polarity) pairs; bucket:
    bucket width in seconds. Each input is walked once, and a time that goes
    back (compared as int) is an error.
    """
    if bucket <= 0:
        raise ValueError("bucket must be positive")
    last_price = dict(_bucketed(prices, bucket, "price"))
    if not last_price:
        raise ValueError("cannot merge: price input is empty")

    s_sum: dict[int, float] = {}
    s_count: dict[int, int] = {}
    for k, pol in _bucketed(sentiments, bucket, "sentiment"):
        s_sum[k] = s_sum.get(k, 0.0) + pol
        s_count[k] = s_count.get(k, 0) + 1

    ks = sorted(last_price)
    time = [k * bucket for k in ks]
    price = [last_price[k] for k in ks]
    sentiment = [s_sum[k] / s_count[k] if k in s_count else 0.0 for k in ks]
    return MergedSeries(time, price, sentiment)


def _bucketed(pairs, bucket: int, what: str):
    """Yield (ceil(t / bucket), float(value)) for each (t, value) of one
    stream, checking that its times never go back."""
    prev = None
    for t, value in pairs:
        t = int(t)
        if prev is not None and t < prev:
            raise ValueError(f"{what} input must be time-ordered")
        prev = t
        yield -((-t) // bucket), float(value)


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

    # (n, lag, F), a read-only view: no copy of the overlapping windows
    inputs = np.lib.stride_tricks.sliding_window_view(cols[:-1], lag, axis=0).transpose(0, 2, 1)
    targets = series.price[lag:].copy()
    target_times = series.time[lag:].copy()
    return SupervisedDataset(inputs, targets, target_times, scaler, names)


def train_test_counts(n: int, train_fraction: float = 0.7) -> tuple[int, int]:
    """Chronological split sizes: (floor(train_fraction * n), remainder).
    Every split goes through here, so this is where train_fraction is
    checked, and where a split that leaves either side empty is an error."""
    if not 0.0 < train_fraction < 1.0:  # NaN fails the comparison too
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n_train = math.floor(train_fraction * n + 1e-9)
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction {train_fraction} splits {n} rows into {n_train} train and {n - n_train} test")
    return n_train, n - n_train


def split(
    dataset: SupervisedDataset, train_fraction: float = 0.7
) -> tuple[SupervisedDataset, SupervisedDataset]:
    """Chronological train/test split with no shuffling."""
    k, _ = train_test_counts(len(dataset), train_fraction)

    def _take(sl: slice) -> SupervisedDataset:
        return SupervisedDataset(
            dataset.inputs[sl],
            dataset.targets[sl],
            dataset.target_times[sl],
            dataset.scaler,
            dataset.feature_names,
        )

    return _take(slice(None, k)), _take(slice(k, None))
