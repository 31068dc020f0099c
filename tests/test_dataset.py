from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast.dataset import (
    PRICE_AND_SENTIMENT,
    PRICE_ONLY,
    MergedSeries,
    fill_missing,
    fit_scaler,
    merge,
    scale,
    split,
    to_supervised,
    train_test_counts,
    unscale_column,
)


def _record(t, polarity):
    """One scored post as merge takes it."""
    return (t, polarity)


class TestMerge:
    def test_post_lands_in_enclosing_bucket(self):
        # hand trace: buckets are (0,60] and (60,120]; the post at t=70
        # belongs with the price row at t=120
        merged = merge([(60, 6500.0), (120, 6510.0)], [_record(70, 0.8)], bucket=60)
        assert merged.rows() == [(60, 6500.0, 0.0), (120, 6510.0, 0.8)]

    def test_no_posts_all_zero(self):
        merged = merge([(60, 1.0), (120, 2.0), (180, 3.0)], [], bucket=60)
        assert merged.sentiment.tolist() == [0.0, 0.0, 0.0]

    def test_two_posts_cancel(self):
        merged = merge([(60, 1.0)], [_record(10, 0.4), _record(20, -0.4)], bucket=60)
        assert merged.sentiment.tolist() == [0.0]

    def test_last_price_in_bucket_wins(self):
        merged = merge([(61, 1.0), (90, 2.0), (120, 3.0)], [], bucket=60)
        assert merged.rows() == [(120, 3.0, 0.0)]

    def test_empty_prices_error(self):
        with pytest.raises(ValueError):
            merge([], [_record(10, 0.5)], bucket=60)

    def test_unordered_prices_error(self):
        with pytest.raises(ValueError, match="^price input must be time-ordered$"):
            merge([(120, 1.0), (60, 2.0)], [], bucket=60)
        with pytest.raises(ValueError, match="^sentiment input must be time-ordered$"):
            merge([(60, 1.0), (120, 2.0)], [_record(90, 0.5), _record(30, -0.5)], bucket=60)

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10_000),
                st.floats(min_value=-1.0, max_value=1.0),
            ),
            max_size=40,
        ),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_output_shape_invariants(self, price_times, posts, bucket):
        prices = [(t, float(i + 1)) for i, t in enumerate(sorted(price_times))]
        posts = sorted(posts, key=lambda x: x[0])
        merged = merge(prices, posts, bucket)
        assert len(merged) >= 1
        assert np.all(np.diff(merged.time) > 0)
        assert np.all(np.abs(merged.sentiment) <= 1.0 + 1e-12)


class TestFillMissing:
    def test_forward_fill(self):
        series = MergedSeries([1, 2, 3], [100.0, math.nan, 102.0], [0.0, 0.0, 0.0])
        assert fill_missing(series).price.tolist() == [100.0, 100.0, 102.0]

    def test_back_fill_head(self):
        series = MergedSeries([1, 2], [math.nan, 100.0], [0.0, 0.0])
        assert fill_missing(series).price.tolist() == [100.0, 100.0]

    def test_identity_when_complete(self):
        series = MergedSeries([1, 2], [5.0, 6.0], [0.1, -0.2])
        assert fill_missing(series) == series

    def test_missing_sentiment_becomes_zero(self):
        series = MergedSeries([1, 2], [5.0, 6.0], [math.nan, 0.3])
        assert fill_missing(series).sentiment.tolist() == [0.0, 0.3]

    def test_all_missing_error(self):
        series = MergedSeries([1, 2], [math.nan, math.nan], [0.0, 0.0])
        with pytest.raises(ValueError):
            fill_missing(series)


class TestScaler:
    def test_endpoints_map_to_unit_interval(self):
        series = MergedSeries([1, 2, 3], [2.0, 4.0, 6.0], [0.0, 0.0, 0.0])
        scaled = scale(series, fit_scaler(series))
        assert scaled.price.tolist() == [0.0, 0.5, 1.0]

    def test_constant_column_maps_to_zero(self):
        series = MergedSeries([1, 2], [5.0, 5.0], [0.1, 0.9])
        scaled = scale(series, fit_scaler(series))
        assert scaled.price.tolist() == [0.0, 0.0]

    def test_unscale_shape_check(self):
        series = MergedSeries([1, 2], [5.0, 9.0], [0.1, 0.9])
        params = fit_scaler(series)
        with pytest.raises(ValueError):
            unscale_column(np.zeros(4), params, "volume")

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, prices, sentiments):
        n = min(len(prices), len(sentiments))
        series = MergedSeries(range(1, n + 1), prices[:n], sentiments[:n])
        params = fit_scaler(series)
        scaled = scale(series, params)
        cols = np.stack([scaled.price, scaled.sentiment], axis=1)
        assert np.all(cols >= 0.0) and np.all(cols <= 1.0)
        back = np.stack([unscale_column(cols[:, i], params, name) for i, name in enumerate(params.columns)],
                        axis=1)
        original = np.stack([series.price, series.sentiment], axis=1)
        span = params.maxs - params.mins
        nonconst = span > 0
        # 1e-12 relative to the column magnitude (element-relative accuracy
        # is unattainable once the affine map cancels large offsets)
        col_scale = np.maximum(np.abs(params.mins), np.abs(params.maxs))
        tol = 1e-12 * np.maximum(col_scale[nonconst], 1.0)
        assert np.all(np.abs(back[:, nonconst] - original[:, nonconst]) <= tol)


class TestToSupervised:
    def _scaled(self, n):
        series = MergedSeries(range(1, n + 1), np.linspace(1.0, 2.0, n), np.zeros(n))
        params = fit_scaler(series)
        return scale(series, params), params

    def test_sample_count(self):
        scaled, params = self._scaled(10)
        ds = to_supervised(scaled, 3, PRICE_ONLY, params)
        assert len(ds) == 7

    def test_window_contents_lag1(self):
        series = MergedSeries([1, 2, 3], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        params = fit_scaler(series)
        scaled = scale(series, params)
        ds = to_supervised(scaled, 1, PRICE_ONLY, params)
        s = scaled.price
        assert ds.inputs.shape == (2, 1, 1)
        assert ds.inputs[0, 0, 0] == s[0] and ds.targets[0] == s[1]
        assert ds.inputs[1, 0, 0] == s[1] and ds.targets[1] == s[2]

    @pytest.mark.parametrize("lag", [1, 3])
    def test_windows_are_the_rows_before_each_target_read_only(self, lag):
        series = MergedSeries(range(1, 9), np.linspace(1.0, 2.0, 8), np.linspace(-1.0, 1.0, 8))
        params = fit_scaler(series)
        scaled = scale(series, params)
        ds = to_supervised(scaled, lag, PRICE_AND_SENTIMENT, params)
        cols = np.stack([scaled.price, scaled.sentiment], axis=1)
        assert np.array_equal(ds.inputs, np.stack([cols[i : i + lag] for i in range(len(ds))]))
        assert not ds.inputs.flags.writeable

    def test_multifeature_window_shape(self):
        scaled, params = self._scaled(10)
        ds = to_supervised(scaled, 2, PRICE_AND_SENTIMENT, params)
        assert ds.inputs.shape == (8, 2, 2)
        assert ds.feature_names == ("price", "sentiment")

    def test_too_short_error(self):
        scaled, params = self._scaled(4)
        with pytest.raises(ValueError):
            to_supervised(scaled, 4, PRICE_ONLY, params)

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=59))
    @settings(max_examples=100, deadline=None)
    def test_count_property(self, n, lag):
        if lag >= n:
            return
        scaled, params = self._scaled(n)
        ds = to_supervised(scaled, lag, PRICE_ONLY, params)
        assert len(ds) == n - lag


class TestSplit:
    def _dataset(self, n):
        series = MergedSeries(
            range(1, n + 2), np.linspace(0.0, 1.0, n + 1), np.zeros(n + 1)
        )
        params = fit_scaler(series)
        return to_supervised(scale(series, params), 1, PRICE_ONLY, params)

    def test_headline_split_vector(self):
        train, test = split(self._dataset(634))
        assert len(train) == 443 and len(test) == 191

    def test_floor_split(self):
        train, test = split(self._dataset(10))
        assert len(train) == 7 and len(test) == 3

    def test_minimum_split(self):
        train, test = split(self._dataset(2))
        assert len(train) == 1 and len(test) == 1

    def test_too_small_error(self):
        with pytest.raises(ValueError):
            split(self._dataset(1))

    @given(st.integers(min_value=2, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_order_preserving_partition(self, n):
        ds = self._dataset(n)
        train, test = split(ds)
        rejoined = np.concatenate([train.targets, test.targets])
        assert np.array_equal(rejoined, ds.targets)
        assert len(train) + len(test) == n


def test_train_test_counts_examples():
    assert train_test_counts(634) == (443, 191)
    assert train_test_counts(10) == (7, 3)
    assert train_test_counts(2) == (1, 1)


def test_merged_series_csv_roundtrip(tmp_path):
    series = MergedSeries([60, 120, 180, 240], [6500.5, math.nan, 6501.25, 6502.0], [0.25, -0.5, 0.0, math.nan])
    path = tmp_path / "merged.csv"
    series.to_csv(path)
    back = MergedSeries.from_csv(path)
    assert back == series
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "time,price,sentiment"
    assert lines[2] == "120,,-0.5" and lines[4] == "240,6502.0,"  # a gap is an empty field


def test_merged_series_rejects_disorder():
    with pytest.raises(ValueError):
        MergedSeries([2, 1], [1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        MergedSeries([1, 1], [1.0, 2.0], [0.0, 0.0])


def test_merged_series_bounds_sentiment_and_timestamps():
    MergedSeries([1, 2, 3], [1.0, 2.0, 3.0], [-1.0, math.nan, 1.0])  # the bounds and a gap pass
    for sentiment in (1.5, -3.0, math.inf):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            MergedSeries([1], [1.0], [sentiment])
    with pytest.raises(ValueError, match="64-bit"):
        MergedSeries([10**20], [1.0], [0.0])
    MergedSeries([-9 * 10**18, 9 * 10**18], [1.0, 2.0], [0.0, 0.0])  # the difference is past 64 bits


@pytest.mark.parametrize("row, message", [
    ("120,6502.0,0.0", "merged input must be strictly time-ordered (120 after 120)"),
    ("180,inf,0.0", "column 'price': price must be finite and > 0"),
    ("180,-101.0,0.0", "column 'price': price must be finite and > 0"),
    ("180,6502.0,-1.5", "column 'sentiment': polarity outside [-1, 1]: -1.5"),
    ("180,6502.0,nan", "column 'sentiment': polarity outside [-1, 1]: nan"),
], ids=["repeated-time", "infinite-price", "negative-price", "sentiment-out-of-range", "nan-sentiment"])
def test_merged_csv_error_names_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"time,price,sentiment\n60,6500.0,0.0\n120,,0.5\n{row}\n")  # line 3 has a gap
    with pytest.raises(ValueError) as info:
        MergedSeries.from_csv(path)
    assert str(info.value).startswith(f"{path}:4: {message}")
