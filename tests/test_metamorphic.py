"""Metamorphic tests of the forecasters.

Under a positive affine price map y -> a * y + b, every forecast maps the
same way, and so does the choice of path inside the rolling AR refits. A
forecast f of the mapped prices is mapped back as (f - b) / a and must
agree with the forecast of the original prices within 1e-9 of the largest
of those. Small scales are included, since low-priced assets trade there.

Under a shift of every timestamp by a whole number of buckets, every row
moves by that shift and nothing else changes: merged prices and sentiment,
forecasts, losses and metrics keep their bits."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from btcforecast import arima, cli, evaluation
from btcforecast.arima import ArimaOrder
from btcforecast.dataset import PRICE_AND_SENTIMENT, PRICE_ONLY, MergedSeries, merge
from btcforecast.lstm import LstmConfig

FIXTURE_SINE = Path(__file__).resolve().parent.parent / "fixtures" / "sine.csv"

SCALES = (1e-4, 3.0)
SHIFTS = (0.0, 1e4)
LSTM_CONFIG = LstmConfig(hidden_size=8, lag=3, epochs=60, seed=1)
# timestamp shifts, in buckets
BUCKET_SHIFTS = (1000, -3, 10**9)


def _noisy_sine(n: int = 300) -> MergedSeries:
    """A daily sine (period 40, amplitude 1500, base 8000) plus N(0, 25^2)
    noise, and N(0, 0.5^2) sentiment clipped to [-1, 1]."""
    i = np.arange(n)
    rng = np.random.default_rng(5)
    price = 8000.0 + 1500.0 * np.sin(2.0 * np.pi * i / 40.0) + rng.normal(0.0, 25.0, n)
    return MergedSeries((i + 1) * 86400, price, np.clip(rng.normal(0.0, 0.5, n), -1.0, 1.0))


def _arima111_draw(n: int = 300) -> np.ndarray:
    """ARIMA(1,1,1) prices, phi 0.6, theta 0.3, sigma 20, from a level of 9000."""
    rng = np.random.default_rng([0, 2])
    eps = rng.normal(0.0, 20.0, n + 100)
    w = np.zeros(n + 100)
    for t in range(1, n + 100):
        w[t] = 0.6 * w[t - 1] + eps[t] + 0.3 * eps[t - 1]
    return 9000.0 + np.cumsum(w[100:])


def _mapped(series: MergedSeries, a: float, b: float) -> MergedSeries:
    return MergedSeries(series.time, a * series.price + b, series.sentiment)


def _assert_maps(mapped_forecast, forecast, a, b):
    back = (np.asarray(mapped_forecast) - b) / a
    assert np.max(np.abs(back - forecast)) <= 1e-9 * np.max(np.abs(forecast))


@pytest.fixture(scope="module")
def sine():
    return _noisy_sine()


@pytest.fixture(scope="module")
def lstm_forecasts(sine):
    return {features: cli.lstm_report(sine, features, LSTM_CONFIG).predicted
            for features in (PRICE_ONLY, PRICE_AND_SENTIMENT)}


_MAPS = pytest.mark.parametrize("a, b", [(a, b) for a in SCALES for b in SHIFTS])


@_MAPS
def test_naive_forecast_maps(sine, a, b):
    mapped = evaluation.naive_baseline(sine.time, a * sine.price + b).predicted
    _assert_maps(mapped, evaluation.naive_baseline(sine.time, sine.price).predicted, a, b)


@_MAPS
@pytest.mark.parametrize("features", [PRICE_ONLY, PRICE_AND_SENTIMENT])
def test_lstm_forecast_maps(sine, lstm_forecasts, features, a, b):
    mapped = cli.lstm_report(_mapped(sine, a, b), features, LSTM_CONFIG).predicted
    _assert_maps(mapped, lstm_forecasts[features], a, b)


@_MAPS
def test_rolling_ar_forecast_and_path_map(sine, fit_calls, a, b):
    """ARIMA(10,1,0) with a refit per step: the refits after the first are
    batched at every scale (one fit call, the training prefix)."""
    order = ArimaOrder(10, 1, 0)
    forecast = arima.rolling_forecast(sine.price, order)
    assert len(fit_calls) == 1
    mapped = arima.rolling_forecast(a * sine.price + b, order)
    assert len(fit_calls) == 2
    _assert_maps(mapped, forecast, a, b)


@pytest.fixture(scope="module")
def arima111_forecast():
    return arima.rolling_forecast(_arima111_draw(), ArimaOrder(1, 1, 1))


@_MAPS
def test_rolling_arima111_forecast_maps(arima111_forecast, a, b):
    mapped = arima.rolling_forecast(a * _arima111_draw() + b, ArimaOrder(1, 1, 1))
    _assert_maps(mapped, arima111_forecast, a, b)


def _evaluate_sine(root: Path, shift_s: int) -> Path:
    """evaluate (20 epochs, lag 3, the other flags at their defaults) on the
    sine fixture with every time moved by shift_s."""
    header, *lines = FIXTURE_SINE.read_text(encoding="utf-8").splitlines()
    shifted = [f"{int(time) + shift_s},{rest}" for time, rest in (line.split(",", 1) for line in lines)]
    root.mkdir()
    (root / "sine.csv").write_text("\n".join([header, *shifted]) + "\n", encoding="utf-8")
    code = cli.run(["evaluate", "--data", str(root / "sine.csv"), "--epochs", "20", "--lag", "3",
                    "--out-dir", str(root / "out")])
    assert code == 0
    return root / "out"


def _time_and_rest(path: Path) -> tuple[list[int], list[str]]:
    """The time column of a plot-data file as integers, and every line
    with its time field cut off (the header included)."""
    times, rest = [], []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        time, _, others = line.partition(",")
        if i:
            times.append(int(time))
        rest.append(others)
    return times, rest


@pytest.fixture(scope="module")
def unshifted_outputs(tmp_path_factory):
    return _evaluate_sine(tmp_path_factory.mktemp("sine") / "unshifted", 0)


@pytest.mark.parametrize("k", BUCKET_SHIFTS)
def test_evaluate_under_a_timestamp_shift(unshifted_outputs, tmp_path, k):
    """Shifting the fixture's times by k days moves every output time by k
    days; metrics, losses, forecasts and the normalized series keep their
    bytes."""
    shifted = _evaluate_sine(tmp_path / "shifted", k * 86400)
    for name in ("metrics.csv", "loss_lstm_single.csv", "loss_lstm_multi.csv"):
        assert (shifted / name).read_bytes() == (unshifted_outputs / name).read_bytes(), name
    plot_files = sorted(p.name for p in unshifted_outputs.glob("*.csv")
                        if p.name.startswith(("forecast_", "normalized")))
    assert len(plot_files) == 5
    for name in plot_files:
        times, rest = _time_and_rest(unshifted_outputs / name)
        shifted_times, shifted_rest = _time_and_rest(shifted / name)
        assert shifted_rest == rest, name
        assert shifted_times == [t + k * 86400 for t in times], name


# (time, price) ticks and (time, polarity) posts around 60 s bucket edges:
# on an edge, one past it, several in one bucket, and posts in buckets
# that hold no tick
_TICKS = [(1, 100.0), (60, 101.0), (61, 99.5), (150, 102.25), (299, 103.0), (300, 98.0), (601, 97.5)]
_POSTS = [(0, 0.5), (60, -0.25), (61, 1.0), (62, -1.0), (65, 0.3), (200, 0.75), (601, 0.1)]


@pytest.mark.parametrize("k", BUCKET_SHIFTS)
def test_merge_under_a_timestamp_shift(k):
    """Shifting tick and post times by k buckets moves each merged row by k
    buckets and leaves its price and sentiment bits unchanged."""
    bucket = 60
    base = merge(_TICKS, _POSTS, bucket)
    shifted = merge([(t + k * bucket, p) for t, p in _TICKS], [(t + k * bucket, s) for t, s in _POSTS], bucket)
    assert shifted.time.tolist() == [t + k * bucket for t in base.time.tolist()]
    assert shifted.price.tobytes() == base.price.tobytes()
    assert shifted.sentiment.tobytes() == base.sentiment.tobytes()
