"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest -s tests/test_acceptance.py`` to see
them inline). Tolerances and runtime budgets are asserted, not just logged.
"""

from __future__ import annotations

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from btcforecast import arima, evaluation, lstm
from btcforecast.arima import ArimaOrder, rolling_forecast
from btcforecast.cli import run
from btcforecast.dataset import (
    PRICE_AND_SENTIMENT,
    PRICE_ONLY,
    MergedSeries,
    fit_scaler,
    scale,
    split,
    to_supervised,
    train_test_counts,
    unscale_column,
)
from btcforecast.lstm import LstmConfig, init, train
from btcforecast.sentiment import classify, normalize_text
from btcforecast.synthetic import ar_process, random_walk, signal_sentiment_series
from differencing import difference_with_seeds, undifference
from gradcheck import backward, fd_gradients, forward, max_rel_err

FIXTURE_SINE = Path(__file__).resolve().parent.parent / "fixtures" / "sine.csv"


def _report(n: int, message: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_gradient_oracle():
    """Analytic BPTT vs central finite differences (h=1e-5) within 1e-4
    relative on >= 100 random small models, in under 10 s."""
    rng = np.random.default_rng(20260809)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        hidden = int(rng.integers(1, 5))
        lag = int(rng.integers(1, 4))
        nf = int(rng.integers(1, 3))
        cfg = LstmConfig(
            n_features=nf, hidden_size=hidden, lag=lag, seed=int(rng.integers(1_000_000))
        )
        model = init(cfg)
        window = rng.uniform(0.0, 1.0, size=(lag, nf))
        d_pred = float(rng.uniform(-2.0, 2.0))
        _, cache = forward(model, window)
        analytic = backward(model, cache, d_pred)
        numeric = fd_gradients(model, window, d_pred, h_step=1e-5)
        worst = max(worst, max_rel_err(analytic, numeric))
        assert worst < 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"100 models, worst relative gradient error {worst:.3g} in {elapsed:.1f}s")


def test_criterion_2_ar_recovery():
    """Simulated AR(2), phi=(0.6,-0.3), sigma=1, n=5000, 10 seeds: median
    coefficient error < 0.05, in under 5 s."""
    t0 = time.perf_counter()
    phis = np.array([0.6, -0.3])
    errors = []
    for seed in range(10):
        y = ar_process(phis, 5000, sigma=1.0, seed=seed)
        model = arima.fit(y, ArimaOrder(2, 0, 0))
        errors.append(float(np.max(np.abs(model.ar_coeffs - phis))))
    elapsed = time.perf_counter() - t0
    median_err = float(np.median(errors))
    assert median_err < 0.05
    assert elapsed < 5.0
    _report(2, f"median AR(2) coefficient error {median_err:.4f} over 10 seeds in {elapsed:.1f}s")


def test_criterion_3_random_walk_sanity():
    """ARIMA(0,1,0) zero-intercept rolling forecast on a random walk: RMSE
    within 5% of the innovation sigma, and identical to the naive baseline."""
    sigma = 1.0
    walk = random_walk(2000, sigma=sigma, seed=3, start=100.0)
    times = np.arange(2000)
    preds = rolling_forecast(walk, ArimaOrder(0, 1, 0), include_intercept=False)
    n_train, _ = train_test_counts(2000)
    model_rmse = evaluation.rmse(walk[n_train:], preds)
    naive = evaluation.naive_baseline(times, walk)
    assert abs(model_rmse - sigma) / sigma < 0.05
    assert np.array_equal(preds, naive.predicted)
    assert model_rmse == pytest.approx(naive.rmse, rel=1e-12)
    _report(3, f"random-walk RMSE {model_rmse:.4f} vs sigma {sigma} and equals the naive baseline")


def test_criterion_4_sine_fixture():
    """On the bundled noiseless sine: LSTM (lag 10, hidden 32, 200 epochs,
    seed 7) reaches scaled test RMSE < 0.05 and ARIMA(10,1,0) beats the
    naive baseline, all in under 60 s."""
    t0 = time.perf_counter()
    series = MergedSeries.from_csv(FIXTURE_SINE)
    scaler = fit_scaler(series)
    scaled = scale(series, scaler)
    ds = to_supervised(scaled, 10, PRICE_ONLY, scaler)
    train_ds, test_ds = split(ds)
    cfg = LstmConfig(n_features=1, hidden_size=32, lag=10, epochs=200, learning_rate=0.01, seed=7)
    model, _ = train(cfg, train_ds)
    scaled_rmse = evaluation.rmse(test_ds.targets, lstm.predict_scaled(model, test_ds))
    assert scaled_rmse < 0.05

    preds = rolling_forecast(series.price, ArimaOrder(10, 1, 0))
    n_train, _ = train_test_counts(len(series))
    arima_rmse = evaluation.rmse(series.price[n_train:], preds)
    naive_rmse = evaluation.naive_baseline(series.time, series.price).rmse
    assert arima_rmse < naive_rmse

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        4,
        f"LSTM scaled test RMSE {scaled_rmse:.4f} < 0.05; "
        f"ARIMA {arima_rmse:.3g} < naive {naive_rmse:.3f} USD; {elapsed:.1f}s",
    )


def test_criterion_5_multi_feature_ordering():
    """When the sentiment column leaks the sign of the next move, the
    multi-feature LSTM matches or beats the single-feature one on the
    median of 5 seeds, reproducing the headline benchmark ordering."""
    series = signal_sentiment_series(n=400, seed=0)
    scaler = fit_scaler(series)
    scaled = scale(series, scaler)
    medians = {}
    for mode, nf in ((PRICE_ONLY, 1), (PRICE_AND_SENTIMENT, 2)):
        ds = to_supervised(scaled, 1, mode, scaler)
        train_ds, test_ds = split(ds)
        rmses = []
        for seed in range(5):
            cfg = LstmConfig(
                n_features=nf, hidden_size=16, lag=1, epochs=300, learning_rate=0.01, seed=seed
            )
            model, _ = train(cfg, train_ds)
            predicted = lstm.predict_series(model, test_ds)
            actual = (
                np.asarray(test_ds.targets) * (scaler.maxs[0] - scaler.mins[0]) + scaler.mins[0]
            )
            rmses.append(evaluation.rmse(actual, predicted))
        medians[mode] = float(np.median(rmses))
    assert medians[PRICE_AND_SENTIMENT] <= medians[PRICE_ONLY]
    _report(
        5,
        f"median test RMSE multi {medians[PRICE_AND_SENTIMENT]:.1f} <= "
        f"single {medians[PRICE_ONLY]:.1f} USD over 5 seeds",
    )


def test_criterion_6_split_vector():
    """634 supervised samples at 0.7 split exactly into 443 train / 191 test."""
    assert train_test_counts(634, 0.7) == (443, 191)
    series = MergedSeries(
        np.arange(1, 636), np.linspace(1.0, 2.0, 635), np.zeros(635)
    )
    scaler = fit_scaler(series)
    ds = to_supervised(scale(series, scaler), 1, PRICE_ONLY, scaler)
    assert len(ds) == 634
    train_ds, test_ds = split(ds, 0.7)
    assert len(train_ds) == 443 and len(test_ds) == 191
    _report(6, "n=634 split 0.7 -> 443 train / 191 test")


def test_criterion_7_preprocessing_corpus():
    """The three text transformations and the polarity thresholds."""
    assert normalize_text("#Microsoft") == "Microsoft"
    assert normalize_text("@Billgates") == "User"
    assert normalize_text("cooooool!") == "cool!"
    assert classify(0.5) == "Positive"
    assert classify(-0.1) == "Negative"
    assert classify(0.0) == "Neutral"
    _report(7, "hashtag/mention/elongation rewrites and +0.5/-0.1/0.0 labels exact")


def test_criterion_8_exact_inverses():
    """scale/unscale_column and difference/undifference round-trip within 1e-12
    (relative to column/series magnitude) on 1000 random series.

    The differencing series are price-like random walks: d-th differences of
    arbitrary-magnitude white noise are at the mercy of float64 rounding that
    no implementation can integrate back below 1e-12 (that adversarial case
    is covered with a length-aware bound in test_arima.py).
    """
    rng = np.random.default_rng(77)
    worst_scale = 0.0
    worst_diff = 0.0
    for i in range(1000):
        n = int(rng.integers(5, 60))
        magnitude = 10.0 ** rng.uniform(-2, 5)
        uniform_col = rng.uniform(-magnitude, magnitude, size=n)
        sentiments = rng.uniform(-1.0, 1.0, size=n)
        series = MergedSeries(np.arange(1, n + 1), uniform_col, sentiments)
        params = fit_scaler(series)
        scaled = scale(series, params)
        cols = np.stack([scaled.price, scaled.sentiment], axis=1)
        back = np.stack([unscale_column(cols[:, j], params, name) for j, name in enumerate(params.columns)],
                        axis=1)
        original = np.stack([uniform_col, sentiments], axis=1)
        col_scale = np.maximum(np.maximum(np.abs(params.mins), np.abs(params.maxs)), 1.0)
        worst_scale = max(worst_scale, float(np.max(np.abs(back - original) / col_scale)))

        start = float(rng.uniform(100.0, 10000.0))
        steps = rng.normal(rng.uniform(-1.0, 1.0), 0.01 * start, size=n - 1)
        prices = np.concatenate([[start], start + np.cumsum(steps)])
        d = int(rng.integers(1, 4))
        diffs, seeds = difference_with_seeds(prices, d)
        rebuilt = undifference(diffs, seeds)
        scale_ref = max(1.0, float(np.max(np.abs(prices))))
        worst_diff = max(worst_diff, float(np.max(np.abs(rebuilt - prices)) / scale_ref))
    assert worst_scale < 1e-12
    assert worst_diff < 1e-12
    _report(
        8,
        f"1000 series: worst scaler round-trip {worst_scale:.2e}, "
        f"worst differencing round-trip {worst_diff:.2e} (both < 1e-12)",
    )


def test_criterion_9_timing_report(tmp_path):
    """`evaluate` emits build/fit wall-clock for both model families; the
    magnitudes are reported, never asserted."""
    data = tmp_path / "series.csv"
    from btcforecast.synthetic import sine_series

    sine_series(n=120, period=24).to_csv(data)
    out_dir = tmp_path / "out"
    code = run(
        ["evaluate", "--data", str(data), "--seed", "7", "--out-dir", str(out_dir),
         "--epochs", "8", "--hidden", "6", "--lag", "2", "--order", "4,1,0"]
    )
    assert code == 0
    with open(out_dir / "comparison.csv", newline="") as f:
        rows = {r["model"]: r for r in csv.DictReader(f)}
    lstm_fit = float(rows["lstm_single"]["train_or_fit_time_ms"])
    arima_fit = float(rows["arima(4,1,0)"]["train_or_fit_time_ms"])
    assert lstm_fit > 0.0 and arima_fit > 0.0
    assert float(rows["lstm_single"]["build_time_ms"]) >= 0.0
    assert float(rows["arima(4,1,0)"]["build_time_ms"]) >= 0.0
    _report(
        9,
        f"evaluate reported LSTM train {lstm_fit:.1f} ms vs ARIMA rolling fit "
        f"{arima_fit:.1f} ms (magnitudes informational)",
    )
