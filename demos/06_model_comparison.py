#!/usr/bin/env python3
"""Benchmark walkthrough: single- and multi-feature LSTM vs ARIMA vs the
naive last-value baseline, on a series whose sentiment column genuinely
carries next-step information.

The same comparison is available from the command line:
    btcforecast evaluate --data fixtures/sine.csv --seed 7 --out-dir out
"""

from btcforecast import evaluation, lstm
from btcforecast.arima import ArimaOrder, rolling_forecast
from btcforecast.dataset import (
    PRICE_AND_SENTIMENT,
    PRICE_ONLY,
    fit_scaler,
    scale,
    split,
    to_supervised,
    train_test_counts,
    unscale_column,
)
from btcforecast.synthetic import signal_sentiment_series

series = signal_sentiment_series(n=400, seed=0)
print(f"{len(series)} rows; sentiment leaks the sign of the next move")

scaler = fit_scaler(series)
scaled = scale(series, scaler)
reports = []

for mode, n_features in ((PRICE_ONLY, 1), (PRICE_AND_SENTIMENT, 2)):
    ds = to_supervised(scaled, lag=1, features=mode, scaler=scaler)
    train_ds, test_ds = split(ds)
    config = lstm.LstmConfig(
        n_features=n_features, hidden_size=16, lag=1, epochs=300, learning_rate=0.01, seed=1
    )
    (model, history), train_ms = evaluation.time_call(lstm.train, config, train_ds)
    predicted = lstm.predict_series(model, test_ds)
    actual = unscale_column(test_ds.targets, scaler, "price")
    name = "lstm_single" if mode == PRICE_ONLY else "lstm_multi"
    reports.append(
        evaluation.ForecastReport.create(
            name, test_ds.target_times, actual, predicted,
            build_time_ms=history.build_time_ms, train_or_fit_time_ms=train_ms,
        )
    )

order = ArimaOrder(10, 1, 0)
n_train, _ = train_test_counts(len(series))
preds, fit_ms = evaluation.time_call(rolling_forecast, series.price, order)
reports.append(
    evaluation.ForecastReport.create(
        f"arima{order}", series.time[n_train:], series.price[n_train:], preds,
        train_or_fit_time_ms=fit_ms,
    )
)

reports.append(evaluation.naive_baseline(series.time, series.price))

table = evaluation.compare(reports)
print()
print(table.to_text())
print(f"\nwinner: {table.winner}")

multi = next(r for r in reports if r.model_name == "lstm_multi")
single = next(r for r in reports if r.model_name == "lstm_single")
gain = 100.0 * (single.rmse - multi.rmse) / single.rmse
print(f"adding the sentiment feature cuts test RMSE by {gain:.0f}%")
