#!/usr/bin/env python3
"""Benchmark walkthrough: single- and multi-feature LSTM vs ARIMA vs the
naive last-value baseline, on a series whose sentiment column genuinely
carries next-step information.

The same comparison is available from the command line:
    btcforecast evaluate --data fixtures/sine.csv --seed 7 --out-dir out
"""

from btcforecast import evaluation
from btcforecast.arima import ArimaOrder
from btcforecast.cli import run_comparison
from btcforecast.lstm import LstmConfig
from btcforecast.synthetic import signal_sentiment_series

series = signal_sentiment_series(n=400, seed=0)
print(f"{len(series)} rows; sentiment leaks the sign of the next move")

config = LstmConfig(hidden_size=16, lag=1, epochs=300, learning_rate=0.01, seed=1)
reports = {r.model_name: r for r in run_comparison(series, config, ArimaOrder(10, 1, 0))}

table = evaluation.compare(list(reports.values()))
print()
print(table.to_text())
print(f"\nwinner: {table.winner}")

single, multi = reports["lstm_single"].rmse, reports["lstm_multi"].rmse
print(f"adding the sentiment feature cuts test RMSE by {100.0 * (single - multi) / single:.0f}%")
