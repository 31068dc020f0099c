#!/usr/bin/env python3
"""ARIMA walkthrough: estimation, one-step forecasts, and the rolling
(static) forecast loop that refits after every observed test point.
"""

import numpy as np

from btcforecast.arima import ArimaOrder, fit, forecast_one, rolling_forecast
from btcforecast.dataset import train_test_counts
from btcforecast.evaluation import naive_baseline, rmse
from btcforecast.synthetic import ar_process, random_walk, sine_series

# --- coefficient recovery on a known AR(2) process
truth = [0.6, -0.3]
y = ar_process(truth, 5000, sigma=1.0, seed=1)
model = fit(y, ArimaOrder(2, 0, 0))
print(f"AR(2) truth {truth} -> estimated {np.round(model.ar_coeffs, 3).tolist()}")
print(model.summary())

# --- differencing handles trend: (0,1,0) on a linear ramp learns the slope
ramp = np.arange(1.0, 40.0)
model = fit(ramp, ArimaOrder(0, 1, 0))
print(f"\nlinear ramp: drift {model.intercept:.3f}, next forecast {forecast_one(model, ramp):.1f}")

# --- rolling one-step forecasts on a random walk collapse to last-value
walk = random_walk(600, sigma=2.0, seed=5, start=100.0)
preds = rolling_forecast(walk, ArimaOrder(0, 1, 0), include_intercept=False)
n_train, _ = train_test_counts(len(walk))
print(
    f"\nrandom walk: rolling (0,1,0) RMSE {rmse(walk[n_train:], preds):.3f} "
    f"vs naive {naive_baseline(np.arange(len(walk)), walk).rmse:.3f} (identical forecasts)"
)

# --- on structure the AR terms earn their keep
series = sine_series(n=300, period=40)
preds = rolling_forecast(series.price, ArimaOrder(10, 1, 0))
n_train, _ = train_test_counts(len(series))
print(
    f"sine wave:  rolling (10,1,0) RMSE {rmse(series.price[n_train:], preds):.2e} "
    f"vs naive {naive_baseline(series.time, series.price).rmse:.2f} USD"
)
