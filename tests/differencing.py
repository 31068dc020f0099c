"""The inverse of arima's differencing: the program forecasts against the
last value of each differencing level and never integrates a differenced
series back, so this is the reference that acceptance criterion 8 and
TestDifferencing check arima._difference_levels against."""

from __future__ import annotations

import numpy as np

from btcforecast.arima import _difference_levels


def difference_with_seeds(series, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The d-th difference of series, and the d seed values (the first
    element of each level 0..d-1) that undifference needs."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= d:
        raise ValueError(f"series of length {len(series)} too short for d={d}")
    levels = _difference_levels(series, d)
    return levels[d], np.array([level[0] for level in levels[:d]])


def _compensated_cumsum(values: np.ndarray) -> np.ndarray:
    """Kahan running sums: keeps iterated integration error at ~eps instead
    of letting it accumulate with series length."""
    out = np.empty(len(values))
    total = 0.0
    comp = 0.0
    for i, v in enumerate(values):
        y = float(v) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        out[i] = total
    return out


def undifference(diffs, seeds) -> np.ndarray:
    """Exact inverse of difference_with_seeds."""
    x = np.asarray(diffs, dtype=np.float64)
    for seed in np.asarray(seeds, dtype=np.float64)[::-1]:
        x = np.concatenate([[seed], seed + _compensated_cumsum(x)])
    return x
