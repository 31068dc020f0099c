from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast.arima import (
    ArimaFitError,
    ArimaOrder,
    _css,
    _lag_matrix,
    difference_with_seeds,
    fit,
    forecast_one,
    rolling_forecast,
    undifference,
)
from btcforecast.dataset import train_test_counts
from btcforecast.evaluation import naive_baseline, rmse
from btcforecast.synthetic import ar_process, random_walk, sine_series


class TestOrder:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ArimaOrder(0, 0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ArimaOrder(-1, 0, 1)

    def test_parse(self):
        assert ArimaOrder.parse("10,1,0") == ArimaOrder(10, 1, 0)
        assert str(ArimaOrder(10, 1, 0)) == "(10,1,0)"


class TestDifferencing:
    def test_first_difference(self):
        assert difference_with_seeds([1.0, 3.0, 6.0], 1)[0].tolist() == [2.0, 3.0]

    def test_undifference_inverts(self):
        assert undifference([2.0, 3.0], [1.0]).tolist() == [1.0, 3.0, 6.0]

    def test_second_difference_by_hand(self):
        # [1,3,6,10] -> [2,3,4] -> [1,1]
        assert difference_with_seeds([1.0, 3.0, 6.0, 10.0], 2)[0].tolist() == [1.0, 1.0]

    def test_too_short(self):
        with pytest.raises(ValueError):
            difference_with_seeds([1.0, 2.0], 2)

    @given(
        st.lists(st.integers(min_value=-1000, max_value=1000), min_size=5, max_size=60),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_roundtrip_is_exact(self, values, d):
        series = np.array(values, dtype=np.float64)
        if len(series) <= d:
            return
        diffs, seeds = difference_with_seeds(series, d)
        assert np.array_equal(undifference(diffs, seeds), series)

    @given(
        st.lists(
            st.floats(min_value=-1e5, max_value=1e5, allow_nan=False),
            min_size=5,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_float_roundtrip(self, values, d):
        series = np.array(values)
        diffs, seeds = difference_with_seeds(series, d)
        back = undifference(diffs, seeds)
        scale = max(1.0, float(np.max(np.abs(series))))
        assert np.all(np.abs(back - series) <= 1e-12 * scale * len(series))


class TestFit:
    def test_ar1_recovery(self):
        y = ar_process([0.8], 5000, sigma=1.0, seed=0)
        model = fit(y, ArimaOrder(1, 0, 0))
        assert abs(model.ar_coeffs[0] - 0.8) < 0.05
        assert model.sigma2 == pytest.approx(1.0, rel=0.1)

    def test_white_noise_phi_near_zero(self):
        y = np.random.default_rng(123).normal(size=5000)
        model = fit(y, ArimaOrder(1, 0, 0))
        assert abs(model.ar_coeffs[0]) < 0.05

    def test_random_walk_with_drift_intercept(self):
        # (0,1,0): the only parameter is the mean of the first differences
        y = np.array([1.0, 3.0, 4.0, 8.0, 9.0])
        model = fit(y, ArimaOrder(0, 1, 0))
        assert model.intercept == pytest.approx(np.diff(y).mean())
        assert model.ar_coeffs.size == 0 and model.ma_coeffs.size == 0

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(20, 50))
            p = int(rng.integers(1, 4))
            y = rng.normal(size=n)
            model = fit(y, ArimaOrder(p, 0, 0))
            X = np.column_stack(
                [np.ones(n - p)] + [y[p - 1 - i : n - 1 - i] for i in range(p)]
            )
            beta = np.linalg.solve(X.T @ X, X.T @ y[p:])
            assert model.intercept == pytest.approx(beta[0], rel=1e-8, abs=1e-10)
            assert np.allclose(model.ar_coeffs, beta[1:], rtol=1e-8, atol=1e-10)

    def test_constant_series_falls_back_with_warning(self):
        y = np.full(50, 7.0)
        with pytest.warns(UserWarning):
            model = fit(y, ArimaOrder(2, 0, 0))
        assert np.allclose(model.ar_coeffs, 0.0)
        assert model.intercept == pytest.approx(7.0)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            fit(np.arange(5.0), ArimaOrder(10, 1, 0))

    def test_ma_estimation_via_gauss_newton(self):
        rng = np.random.default_rng(11)
        n = 6000
        eps = rng.normal(size=n)
        y = np.zeros(n)
        for t in range(1, n):
            y[t] = 0.5 * y[t - 1] + eps[t] + 0.4 * eps[t - 1]
        model = fit(y[500:], ArimaOrder(1, 0, 1))
        assert model.ar_coeffs[0] == pytest.approx(0.5, abs=0.05)
        assert model.ma_coeffs[0] == pytest.approx(0.4, abs=0.05)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ma2_recovery_via_gauss_newton(self):
        # integrated MA(2): w_t = e_t + 0.5 e_{t-1} - 0.3 e_{t-2}, fitted as (1,1,2)
        e = np.random.default_rng(0).normal(size=3002)
        w = e[2:] + 0.5 * e[1:-1] - 0.3 * e[:-2]
        model = fit(np.concatenate([[0.0], np.cumsum(w)]), ArimaOrder(1, 1, 2))
        assert np.allclose(model.ma_coeffs, [0.5, -0.3], atol=0.05)
        assert model.sigma2 < 1.05

    def test_root_moduli_reported(self):
        y = ar_process([0.8], 3000, seed=1)
        model = fit(y, ArimaOrder(1, 0, 0))
        moduli = model.ar_root_moduli()
        assert moduli.shape == (1,)
        assert moduli[0] == pytest.approx(1.0 / model.ar_coeffs[0], rel=1e-9)
        assert "ar root moduli" in model.summary()


class TestForecastOne:
    def test_random_walk_forecasts_last_value(self):
        y = np.array([3.0, 5.0, 4.0, 4.5])
        model = fit(y, ArimaOrder(0, 1, 0), include_intercept=False)
        assert forecast_one(model) == 4.5

    def test_linear_series_forecasts_next_step(self):
        y = np.arange(1.0, 13.0)  # 1, 2, ..., 12
        model = fit(y, ArimaOrder(0, 1, 0))
        assert model.intercept == pytest.approx(1.0)
        assert forecast_one(model) == pytest.approx(13.0)

    def test_ar1_formula(self):
        model = fit(ar_process([0.5], 200, seed=0), ArimaOrder(1, 0, 0), include_intercept=False)
        model.ar_coeffs[0] = 0.5
        model.diff_tail[-1] = 4.0
        assert forecast_one(model) == pytest.approx(2.0)


class TestRollingForecast:
    def test_prediction_length(self):
        y = random_walk(200, seed=0)
        preds = rolling_forecast(y, ArimaOrder(1, 0, 0))
        assert len(preds) == train_test_counts(200)[1]

    def test_random_walk_equals_naive(self):
        y = random_walk(400, sigma=2.0, seed=9, start=50.0)
        preds = rolling_forecast(y, ArimaOrder(0, 1, 0), include_intercept=False)
        n_train, _ = train_test_counts(400)
        assert np.array_equal(preds, y[n_train - 1 : -1])

    def test_sine_beats_naive(self):
        series = sine_series(n=300, period=40)
        preds = rolling_forecast(series.price, ArimaOrder(10, 1, 0))
        n_train, _ = train_test_counts(300)
        arima_rmse = rmse(series.price[n_train:], preds)
        naive_rmse = naive_baseline(series.time, series.price).rmse
        assert arima_rmse < naive_rmse

    def test_no_leakage(self):
        y = random_walk(120, seed=4)
        base = rolling_forecast(y, ArimaOrder(2, 0, 0))
        n_train, n_test = train_test_counts(120)
        for j in (n_test - 1, n_test // 2):
            mutated = y.copy()
            mutated[n_train + j] += 1000.0
            changed = rolling_forecast(mutated, ArimaOrder(2, 0, 0))
            assert np.array_equal(changed[: j + 1], base[: j + 1])

    def test_refit_once_mode(self):
        y = random_walk(150, seed=1, start=10.0)
        always = rolling_forecast(y, ArimaOrder(0, 1, 0), include_intercept=False)
        once = rolling_forecast(
            y, ArimaOrder(0, 1, 0), include_intercept=False, refit="once"
        )
        # with no parameters to re-estimate the two modes coincide
        assert np.allclose(always, once)

    def test_fit_error_reports_index(self):
        y = random_walk(40, seed=2)
        with pytest.raises(ArimaFitError, match="index"):
            rolling_forecast(y, ArimaOrder(30, 1, 0))


@pytest.mark.parametrize("p,q", [(1, 1), (0, 2), (1, 2), (2, 3)])
@pytest.mark.parametrize("include_intercept", [True, False])
def test_css_jacobian_matches_finite_differences(p, q, include_intercept):
    rng = np.random.default_rng(10 * p + q)
    w = rng.normal(size=80)
    beta = rng.uniform(-0.4, 0.4, size=int(include_intercept) + p + q)
    y, X = w[p:].tolist(), _lag_matrix(w, p, include_intercept)
    eps, jac = _css(y, X, beta, (-X).tolist())
    # the innovations-only pass gives the same innovations
    assert np.array_equal(_css(y, X, beta)[0], eps)
    h = 1e-6
    for k in range(len(beta)):
        dk = np.zeros_like(beta)
        dk[k] = h
        upper, _ = _css(y, X, beta + dk)
        lower, _ = _css(y, X, beta - dk)
        assert np.allclose(jac[:, k], (upper - lower) / (2 * h), rtol=0, atol=1e-6)


def test_estimates_converge_with_sample_size():
    """ARIMA(2,1,0) with known coefficients: median estimation error over
    10 seeds shrinks from n=500 to n=5000."""
    phis = np.array([0.5, -0.25])
    errors = {500: [], 5000: []}
    for seed in range(10):
        stationary = ar_process(phis, 5000, sigma=1.0, seed=seed)
        integrated = np.concatenate([[0.0], np.cumsum(stationary)])
        for n in (500, 5000):
            model = fit(integrated[: n + 1], ArimaOrder(2, 1, 0))
            errors[n].append(float(np.max(np.abs(model.ar_coeffs - phis))))
    assert np.median(errors[5000]) < np.median(errors[500])
