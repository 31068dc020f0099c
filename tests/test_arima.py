from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from btcforecast.arima import (
    _MIN_GRAM_RATIO,
    ArimaFitError,
    ArimaOrder,
    _css,
    _impulse_response,
    _lag_matrix,
    fit,
    forecast_one,
    rolling_forecast,
)
from btcforecast.dataset import train_test_counts
from btcforecast.evaluation import naive_baseline, rmse
from btcforecast.synthetic import ar_process, random_walk, sine_series
from css_reference import reference_css
from differencing import difference_with_seeds, undifference


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
        assert forecast_one(model, y) == 4.5

    def test_linear_series_forecasts_next_step(self):
        y = np.arange(1.0, 13.0)  # 1, 2, ..., 12
        model = fit(y, ArimaOrder(0, 1, 0))
        assert model.intercept == pytest.approx(1.0)
        assert forecast_one(model, y) == pytest.approx(13.0)

    def test_ar1_formula(self):
        y = ar_process([0.5], 200, seed=0)
        model = fit(y, ArimaOrder(1, 0, 0), include_intercept=False)
        model.ar_coeffs[0] = 0.5
        y[-1] = 4.0
        assert forecast_one(model, y) == pytest.approx(2.0)

    @pytest.mark.parametrize("p, d, q, length", [(0, 1, 2, 2), (3, 1, 0, 3)])
    def test_short_series_is_refused_by_the_fit_rule(self, p, d, q, length):
        """A series fit would refuse is refused, not read past its start."""
        order = ArimaOrder(p, d, q)
        model = fit(random_walk(100, seed=3), order)
        short = random_walk(length, seed=3)
        message = re.escape(f"series of length {length} too short for order {order}")
        with pytest.raises(ValueError, match=message):
            fit(short, order)
        with pytest.raises(ValueError, match=message):
            forecast_one(model, short)

    @pytest.mark.parametrize("p, d, q", [(1, 1, 1), (0, 1, 2), (2, 2, 1)])
    def test_training_fit_forecasts_as_refit_once(self, p, d, q):
        """forecast_one of the training fit on each prefix has the bits of
        the refit-once forecast of the value after it: one formula."""
        series = _arma11_integrated(160, d, seed=6)
        order = ArimaOrder(p, d, q)
        n_train, _ = train_test_counts(len(series))
        model = fit(series[:n_train], order)
        one_by_one = [forecast_one(model, series[:end]) for end in range(n_train, len(series))]
        assert np.array_equal(one_by_one, rolling_forecast(series, order, refit="once"))


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

    @pytest.mark.parametrize("refit, p, d, q", [
        ("always", 2, 0, 0),
        ("once", 2, 0, 0),
        pytest.param("always", 1, 1, 1, marks=pytest.mark.xfail(
            raises=ArimaFitError, strict=True,
            reason="a refit after the outlier does not converge, which aborts the whole forecast")),
        ("once", 1, 1, 1),
    ])
    def test_no_leakage(self, refit, p, d, q):
        y = random_walk(120, seed=4)
        order = ArimaOrder(p, d, q)
        base = rolling_forecast(y, order, refit=refit)
        n_train, n_test = train_test_counts(120)
        for j in (n_test - 1, n_test // 2):
            mutated = y.copy()
            mutated[n_train + j] += 1000.0
            changed = rolling_forecast(mutated, order, refit=refit)
            assert np.array_equal(changed[: j + 1], base[: j + 1])

    def test_refit_once_mode(self):
        y = random_walk(150, seed=1, start=10.0)
        always = rolling_forecast(y, ArimaOrder(0, 1, 0), include_intercept=False)
        once = rolling_forecast(
            y, ArimaOrder(0, 1, 0), include_intercept=False, refit="once"
        )
        # with no parameters to re-estimate the two modes coincide
        assert np.allclose(always, once)

    @pytest.mark.parametrize("p, d, q", [(1, 0, 1), (0, 1, 2), (1, 1, 1), (2, 2, 1)])
    @pytest.mark.parametrize("include_intercept", [True, False])
    def test_refit_once_matches_the_css_recursion(self, p, d, q, include_intercept):
        """With refit once, the forecast of series[e] is forecast_one's sum
        over the training fit's coefficients, its MA terms read from the
        scalar CSS recursion run over the whole series."""
        series = _arma11_integrated(200, d, seed=d)
        order = ArimaOrder(p, d, q)
        n_train, _ = train_test_counts(200)
        model = fit(series[:n_train], order, include_intercept)
        w = np.diff(series, d)
        beta = np.concatenate([[model.intercept] if include_intercept else [], model.ar_coeffs, model.ma_coeffs])
        eps, _ = reference_css(w[p:], _lag_matrix(w, p, include_intercept), beta)
        expected = []
        for end in range(n_train, 200):
            pred = model.intercept
            for i in range(p):
                pred += model.ar_coeffs[i] * w[end - d - 1 - i]
            for j in range(q):
                pred += model.ma_coeffs[j] * eps[end - d - 1 - p - j]
            for level in reversed(range(d)):
                pred += np.diff(series[:end], level)[-1]
            expected.append(pred)
        once = rolling_forecast(series, order, include_intercept=include_intercept, refit="once")
        _assert_close_to(once, np.array(expected))

    def test_fit_error_reports_index(self):
        y = random_walk(40, seed=2)
        with pytest.raises(ArimaFitError, match="index"):
            rolling_forecast(y, ArimaOrder(30, 1, 0))


def _arma11_integrated(n, d, seed):
    """ARMA(1,1) values (phi 0.5, theta 0.4, sigma 2), summed d times from
    a level of 100."""
    e = np.random.default_rng(seed).normal(0.0, 2.0, n + 1)
    series = np.zeros(n)
    for t in range(1, n):
        series[t] = 0.5 * series[t - 1] + e[t + 1] + 0.4 * e[t]
    for _ in range(d):
        series = 100.0 + np.cumsum(series)
    return series


def _per_prefix_forecasts(series, order, include_intercept=True):
    """The oracle of a rolling forecast with refit always: fit and
    forecast_one on every prefix, one by one."""
    n_train, _ = train_test_counts(len(series))
    return np.array([forecast_one(fit(series[:end], order, include_intercept), series[:end])
                     for end in range(n_train, len(series))])


def _equilibrated_gram_ratios(series, p, d, include_intercept=True):
    """min / max eigenvalue of the Gram matrix, its diagonal scaled to 1,
    of the lag design of each prefix the batched path solves."""
    w = np.diff(series, d)
    X = _lag_matrix(w, p, include_intercept)
    n_train, _ = train_test_counts(len(series))
    ratios = []
    for end in range(n_train + 1, len(series)):
        rows = X[: end - d - p]
        gram = rows.T @ rows
        scale = 1.0 / np.sqrt(np.diag(gram))
        eig = np.linalg.eigvalsh(gram * scale[:, None] * scale[None, :])
        ratios.append(eig[0] / eig[-1])
    return np.array(ratios)


def _assert_close_to(new, reference, rtol=1e-9):
    """Every forecast within rtol of the largest reference forecast."""
    assert np.max(np.abs(new - reference)) <= rtol * np.max(np.abs(reference))


class TestRollingArRefits:
    """With refit always and q = 0, rolling_forecast solves the refits after
    the first from running normal equations, and leaves nearly singular
    designs and constant differences to fit."""

    @pytest.mark.parametrize("d", [0, 1, 2])
    @pytest.mark.parametrize("p", [1, 3, 10])
    @pytest.mark.parametrize("include_intercept", [True, False])
    def test_matches_a_fit_per_prefix(self, fit_calls, d, p, include_intercept):
        w = ar_process([0.5, -0.3, 0.1], 200, sigma=2.0, seed=10 * d + p, c=0.5 * include_intercept)
        series = w
        for _ in range(d):
            series = np.concatenate([[100.0], 100.0 + np.cumsum(series)])
        order = ArimaOrder(p, d, 0)
        batched = rolling_forecast(series, order, include_intercept=include_intercept)
        assert len(fit_calls) == 1  # the training prefix; every refit took the batched path
        _assert_close_to(batched, _per_prefix_forecasts(series, order, include_intercept))

    def test_noiseless_sine_takes_lstsq_at_every_prefix(self, fit_calls):
        """A noiseless sine's lag design is rank-deficient; lstsq's
        minimum-norm answer is kept, bit for bit."""
        price = sine_series(n=300, period=40).price
        order = ArimaOrder(10, 1, 0)
        assert _equilibrated_gram_ratios(price, 10, 1).max() < 1e-12
        batched = rolling_forecast(price, order)
        assert len(fit_calls) == train_test_counts(300)[1]
        assert np.array_equal(batched, _per_prefix_forecasts(price, order))

    @pytest.mark.parametrize("noise, batched_fits", [(0.0015, 1), (0.001, None)],
                             ids=["just-above", "just-below"])
    def test_design_at_the_threshold(self, fit_calls, noise, batched_fits):
        """A sine plus a little noise under AR(3) makes a nearly collinear
        design. Just above the threshold every refit is batched and stays
        within 1e-9; just below, every one is fit as before, bit for bit."""
        t = np.arange(300)
        series = np.sin(2 * np.pi * t / 40) + np.random.default_rng(0).normal(0.0, noise, 300)
        order = ArimaOrder(3, 0, 0)
        ratios = _equilibrated_gram_ratios(series, 3, 0)
        batched = rolling_forecast(series, order)
        reference = _per_prefix_forecasts(series, order)
        if batched_fits:
            assert _MIN_GRAM_RATIO <= ratios.min() <= 2 * _MIN_GRAM_RATIO
            assert len(fit_calls) == batched_fits
            _assert_close_to(batched, reference)
        else:
            assert ratios.max() < _MIN_GRAM_RATIO
            assert len(fit_calls) == train_test_counts(300)[1]
            assert np.array_equal(batched, reference)

    @pytest.mark.parametrize("include_intercept", [True, False])
    def test_constant_differences_still_warn(self, fit_calls, include_intercept):
        series = 5.0 + 2.0 * np.arange(60.0)
        order = ArimaOrder(1, 1, 0)
        with pytest.warns(UserWarning, match="constant differenced series"):
            batched = rolling_forecast(series, order, include_intercept=include_intercept)
        assert len(fit_calls) == train_test_counts(60)[1]
        with pytest.warns(UserWarning):
            assert np.array_equal(batched, _per_prefix_forecasts(series, order, include_intercept))


@pytest.mark.parametrize("p,q", [(1, 1), (0, 2), (1, 2), (2, 3)])
@pytest.mark.parametrize("include_intercept", [True, False])
def test_css_jacobian_matches_finite_differences(p, q, include_intercept):
    rng = np.random.default_rng(10 * p + q)
    w = rng.normal(size=80)
    beta = rng.uniform(-0.4, 0.4, size=int(include_intercept) + p + q)
    y, X = w[p:], _lag_matrix(w, p, include_intercept)
    eps, jac = _css(y, X, beta, jacobian=True)
    # the innovations-only pass gives the same innovations
    assert np.array_equal(_css(y, X, beta)[0], eps)
    h = 1e-6
    for k in range(len(beta)):
        dk = np.zeros_like(beta)
        dk[k] = h
        upper, _ = _css(y, X, beta + dk)
        lower, _ = _css(y, X, beta - dk)
        assert np.allclose(jac[:, k], (upper - lower) / (2 * h), rtol=0, atol=1e-6)


@st.composite
def _css_cases(draw):
    """A lag matrix and coefficients: p in 0..3, q in 1..3, with or without
    intercept, n up to 2000, and MA reciprocal roots of modulus up to 0.99,
    real or, for q >= 2, one complex pair."""
    p, q = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    include_intercept = draw(st.booleans())
    n = draw(st.integers(p + q + 2, 2000))
    if q >= 2 and draw(st.booleans()):
        pair = draw(st.floats(0.0, 0.99)) * np.exp(1j * draw(st.floats(0.0, np.pi)))
        roots = [pair, np.conj(pair)] + [draw(st.floats(-0.99, 0.99)) for _ in range(q - 2)]
    else:
        roots = [draw(st.floats(-0.99, 0.99)) for _ in range(q)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 20.0, 1e4])), size=n)
    ar = rng.uniform(-0.9, 0.9, size=p)
    intercept = rng.normal(size=int(include_intercept))
    beta = np.concatenate([intercept, ar, np.poly(roots)[1:].real])
    return w[p:], _lag_matrix(w, p, include_intercept), beta


def _assert_css_matches_reference(y, X, beta):
    """Where the scalar recursion is finite, the filter agrees with it within
    1e-10 (1 + max|ref|); where it overflows, the filter's SSE is not finite
    either, so Gauss-Newton rejects the trial the same way."""
    with np.errstate(over="ignore", invalid="ignore"):
        ref_eps, ref_jac = reference_css(y, X, beta, jacobian=True)
        eps, jac = _css(y, X, beta, jacobian=True)
        eps_only, _ = _css(y, X, beta)
        sse = float(eps_only @ eps_only)
    assert np.array_equal(eps_only, eps, equal_nan=True)
    if not (np.isfinite(ref_eps).all() and np.isfinite(ref_jac).all()):
        assert not np.isfinite(sse)
        return
    for new, ref in ((eps, ref_eps), (jac, ref_jac)):
        assert np.max(np.abs(new - ref)) <= 1e-10 * (1.0 + np.max(np.abs(ref)))


@settings(max_examples=60, deadline=None)
@given(case=_css_cases())
def test_css_matches_the_scalar_recursion(case):
    _assert_css_matches_reference(*case)


@pytest.mark.parametrize("ma,n", [
    ([0.0, 0.5], 300), ([0.0, 0.0, -0.7], 300),
    ([-1.0], 700), ([1.01], 500), ([-1.5], 300), ([3.0], 2000), ([-3.0], 2000),
    (list(np.poly([0.98] * 3)[1:]), 2000),
])
def test_css_matches_the_scalar_recursion_at_the_edges(ma, n):
    """Leading zero MA coefficients start the impulse response with zeros,
    which must not end it. A Gauss-Newton trial can leave the invertible
    region: up to the unit root and a little past it the innovations stay
    finite and match, and where the recursion overflows the SSE is not
    finite. Near a repeated root on the unit circle, a = (1 - 0.98L)^3,
    the impulse response grows before it decays and runs to thousands of
    terms."""
    w = np.random.default_rng(n).normal(0.0, 20.0, size=n)
    _assert_css_matches_reference(w[1:], _lag_matrix(w, 1, True), np.array([0.5, 0.6, *ma]))


@pytest.mark.parametrize("ma,length", [([0.3], 34), ([0.0, 0.0, -0.7], 331), ([0.99], 500)])
def test_impulse_response_stops_at_q_terms_below_1e_17(ma, length):
    """The recursion ends at the first q terms in a row below 1e-17 in
    absolute value: at theta = 0.3 that is its 34th term, 0.3^33; with
    ma = [0, 0, -0.7] the zeros between the powers of 0.7 do not end it
    before 0.7^110; at theta = 0.99 it runs to n."""
    h = _impulse_response(np.array(ma), 500)
    assert len(h) == length
    small = np.abs(h) < 1e-17
    q = len(ma)
    windows = [small[t : t + q].all() for t in range(1, len(h) - q + 1)]  # h_0 = 1 is never small
    assert not any(windows[:-1])
    assert windows[-1] == (length < 500)


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
