"""ARIMA(p, d, q) estimation and rolling one-step forecasting.

Estimation: d-th differences, then OLS for pure AR models (q = 0) or
conditional sum-of-squares (CSS) Gauss-Newton for q > 0 from the AR-only OLS
solution. Its innovations (zero before the sample) and their Jacobian are one
inverse-MA filter, cut where its impulse response has decayed. A fitted
model is its coefficients. A forecast of the value after a series is one CSS
pass over that series with those coefficients, then one formula: the
one-step forecast in differenced space, integrated back against the series.

A rolling forecast that refits a pure AR model (p >= 1) at every step fits
the training prefix as above, then solves every later prefix at once from
running normal equations: the Gram matrix of each prefix, its diagonal
scaled to 1, in one batched solve. OLS by lstsq stays the reference: a
prefix whose scaled Gram matrix has an eigenvalue ratio below
_MIN_GRAM_RATIO (a rank-deficient design, such as a noiseless sine, where
the minimum-norm answer matters) or whose differences are constant is fit
one by one, with the same bits as before.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import train_test_counts

REFIT_ALWAYS = "always"
REFIT_ONCE = "once"

_GN_MAX_ITER = 200
# Gauss-Newton stops once a step gains at most this fraction of the SSE: a
# relative rule, so rescaling the prices does not move where it stops
_GN_TOL = 1e-10
# a rolling AR refit whose equilibrated Gram matrix has a smaller eigenvalue
# ratio is left to lstsq in fit (see _rolling_ar_forecasts)
_MIN_GRAM_RATIO = 1e-6


class ArimaFitError(RuntimeError):
    """Estimation failed (non-convergence or unusable input)."""


@dataclass(frozen=True)
class ArimaOrder:
    p: int
    d: int
    q: int

    def __post_init__(self):
        if min(self.p, self.d, self.q) < 0:
            raise ValueError("orders must be >= 0")
        if self.p + self.q < 1 and self.d < 1:
            raise ValueError("degenerate (0,0,0) model")

    @classmethod
    def parse(cls, text: str) -> "ArimaOrder":
        """Parse a "p,d,q" string."""
        try:
            p, d, q = map(int, text.split(","))
        except ValueError:  # a part that is no integer, or not three parts
            raise ValueError(f"expected p,d,q integers, got {text!r}") from None
        return cls(p, d, q)

    def __str__(self) -> str:
        return f"({self.p},{self.d},{self.q})"


@dataclass
class ArimaModel:
    """Fitted coefficients; forecast_one applies them to a series."""

    order: ArimaOrder
    intercept: float  # 0.0 when fit without one
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    sigma2: float

    def ar_root_moduli(self) -> np.ndarray:
        """Moduli of the AR characteristic roots (stationary iff all > 1)."""
        return _root_moduli(-self.ar_coeffs)

    def ma_root_moduli(self) -> np.ndarray:
        """Moduli of the MA characteristic roots (invertible iff all > 1)."""
        return _root_moduli(self.ma_coeffs)

    def summary(self) -> str:
        lines = [
            f"ARIMA{self.order}",
            f"intercept: {self.intercept:.6g}",
            f"sigma2: {self.sigma2:.6g}",
        ]
        if self.order.p:
            lines.append("ar: " + " ".join(f"{v:.6g}" for v in self.ar_coeffs))
            lines.append(
                "ar root moduli: " + " ".join(f"{v:.4g}" for v in self.ar_root_moduli())
            )
        if self.order.q:
            lines.append("ma: " + " ".join(f"{v:.6g}" for v in self.ma_coeffs))
            lines.append(
                "ma root moduli: " + " ".join(f"{v:.4g}" for v in self.ma_root_moduli())
            )
        return "\n".join(lines)


def _root_moduli(coeffs: np.ndarray) -> np.ndarray:
    """Sorted moduli of the roots of 1 + coeffs[0] z + coeffs[1] z^2 + ..."""
    poly = np.concatenate([[1.0], coeffs])
    return np.sort(np.abs(np.roots(poly[::-1])))


def _difference_levels(series: np.ndarray, d: int) -> list[np.ndarray]:
    """[series, its first difference, ..., its d-th difference]."""
    levels = [series]
    for _ in range(d):
        levels.append(np.diff(levels[-1]))
    return levels


def _lag_matrix(w: np.ndarray, p: int, include_intercept: bool) -> np.ndarray:
    """Regressor rows [1?, w_{t-1}, ..., w_{t-p}] for t = p..n-1."""
    n = len(w)
    cols = [np.ones(n - p)] if include_intercept else []
    cols += [w[p - 1 - i : n - 1 - i] for i in range(p)]
    return np.column_stack(cols) if cols else np.empty((n - p, 0))


def _css(
    y: np.ndarray, X: np.ndarray, beta: np.ndarray, jacobian: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Innovations of y = w[p:] given the lag matrix X of w (pre-sample
    innovations fixed at zero), and, when jacobian is set, their Jacobian
    d eps / d beta, beta = [c?, ar, ma].

    With u = y - X beta_ar, a(L) e = u for a = 1 + ma(L), so e = h * u and
    J = h * -[X, e_{t-1..t-q}] column by column, h the impulse response of
    1 / a(L) (_impulse_response).
    """
    n, k_ar = X.shape
    pred = np.zeros(n)
    for i in range(k_ar):  # column by column: c + ar_0 w_{t-1} + ... in index order
        pred += beta[i] * X[:, i]
    h = _impulse_response(beta[k_ar:], n)
    eps = np.convolve(y - pred, h)[:n]
    if not jacobian:
        return eps, None
    jac = np.zeros((n, len(beta)))
    for i in range(k_ar):
        jac[:, i] = -np.convolve(X[:, i], h)[:n]
    lagged = np.convolve(eps, h)[: n - 1]  # column k_ar + j is this, shifted by j + 1
    for j in range(len(beta) - k_ar):
        jac[j + 1 :, k_ar + j] = -lagged[: n - 1 - j]
    return eps, jac


def _impulse_response(ma: np.ndarray, n: int) -> np.ndarray:
    """The impulse response of 1 / (1 + ma(L)) by the recursion h_0 = 1,
    h_t = -sum_j ma_j h_{t-1-j}, cut at n terms or once q = len(ma) terms in
    a row are below 1e-17 in absolute value. Those q terms are the
    recursion's whole state, so leading zero coefficients cannot end it."""
    neg_ma, q = (-ma).tolist(), len(ma)
    h, small = [1.0], 0
    while len(h) < n and small < q:
        acc = 0.0
        for coeff, past in zip(neg_ma, reversed(h)):  # h_{t-1}, h_{t-2}, ...
            acc += coeff * past
        h.append(acc)
        small = small + 1 if abs(acc) < 1e-17 else 0
    return np.array(h)


def _fit_ar_ols(
    w: np.ndarray, p: int, include_intercept: bool
) -> tuple[float, np.ndarray, np.ndarray]:
    """OLS regression of w_t on its p lags (plus intercept). Returns
    (intercept, ar_coeffs, residuals)."""
    if p == 0:
        c = float(np.mean(w)) if include_intercept else 0.0
        return c, np.array([]), w - c
    y = w[p:]
    X = _lag_matrix(w, p, include_intercept)
    if np.ptp(w) == 0.0:
        warnings.warn("constant differenced series; falling back to intercept-only fit")
        c = float(np.mean(w)) if include_intercept else 0.0
        return c, np.zeros(p), y - c
    # lstsq returns the minimum-norm solution, which stays well-defined on
    # rank-deficient lag designs (e.g. noiseless periodic series)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    if include_intercept:
        return float(beta[0]), beta[1:], y - X @ beta
    return 0.0, beta, y - X @ beta


def fit(series: np.ndarray, order: ArimaOrder, include_intercept: bool = True) -> ArimaModel:
    """Estimate an ARIMA model on the given series."""
    series = np.asarray(series, dtype=np.float64)
    p, d, q = order.p, order.d, order.q
    _check_length(len(series), order)
    w = _difference_levels(series, d)[d]
    c, ar, resid = _fit_ar_ols(w, p, include_intercept)
    ma = np.zeros(q)

    if q > 0:
        k = int(include_intercept)
        beta0 = np.concatenate([[c] if include_intercept else [], ar, ma])
        beta, resid = _fit_css_gauss_newton(w, beta0, p, include_intercept)
        c = float(beta[0]) if include_intercept else 0.0
        ar, ma = beta[k : k + p], beta[k + p :]

    sigma2 = float(np.mean(resid**2)) if len(resid) else 0.0
    return ArimaModel(order=order, intercept=c, ar_coeffs=ar, ma_coeffs=ma, sigma2=sigma2)


def _check_length(n: int, order: ArimaOrder) -> None:
    """The one length rule of fit and forecast_one."""
    if n <= order.d + order.p + order.q + 1:
        raise ValueError(f"series of length {n} too short for order {order}")


def _fit_css_gauss_newton(
    w: np.ndarray, beta: np.ndarray, p: int, include_intercept: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the conditional sum of squared innovations over
    beta = [c?, ar, ma] by Gauss-Newton with step halving. Returns the
    coefficients and their innovations. Trial steps compute innovations
    only; the Jacobian is computed once per accepted step."""
    y = w[p:]
    X = _lag_matrix(w, p, include_intercept)
    eps, jac = _css(y, X, beta, jacobian=True)
    sse = float(eps @ eps)
    # a trial step that leaves the invertible MA region can overflow the
    # innovations; its non-finite SSE fails the <= test and is halved away
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_GN_MAX_ITER):
            step, *_ = np.linalg.lstsq(jac, -eps, rcond=None)
            scale = 1.0
            for _halving in range(30):
                trial = beta + scale * step
                eps_new, _ = _css(y, X, trial)
                sse_new = float(eps_new @ eps_new)
                if sse_new <= sse:
                    break
                scale *= 0.5
            else:
                # no improving step exists: we are at the (local) CSS minimum
                return beta, eps
            improved = sse - sse_new
            beta, eps, sse = trial, eps_new, sse_new
            if improved <= _GN_TOL * sse:
                return beta, eps
            _, jac = _css(y, X, beta, jacobian=True)
    raise ArimaFitError(f"no convergence after {_GN_MAX_ITER} iterations; last objective {sse:.6g}")


def forecast_one(model: ArimaModel, series: np.ndarray) -> float:
    """The model's forecast of the value after series, in original units."""
    series = np.asarray(series, dtype=np.float64)
    _check_length(len(series), model.order)
    return float(_model_forecasts(model, series, [len(series)])[0])


def _model_forecasts(model: ArimaModel, series: np.ndarray, ends) -> np.ndarray:
    """forecast_one(model, series[:e]) for each e in ends: one CSS pass over
    the whole series with the model's coefficients, then _forecasts. The
    lag matrix always has the intercept column; without an intercept its
    coefficient is 0.0, which leaves every innovation's bits as fit's."""
    p, d = model.order.p, model.order.d
    levels = _difference_levels(series, d)
    w = levels[d]
    beta = np.concatenate([[model.intercept], model.ar_coeffs, model.ma_coeffs])
    eps, _ = _css(w[p:], _lag_matrix(w, p, include_intercept=True), beta)
    return _forecasts(levels, np.asarray(ends), model.intercept, model.ar_coeffs, model.ma_coeffs, eps)


def rolling_forecast(
    series: np.ndarray,
    order: ArimaOrder,
    train_fraction: float = 0.7,
    include_intercept: bool = True,
    refit: str = REFIT_ALWAYS,
) -> np.ndarray:
    """Static one-step forecasts over the test range: fit on the training
    prefix, then forecast / append the true value / refit, per test point.
    With refit once, the training fit forecasts every point
    (_model_forecasts).

    With refit always, q = 0 and p >= 1, the refits after the first are
    solved in one batch (_rolling_ar_forecasts); only a prefix whose scaled
    Gram matrix has an eigenvalue ratio below _MIN_GRAM_RATIO, or whose
    differences are constant, is fit one by one, as every refit is
    otherwise."""
    if refit not in (REFIT_ALWAYS, REFIT_ONCE):
        raise ValueError(f"refit must be '{REFIT_ALWAYS}' or '{REFIT_ONCE}'")
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    n_train, n_test = train_test_counts(n, train_fraction)

    def _fit_prefix(end: int) -> ArimaModel:
        try:
            return fit(series[:end], order, include_intercept)
        except (ValueError, ArimaFitError) as e:
            raise ArimaFitError(f"fit failed at index {end}: {e}") from e

    model = _fit_prefix(n_train)
    if refit == REFIT_ONCE:
        return _model_forecasts(model, series, np.arange(n_train, n))
    preds = np.empty(n_test)
    preds[0] = forecast_one(model, series[:n_train])
    ends = np.arange(n_train + 1, n)
    if order.q == 0 and order.p >= 1:
        solved, batched = _rolling_ar_forecasts(series, order, include_intercept, n_train)
        preds[1:][solved] = batched
        ends = ends[~solved]
    for end in ends.tolist():
        preds[end - n_train] = forecast_one(_fit_prefix(end), series[:end])
    return preds


def _forecasts(levels: list[np.ndarray], ends: np.ndarray, intercept, ar, ma, eps) -> np.ndarray:
    """The one-step forecast of each prefix series[:e], e in ends, of the
    series with these differencing levels: the intercept, the AR terms in
    lag order, the MA terms in lag order, then the last value of each level
    from d - 1 down to 0. The intercept and the last axis of ar broadcast
    over the prefixes: one model, or one row per prefix. The MA terms read
    eps, the CSS innovations of w[p:] (zero before the sample), so forecast
    e reads no value from e on."""
    d, p = len(levels) - 1, ar.shape[-1]
    last = ends - d - 1  # index in w of each prefix's last difference
    preds = np.full(len(ends), intercept, dtype=np.float64)
    for i in range(p):
        preds += ar[..., i] * levels[d][last - i]
    for j in range(len(ma)):
        preds += ma[j] * eps[last - p - j]
    for j in reversed(range(d)):
        preds += levels[j][ends - 1 - j]
    return preds


def _rolling_ar_forecasts(
    series: np.ndarray, order: ArimaOrder, include_intercept: bool, first: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which prefixes series[:e], e = first + 1 .. n - 1, one batch solves
    (a mask), and forecast_one(fit(series[:e]), series[:e]) for each of
    them, for q = 0 and p >= 1, given that series[:first] fits.

    The series is differenced and its lag matrix built once. The Gram
    matrix X'X and moment X'y of prefix series[:first] are one matmul; those
    of the later prefixes add its new rows by a cumulative sum. Each Gram is
    equilibrated (diagonal scaled to 1), and every prefix whose equilibrated
    Gram has an eigenvalue ratio of at least _MIN_GRAM_RATIO is solved in
    one batched np.linalg.solve. The rest (rank-deficient designs, where
    fit's minimum-norm lstsq answer matters, constant differences, which
    fit warns about, and non-finite values) are left out, for the caller to
    fit."""
    p, d = order.p, order.d
    levels = _difference_levels(series, d)
    w = levels[d]
    X, y = _lag_matrix(w, p, include_intercept), w[p:]
    ends = np.arange(first + 1, len(series))
    rows = first - d - p  # lag-matrix rows of series[:first]
    new_x, new_y = X[rows : rows + len(ends)], y[rows : rows + len(ends)]
    last = ends - d - 1  # index in w of each prefix's last difference
    constant = np.maximum.accumulate(w)[last] == np.minimum.accumulate(w)[last]
    with np.errstate(all="ignore"):  # non-finite Grams are left out
        gram = X[:rows].T @ X[:rows] + np.cumsum(new_x[:, :, None] * new_x[:, None, :], axis=0)
        moment = X[:rows].T @ y[:rows] + np.cumsum(new_x * new_y[:, None], axis=0)
        scale = 1.0 / np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        gram *= scale[:, :, None] * scale[:, None, :]
        moment *= scale
    usable = ~constant & np.isfinite(gram).all(axis=(1, 2)) & np.isfinite(moment).all(axis=1)
    gram[~usable] = np.eye(X.shape[1])  # any finite stand-in: these are left out
    eig = np.linalg.eigvalsh(gram)  # ascending
    fast = usable & (eig[:, 0] >= _MIN_GRAM_RATIO * eig[:, -1])
    beta = np.linalg.solve(gram[fast], moment[fast][:, :, None])[:, :, 0] * scale[fast]

    intercept = beta[:, 0] if include_intercept else 0.0
    return fast, _forecasts(levels, ends[fast], intercept, beta[:, int(include_intercept) :], (), None)
