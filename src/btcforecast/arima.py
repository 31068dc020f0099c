"""ARIMA(p, d, q) estimation and rolling one-step forecasting.

Estimation: d-th differences, then OLS for pure AR models (q = 0) or
conditional sum-of-squares Gauss-Newton (innovations start at zero) for
q > 0, seeded from the AR-only OLS solution. Forecasts are one-step-ahead
in differenced space and integrated back against the retained series tail.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dataset import train_test_counts

REFIT_ALWAYS = "always"
REFIT_ONCE = "once"

_GN_MAX_ITER = 200
_GN_TOL = 1e-10


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
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected p,d,q, got {text!r}")
        return cls(*parts)

    def __str__(self) -> str:
        return f"({self.p},{self.d},{self.q})"


@dataclass
class ArimaModel:
    """Fitted coefficients plus the history tail forecasting needs."""

    order: ArimaOrder
    intercept: float
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    sigma2: float
    diff_tail: np.ndarray = field(repr=False)     # trailing values of the differenced series
    resid_tail: np.ndarray = field(repr=False)    # trailing q residuals
    level_tails: np.ndarray = field(repr=False)   # last value of each differencing level 0..d-1

    def ar_root_moduli(self) -> np.ndarray:
        """Moduli of the AR characteristic roots (stationary iff all > 1)."""
        if self.order.p == 0:
            return np.array([])
        poly = np.concatenate([[1.0], -self.ar_coeffs])
        return np.sort(np.abs(np.roots(poly[::-1])))

    def ma_root_moduli(self) -> np.ndarray:
        """Moduli of the MA characteristic roots (invertible iff all > 1)."""
        if self.order.q == 0:
            return np.array([])
        poly = np.concatenate([[1.0], self.ma_coeffs])
        return np.sort(np.abs(np.roots(poly[::-1])))

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

    def with_observation(self, y_new: float) -> "ArimaModel":
        """Append one true observation to the history tail without refitting."""
        levels = list(self.level_tails)
        value = float(y_new)
        new_levels = []
        for j in range(self.order.d):
            new_levels.append(value)
            value = value - levels[j]
        w_new = value  # d-th difference of the appended observation
        pred = _one_step_diff(self)
        diff_tail = np.append(self.diff_tail, w_new)
        keep = max(self.order.p, 1)
        resid_tail = self.resid_tail
        if self.order.q:
            resid_tail = np.append(resid_tail, w_new - pred)[-self.order.q :]
        return ArimaModel(
            order=self.order,
            intercept=self.intercept,
            ar_coeffs=self.ar_coeffs,
            ma_coeffs=self.ma_coeffs,
            sigma2=self.sigma2,
            diff_tail=diff_tail[-keep:],
            resid_tail=resid_tail,
            level_tails=np.array(new_levels),
        )


def _difference_levels(
    series: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Difference d times in one pass over the levels. Returns the d-th
    difference, the first value of each level 0..d-1 (the seeds undifference
    needs) and the last value of each level (the tails forecasting needs)."""
    series = np.asarray(series, dtype=np.float64)
    if len(series) <= d:
        raise ValueError(f"series of length {len(series)} too short for d={d}")
    seeds, tails = [], []
    for _ in range(d):
        seeds.append(series[0])
        tails.append(series[-1])
        series = np.diff(series)
    return series, np.array(seeds), np.array(tails)


def difference_with_seeds(series: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Difference d times, also returning the d seed values (the first element
    of each intermediate level) that undifference needs."""
    w, seeds, _ = _difference_levels(series, d)
    return w, seeds


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


def undifference(diffs: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Exact inverse of difference_with_seeds."""
    x = np.asarray(diffs, dtype=np.float64)
    for seed in np.asarray(seeds, dtype=np.float64)[::-1]:
        x = np.concatenate([[seed], seed + _compensated_cumsum(x)])
    return x


def _lag_matrix(w: np.ndarray, p: int, include_intercept: bool) -> np.ndarray:
    """Regressor rows [1?, w_{t-1}, ..., w_{t-p}] for t = p..n-1."""
    n = len(w)
    cols = [np.ones(n - p)] if include_intercept else []
    cols += [w[p - 1 - i : n - 1 - i] for i in range(p)]
    return np.column_stack(cols) if cols else np.empty((n - p, 0))


def _css(
    y: list[float], X: np.ndarray, beta: np.ndarray, neg_x: list[list[float]] | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """Innovations of y = w[p:] given the lag matrix X of w (pre-sample
    innovations fixed at zero), and, when neg_x (-X as nested lists) is
    given, their Jacobian d eps / d beta, beta = [c?, ar, ma].

    The intercept and AR part come from X; only the MA filter runs over t:
    e_t = w_t - pred_t and J_t = -[x_t, e_{t-1..t-q}] - sum_j ma_j J_{t-1-j}.
    """
    k_ar = X.shape[1]
    pred = np.zeros(len(X))
    for i in range(k_ar):  # column by column: c + ar_0 w_{t-1} + ... in index order
        pred += beta[i] * X[:, i]
    ma = beta[k_ar:].tolist()
    q = len(ma)
    pred_ar = pred.tolist()
    eps: list[float] = []
    jac: list[list[float]] = []
    for t in range(len(y)):
        pred_t = pred_ar[t]
        for j in range(min(q, t)):
            pred_t += ma[j] * eps[t - 1 - j]
        eps.append(y[t] - pred_t)
        if neg_x is not None:
            # set every -e_{t-1-j} entry first, then subtract ma_j J_{t-1-j} in j order
            row = neg_x[t] + [-eps[t - 1 - j] if t > j else 0.0 for j in range(q)]
            for j in range(min(q, t)):
                row = [r - ma[j] * g for r, g in zip(row, jac[t - 1 - j])]
            jac.append(row)
    return np.array(eps), (np.array(jac) if neg_x is not None else None)


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
    if len(series) <= d + p + q + 1:
        raise ValueError(f"series of length {len(series)} too short for order {order}")

    w, _, level_tails = _difference_levels(series, d)
    c, ar, resid = _fit_ar_ols(w, p, include_intercept)
    ma = np.zeros(q)

    if q > 0:
        k = int(include_intercept)
        beta0 = np.concatenate([[c] if include_intercept else [], ar, ma])
        beta, resid = _fit_css_gauss_newton(w, beta0, p, include_intercept)
        c = float(beta[0]) if include_intercept else 0.0
        ar, ma = beta[k : k + p], beta[k + p :]

    sigma2 = float(np.mean(resid**2)) if len(resid) else 0.0
    keep = max(p, 1)
    return ArimaModel(
        order=order,
        intercept=c,
        ar_coeffs=ar,
        ma_coeffs=ma,
        sigma2=sigma2,
        diff_tail=w[-keep:].copy(),
        resid_tail=resid[-q:].copy() if q else np.array([]),
        level_tails=level_tails,
    )


def _fit_css_gauss_newton(
    w: np.ndarray, beta: np.ndarray, p: int, include_intercept: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize the conditional sum of squared innovations over
    beta = [c?, ar, ma] by Gauss-Newton with step halving. Returns the
    coefficients and their innovations. Trial steps compute innovations
    only; the Jacobian is computed once per accepted step."""
    y = w[p:].tolist()
    X = _lag_matrix(w, p, include_intercept)
    neg_x = (-X).tolist()
    eps, jac = _css(y, X, beta, neg_x)
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
            if improved <= _GN_TOL * max(sse, 1.0):
                return beta, eps
            _, jac = _css(y, X, beta, neg_x)
    raise ArimaFitError(f"no convergence after {_GN_MAX_ITER} iterations; last objective {sse:.6g}")


def _one_step_diff(model: ArimaModel) -> float:
    """One-step forecast in differenced space."""
    pred = model.intercept
    for i in range(model.order.p):
        pred += model.ar_coeffs[i] * model.diff_tail[-1 - i]
    for j in range(model.order.q):
        if j < len(model.resid_tail):
            pred += model.ma_coeffs[j] * model.resid_tail[-1 - j]
    return float(pred)


def forecast_one(model: ArimaModel) -> float:
    """Next value in original units: forecast the d-th difference, then
    integrate against the retained level tails."""
    pred = _one_step_diff(model)
    for level in model.level_tails[::-1]:
        pred += level
    return float(pred)


def rolling_forecast(
    series: np.ndarray,
    order: ArimaOrder,
    train_fraction: float = 0.7,
    include_intercept: bool = True,
    refit: str = REFIT_ALWAYS,
) -> np.ndarray:
    """Static one-step forecasts over the test range: fit on the training
    prefix, then forecast / append the true value / refit, per test point."""
    if refit not in (REFIT_ALWAYS, REFIT_ONCE):
        raise ValueError(f"refit must be '{REFIT_ALWAYS}' or '{REFIT_ONCE}'")
    series = np.asarray(series, dtype=np.float64)
    n = len(series)
    n_train, n_test = train_test_counts(n, train_fraction)
    if n_test < 1:
        raise ValueError("no test range")

    def _fit_prefix(end: int) -> ArimaModel:
        try:
            return fit(series[:end], order, include_intercept)
        except (ValueError, ArimaFitError) as e:
            raise ArimaFitError(f"fit failed at index {end}: {e}") from e

    model = _fit_prefix(n_train)
    preds = np.empty(n_test)
    for k, i in enumerate(range(n_train, n)):
        preds[k] = forecast_one(model)
        if i + 1 < n:
            if refit == REFIT_ALWAYS:
                model = _fit_prefix(i + 1)
            else:
                model = model.with_observation(series[i])
    return preds
