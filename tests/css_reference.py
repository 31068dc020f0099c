"""The scalar CSS recursion, one time step at a time: the reference that
arima._css, which computes the same innovations and Jacobian as one
inverse-MA filter, is tested against."""

from __future__ import annotations

import numpy as np


def reference_css(y, X, beta, jacobian: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Innovations e_t = y_t - x_t beta_ar - sum_j ma_j e_{t-1-j} of y given
    the lag matrix X (pre-sample innovations zero), and, when jacobian is
    set, J_t = -[x_t, e_{t-1..t-q}] - sum_j ma_j J_{t-1-j}."""
    X = np.asarray(X, dtype=np.float64)
    k_ar = X.shape[1]
    pred = np.zeros(len(X))
    for i in range(k_ar):
        pred += beta[i] * X[:, i]
    ma = list(beta[k_ar:])
    q = len(ma)
    y, pred_ar, neg_x = list(y), pred.tolist(), (-X).tolist()
    eps: list[float] = []
    jac: list[list[float]] = []
    for t in range(len(y)):
        pred_t = pred_ar[t]
        for j in range(min(q, t)):
            pred_t += ma[j] * eps[t - 1 - j]
        eps.append(y[t] - pred_t)
        if jacobian:
            row = neg_x[t] + [-eps[t - 1 - j] if t > j else 0.0 for j in range(q)]
            for j in range(min(q, t)):
                row = [r - ma[j] * g for r, g in zip(row, jac[t - 1 - j])]
            jac.append(row)
    return np.array(eps), (np.array(jac) if jacobian else None)
