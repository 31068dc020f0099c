"""Single-window forward/backward wrappers and the shared finite-difference
gradient oracle for the LSTM tests."""

from __future__ import annotations

import numpy as np

from btcforecast.lstm import LstmModel, _backward_batch, _forward_batch, _Workspace


def forward(model: LstmModel, window) -> tuple[float, _Workspace]:
    """Prediction for one (lag, n_features) window, plus the workspace backward needs."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[:, None]
    ws = _Workspace(model, window[None, :, :])
    return float(_forward_batch(model, ws)[0]), ws


def backward(model: LstmModel, ws: _Workspace, d_prediction: float) -> dict[str, np.ndarray]:
    """Gradients of d_prediction * prediction w.r.t. every parameter (BPTT)."""
    grads = _backward_batch(model, ws, np.array([float(d_prediction)]))
    return {name: g.copy() for name, g in grads.items()}


def fd_gradients(model: LstmModel, window, d_pred: float, h_step: float = 1e-5):
    """Central finite differences of d_pred * prediction w.r.t. every param."""
    grads = {}
    for name, p in model.params().items():
        num = np.zeros_like(p)
        flat = p.ravel()
        view = num.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h_step
            up, _ = forward(model, window)
            flat[i] = orig - h_step
            dn, _ = forward(model, window)
            flat[i] = orig
            view[i] = d_pred * (up - dn) / (2.0 * h_step)
        grads[name] = num
    return grads


def max_rel_err(a: dict, b: dict, floor: float = 1e-4) -> float:
    """max |a-b| / max(|a|, |b|, floor): relative error with a floor that
    keeps structurally-zero gradients comparable."""
    worst = 0.0
    for name in a:
        denom = np.maximum(np.maximum(np.abs(a[name]), np.abs(b[name])), floor)
        worst = max(worst, float(np.max(np.abs(a[name] - b[name]) / denom)))
    return worst
