"""LSTM backprop with its own pre-activation gradient buffer: the reference
that lstm._backward_batch, which writes each step's gradient over that
step's gate rows, is tested against bit for bit."""

from __future__ import annotations

import numpy as np

from btcforecast.lstm import LstmModel, _Workspace


def reference_backward(model: LstmModel, ws: _Workspace, d_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of sum(d_pred * prediction) after a _forward_batch of model
    over ws, with the operations and grouping of _backward_batch but in
    buffers of its own: ws is only read, so _backward_batch can run on it
    afterwards."""
    h = model.hidden_size
    grads = {name: np.zeros_like(p) for name, p in model.params().items()}
    grads["Wd"] = d_pred[None, :] @ ws.h_last.T
    grads["bd"][0] = d_pred.sum()
    tanh_c = ws.tanh_c.copy()
    z = None if ws.z is None else np.empty_like(ws.z)
    dH = model.Wd[0][:, None] * d_pred[None, :]
    dC = np.zeros_like(dH)
    da = np.empty((4 * h, len(d_pred)))
    da_f, da_i, da_o, da_g = np.split(da, 4)
    s, u = np.empty_like(dH), np.empty_like(dH)
    W_hT = model.W[:, :h].T
    # each expression is evaluated left to right, as written in the comments
    for t in reversed(range(len(ws.gates))):
        if t:
            ft, it, ot, gt = ws.gate_rows[t]
        else:
            it, ot, gt = ws.gate_rows[0]
        # dC += dH * ot * (1 - tanh_c * tanh_c)
        np.multiply(tanh_c, tanh_c, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(dH, ot, out=u)
        u *= s
        dC += u
        if t:  # da_f = dC * c_prev * ft * (1 - ft), which is 0 at t = 0
            np.multiply(dC, ws.c[t - 1], out=da_f)
            da_f *= ft
            np.subtract(1.0, ft, out=s)
            da_f *= s
        # da_i = dC * gt * it * (1 - it)
        np.multiply(dC, gt, out=da_i)
        da_i *= it
        np.subtract(1.0, it, out=s)
        da_i *= s
        # da_o = dH * tanh_c * ot * (1 - ot)
        np.multiply(dH, tanh_c, out=da_o)
        da_o *= ot
        np.subtract(1.0, ot, out=s)
        da_o *= s
        # da_g = dC * it * (1 - gt * gt)
        np.multiply(dC, it, out=da_g)
        np.multiply(gt, gt, out=s)
        np.subtract(1.0, s, out=s)
        da_g *= s
        if t == 0:  # the i, o, g rows of the x columns and of b: da @ [x; 1]'
            dx1 = da[h:] @ ws.x1.T
            grads["W"][h:, h:] += dx1[:, :-1]
            grads["b"][h:] += dx1[:, -1]
            break
        np.tanh(ws.c[t - 1], out=tanh_c)
        np.multiply(ws.gate_rows[t - 1][-2], tanh_c, out=z[:h])
        z[h:] = ws.x[t]
        grads["W"] += da @ z.T
        grads["b"] += np.sum(da, axis=1)
        np.matmul(W_hT, da, out=dH)
        dC *= ft
    return grads
