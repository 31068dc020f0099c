"""Single-layer LSTM with a dense head, trained by full-batch BPTT + Adam.

The four gates share one stacked weight W (4H x (H+F)) and bias b (4H),
with row blocks in f, i, o, g order. Per step, with z = [h; x],

    a       = W @ z + b
    f, i, o = sigmoid(a[0:H]), sigmoid(a[H:2H]), sigmoid(a[2H:3H])
    g       = tanh(a[3H:4H])                (candidate)
    c       = f * c_prev + i * g
    h       = o * tanh(c)

and prediction = Wd @ h_last + bd after the final step. The batch runs on
the last axis: h and c are (H, n), z is (H+F, n), so one W @ z per step
gives all four gates, each a contiguous row block of a. Training minimizes
mean absolute error with one Adam step per epoch (full batch), which makes
runs bit-reproducible for a fixed seed. Everything is float64.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import SupervisedDataset, unscale_column

PARAM_NAMES = ("W", "b", "Wd", "bd")


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass(frozen=True)
class LstmConfig:
    n_features: int = 1
    hidden_size: int = 32
    lag: int = 1
    epochs: int = 200
    learning_rate: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_features not in (1, 2):
            raise ValueError("n_features must be 1 or 2")
        if self.hidden_size < 1 or self.lag < 1 or self.epochs < 0:
            raise ValueError("hidden_size and lag must be positive, epochs >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class LstmModel:
    """All cell parameters. W stacks the f, i, o, g gate weights row-wise and
    acts on z = [h; x], so its shape is (4 * hidden, hidden + n_features);
    b is the matching (4 * hidden,) bias."""

    W: np.ndarray
    b: np.ndarray
    Wd: np.ndarray
    bd: np.ndarray
    n_features: int
    hidden_size: int
    lag: int

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def with_params(self, params: dict[str, np.ndarray]) -> "LstmModel":
        return LstmModel(
            **params,
            n_features=self.n_features,
            hidden_size=self.hidden_size,
            lag=self.lag,
        )


@dataclass
class AdamState:
    """Per-parameter first/second moments and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class TrainHistory:
    """Per-epoch MAE (scaled units) plus wall-clock timings in ms."""

    losses: list[float] = field(default_factory=list)
    build_time_ms: float = 0.0
    epoch_times_ms: list[float] = field(default_factory=list)

    @property
    def train_time_ms(self) -> float:
        return float(sum(self.epoch_times_ms))


def init(config: LstmConfig) -> LstmModel:
    """Seeded uniform [-k, k] weights with k = 1/sqrt(hidden); zero biases."""
    rng = np.random.default_rng(config.seed)
    h, f = config.hidden_size, config.n_features
    k = 1.0 / np.sqrt(h)
    W = rng.uniform(-k, k, size=(4 * h, h + f))
    Wd = rng.uniform(-k, k, size=(1, h))
    return LstmModel(
        W=W, b=np.zeros(4 * h), Wd=Wd, bd=np.zeros(1), n_features=f, hidden_size=h, lag=config.lag
    )


def _sigmoid_inplace(x: np.ndarray) -> None:
    """x <- 1 / (1 + exp(-x)). In place because the (3H, n) temporaries of
    the plain expression, made at every step, raised peak RSS by about 3 MB."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


@dataclass
class _Cache:
    z: list[np.ndarray]       # (h+f, n) per step
    gates: list[np.ndarray]   # (4h, n) per step: activated f, i, o, g rows
    c_prev: list[np.ndarray]
    tanh_c: list[np.ndarray]
    h_last: np.ndarray        # (h, n)


def _forward_batch(model: LstmModel, windows: np.ndarray) -> tuple[np.ndarray, _Cache]:
    """Run the recurrence over a (n, lag, n_features) batch."""
    n, lag, f = windows.shape
    h = model.hidden_size
    if f != model.n_features:
        raise ValueError(f"model expects {model.n_features} features, got {f}")
    if not np.isfinite(windows).all():
        raise ValueError("non-finite input window")

    H = np.zeros((h, n))
    C = np.zeros((h, n))
    b = model.b[:, None]
    cache = _Cache([], [], [], [], H)
    for t in range(lag):
        z = np.concatenate([H, windows[:, t, :].T], axis=0)
        gates = model.W @ z
        gates += b
        _sigmoid_inplace(gates[: 3 * h])
        np.tanh(gates[3 * h :], out=gates[3 * h :])
        ft, it, ot, gt = np.split(gates, 4)
        cache.z.append(z)
        cache.gates.append(gates)
        cache.c_prev.append(C)
        C = ft * C + it * gt
        tanh_c = np.tanh(C)
        cache.tanh_c.append(tanh_c)
        H = ot * tanh_c
    cache.h_last = H
    pred = model.Wd @ H + model.bd[:, None]
    return pred[0], cache


def _backward_batch(model: LstmModel, cache: _Cache, d_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients, summed over the batch weighted by d_pred."""
    h = model.hidden_size
    grads = {name: np.zeros_like(p) for name, p in model.params().items()}

    grads["Wd"] += d_pred[None, :] @ cache.h_last.T
    grads["bd"] += d_pred.sum(keepdims=True)
    dH = np.outer(model.Wd[0], d_pred)
    dC = np.zeros_like(dH)
    W_h = model.W[:, :h]
    # gradient w.r.t. the pre-activations a, in the f, i, o, g rows of W;
    # each step overwrites it through the four row-block views
    da = np.empty((4 * h, len(d_pred)))
    da_f, da_i, da_o, da_g = np.split(da, 4)
    for t in reversed(range(len(cache.z))):
        ft, it, ot, gt = np.split(cache.gates[t], 4)
        tanh_c = cache.tanh_c[t]
        dC = dC + dH * ot * (1.0 - tanh_c * tanh_c)
        da_f[:] = dC * cache.c_prev[t] * ft * (1.0 - ft)
        da_i[:] = dC * gt * it * (1.0 - it)
        da_o[:] = dH * tanh_c * ot * (1.0 - ot)
        da_g[:] = dC * it * (1.0 - gt * gt)
        grads["W"] += da @ cache.z[t].T
        grads["b"] += da.sum(axis=1)
        dH = W_h.T @ da
        dC = dC * ft
    return grads


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    t = state.t + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + state.eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, AdamState(new_m, new_v, t, state.beta1, state.beta2, state.eps)


def train(config: LstmConfig, dataset: SupervisedDataset) -> tuple[LstmModel, TrainHistory]:
    """Full-batch MAE training: one Adam step per epoch, deterministic per seed."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.inputs.shape[2] != config.n_features:
        raise ValueError(
            f"dataset has {dataset.inputs.shape[2]} features, config expects {config.n_features}"
        )
    if dataset.lag != config.lag:
        raise ValueError(f"dataset lag {dataset.lag} != config lag {config.lag}")

    t0 = time.perf_counter()
    model = init(config)
    history = TrainHistory(build_time_ms=(time.perf_counter() - t0) * 1000.0)

    X = np.asarray(dataset.inputs, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    n = len(y)
    params = model.params()
    state = AdamState.for_params(params)
    for epoch in range(config.epochs):
        t_epoch = time.perf_counter()
        preds, cache = _forward_batch(model, X)
        resid = preds - y
        loss = float(np.mean(np.abs(resid)))
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch}")
        # MAE subgradient: sign(residual), 0 at an exact zero residual.
        d_pred = np.sign(resid) / n
        grads = _backward_batch(model, cache, d_pred)
        params, state = adam_step(params, grads, state, config.learning_rate)
        model = model.with_params(params)
        history.losses.append(loss)
        history.epoch_times_ms.append((time.perf_counter() - t_epoch) * 1000.0)
    return model, history


def predict_series(model: LstmModel, dataset: SupervisedDataset) -> np.ndarray:
    """One prediction per sample, inverse-scaled to original USD units."""
    return unscale_column(predict_scaled(model, dataset), dataset.scaler, "price")


def predict_scaled(model: LstmModel, dataset: SupervisedDataset) -> np.ndarray:
    """One prediction per sample in scaled [0, 1] units."""
    preds, _ = _forward_batch(model, np.asarray(dataset.inputs, dtype=np.float64))
    return preds

