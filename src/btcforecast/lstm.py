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

h and c enter the first step as zero. So that step computes only the i, o
and g rows of a, from the x columns of W, as [W_x, b] @ [x; 1] in one
matmul, and sets c = i * g; no f rows are computed or stored, and its
backward pass leaves out the forget gate and the h columns of dW. At lag 1
this step is the whole recurrence.

Each epoch runs forward and backward over the full batch on one thread,
in a workspace allocated once per training and written in place. It keeps
per step only the activated gates and the cell state the step leaves (5H
floats per sample, 4H at step 0; the last cell state sits in the tanh(c)
row), plus four (H, n) rows, h_last, dC and two scratch rows, and at lag > 1
z = [h; x]. Backward recomputes tanh(c) and h from them with the calls
forward made, so the bits are those of a stored copy, and writes each
step's gradient with respect to the pre-activations over that step's gates.
Prediction runs the same forward over the same workspace. Adam updates the
model's arrays in place too. Importing btcforecast pins BLAS to one thread
(OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS default to 1; a
value the caller set wins), so the bits of a run do not depend on the core
count. cli.run_comparison trains its two LSTMs in two processes.

init draws W and then Wd, in C order, from the stream of numpy's
default_rng(seed).uniform, bit for bit, but computes it in pure Python
(_uniform_draws: SeedSequence and PCG64), so no training process loads
numpy.random, which costs 12-13 ms and about 6 MB of peak RSS.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataset import SupervisedDataset, unscale_column

PARAM_NAMES = ("W", "b", "Wd", "bd")
# Adam's moment decay rates and the floor of its denominator
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss, the parameters or the forecast stop being finite."""


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
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


@dataclass
class AdamState:
    """Per-parameter first/second moments and the step counter."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class TrainHistory:
    """Per-epoch MAE (scaled units), plus the wall-clock time of init and of
    the epoch loop in ms."""

    losses: list[float] = field(default_factory=list)
    build_time_ms: float = 0.0
    train_time_ms: float = 0.0


def init(config: LstmConfig) -> LstmModel:
    """Seeded uniform [-k, k] weights with k = 1/sqrt(hidden); zero biases.
    W, then Wd, in C order, from the stream of numpy's default_rng(seed)."""
    h, f = config.hidden_size, config.n_features
    k = 1.0 / math.sqrt(h)
    n_w = 4 * h * (h + f)
    draws = _uniform_draws(int(config.seed), -k, k, n_w + h)
    W = draws[:n_w].reshape(4 * h, h + f)
    Wd = draws[n_w:].reshape(1, h)
    return LstmModel(W=W, b=np.zeros(4 * h), Wd=Wd, bd=np.zeros(1), n_features=f, hidden_size=h)


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier


def _uniform_draws(seed: int, low: float, high: float, n: int) -> np.ndarray:
    """np.random.default_rng(seed).uniform(low, high, n), bit for bit, without
    importing numpy.random: numpy's SeedSequence hashes the seed into four
    64-bit words, PCG64 (O'Neill 2014) is seeded from them, and each draw is
    low + (high - low) * (53 bits of its XSL-RR output) * 2**-53. NumPy's
    NEP 19 keeps these streams stable."""
    words = []  # the seed's 32-bit words, least significant first
    while True:
        words.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_a = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * 0x931E8875 & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    # SeedSequence: the words are hashed into a pool of four, and mixed
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight 32-bit words, paired little-endian
    hash_b, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _M32
        value = value * hash_b & _M32
        out.append(value ^ value >> 16)
    s = [out[2 * i] | out[2 * i + 1] << 32 for i in range(4)]
    initstate, initseq = s[0] << 64 | s[1], s[2] << 64 | s[3]
    # PCG64's seeding: from state 0 one step (giving inc), add initstate, one step
    inc = (initseq << 1 | 1) & _M128
    state = ((inc + initstate) * _PCG_MULT + inc) & _M128
    scale, draws = high - low, np.empty(n)
    for i in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        draws[i] = low + scale * ((x >> 11) * 2.0**-53)
    return draws


def _sigmoid_inplace(x: np.ndarray) -> None:
    """x <- 1 / (1 + exp(-x)). In place because the (3H, n) temporaries of
    the plain expression, made at every step, raised peak RSS by about 3 MB."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


class _Workspace:
    """Every buffer that forward and backward over one (n, lag, n_features)
    batch need, allocated once and written in place.

    Per step t it keeps only what backward reads back: gates[t], the
    activated gate rows, and c[t], the cell state the step leaves. Step 0
    stores no f rows, because h and c enter it as zero. h and tanh(c) are
    recomputed from them, so z = [h; x] (the input of a step t >= 1, its x
    rows copied from windows), tanh_c and the scratch rows are one rolling
    buffer each. x1 = [x; 1] is the input of step 0: one matmul with
    [W_x, b] gives its gates (numpy's matmul is slow at an inner size of 1).

    Backward reads neither the last cell state nor h_last after the Wd
    gradient, so c[lag - 1] is tanh_c (forward takes its tanh in place) and
    backward keeps dH in h_last; it writes each step's gradient with respect
    to the pre-activations over gates[t]."""

    def __init__(self, model: LstmModel, windows: np.ndarray):
        n, lag, f = windows.shape
        h = model.hidden_size
        if f != model.n_features:
            raise ValueError(f"model expects {model.n_features} features, got {f}")
        if not np.isfinite(windows).all():
            raise ValueError("non-finite input window")
        self.x = windows.transpose(1, 2, 0)         # (lag, f, n) view, no copy
        self.x1 = np.ones((f + 1, n))
        self.x1[:f] = self.x[0]
        self.z = np.empty((h + f, n)) if lag > 1 else None
        self.tanh_c = np.empty((h, n))               # forward leaves tanh(c[lag - 1]) here
        self.h_last = np.empty((h, n))
        # step 0 holds the i, o, g rows; each later step f, i, o, g
        block = np.empty(((4 * lag - 1) * h, n))
        self.gates = [block[: 3 * h]] + [block[(4 * t - 1) * h : (4 * t + 3) * h] for t in range(1, lag)]
        self.gate_rows = [np.split(g, len(g) // h) for g in self.gates]
        self.c = list(np.empty((lag - 1, h, n))) + [self.tanh_c]
        self.scratch = np.empty((2, h, n))
        self.dC = np.empty((h, n))
        self.grads = {name: np.empty_like(p) for name, p in model.params().items()}
        if lag > 1:  # one step's W and b gradients, summed over the steps t >= 1
            self.dW = np.empty_like(model.W)
            self.db = np.empty_like(model.b)


def _forward_batch(model: LstmModel, ws: _Workspace) -> np.ndarray:
    """Run the recurrence over the workspace's batch; returns one prediction
    per sample and leaves in ws what backward needs."""
    h = model.hidden_size
    lag = len(ws.gates)
    b = model.b[:, None]
    tmp = ws.scratch[0]
    for t in range(lag):
        gates, C = ws.gates[t], ws.c[t]
        if t:
            ws.z[h:] = ws.x[t]
            np.matmul(model.W, ws.z, out=gates)
            gates += b
            _sigmoid_inplace(gates[: 3 * h])
            np.tanh(gates[3 * h :], out=gates[3 * h :])
            ft, it, ot, gt = ws.gate_rows[t]
            np.multiply(ft, ws.c[t - 1], out=C)
            np.multiply(it, gt, out=tmp)
            C += tmp
        else:  # h and c enter step 0 as zero: only the i, o, g rows of the
            # x columns of W act, and c = i * g
            np.matmul(np.column_stack([model.W[h:, h:], model.b[h:]]), ws.x1, out=gates)
            _sigmoid_inplace(gates[: 2 * h])
            np.tanh(gates[2 * h :], out=gates[2 * h :])
            it, ot, gt = ws.gate_rows[0]
            np.multiply(it, gt, out=C)
        np.tanh(C, out=ws.tanh_c)
        H = ws.z[:h] if t + 1 < lag else ws.h_last
        np.multiply(ot, ws.tanh_c, out=H)
    pred = model.Wd @ ws.h_last + model.bd[:, None]
    return pred[0]


def _backward_batch(model: LstmModel, ws: _Workspace, d_pred: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients, summed over the batch weighted by d_pred, after a
    _forward_batch of model over ws. They are written into ws.grads, which
    the next call overwrites.

    It consumes the workspace: each step's gate rows become the gradient
    with respect to that step's pre-activations, and h_last becomes dH. So
    a second call needs a fresh _forward_batch first."""
    h = model.hidden_size
    grads = ws.grads
    np.matmul(d_pred[None, :], ws.h_last.T, out=grads["Wd"])
    grads["bd"][0] = d_pred.sum()
    grads["W"].fill(0.0)
    grads["b"].fill(0.0)
    dH, dC, tanh_c, z = ws.h_last, ws.dC, ws.tanh_c, ws.z  # h_last is read above, then holds dH
    for row, w in zip(dH, model.Wd[0]):  # row by row: the broadcast product allocates
        np.multiply(d_pred, w, out=row)
    dC.fill(0.0)
    W_hT = model.W[:, :h].T
    s, u = ws.scratch
    # The comments give each product with its grouping. A gate's (1 - x)
    # factor is written over its row once nothing reads the gate, and the
    # partial product is multiplied into it; IEEE multiplication commutes,
    # so every bit is that of the grouping shown. tanh_c holds tanh(c[t]),
    # as forward left it for the last step.
    for t in reversed(range(len(ws.gates))):
        da = ws.gates[t]
        if t:
            ft, it, ot, gt = ws.gate_rows[t]
        else:
            it, ot, gt = ws.gate_rows[0]
        # dC += (dH * ot) * (1 - tanh_c * tanh_c)
        np.multiply(tanh_c, tanh_c, out=s)
        np.subtract(1.0, s, out=s)
        np.multiply(dH, ot, out=u)
        u *= s
        dC += u
        # da_o = ((dH * tanh_c) * ot) * (1 - ot)
        np.multiply(dH, tanh_c, out=s)
        s *= ot
        np.subtract(1.0, ot, out=ot)
        ot *= s
        # da_i = ((dC * gt) * it) * (1 - it): its partial product first,
        # because da_g goes over gt
        np.multiply(dC, gt, out=u)
        u *= it
        # da_g = (dC * it) * (1 - gt * gt)
        np.multiply(dC, it, out=s)
        np.multiply(gt, gt, out=gt)
        np.subtract(1.0, gt, out=gt)
        gt *= s
        np.subtract(1.0, it, out=it)  # da_i, finished over it
        it *= u
        if t == 0:  # only the i, o, g rows of the x columns and of b get a
            # gradient, which is da @ [x; 1]'; no earlier step reads dH and dC
            dx1 = da @ ws.x1.T
            grads["W"][h:, h:] += dx1[:, :-1]
            grads["b"][h:] += dx1[:, -1]
            break
        # da_f = ((dC * c_prev) * ft) * (1 - ft); dC *= ft before ft goes
        np.multiply(dC, ws.c[t - 1], out=s)
        s *= ft
        dC *= ft
        np.subtract(1.0, ft, out=ft)
        ft *= s
        # z = [h; x] entering step t, with h = o * tanh(c) of step t - 1
        # recomputed as forward computed it; tanh_c then serves step t - 1
        np.tanh(ws.c[t - 1], out=tanh_c)
        np.multiply(ws.gate_rows[t - 1][-2], tanh_c, out=z[:h])  # [-2]: the o rows
        z[h:] = ws.x[t]
        grads["W"] += np.matmul(da, z.T, out=ws.dW)
        grads["b"] += np.sum(da, axis=1, out=ws.db)
        np.matmul(W_hT, da, out=dH)
    return grads


def adam_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected Adam update of params, state.m, state.v and
    state.t, in place. Every gradient's shape is checked before any array
    changes."""
    for name, p in params.items():
        if grads[name].shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
    state.t += 1
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        m_hat = m / (1.0 - _BETA1**state.t)
        v_hat = v / (1.0 - _BETA2**state.t)
        p -= lr * m_hat / (np.sqrt(v_hat) + _EPS)


def train(config: LstmConfig, dataset: SupervisedDataset) -> tuple[LstmModel, TrainHistory]:
    """Full-batch MAE training: one Adam step per epoch, deterministic per seed."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if dataset.inputs.shape[2] != config.n_features:
        raise ValueError(
            f"dataset has {dataset.inputs.shape[2]} features, config expects {config.n_features}"
        )
    if dataset.inputs.shape[1] != config.lag:
        raise ValueError(f"dataset lag {dataset.inputs.shape[1]} != config lag {config.lag}")

    t0 = time.perf_counter()
    model = init(config)
    history = TrainHistory(build_time_ms=(time.perf_counter() - t0) * 1000.0)

    X = np.asarray(dataset.inputs, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    n = len(y)
    ws = _Workspace(model, X)
    params = model.params()
    state = AdamState.for_params(params)
    t_train = time.perf_counter()
    for epoch in range(config.epochs):
        resid = _forward_batch(model, ws) - y
        loss = float(np.abs(resid).sum()) / n
        if not np.isfinite(loss):
            raise TrainingDiverged(f"non-finite loss {loss} at epoch {epoch}")
        # MAE subgradient: sign(residual), 0 at an exact zero residual.
        grads = _backward_batch(model, ws, np.sign(resid) / n)
        adam_step(params, grads, state, config.learning_rate)
        history.losses.append(loss)
    history.train_time_ms = (time.perf_counter() - t_train) * 1000.0
    if not all(np.isfinite(p).all() for p in params.values()):
        raise TrainingDiverged(f"non-finite parameters after epoch {config.epochs - 1}")
    return model, history


def predict_series(model: LstmModel, dataset: SupervisedDataset) -> np.ndarray:
    """One prediction per sample, inverse-scaled to original USD units."""
    return unscale_column(predict_scaled(model, dataset), dataset.scaler, "price")


def predict_scaled(model: LstmModel, dataset: SupervisedDataset) -> np.ndarray:
    """One prediction per sample in scaled [0, 1] units."""
    windows = np.asarray(dataset.inputs, dtype=np.float64)
    return _forward_batch(model, _Workspace(model, windows))

