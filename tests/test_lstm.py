from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from btcforecast import lstm
from btcforecast.dataset import (
    PRICE_AND_SENTIMENT,
    PRICE_ONLY,
    fit_scaler,
    scale,
    to_supervised,
)
from btcforecast.lstm import (
    AdamState,
    LstmConfig,
    LstmModel,
    TrainingDiverged,
    adam_step,
    init,
    predict_series,
    train,
)
from btcforecast.synthetic import sine_series
from backward_reference import reference_backward
from gradcheck import backward, fd_gradients, forward, max_rel_err


def _zero_model(hidden=3, features=1, lag=2):
    model = init(LstmConfig(n_features=features, hidden_size=hidden, lag=lag, seed=0))
    return dataclasses.replace(model, **{k: np.zeros_like(v) for k, v in model.params().items()})


def _gate_blocks(model: LstmModel):
    """(W, b) row blocks of the stacked gate parameters, in f, i, o, g order."""
    return list(zip(np.split(model.W, 4), np.split(model.b, 4)))


def _oracle_forward(model: LstmModel, window) -> float:
    """Independent plain-Python recomputation of the cell recurrences."""
    h = model.hidden_size

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    H = [0.0] * h
    C = [0.0] * h
    for x_t in window:
        z = list(H) + list(np.atleast_1d(x_t))

        def gate(W, b, fn):
            return [fn(sum(W[r][j] * z[j] for j in range(len(z))) + b[r]) for r in range(h)]

        (Wf, bf), (Wi, bi), (Wo, bo), (Wg, bg) = _gate_blocks(model)
        f = gate(Wf, bf, sig)
        i = gate(Wi, bi, sig)
        o = gate(Wo, bo, sig)
        g = gate(Wg, bg, math.tanh)
        C = [f[r] * C[r] + i[r] * g[r] for r in range(h)]
        H = [o[r] * math.tanh(C[r]) for r in range(h)]
    return sum(model.Wd[0][r] * H[r] for r in range(h)) + float(model.bd[0])


class TestInit:
    def test_deterministic(self):
        cfg = LstmConfig(hidden_size=8, seed=123)
        a, b = init(cfg), init(cfg)
        for name in lstm.PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_gate_weight_shape(self):
        model = init(LstmConfig(n_features=2, hidden_size=32))
        assert model.W.shape == (4 * 32, 34)
        assert model.b.shape == (4 * 32,)
        assert model.Wd.shape == (1, 32)

    @pytest.mark.parametrize("seed", [0, 17, 2**32 + 1, 2**64 + 5])
    @pytest.mark.parametrize("h, f", [(4, 2), (32, 1), (32, 2)])
    def test_gate_blocks_are_sequential_draws(self, seed, h, f):
        # W's f, i, o, g row blocks are four consecutive (h, h+f) draws from
        # numpy's default_rng(seed) stream, then Wd: the stream of one draw
        # per gate tensor, bit for bit, though init does not use numpy.random
        model = init(LstmConfig(n_features=f, hidden_size=h, seed=seed))
        rng = np.random.default_rng(seed)
        k = 1.0 / math.sqrt(h)
        for W_gate, _ in _gate_blocks(model):
            assert np.array_equal(W_gate, rng.uniform(-k, k, size=(h, h + f)))
        assert np.array_equal(model.Wd, rng.uniform(-k, k, size=(1, h)))

    def test_init_range_and_zero_biases(self):
        model = init(LstmConfig(hidden_size=32, seed=5))
        k = 1.0 / math.sqrt(32)
        for name in ("W", "Wd"):
            w = getattr(model, name)
            assert np.all(np.abs(w) <= k)
        for name in ("b", "bd"):
            assert np.all(getattr(model, name) == 0.0)


class TestForward:
    def test_zero_model_predicts_zero(self):
        model = _zero_model()
        pred, _ = forward(model, np.array([[0.3], [0.9]]))
        assert pred == 0.0

    def test_matches_recurrence_oracle(self):
        rng = np.random.default_rng(2)
        model = init(LstmConfig(n_features=1, hidden_size=2, lag=2, seed=9))
        window = rng.uniform(0, 1, size=(2, 1))
        pred, _ = forward(model, window)
        assert pred == pytest.approx(_oracle_forward(model, window), rel=1e-12, abs=1e-14)

    def test_activation_ranges(self):
        model = init(LstmConfig(n_features=2, hidden_size=6, lag=4, seed=3))
        window = np.random.default_rng(0).uniform(0, 1, size=(4, 2))
        _, ws = forward(model, window)
        # h and c enter step 0 as zero, so it stores i, o, g and no f rows
        assert [len(rows) for rows in ws.gate_rows] == [3, 4, 4, 4]
        for rows in ws.gate_rows:
            *sigmoid_rows, _ = rows  # f, i, o at t >= 1; i, o at t = 0
            for gate in sigmoid_rows:
                assert np.all(gate > 0.0) and np.all(gate < 1.0)
        assert np.all(np.abs(ws.h_last) < 1.0)

    def test_training_keeps_gates_and_cell_states_per_step(self):
        h, lag, n = 5, 6, 7
        model = init(LstmConfig(n_features=2, hidden_size=h, lag=lag, seed=1))
        ws = lstm._Workspace(model, np.random.default_rng(1).uniform(0, 1, size=(n, lag, 2)))
        per_step = [(len(g) + len(c)) // h for g, c in zip(ws.gates, ws.c)]
        assert per_step == [4] + [5] * (lag - 1)  # i, o, g, c; then f, i, o, g, c
        assert all(g.shape == (4 * h, n) for g in ws.gates[1:]) and ws.gates[0].shape == (3 * h, n)

    def test_rejects_non_finite_input(self):
        model = init(LstmConfig(hidden_size=2, lag=1, seed=0))
        with pytest.raises(ValueError):
            forward(model, np.array([[math.nan]]))


class TestBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            hidden = int(rng.integers(1, 5))
            lag = int(rng.integers(1, 4))
            nf = int(rng.integers(1, 3))
            model = init(
                LstmConfig(n_features=nf, hidden_size=hidden, lag=lag, seed=int(rng.integers(1000)))
            )
            window = rng.uniform(0, 1, size=(lag, nf))
            d = float(rng.uniform(-2, 2))
            _, cache = forward(model, window)
            analytic = backward(model, cache, d)
            numeric = fd_gradients(model, window, d)
            assert max_rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("n_features", [1, 2])
    def test_lag1_matches_finite_differences(self, n_features):
        """At lag 1 the zero-state first step is the whole recurrence."""
        rng = np.random.default_rng(n_features)
        model = init(LstmConfig(n_features=n_features, hidden_size=4, lag=1, seed=5))
        model.b[:] = rng.uniform(-0.5, 0.5, size=model.b.shape)
        window = rng.uniform(0, 1, size=(1, n_features))
        _, cache = forward(model, window)
        assert max_rel_err(backward(model, cache, 1.3), fd_gradients(model, window, 1.3)) < 1e-4

    def test_zero_upstream_gives_zero_gradients(self):
        model = init(LstmConfig(hidden_size=3, lag=2, seed=1))
        _, cache = forward(model, np.random.default_rng(1).uniform(0, 1, (2, 1)))
        grads = backward(model, cache, 0.0)
        assert all(np.all(g == 0.0) for g in grads.values())

    @pytest.mark.parametrize("lag", [1, 2, 10])
    @pytest.mark.parametrize("n_features", [1, 2])
    def test_matches_the_reference_with_its_own_buffers_bit_for_bit(self, lag, n_features):
        """Backward writes each step's pre-activation gradient over that
        step's gate rows and dH over h_last, so it consumes the workspace; a
        fresh forward restores it."""
        rng = np.random.default_rng(10 * lag + n_features)
        model = init(LstmConfig(n_features=n_features, hidden_size=8, lag=lag, seed=lag))
        model.b[:] = rng.uniform(-0.5, 0.5, size=model.b.shape)
        n = 301
        ws = lstm._Workspace(model, rng.uniform(0, 1, size=(n, lag, n_features)))
        d_pred = rng.normal(size=n) / n
        lstm._forward_batch(model, ws)
        expected = reference_backward(model, ws, d_pred)
        grads = lstm._backward_batch(model, ws, d_pred)
        assert all(np.array_equal(grads[k], expected[k]) for k in lstm.PARAM_NAMES)
        lstm._forward_batch(model, ws)
        grads = lstm._backward_batch(model, ws, d_pred)
        assert all(np.array_equal(grads[k], expected[k]) for k in lstm.PARAM_NAMES)

    @pytest.mark.parametrize("lag,n", [(1, 2099), (10, 483)])
    def test_training_workspace_holds_the_stored_steps_and_five_rows(self, lag, n):
        """Training keeps every step's gates and cell state plus at most five
        (H, n) rows; the rest is [x; 1], the x rows of z and the gradients.
        A pre-activation gradient of its own (4H rows), a dH beside h_last
        and a last cell state beside tanh_c would add six rows."""
        h, f = 32, 1
        model = init(LstmConfig(n_features=f, hidden_size=h, lag=lag, seed=0))
        windows = np.random.default_rng(0).uniform(0, 1, size=(n, lag, f))
        tracemalloc.start()
        try:
            ws = lstm._Workspace(model, windows)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ws.gates) == lag
        row = h * n * 8
        stored = (4 * lag - 1) * row + lag * row  # step 0 stores 3H gate rows
        small = (2 * f + 1) * n * 8 + 3 * sum(p.nbytes for p in model.params().values())
        assert size <= stored + 5 * row + small

    @pytest.mark.parametrize("lag,n", [(1, 2099), (10, 483)])
    def test_allocates_at_most_48_kb_beyond_the_workspace(self, lag, n):
        """dH is written into h_last row by row; a broadcast product into it
        took about 100 KB of temporary buffer at these sizes."""
        model = init(LstmConfig(hidden_size=32, lag=lag, seed=0))
        ws = lstm._Workspace(model, np.random.default_rng(0).uniform(0, 1, size=(n, lag, 1)))
        d_pred = np.random.default_rng(1).normal(size=n) / n
        lstm._forward_batch(model, ws)
        tracemalloc.start()
        try:
            lstm._backward_batch(model, ws, d_pred)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 1024

    def test_lag1_matches_single_step_closed_form(self):
        # with lag 1, h_prev = c_prev = 0, so the gradients have a short
        # closed form: the forget gate contributes nothing and the other
        # gates reduce to single outer products
        model = init(LstmConfig(n_features=2, hidden_size=3, lag=1, seed=11))
        x = np.array([[0.4, 0.9]])
        pred, cache = forward(model, x)
        grads = backward(model, cache, 1.0)

        z = np.concatenate([np.zeros(3), x[0]])
        (Wf, bf), (Wi, bi), (Wo, bo), (Wg, bg) = _gate_blocks(model)
        a_f = Wf @ z + bf
        a_i = Wi @ z + bi
        a_o = Wo @ z + bo
        a_g = Wg @ z + bg
        sig = lambda v: 1.0 / (1.0 + np.exp(-v))
        f, i, o, g = sig(a_f), sig(a_i), sig(a_o), np.tanh(a_g)
        c = i * g
        h = o * np.tanh(c)
        assert pred == pytest.approx(float(model.Wd[0] @ h + model.bd[0]), rel=1e-12)

        dh = model.Wd[0]
        do = dh * np.tanh(c)
        dc = dh * o * (1 - np.tanh(c) ** 2)
        da_o = do * o * (1 - o)
        da_i = dc * g * i * (1 - i)
        da_g = dc * i * (1 - g * g)
        dWf, dWi, dWo, dWg = np.split(grads["W"], 4)
        assert np.allclose(dWo, np.outer(da_o, z), rtol=1e-12, atol=1e-15)
        assert np.allclose(dWi, np.outer(da_i, z), rtol=1e-12, atol=1e-15)
        assert np.allclose(dWg, np.outer(da_g, z), rtol=1e-12, atol=1e-15)
        assert np.allclose(dWf, 0.0)
        assert np.allclose(grads["bd"], [1.0])
        assert np.allclose(grads["Wd"], h[None, :], rtol=1e-12, atol=1e-15)


def _out_of_place_adam(params, grads, m, v, t, lr):
    """The bias-corrected Adam update written out of place, with new arrays
    for the params and both moments: the reference for adam_step."""
    t += 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads[name]
        m_new = 0.9 * m[name] + (1.0 - 0.9) * g
        v_new = 0.999 * v[name] + (1.0 - 0.999) * g * g
        m_hat = m_new / (1.0 - 0.9**t)
        v_hat = v_new / (1.0 - 0.999**t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        new_m[name] = m_new
        new_v[name] = v_new
    return new_params, new_m, new_v, t


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = AdamState.for_params(params)
        assert adam_step(params, {"w": np.zeros(2)}, state, lr=0.01) is None
        assert np.array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first update is lr * g/|g| up to eps
        params = {"w": np.array([1.0])}
        adam_step(params, {"w": np.array([0.5])}, AdamState.for_params(params), lr=0.01)
        assert params["w"][0] == pytest.approx(0.99, abs=1e-7)

    def test_deterministic(self):
        grads = {"w": np.array([0.1, -0.2])}
        p1, p2 = {"w": np.array([0.3, 0.7])}, {"w": np.array([0.3, 0.7])}
        s1, s2 = AdamState.for_params(p1), AdamState.for_params(p2)
        adam_step(p1, grads, s1, lr=0.05)
        adam_step(p2, grads, s2, lr=0.05)
        assert np.array_equal(p1["w"], p2["w"])
        assert np.array_equal(s1.m["w"], s2.m["w"]) and np.array_equal(s1.v["w"], s2.v["w"])

    def test_in_place_update_matches_the_out_of_place_one_bit_for_bit(self):
        model = init(LstmConfig(n_features=2, hidden_size=5, lag=3, seed=4))
        params = model.params()
        state = AdamState.for_params(params)
        ref = {k: v.copy() for k, v in params.items()}
        zero = AdamState.for_params(ref)
        ref_m, ref_v, ref_t = zero.m, zero.v, 0
        rng = np.random.default_rng(9)
        for _ in range(4):
            grads = {k: rng.normal(0.0, 0.3, v.shape) for k, v in params.items()}
            ref, ref_m, ref_v, ref_t = _out_of_place_adam(ref, grads, ref_m, ref_v, ref_t, 0.02)
            adam_step(params, grads, state, 0.02)
        assert state.t == ref_t == 4
        for name in lstm.PARAM_NAMES:
            assert params[name] is getattr(model, name)
            assert np.array_equal(params[name], ref[name])
            assert np.array_equal(state.m[name], ref_m[name])
            assert np.array_equal(state.v[name], ref_v[name])

    def test_wrong_gradient_shape_changes_nothing(self):
        model = init(LstmConfig(hidden_size=4, lag=2, seed=0))
        params = model.params()
        state = AdamState.for_params(params)
        before = {k: v.copy() for k, v in params.items()}
        grads = {k: np.ones_like(v) for k, v in params.items()} | {"bd": np.ones(2)}
        with pytest.raises(ValueError, match="bd"):
            adam_step(params, grads, state, lr=0.01)
        assert state.t == 0
        for name in lstm.PARAM_NAMES:
            assert np.array_equal(params[name], before[name])
            assert not state.m[name].any() and not state.v[name].any()


def _sine_dataset(lag=4, features=PRICE_ONLY, n=160):
    series = sine_series(n=n, period=20)
    params = fit_scaler(series)
    return to_supervised(scale(series, params), lag, features, params)


class TestTrain:
    def test_loss_trends_down_on_sine(self):
        ds = _sine_dataset()
        _, history = train(LstmConfig(hidden_size=8, lag=4, epochs=120, seed=7), ds)
        losses = history.losses
        slack = 0.1 * losses[0]
        running_min = losses[0]
        for value in losses[1:]:
            assert value <= running_min + slack
            running_min = min(running_min, value)
        assert losses[-1] < losses[0]

    def test_zero_epochs_is_init(self):
        ds = _sine_dataset()
        cfg = LstmConfig(hidden_size=6, lag=4, epochs=0, seed=3)
        model, history = train(cfg, ds)
        reference = init(cfg)
        for name in lstm.PARAM_NAMES:
            assert np.array_equal(getattr(model, name), getattr(reference, name))
        assert history.losses == [] and history.train_time_ms >= 0.0

    def test_bit_identical_given_seed(self):
        ds = _sine_dataset()
        cfg = LstmConfig(hidden_size=6, lag=4, epochs=25, seed=21)
        m1, h1 = train(cfg, ds)
        m2, h2 = train(cfg, ds)
        for name in lstm.PARAM_NAMES:
            assert np.array_equal(getattr(m1, name), getattr(m2, name))
        assert h1.losses == h2.losses

    @pytest.mark.parametrize("n_features", [1, 2])
    def test_single_sample_trains(self, n_features):
        features = PRICE_ONLY if n_features == 1 else PRICE_AND_SENTIMENT
        ds = _sine_dataset(features=features)
        one = dataclasses.replace(ds, inputs=ds.inputs[:1], targets=ds.targets[:1],
                                  target_times=ds.target_times[:1])
        cfg = LstmConfig(n_features=n_features, hidden_size=4, lag=4, epochs=3, seed=0)
        _, history = train(cfg, one)
        assert len(history.losses) == 3 and all(np.isfinite(history.losses))

    def test_feature_mismatch_rejected(self):
        ds = _sine_dataset(features=PRICE_AND_SENTIMENT)
        with pytest.raises(ValueError, match="model expects 1 features, got 2"):
            train(LstmConfig(n_features=1, hidden_size=4, lag=4, epochs=1), ds)

    def test_divergence_aborts(self):
        # a gigantic learning rate overflows the dense head within a few
        # epochs; train must abort with a diagnostic, not loop on NaN
        ds = _sine_dataset()
        bad = LstmConfig(hidden_size=8, lag=4, epochs=400, learning_rate=1e30, seed=0)
        with pytest.raises((TrainingDiverged, FloatingPointError)):
            with np.errstate(over="raise", invalid="raise"):
                train(bad, ds)

    def test_non_finite_parameters_after_the_last_step_abort(self, monkeypatch):
        # no loss is computed after the last Adam step, so its parameters are
        # checked themselves
        def overflowing_step(params, grads, state, lr):
            adam_step(params, grads, state, lr)
            params["bd"][:] = np.inf

        monkeypatch.setattr(lstm, "adam_step", overflowing_step)
        with pytest.raises(TrainingDiverged, match="after epoch 0"):
            train(LstmConfig(hidden_size=4, lag=4, epochs=1, seed=0), _sine_dataset())


class TestPredict:
    def test_prediction_count(self):
        ds = _sine_dataset()
        model, _ = train(LstmConfig(hidden_size=4, lag=4, epochs=2, seed=0), ds)
        assert len(predict_series(model, ds)) == len(ds)

    def test_zero_model_predicts_column_min(self):
        ds = _sine_dataset()
        model = _zero_model(hidden=4, features=1, lag=4)
        preds = predict_series(model, ds)
        assert np.allclose(preds, ds.scaler.mins[0])

    @pytest.mark.parametrize("lag", [1, 2, 10])
    @pytest.mark.parametrize("n_features", [1, 2])
    def test_matches_the_training_forward(self, lag, n_features):
        ds = _sine_dataset(lag=lag, features=PRICE_ONLY if n_features == 1 else PRICE_AND_SENTIMENT)
        cfg = LstmConfig(n_features=n_features, hidden_size=5, lag=lag, epochs=3, seed=lag)
        model, _ = train(cfg, ds)
        training = lstm._Workspace(model, np.asarray(ds.inputs, dtype=np.float64))
        assert np.array_equal(lstm.predict_scaled(model, ds), lstm._forward_batch(model, training))

    @pytest.mark.parametrize("bias", [np.inf, 1e308])
    def test_a_non_finite_forecast_raises(self, bias):
        # inf is non-finite in scaled units already; 1e308 only once it is
        # unscaled (times a span of 3000 USD)
        model = _zero_model(hidden=4, features=1, lag=4)
        model.bd[:] = bias
        with np.errstate(over="ignore"), pytest.raises(TrainingDiverged, match="non-finite forecast"):
            predict_series(model, _sine_dataset())

    def test_unscaling_consistency(self):
        ds = _sine_dataset()
        model, _ = train(LstmConfig(hidden_size=4, lag=4, epochs=4, seed=1), ds)
        scaled = lstm.predict_scaled(model, ds)
        span = ds.scaler.maxs[0] - ds.scaler.mins[0]
        assert np.allclose(predict_series(model, ds), scaled * span + ds.scaler.mins[0], rtol=1e-12)


def test_multi_feature_with_zero_sentiment_matches_single_feature():
    """Constructed weights: a 2-feature model whose extra input column is
    zeroed must predict exactly like the 1-feature model it was built from
    whenever the sentiment column is identically zero."""
    single = init(LstmConfig(n_features=1, hidden_size=5, lag=3, seed=42))
    h = single.hidden_size

    W2 = np.zeros((4 * h, h + 2))
    W2[:, : h + 1] = single.W  # shared hidden + price columns
    multi = LstmModel(
        W=W2, b=single.b.copy(), Wd=single.Wd.copy(), bd=single.bd.copy(),
        n_features=2, hidden_size=h,
    )

    rng = np.random.default_rng(0)
    for _ in range(20):
        prices = rng.uniform(0, 1, size=(3, 1))
        window2 = np.concatenate([prices, np.zeros((3, 1))], axis=1)
        p1, _ = forward(single, prices)
        p2, _ = forward(multi, window2)
        assert abs(p1 - p2) < 1e-9



@pytest.mark.parametrize("rate", [0.0, -0.01, math.nan, math.inf, -math.inf])
def test_config_rejects_a_learning_rate_that_is_not_finite_and_positive(rate):
    with pytest.raises(ValueError, match="learning_rate"):
        LstmConfig(learning_rate=rate)


@pytest.mark.parametrize("seed", [1.5, "3"])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer, got"):
        LstmConfig(seed=seed)
