import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualstyle import autodiff as ad
from dualstyle.errors import NaNDetectedError, NonScalarLossError

from conftest import square_sum
from gradcheck import grad_check

RNG = np.random.default_rng(1234)


def test_square_gradient_is_analytic():
    x = ad.parameter(np.asarray(3.0))
    with ad.Tape() as tape:
        y = square_sum(x)
    ad.backward(tape, y)
    assert abs(float(x.grad) - 6.0) < 1e-12


def test_softmax_cross_entropy_closed_form():
    logits = ad.parameter(np.zeros((1, 2)))
    with ad.Tape() as tape:
        loss = ad.masked_sum(ad.cross_entropy(logits, np.array([0])), np.ones(1))
    ad.backward(tape, loss)
    assert abs(float(loss.value) - math.log(2.0)) < 1e-12
    assert np.allclose(logits.grad, [[-0.5, 0.5]], atol=1e-12)


def test_unused_parameter_gets_no_gradient():
    x = ad.parameter(np.asarray(2.0))
    unused = ad.parameter(np.ones((3, 3)))
    with ad.Tape() as tape:
        y = square_sum(x)
    ad.backward(tape, y)
    assert unused.grad is None  # collect_grads turns this into zeros


def test_shared_node_gradient_accumulates():
    # r is both operands of one product, so its gradient sums two contributions
    x = ad.parameter(np.full((1, 1), 3.0))
    with ad.Tape() as tape:
        r = ad.scale(x, 2.0)
        y = ad.masked_sum(ad.affine(r, r, ad.parameter(np.zeros(1))), np.ones((1, 1)))
    ad.backward(tape, y)
    assert abs(float(x.grad[0, 0]) - 24.0) < 1e-12  # d(2x)^2/dx = 8x


def test_masked_sum_rejects_a_mask_of_another_shape():
    # a broadcast mask would hand the input a gradient of the mask's shape
    z = ad.parameter(np.ones((1, 1)))
    with pytest.raises(ValueError, match=r"\(\).*\(1, 1\)"):
        ad.masked_sum(z, 1.0)


def test_non_scalar_loss_rejected():
    x = ad.parameter(np.ones(3))
    with ad.Tape() as tape:
        y = ad.scale(x, 2.0)
    with pytest.raises(NonScalarLossError):
        ad.backward(tape, y)


def test_nan_loss_rejected():
    x = ad.parameter(np.asarray(np.inf))
    with ad.Tape() as tape:
        y = square_sum(x)
    with pytest.raises(NaNDetectedError):
        ad.backward(tape, y)


def test_softmax_rows_are_distributions():
    for _ in range(20):
        a = RNG.normal(0, 5, (7, 11))
        out = ad.softmax_values(a)
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.abs(np.log(out) - ad.log_softmax_values(a)).max() < 1e-12


def test_constant_function_has_zero_gradients():
    x = ad.parameter(RNG.normal(0, 1, (4,)))

    def fn(params):
        row = ad.take(params[0], np.s_[None, :])
        zero_w, zero_b = ad.parameter(np.zeros((4, 1))), ad.parameter(np.zeros(1))
        return ad.masked_sum(ad.affine(row, zero_w, zero_b), np.ones((1, 1)))

    assert grad_check(fn, [x]) == 0.0


# ---------------------------------------------------------------------------
# every primitive passes grad_check in isolation
# ---------------------------------------------------------------------------

LSTM_INDEX = np.array([[0, 2, 2, 1], [2, 0, 3, 3]])


def _mean_sq(t):
    return ad.scale(square_sum(t), 1.0 / t.value.size)


def make_primitive_cases():
    rng = np.random.default_rng(7)
    a23 = rng.normal(0, 0.8, (2, 3))
    b23 = rng.normal(0, 0.8, (2, 3))
    m34 = rng.normal(0, 0.8, (3, 4))
    v4 = rng.normal(0, 1, (4,))
    ids = np.array([[0, 2], [1, 0]])
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    x_btE = rng.normal(0, 0.8, (2, 5, 3))
    filt = rng.normal(0, 0.8, (2, 3, 4))
    valid = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool)
    keys = rng.normal(0, 0.8, (2, 4, 3))
    relu_in = rng.normal(0, 1.0, (2, 3))
    relu_in[np.abs(relu_in) < 0.05] = 0.2  # keep clear of the kink

    cases = {
        "scale": ([a23], lambda p: _mean_sq(ad.scale(p[0], -1.7))),
        "relu": ([relu_in], lambda p: _mean_sq(ad.relu(p[0]))),
        "embedding": ([m34], lambda p: _mean_sq(ad.embedding(p[0], ids))),
        "concat": ([a23, b23], lambda p: _mean_sq(ad.concat([p[0], p[1]], axis=1))),
        "take": ([x_btE], lambda p: _mean_sq(ad.take(ad.take(p[0], np.s_[..., 1:3]),
                                                     np.s_[:, -1]))),
        "repeat_rows": ([a23], lambda p: _mean_sq(ad.repeat_rows(p[0], 3))),
        "masked_sum": ([a23], lambda p: square_sum(ad.masked_sum(p[0], mask))),
        "cross_entropy": ([a23], lambda p: _mean_sq(ad.cross_entropy(p[0], np.array([1, 0])))),
        "conv1d": ([x_btE, filt, v4], lambda p: _mean_sq(ad.conv1d(p[0], p[1], p[2]))),
        "max_over_time": ([x_btE], lambda p: _mean_sq(
            ad.max_over_time(ad.conv1d(p[0], ad.parameter(filt), ad.parameter(v4)), valid))),
        "affine": ([a23, m34, v4],
                   lambda p: _mean_sq(ad.affine(p[0], p[1], p[2]))),
        "tanh_affine": ([a23, m34, v4],
                        lambda p: _mean_sq(ad.tanh_affine(p[0], p[1], p[2]))),
        "bilinear_attention_seq": (
            [rng.normal(0, 0.8, (2, 3, 3)), keys, rng.normal(0, 0.5, (3, 3))],
            lambda p: _mean_sq(ad.bilinear_attention(
                p[0], p[1], np.array([[0.0, 0.0, 0.0, -1e9], [0.0, 0.0, -1e9, -1e9]]),
                p[2]))),
        # whole sequence: xw rows 2 and 3 each feed several steps, so their
        # gradients are scatter-adds across steps and rows
        "lstm_cell_seq": (
            [rng.normal(0, 0.8, (4, 16)), rng.normal(0, 0.8, (2, 8)),
             rng.normal(0, 0.5, (4, 16))],
            lambda p: _mean_sq(ad.lstm_cell(p[0], LSTM_INDEX, p[1], p[2]))),
        # the encoder's zero start state: no state tensor, and no gradient
        # flows back past step 0
        "lstm_cell_zero_start": (
            [rng.normal(0, 0.8, (4, 16)), rng.normal(0, 0.5, (4, 16))],
            lambda p: _mean_sq(ad.lstm_cell(p[0], LSTM_INDEX, None, p[1]))),
    }
    return cases


@pytest.mark.parametrize("name", sorted(make_primitive_cases()))
def test_primitive_grad_check(name):
    arrays, build = make_primitive_cases()[name]
    params = [ad.parameter(a) for a in arrays]
    err = grad_check(build, params, rng=np.random.default_rng(0))
    assert err < 1e-4, f"{name}: max rel err {err}"


def test_lstm_cell_zero_start_equals_an_explicit_zero_state():
    rng = np.random.default_rng(5)
    xw, wh = rng.normal(0, 0.8, (4, 16)), rng.normal(0, 0.5, (4, 16))
    g = rng.normal(0, 1, (2, 4, 8))
    results = []
    for hc in (None, ad.parameter(np.zeros((2, 8)))):
        params = [ad.parameter(xw), ad.parameter(wh)]
        with ad.Tape() as tape:
            out = ad.lstm_cell(params[0], LSTM_INDEX, hc, params[1])
            loss = ad.masked_sum(out, g)
        ad.backward(tape, loss)
        results.append((out.value,) + tuple(p.grad for p in params))
    for name, a, b in zip(("out", "dxw", "dwh"), *results):
        assert np.array_equal(a, b), name


def test_composed_tanh_network_grad_check():
    rng = np.random.default_rng(11)
    w1 = ad.parameter(rng.normal(0, 0.5, (6, 9)))
    b1 = ad.parameter(rng.normal(0, 0.2, (9,)))
    w2 = ad.parameter(rng.normal(0, 0.5, (9, 4)))
    b2 = ad.parameter(rng.normal(0, 0.2, (4,)))
    x = rng.normal(0, 1, (5, 6))

    def fn(params):
        h = ad.tanh_affine(ad.parameter(x), params[0], params[1])
        return _mean_sq(ad.affine(h, params[2], params[3]))

    err = grad_check(fn, [w1, b1, w2, b2], samples_per_param=25,
                     rng=np.random.default_rng(0))
    assert err < 1e-4


def test_square_grad_check_tight():
    x = ad.parameter(np.asarray(3.0))

    def fn(params):
        return square_sum(params[0])

    assert grad_check(fn, [x], h=1e-5) < 1e-6


def test_inference_mode_records_nothing():
    x = ad.parameter(np.ones((2, 2)))
    y = square_sum(x)  # no tape active
    assert y.vjp is None


def test_a_tape_records_only_the_ops_of_its_own_thread():
    a, w, b = (ad.parameter(np.ones(shape)) for shape in ((2, 3), (3, 4), (4,)))
    with ad.Tape() as tape:
        with ThreadPoolExecutor(max_workers=1) as pool:
            elsewhere = pool.submit(ad.affine, a, w, b).result(timeout=30)
        assert elsewhere.vjp is None and tape.nodes == []
        here = ad.affine(a, w, b)
    assert len(tape.nodes) == 1 and tape.nodes[0] is here and here.vjp is not None


# ---------------------------------------------------------------------------
# conv1d against a plain loop over windows
# ---------------------------------------------------------------------------

def _conv1d_by_windows(x, filters, bias, g):
    """Values of conv1d and the gradients of sum(out * g), one window at a time."""
    w = filters.shape[0]
    batch, steps, _ = x.shape
    out = np.empty((batch, steps - w + 1, filters.shape[2]))
    dx, dfilt = np.zeros_like(x), np.zeros_like(filters)
    for b in range(batch):
        for t in range(steps - w + 1):
            window = x[b, t: t + w]  # (w, E)
            out[b, t] = (window[:, :, None] * filters).sum(axis=(0, 1)) + bias
            dx[b, t: t + w] += (filters * g[b, t]).sum(axis=2)
            dfilt += window[:, :, None] * g[b, t]
    return out, dx, dfilt, g.sum(axis=(0, 1))


def _conv1d_grads(x, filters, bias, g):
    params = [ad.parameter(a) for a in (x, filters, bias)]
    with ad.Tape() as tape:
        out = ad.conv1d(*params)
        loss = ad.masked_sum(out, g)
    ad.backward(tape, loss)
    return (out.value,) + tuple(p.grad for p in params)


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("batch,extra_steps", [(1, 0), (3, 0), (1, 4), (3, 4)])
def test_conv1d_matches_a_loop_over_windows(w, batch, extra_steps):
    rng = np.random.default_rng(10 * w + batch + extra_steps)
    x = rng.normal(0, 1, (batch, w + extra_steps, 5))
    filters = rng.normal(0, 1, (w, 5, 4))
    bias = rng.normal(0, 1, (4,))
    g = rng.normal(0, 1, (batch, extra_steps + 1, 4))
    got = _conv1d_grads(x, filters, bias, g)
    want = _conv1d_by_windows(x, filters, bias, g)
    for name, a, b in zip(("out", "dx", "dfilters", "dbias"), got, want):
        assert a.dtype == np.float64 and a.shape == b.shape, name
        assert np.abs(a - b).max() < 1e-12, name
    # the einsum formula conv1d used before it ran on matrix products
    windows = np.lib.stride_tricks.sliding_window_view(x, w, axis=1)
    assert np.abs(got[0] - (np.einsum("btew,wec->btc", windows, filters) + bias)).max() < 1e-12
    assert np.abs(got[2] - np.einsum("btew,btc->wec", windows, g)).max() < 1e-12


def test_conv1d_keeps_float32():
    rng = np.random.default_rng(3)
    arrays = [rng.normal(0, 1, shape) for shape in ((2, 6, 5), (3, 5, 4), (4,), (2, 4, 4))]
    got = _conv1d_grads(*(a.astype(np.float32) for a in arrays))
    want = _conv1d_by_windows(*arrays)
    for a, b in zip(got, want):
        assert a.dtype == np.float32
        assert np.abs(a - b).max() < 1e-5

