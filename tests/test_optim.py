import numpy as np
import pytest

from dualstyle import autodiff as ad
from dualstyle.errors import NaNDetectedError, ShapeMismatchError
from dualstyle.optim import (
    ADAM_CHUNK,
    BETA1,
    BETA2,
    EPS,
    AdamState,
    adam_step,
    clip_global_norm,
    collect_grads,
)

from conftest import square_sum


def test_first_step_closed_form():
    # bias correction makes m_hat = g and v_hat = g^2, so the step is -lr
    p = {"w": ad.parameter(np.zeros(1))}
    state = AdamState(lr=1e-3)
    adam_step(p, {"w": np.ones(1)}, state)
    assert state.t == 1
    assert abs(float(p["w"].value[0]) + 1e-3) < 1e-10


def test_zero_gradient_fresh_state_keeps_params():
    p = {"w": ad.parameter(np.full((2, 2), 0.7))}
    state = AdamState(lr=1e-3)
    adam_step(p, {"w": np.zeros((2, 2))}, state)
    assert state.t == 1
    assert np.array_equal(p["w"].value, np.full((2, 2), 0.7))


def test_identical_runs_are_identical():
    def run():
        rng = np.random.default_rng(3)
        p = {"w": ad.parameter(rng.normal(0, 1, (4,)))}
        state = AdamState(lr=1e-2)
        for _ in range(10):
            adam_step(p, {"w": rng.normal(0, 1, (4,))}, state)
        return p["w"].value

    assert np.array_equal(run(), run())


def test_shape_mismatch_rejected():
    p = {"w": ad.parameter(np.zeros((2, 2)))}
    with pytest.raises(ShapeMismatchError):
        adam_step(p, {"w": np.zeros(3)}, AdamState())


def test_clip_global_norm():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_global_norm(grads, max_norm=2.5)
    assert abs(norm - 5.0) < 1e-12
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    assert abs(total - 2.5) < 1e-12

    grads = {"a": np.array([0.3])}
    norm = clip_global_norm(grads, max_norm=5.0)
    assert abs(norm - 0.3) < 1e-12
    assert grads["a"][0] == 0.3


def test_clip_rejects_non_finite():
    with pytest.raises(NaNDetectedError):
        clip_global_norm({"a": np.array([np.nan])}, max_norm=5.0)


def _adam_reference(params, grads, state):
    """The textbook expression form of one bias-corrected Adam step."""
    state.t += 1
    correction1 = 1.0 - BETA1 ** state.t
    correction2 = 1.0 - BETA2 ** state.t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p.value))
        v = state.v.setdefault(name, np.zeros_like(p.value))
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        m_hat = m / correction1
        v_hat = v / correction2
        p.value -= state.lr * m_hat / (np.sqrt(v_hat) + EPS)


def test_in_place_adam_is_bit_identical_to_expression_form():
    rng = np.random.default_rng(7)
    shapes = {"w": (5, 4), "b": (4,), "s": (), "e": (3, 6)}
    init = {k: rng.normal(0, 1, s) for k, s in shapes.items()}
    fast = {k: ad.parameter(a.copy()) for k, a in init.items()}
    ref = {k: ad.parameter(a.copy()) for k, a in init.items()}
    fast_state, ref_state = AdamState(lr=3e-3), AdamState(lr=3e-3)
    for step in range(8):
        grads = {k: rng.normal(0, 10.0 ** (step % 3 - 1), s) for k, s in shapes.items()}
        adam_step(fast, {k: g.copy() for k, g in grads.items()}, fast_state)
        _adam_reference(ref, grads, ref_state)
        for k in shapes:
            assert np.array_equal(fast[k].value, ref[k].value), (step, k)
            assert np.array_equal(fast_state.m[k], ref_state.m[k])
            assert np.array_equal(fast_state.v[k], ref_state.v[k])


def test_chunked_adam_is_bit_identical_across_chunk_boundaries():
    # 2 full chunks and a ragged third, next to a parameter smaller than one
    rng = np.random.default_rng(11)
    shapes = {"big": (3, (2 * ADAM_CHUNK) // 3 + 1000), "small": (7,)}
    assert 2 * ADAM_CHUNK < np.prod(shapes["big"]) < 3 * ADAM_CHUNK
    init = {k: rng.normal(0, 1, s) for k, s in shapes.items()}
    fast = {k: ad.parameter(a.copy()) for k, a in init.items()}
    ref = {k: ad.parameter(a.copy()) for k, a in init.items()}
    fast_state, ref_state = AdamState(lr=3e-3), AdamState(lr=3e-3)
    for step in range(5):
        grads = {k: rng.normal(0, 10.0 ** (step % 3 - 1), s) for k, s in shapes.items()}
        adam_step(fast, {k: g.copy() for k, g in grads.items()}, fast_state)
        _adam_reference(ref, grads, ref_state)
        for k in shapes:
            assert np.array_equal(fast[k].value, ref[k].value), (step, k)
            assert np.array_equal(fast_state.m[k], ref_state.m[k])
            assert np.array_equal(fast_state.v[k], ref_state.v[k])


def test_adam_rejects_arrays_it_cannot_update_in_place():
    p = {"w": ad.parameter(np.zeros((3, 2)).T)}
    with pytest.raises(ValueError, match="C-contiguous"):
        adam_step(p, {"w": np.ones((2, 3))}, AdamState())


def test_collect_grads_hands_over_and_clears():
    p = {"w": ad.parameter(np.array([1.0, -2.0])), "u": ad.parameter(np.ones(3))}
    with ad.Tape() as tape:
        loss = square_sum(p["w"])
    ad.backward(tape, loss)
    held = p["w"].grad
    grads = collect_grads(p)
    assert p["w"].grad is None and p["u"].grad is None
    assert grads["w"] is held
    assert np.array_equal(grads["w"], [2.0, -4.0])
    assert np.array_equal(grads["u"], np.zeros(3))


def test_collect_grads_fills_zeros():
    p = {"w": ad.parameter(np.ones(2)), "u": ad.parameter(np.ones(3))}
    with ad.Tape() as tape:
        loss = square_sum(p["w"])
    ad.backward(tape, loss)
    grads = collect_grads(p)
    assert np.allclose(grads["w"], 2.0)
    assert np.array_equal(grads["u"], np.zeros(3))
