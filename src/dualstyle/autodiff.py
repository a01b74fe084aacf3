"""Reverse-mode automatic differentiation over dense floating-point numpy arrays.

Every op computes in the dtype of its inputs and gives its gradients that
dtype too: a graph built on float32 leaves runs and differentiates in
float32, one built on float64 leaves in float64.  Constant masks, score
biases and scale factors are cast to the dtype of the values they act on, so
they never widen a float32 graph (under NumPy 2 promotion a float64 array or
NumPy scalar would; a Python float does not).

Every op input that carries a gradient is a ``Tensor`` (a value, a gradient
slot and, once taped, its backward rule ``vjp``), and on backward every one
an op read receives its share.  Index arrays, masks and score biases are not.

A ``Tape`` records every non-leaf node in creation order, which is already a
topological order, so the backward pass is a single reversed sweep that
visits each node exactly once.  Ops run with no tape active return plain
value-holding tensors (cheap inference mode); gradients then cannot be
requested.  Each thread has its own stack of active tapes, so a tape records
only the ops of the thread that opened it: untaped inference on another
thread never joins it.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import NaNDetectedError, NonScalarLossError


class _ThreadTapes(threading.local):
    """Each thread's ``stack`` of active tapes, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_TAPES = _ThreadTapes()


class Tape:
    """Recording context for one differentiable computation."""

    def __init__(self):
        self.nodes: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.stack.pop()
        return False


class Tensor:
    """Array value plus a gradient slot and, when taped, a backward rule."""

    __slots__ = ("value", "grad", "vjp")

    def __init__(self, value, vjp=None):
        self.value = value
        self.grad = None
        self.vjp = vjp


def parameter(value) -> Tensor:
    """A leaf whose gradients accumulate into ``.grad``; non-float values become float64."""
    arr = np.asarray(value)
    return Tensor(arr if arr.dtype.kind == "f" else arr.astype(np.float64))


# Every model's initial weights: the ``embed`` table from N(0, EMBED_STD),
# each ``*_b`` bias zero, every other weight from U(-INIT_SCALE, INIT_SCALE)
# (the LSTM initialisation of Sutskever et al. 2014, arXiv:1409.3215).
EMBED_STD, INIT_SCALE = 0.01, 0.08


def initial_parameters(shapes: dict[str, tuple[int, ...]], seed) -> dict[str, Tensor]:
    """A parameter per entry of ``shapes``, drawn in its order from one
    generator seeded with ``seed``; a zero bias draws nothing."""
    rng = np.random.default_rng(seed)

    def draw(name, shape):
        if name == "embed":
            return rng.normal(0.0, EMBED_STD, shape)
        if name.endswith("_b"):
            return np.zeros(shape)
        return rng.uniform(-INIT_SCALE, INIT_SCALE, shape)

    return {name: parameter(draw(name, shape)) for name, shape in shapes.items()}


def _record(value, vjp) -> Tensor:
    tapes = _TAPES.stack
    if tapes:
        node = Tensor(value, vjp)
        tapes[-1].nodes.append(node)
        return node
    return Tensor(value)


def _acc(t: Tensor, g):
    if t.grad is None:
        # Stored, not copied: ``g`` must be an array no one else holds, since
        # later contributions add into it.  An op whose gradient is a view of
        # its upstream gradient (``concat``) copies it before calling this.
        t.grad = g
    else:
        t.grad += g


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through the tape in reverse creation order."""
    if np.ndim(loss.value) != 0:
        raise NonScalarLossError(f"loss has shape {np.shape(loss.value)}")
    if not np.isfinite(loss.value):
        raise NaNDetectedError("loss is not finite")
    loss.grad = np.ones_like(loss.value)
    for node in reversed(tape.nodes):
        if node.grad is None:
            continue
        node.vjp(node.grad)


# ---------------------------------------------------------------------------
# untaped value helpers
# ---------------------------------------------------------------------------

def softmax_values(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array."""
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of a plain array."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def scale(a, c: float) -> Tensor:
    c = float(c)
    out = a.value * c

    def vjp(g):
        _acc(a, g * c)

    return _record(out, vjp)


def relu(a) -> Tensor:
    out = np.maximum(a.value, 0.0)

    def vjp(g):
        _acc(a, g * (a.value > 0))

    return _record(out, vjp)


def embedding(table, ids) -> Tensor:
    """Row lookup; ids is an integer array, not a tensor."""
    ids = np.asarray(ids)
    out = table.value[ids]

    def vjp(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        flat_ids = ids.reshape(-1)
        flat_g = g.reshape(flat_ids.size, -1)
        # scatter-add via one-hot GEMM; much faster than np.add.at here
        onehot = np.zeros((flat_ids.size, table.value.shape[0]), dtype=flat_g.dtype)
        onehot[np.arange(flat_ids.size), flat_ids] = 1.0
        table.grad += onehot.T @ flat_g

    return _record(out, vjp)


def concat(parts, axis: int = -1) -> Tensor:
    out = np.concatenate([p.value for p in parts], axis=axis)
    offsets = np.cumsum([0] + [p.value.shape[axis] for p in parts])

    def vjp(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _acc(p, g[tuple(idx)].copy())

    return _record(out, vjp)


def take(a, index) -> Tensor:
    """``a[index]`` for slices, integers, boolean masks, or integer arrays with
    no repeated element (the backward adds into ``a[index]`` without
    accumulating repeats)."""
    out = a.value[index]

    def vjp(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[index] += g

    return _record(out, vjp)


def repeat_rows(a, k: int) -> Tensor:
    """Tile each row k times: (B, ...) -> (B*k, ...)."""
    out = np.repeat(a.value, k, axis=0)

    def vjp(g):
        _acc(a, g.reshape((a.value.shape[0], k) + a.value.shape[1:]).sum(axis=1))

    return _record(out, vjp)


def masked_sum(a, mask) -> Tensor:
    """Sum of a * mask; the mask is a constant array of weights, shaped as ``a``."""
    mask = np.asarray(mask, dtype=a.value.dtype)
    if mask.shape != a.value.shape:
        raise ValueError(f"mask shape {mask.shape} differs from input shape {a.value.shape}")
    out = np.asarray((a.value * mask).sum())

    def vjp(g):
        _acc(a, g * mask)

    return _record(out, vjp)


def cross_entropy(logits, targets) -> Tensor:
    """Negative log-likelihood of integer targets over the last axis.

    ``logits`` is (..., V) and ``targets`` the matching (...) int array; the
    output has the targets' shape.
    """
    targets = np.asarray(targets)
    logp = log_softmax_values(logits.value).reshape(targets.size, -1)
    rows = np.arange(targets.size)
    flat_t = targets.reshape(-1)
    out = -logp[rows, flat_t].reshape(targets.shape)

    def vjp(g):
        flat_g = g.reshape(-1)
        d = np.exp(logp)
        d *= flat_g[:, None]
        d[rows, flat_t] -= flat_g
        _acc(logits, d.reshape(logits.value.shape))

    return _record(out, vjp)


def conv1d(x, filters, bias) -> Tensor:
    """Valid 1-D convolution over time plus a per-channel bias:
    (B,T,E) * (w,E,C) + (C,) -> (B,T-w+1,C).

    Lowered onto matrix products (Chellapilla et al. 2006).  The forward is
    one (B*T, E) @ (E, w*C) GEMM against the w filter taps laid side by side;
    output step t then sums tap j's C columns at input step t+j, plus the
    bias.  The backward writes ``g`` into a zeroed (B, T, w*C) array, tap j's
    block shifted forward j steps, so the filter gradient (x rows transposed
    times it) and ``dx`` (it times the taps transposed) are one GEMM each.
    """
    w, emb, ch = filters.value.shape
    t_out = x.value.shape[1] - w + 1
    taps = filters.value.transpose(1, 0, 2).reshape(emb, w * ch)
    per_tap = _matmul_rows(x.value, taps)  # (B, T, w*C)
    out = per_tap[:, :t_out, :ch] + bias.value
    for j in range(1, w):
        out += per_tap[:, j: j + t_out, j * ch: (j + 1) * ch]

    def vjp(g):
        _acc(bias, g.sum(axis=(0, 1)))
        shifted = np.zeros(x.value.shape[:2] + (w * ch,), dtype=g.dtype)
        for j in range(w):
            shifted[:, j: j + t_out, j * ch: (j + 1) * ch] = g
        rows = shifted.reshape(-1, w * ch)
        d_taps = x.value.reshape(-1, emb).T @ rows  # (E, w*C)
        _acc(filters, np.ascontiguousarray(d_taps.reshape(emb, w, ch).transpose(1, 0, 2)))
        _acc(x, (rows @ taps.T).reshape(x.value.shape))

    return _record(out, vjp)


def max_over_time(x, valid_mask) -> Tensor:
    """Max pooling over axis 1 restricted to valid positions.

    valid_mask is a constant (B, T) 0/1 array with at least one valid
    position per row.  No GEMM is needed: the backward routes each (row,
    channel) gradient to its one argmax step with a plain indexed ``+=``,
    which is exact because no (row, step, channel) index repeats.
    """
    valid = np.asarray(valid_mask, dtype=bool)
    masked = np.where(valid[:, :, None], x.value, -np.inf)
    arg = masked.argmax(axis=1)  # (B, C)
    out = np.take_along_axis(x.value, arg[:, None, :], axis=1)[:, 0, :]

    def vjp(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        b_idx = np.arange(x.value.shape[0])[:, None]
        c_idx = np.arange(x.value.shape[2])[None, :]
        x.grad[b_idx, arg, c_idx] += g

    return _record(out, vjp)


# ---------------------------------------------------------------------------
# fused primitives
#
# Each fuses a whole layer into one node with a hand-written backward rule
# that, like every op's, gives each of its ``Tensor`` inputs a gradient.
# ``grad_check`` (tests/gradcheck.py) covers every one of them like any
# primitive (tests/test_autodiff.py), and a plain-numpy forward of the whole
# model checks their values (``test_teacher_forced_logits_match_per_row_reference``
# in tests/test_seq2seq.py).  The recurrent ones take only a whole sequence:
# ``lstm_cell`` runs every time step in one node and ``bilinear_attention``
# scores every query step at once, so a teacher-forced pass records a fixed
# number of nodes whatever its length, and a decode step is a sequence of
# length 1.  Time-invariant work is hoisted out of the time loop (Appleyard et
# al. 2016, arXiv:1604.01946): the recurrent weight gradient is one GEMM over
# all B*T rows after the backward-through-time loop, and the input projection
# ``x @ W_x + b`` is not in ``lstm_cell`` at all.  The caller computes it once
# per distinct input token with ``affine`` (the precomputation of Devlin et
# al. 2014), so its forward and both weight gradients cost U rows, U <= |V|,
# instead of B*T.  ``affine`` and ``tanh_affine`` take any (..., D) input and
# treat the leading axes as rows.
# ---------------------------------------------------------------------------

def affine(a, w, b) -> Tensor:
    """a @ w + b in one node."""
    out = _matmul_rows(a.value, w.value)
    out += b.value

    def vjp(g):
        _affine_vjp(a, w, b, g)

    return _record(out, vjp)


def tanh_affine(a, w, b) -> Tensor:
    """tanh(a @ w + b) in one node."""
    out = _matmul_rows(a.value, w.value)
    out += b.value
    np.tanh(out, out=out)

    def vjp(g):
        _affine_vjp(a, w, b, g * (1.0 - out * out))

    return _record(out, vjp)


def _matmul_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """a @ w as one GEMM with all leading axes of ``a`` as rows.

    A plain ``@`` on a (B, T, D) array runs B separate small products.
    """
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(a.shape[:-1] + w.shape[1:])


def _affine_vjp(a: Tensor, w: Tensor, b: Tensor, gz: np.ndarray) -> None:
    """Backward of z = a @ w + b with all leading axes of ``a`` as rows."""
    gz_rows = gz.reshape(-1, gz.shape[-1])
    _acc(a, _matmul_rows(gz, w.value.T))
    _acc(w, a.value.reshape(-1, a.value.shape[-1]).T @ gz_rows)
    _acc(b, gz_rows.sum(axis=0))


def lstm_cell(xw, index, hc, wh) -> Tensor:
    """LSTM recurrence over a whole sequence in one node.

    Each input is one of a few distinct embedding rows, so its projection
    ``x @ W_x + b`` is computed once per distinct input outside this op:
    ``xw`` is that (U, 4H) table and ``index`` the (B, T) int array naming
    the row that feeds each sequence at each step.  ``hc`` is the initial
    state [h | c] of shape (B, 2H), or ``None`` for zeros that take no
    gradient; the output stacks the state after every step, (B, T, 2H).
    Gate order in the preactivation is (input, forget, output, candidate).
    Every step of every row is computed: for ragged rows the caller reads
    each row's state at its last real step and gives the padded steps'
    outputs no gradient.
    """
    idx = np.asarray(index)
    batch, steps = idx.shape
    hd = wh.value.shape[0]
    dtype = xw.value.dtype
    h0 = np.zeros((batch, 2 * hd), dtype=dtype) if hc is None else hc.value
    out = np.empty((batch, steps, 2 * hd), dtype=dtype)
    # Activations are kept for the backward only while a tape records.
    taped = bool(_TAPES.stack)
    if taped:
        acts = np.empty((batch, steps, 4 * hd), dtype=dtype)
        tcs = np.empty((batch, steps, hd), dtype=dtype)
    prev = h0
    for t in range(steps):
        # gathered per step, so no (B, T, 4H) preactivation array is built
        gates = xw.value[idx[:, t]]
        gates += prev[:, :hd] @ wh.value
        # sigmoid(z) = 0.5 * (1 + tanh(z / 2)) for the three gates
        gates[:, : 3 * hd] *= 0.5
        act = acts[:, t] if taped else gates
        np.tanh(gates, out=act)
        act[:, : 3 * hd] += 1.0
        act[:, : 3 * hd] *= 0.5
        gi, gf, go, gu = (act[:, k * hd: (k + 1) * hd] for k in range(4))
        state = out[:, t]
        np.multiply(gf, prev[:, hd:], out=state[:, hd:])
        state[:, hd:] += gi * gu
        tc = tcs[:, t] if taped else np.empty((batch, hd), dtype=dtype)
        np.tanh(state[:, hd:], out=tc)
        np.multiply(go, tc, out=state[:, :hd])
        prev = state

    def vjp(g):
        dgates = np.empty((batch, steps, 4 * hd), dtype=dtype)
        dh_next = np.zeros((batch, hd), dtype=dtype)
        dc_next = np.zeros((batch, hd), dtype=dtype)
        for t in reversed(range(steps)):
            gi, gf, go, gu = (acts[:, t, k * hd: (k + 1) * hd] for k in range(4))
            tc = tcs[:, t]
            c_prev = h0[:, hd:] if t == 0 else out[:, t - 1, hd:]
            dh = g[:, t, :hd] + dh_next
            dc_out = g[:, t, hd:] + dc_next
            dc = 1.0 - tc * tc
            dc *= dh * go
            dc += dc_out
            dg = dgates[:, t]
            np.multiply(dc, gu, out=dg[:, :hd])
            dg[:, :hd] *= gi * (1.0 - gi)
            np.multiply(dc, c_prev, out=dg[:, hd: 2 * hd])
            dg[:, hd: 2 * hd] *= gf * (1.0 - gf)
            np.multiply(dh, tc, out=dg[:, 2 * hd: 3 * hd])
            dg[:, 2 * hd: 3 * hd] *= go * (1.0 - go)
            np.multiply(dc, gi, out=dg[:, 3 * hd:])
            dg[:, 3 * hd:] *= 1.0 - gu * gu
            if t == 0 and hc is None:
                break
            dh_next = dg @ wh.value.T
            dc_next = dc * gf
        rows = dgates.reshape(batch * steps, 4 * hd)
        # scatter-add of every step's gate gradient into its xw row, as one
        # (U, B*T) @ (B*T, 4H) one-hot GEMM
        onehot = np.zeros((xw.value.shape[0], batch * steps), dtype=dtype)
        onehot[idx.reshape(-1), np.arange(batch * steps)] = 1.0
        _acc(xw, onehot @ rows)
        if hc is not None:
            _acc(hc, np.concatenate([dh_next, dc_next], axis=1))
        h_prev = np.concatenate([h0[:, None, :hd], out[:, :-1, :hd]], axis=1)
        _acc(wh, h_prev.reshape(batch * steps, hd).T @ rows)

    return _record(out, vjp)


def bilinear_attention(query, keys, score_bias, wa) -> Tensor:
    """Bilinear-scored soft attention: softmax((query@wa) . keys + bias) mix.

    ``query`` is (B, Tq, H) and ``keys`` (B, T, H); ``score_bias`` is a
    constant (B, T) array carrying the padding mask.  Returns the (B, Tq, H)
    context vectors.
    """
    bias = np.asarray(score_bias, dtype=keys.value.dtype)[:, None, :]
    keys_t = keys.value.transpose(0, 2, 1)
    q = _matmul_rows(query.value, wa.value)
    scores = q @ keys_t
    scores += bias
    scores -= scores.max(axis=2, keepdims=True)
    alpha = np.exp(scores)
    # Zero the weights below sqrt(tiny) of the dtype (1e-19 in float32, 1e-154
    # in float64).  They are far below the rounding of the sums they join, but
    # in float32 (where e^-88 is already subnormal) a sharp attention has 2-3%
    # of its weights and of their products with gradients subnormal, and x86
    # processors run each operation on a subnormal up to 100x slower.  Past
    # this cut, a weight times any value above sqrt(tiny) stays normal.
    np.putmask(alpha, alpha < np.sqrt(np.finfo(alpha.dtype).tiny), 0.0)
    alpha /= alpha.sum(axis=2, keepdims=True)
    out = alpha @ keys.value

    def vjp(g):
        dalpha = g @ keys_t
        dscores = alpha * (dalpha - (dalpha * alpha).sum(axis=2, keepdims=True))
        dq = dscores @ keys.value
        # both contributions to keys as one batched (T, 2Tq) @ (2Tq, H) product
        tw = np.concatenate([alpha, dscores], axis=1).transpose(0, 2, 1)
        _acc(keys, tw @ np.concatenate([g, q], axis=1))
        _acc(query, _matmul_rows(dq, wa.value.T))
        hd = query.value.shape[2]
        _acc(wa, query.value.reshape(-1, hd).T @ dq.reshape(-1, hd))

    return _record(out, vjp)

