"""The precision policy: float64 wherever a log-probability comes out,
float32 wherever only ids or gradients do.

Parameters, Adam moments and checkpoints are float64 masters.  ``mle_step``
and the policy-gradient update differentiate a float32 working copy of them
and upcast the gradients; greedy decoding runs on the same kind of copy and
returns only ids.  Sampling and ``log_prob_batch`` read the masters and stay
float64, so a sample's log-probability matches its rescoring.
"""

import numpy as np
import pytest

from dualstyle import autodiff as ad, seq2seq
from dualstyle.checkpoint import load_checkpoint
from dualstyle.corpus import pad_batch
from dualstyle.dualrl import reinforce_gradient
from dualstyle.optim import AdamState, collect_grads

from conftest import sentence, wide_model

TOKENS = ("a", "b", "c", "d", "e")


def _model(vocab, seed=21):
    """A small model with non-trivial biases, so every parameter matters."""
    return wide_model(vocab, 8, 9, seed, bias_rng=np.random.default_rng(seed))


def _sentences(vocab, seed, n, max_len=5):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        length = int(rng.integers(1, max_len + 1))
        out.append(sentence(vocab, *(TOKENS[int(i)] for i in rng.integers(0, 5, length))))
    return out


def _dtypes(tensors):
    return [(t.value.dtype, None if t.grad is None else t.grad.dtype) for t in tensors]


def test_taped_passes_are_float32_and_masters_stay_float64(small_vocab, monkeypatch, tmp_path):
    model = _model(small_vocab)
    tapes = []
    real_backward, real_collect_grads = ad.backward, seq2seq.collect_grads

    def recording_backward(tape, loss):
        real_backward(tape, loss)
        tapes.append(_dtypes(tape.nodes))

    def recording_collect_grads(params):
        # the working copy's leaves, right after backward and before the upcast
        tapes[-1] += _dtypes(params.values())
        return real_collect_grads(params)

    monkeypatch.setattr(ad, "backward", recording_backward)
    monkeypatch.setattr(seq2seq, "collect_grads", recording_collect_grads)
    sources = _sentences(small_vocab, 1, 6)
    opt = AdamState(lr=1e-2)
    model.mle_step(list(zip(sources, _sentences(small_vocab, 2, 6))), opt, 5.0)
    samples, _ = model.sample_batch(sources, 2, np.random.default_rng(0), max_len=6)
    grads, _ = reinforce_gradient(model, sources, samples, np.linspace(0.0, 1.0, len(samples)))

    assert len(tapes) == 2
    for dtypes in tapes:
        assert {value for value, _ in dtypes} == {np.dtype(np.float32)}
        assert {grad for _, grad in dtypes} - {None} == {np.dtype(np.float32)}
    assert all(g.dtype == np.float64 for g in grads.values())
    for name, p in model.params.items():
        assert p.value.dtype == np.float64 and p.grad is None
        assert opt.m[name].dtype == np.float64 and opt.v[name].dtype == np.float64
    model.save(tmp_path / "m.ckpt")
    arrays, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert {a.dtype for a in arrays.values()} == {np.dtype(np.float64)}


def test_float32_nll_gradient_matches_float64(small_vocab):
    model = _model(small_vocab, seed=5)
    sources = _sentences(small_vocab, 3, 3)
    targets = _sentences(small_vocab, 4, 6, max_len=6)  # ragged rows, two per source
    src_ids, src_mask = pad_batch([s.ids for s in sources])
    tgt_ids, tgt_mask = pad_batch([t.ids for t in targets])
    row_weights = np.array([0.7, -0.4, 0.05, 1.3, -0.9, 0.2])

    def nll(m):
        return m._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask,
                                     row_weights=row_weights, source_repeat=2)

    loss32, grads32 = model.taped_gradients(nll)
    with ad.Tape() as tape:
        loss64 = nll(model)
    ad.backward(tape, loss64)
    grads64 = collect_grads(model.params)
    assert loss32 == pytest.approx(float(loss64.value), rel=1e-5)
    for name, g64 in grads64.items():
        err = np.linalg.norm(grads32[name] - g64) / np.linalg.norm(g64)
        assert err <= 1e-4, (name, err)


# Outputs for ``_model(small_vocab)`` on ``_sentences(small_vocab, 1, 6)``,
# recorded when every untaped path ran in float64.  Sampling and rescoring
# still do and reproduce them bit for bit: float32 round-off there would show
# at about 1e-7, and the tolerance allows only for another BLAS's summation
# order.  Greedy decoding runs in float32 and must still give the recorded ids.
GOLDEN_SAMPLES = [
    (6, 3), (2, 6, 4, 6, 3), (7, 8, 3), (0, 2, 7, 1, 0, 2), (5, 8, 4, 6, 7, 2), (2, 6, 3),
    (6, 2, 5, 2, 6, 2), (2, 6, 6, 5, 2, 3), (5, 5, 7, 2, 2, 6), (3,), (6, 6, 2, 2, 8, 2), (3,),
]
GOLDEN_LOG_PROBS = [
    -3.916576876116369, -7.83470255185362, -9.431870494717543, -12.944923449982387,
    -12.838764349796346, -5.097482105862985, -10.82303419512469, -9.711845739909942,
    -11.857876424880821, -2.0790706842604836, -10.821879334462025, -2.828675951038276,
]
GOLDEN_GREEDY = [
    (2, 2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (6, 6, 6, 6, 3), (6, 6, 6, 6, 3),
    (2, 2, 2, 2, 2, 2), (2, 6, 6, 6, 6, 2),
]


def test_untaped_paths_stay_float64(small_vocab):
    model = _model(small_vocab)
    sources = _sentences(small_vocab, 1, 6)
    # a float32 update of a clone leaves the master's float64 paths alone, and
    # greedy decoding's float32 copy of the master picks the recorded ids
    model.clone().mle_step(list(zip(sources, _sentences(small_vocab, 2, 6))),
                           AdamState(lr=1e-2), 5.0)
    samples, logps = model.sample_batch(sources, 2, np.random.default_rng(4), max_len=6)
    rescored = model.log_prob_batch([sources[i // 2] for i in range(12)], samples)
    assert logps.dtype == np.float64 and rescored.dtype == np.float64
    assert [s.ids for s in samples] == GOLDEN_SAMPLES
    np.testing.assert_allclose(logps, GOLDEN_LOG_PROBS, rtol=1e-12, atol=0)
    np.testing.assert_allclose(rescored, GOLDEN_LOG_PROBS, rtol=1e-12, atol=0)
    assert [s.ids for s in model.greedy_decode_batch(sources, max_len=6)] == GOLDEN_GREEDY


def test_greedy_decoding_runs_on_a_float32_copy(small_vocab, monkeypatch):
    model = _model(small_vocab)
    masters = {name: p.value.copy() for name, p in model.params.items()}
    seen = []
    real_lstm_cell = ad.lstm_cell

    def recording_lstm_cell(xw, index, hc, wh):
        seen.append((xw.value.dtype, wh.value.dtype, None if hc is None else hc.value.dtype))
        return real_lstm_cell(xw, index, hc, wh)

    monkeypatch.setattr(ad, "lstm_cell", recording_lstm_cell)
    model.greedy_decode_batch(_sentences(small_vocab, 1, 6), max_len=6)
    # both halves: the encoder from the zero state, then decode steps
    assert len(seen) > 2
    assert {dtype for dtypes in seen for dtype in dtypes} - {None} == {np.dtype(np.float32)}
    for name, p in model.params.items():
        assert p.value.dtype == np.float64 and p.grad is None
        assert np.array_equal(p.value, masters[name])


def test_greedy_ids_equal_a_float64_decode_of_the_masters(small_vocab):
    model = _model(small_vocab)
    sources = _sentences(small_vocab, 9, 11, max_len=6)  # ragged, split 6 + 5 in halves
    greedy = model.greedy_decode_batch(sources, max_len=8)
    steps, _ = model._run_decode(sources, 8, 1, None, 1.0)
    assert [s.ids for s in greedy] == [s.ids for s in model._rows_to_sentences(steps)]
    assert len({len(s.ids) for s in greedy}) > 1  # rows leave the step loop at different steps
