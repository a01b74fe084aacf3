import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dualstyle import autodiff as ad
from dualstyle.corpus import BOS, EOS, PAD, Sentence, Vocabulary, pad_batch
from dualstyle.errors import EmptySequenceError
from dualstyle.optim import AdamState
from dualstyle.seq2seq import Seq2Seq

from conftest import sentence, wide_model
from gradcheck import grad_check


def enumerate_outcomes(vocab_size: int, max_len: int):
    """All decoder outcomes: EOS-terminated short sequences plus truncations."""
    non_eos = [i for i in range(vocab_size) if i != EOS]
    for length in range(max_len):
        for prefix in itertools.product(non_eos, repeat=length):
            yield prefix + (EOS,)
    for prefix in itertools.product(non_eos, repeat=max_len):
        yield prefix


def outcome_sentence(vocab: Vocabulary, ids: tuple[int, ...]) -> Sentence:
    surface = tuple(vocab.token_of(i) for i in ids if i != EOS)
    return Sentence(surface=surface, ids=ids)


@pytest.fixture(scope="module")
def tiny():
    vocab = Vocabulary(["a"])  # total size 5
    model = Seq2Seq(vocab, embed_dim=4, hidden_dim=5, seed=42)
    source = vocab.to_ids(Sentence(("a",)))
    return vocab, model, source


def test_probability_mass_sums_to_one(tiny):
    vocab, model, source = tiny
    total = 0.0
    n = 0
    for ids in enumerate_outcomes(len(vocab), 3):
        total += math.exp(model.log_prob_batch([source], [outcome_sentence(vocab, ids)])[0])
        n += 1
    assert n == 85
    assert abs(total - 1.0) < 1e-6


def test_log_prob_additive_over_steps(tiny):
    vocab, model, source = tiny
    target = outcome_sentence(vocab, (4, 4, EOS))
    total = model.log_prob_batch([source], [target])[0]
    # per-step conditionals via prefix marginals over all continuations
    step_sum = 0.0
    prev = 0.0
    for t in range(1, len(target.ids) + 1):
        prefix = target.ids[:t]
        mass = 0.0
        if prefix[-1] == EOS:
            mass = math.exp(model.log_prob_batch([source], [outcome_sentence(vocab, prefix)])[0])
        else:
            for ids in enumerate_outcomes(len(vocab), 3):
                if ids[: len(prefix)] == prefix:
                    outcome = outcome_sentence(vocab, ids)
                    mass += math.exp(model.log_prob_batch([source], [outcome])[0])
        step_sum += math.log(mass) - prev
        prev = math.log(mass)
    assert abs(step_sum - total) < 1e-9


def test_near_deterministic_degenerate_vocab(tiny):
    vocab, _, source = tiny
    model = Seq2Seq(vocab, embed_dim=4, hidden_dim=5, seed=0)
    bias = np.full(len(vocab), -60.0)
    bias[4] = 60.0  # force the single content token
    model.params["out_b"].value = bias
    target = outcome_sentence(vocab, (4, 4, 4))  # truncated, no EOS step
    assert abs(model.log_prob_batch([source], [target])[0]) < 1e-6


def test_sample_log_probs_match_rescoring(tiny):
    vocab, model, source = tiny
    sents, log_probs = model.sample_batch([source], 200, np.random.default_rng(11), max_len=3)
    assert len(sents) == 200
    for s, lp in zip(sents, log_probs):
        assert lp <= 1e-12
        assert abs(model.log_prob_batch([source], [s])[0] - lp) < 1e-10


def test_sampled_reserved_ids_are_kept_and_rescored(tiny):
    # PAD gets as much output mass as the content token, so it is drawn
    # mid-sequence and then fed back as the next input
    vocab, _, source = tiny
    model = Seq2Seq(vocab, embed_dim=4, hidden_dim=5, seed=7)
    bias = np.full(len(vocab), -1e9)
    bias[[PAD, EOS, 4]] = 0.0
    model.params["out_b"].value = bias
    sents, log_probs = model.sample_batch([source], 64, np.random.default_rng(3), max_len=4)
    mid = [(s, lp) for s, lp in zip(sents, log_probs) if PAD in s.ids[:-1]]
    assert mid
    for s, lp in mid:
        assert s.surface[s.ids.index(PAD)] == vocab.token_of(PAD)
        assert abs(model.log_prob_batch([source], [s])[0] - lp) < 1e-10


def test_temperature_limit_is_greedy(tiny):
    vocab, model, source = tiny
    greedy = model.greedy_decode_batch([source], max_len=3)[0]
    sents, _ = model.sample_batch([source], 16, np.random.default_rng(5), max_len=3,
                                  temperature=1e-8)
    for s in sents:
        assert s.ids == greedy.ids


def test_sample_frequencies_match_exact_probabilities(tiny):
    vocab, model, source = tiny
    draws = 100_000
    rng = np.random.default_rng(123)
    sents, _ = model.sample_batch([source], draws, rng, max_len=3)
    counts = {}
    for s in sents:
        counts[s.ids] = counts.get(s.ids, 0) + 1
    checked = 0
    for ids in enumerate_outcomes(len(vocab), 3):
        p = math.exp(model.log_prob_batch([source], [outcome_sentence(vocab, ids)])[0])
        if p < 1e-6:
            continue
        observed = counts.get(ids, 0) / draws
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(observed - p) <= 3 * sigma + 1e-9, (ids, observed, p)
        checked += 1
    assert checked >= 20


def test_decode_steps_run_only_the_rows_still_going(small_vocab, monkeypatch):
    # outputs of 1 to 7 ids, some cut at max_len, on both paths
    rng = np.random.default_rng(24)
    model = wide_model(small_vocab, 8, 9, 24, bias_rng=rng)
    sources = [_random_sentence(small_vocab, rng, max_len=6) for _ in range(8)]
    widths = {}  # thread id -> the width of each step that thread ran
    real_step = Seq2Seq._decode_step

    def recording_step(self, tok_ids, hc, keys, attn_bias):
        widths.setdefault(threading.get_ident(), []).append(len(tok_ids))
        assert hc.value.shape[0] == keys.value.shape[0] == attn_bias.shape[0] == len(tok_ids)
        return real_step(self, tok_ids, hc, keys, attn_bias)

    monkeypatch.setattr(Seq2Seq, "_decode_step", recording_step)
    for k, decode in ((3, lambda: model.sample_batch(sources, 3, np.random.default_rng(2),
                                                     max_len=7)[0]),
                      (1, lambda: model.greedy_decode_batch(sources, max_len=7))):
        widths.clear()
        lengths = np.array([len(s.ids) for s in decode()])
        # the calling thread decodes the first 4 sources' rows, the worker the rest
        first = widths.pop(threading.get_ident())
        (second,) = widths.values()
        assert first[0] + second[0] == len(lengths) == 8 * k
        for half, rows in ((first, lengths[: 4 * k]), (second, lengths[4 * k:])):
            # a row is fed to step t until it has emitted EOS, at step len - 1
            assert half == [int((rows > t).sum()) for t in range(rows.max())]
            assert half[-1] < half[0]


# Outputs of one step loop over all rows (the decoder before it ran in
# halves), recorded from that code with the calls below.  At this size every
# product takes the same BLAS kernel either way, so the halves must
# reproduce them bit for bit.
GOLDEN_GREEDY_IDS = [
    (6, 6, 6, 6, 6, 6), (8, 1, 3), (1, 3), (3,), (3,), (3,), (3,),
]
GOLDEN_SAMPLE_IDS = [
    (6, 3), (3,), (2, 1, 1, 5, 3), (3,), (3,), (3,), (6, 3), (1, 0, 3), (3,), (6, 1, 6, 6, 3),
    (6, 0, 3), (4, 6, 8, 8, 8, 0, 2, 3), (1, 2, 3), (3,), (7, 3), (8, 6, 6, 2, 3), (5, 3),
    (1, 5, 4, 7, 3), (7, 8, 7, 3), (1, 2, 3), (3,),
]
GOLDEN_SAMPLE_LOG_PROBS = [
    -3.5061461449000735, -1.0930754517709984, -10.729186633096424, -1.0840782051645483,
    -1.0840782051645483, -1.0840782051645483, -3.580936445990112, -5.999598954814097,
    -1.1094722743067933, -10.516252227131696, -6.007475148780969, -18.898448502282285,
    -6.237827837139487, -1.059312952050443, -3.514079017672545, -10.692161685936721,
    -3.6380554696203378, -10.732485366683296, -8.548667437472783, -6.167414181260348,
    -1.064294512051773,
]


def test_halves_reproduce_the_single_pass_outputs_and_random_stream(small_vocab):
    model = wide_model(small_vocab, 6, 7, 31, weights=0.6)
    # 7 sources: the calling thread decodes 4, the worker 3
    sources = [sentence(small_vocab, *words.split()) for words in
               ("a b c", "e", "d d a b c e", "b a", "c e d b", "a", "e c a d b")]
    greedy = model.greedy_decode_batch(sources, max_len=6)
    assert [s.ids for s in greedy] == GOLDEN_GREEDY_IDS
    model.params["out_b"].value[EOS] = 1.3
    rng = np.random.default_rng(77)
    samples, log_probs = model.sample_batch(sources, 3, rng, max_len=10)
    assert [s.ids for s in samples] == GOLDEN_SAMPLE_IDS
    assert log_probs.dtype == np.float64 and log_probs.tolist() == GOLDEN_SAMPLE_LOG_PROBS
    rescored = model.log_prob_batch([s for s in sources for _ in range(3)], samples)
    # at this size the rescoring agrees with the sampler to the last bit
    assert rescored.dtype == np.float64 and rescored.tolist() == GOLDEN_SAMPLE_LOG_PROBS
    # rng moved on by one draw per row for each step the longest row ran,
    # short of max_len here, as the single loop consumed it
    width = max(len(s.ids) for s in samples)
    assert width < 10
    fresh = np.random.default_rng(77)
    fresh.random(width * len(samples))
    assert rng.random() == fresh.random()


def test_concurrent_callers_get_the_results_of_serial_calls(small_vocab):
    # more calling threads than cores, all sharing the one half worker
    model = wide_model(small_vocab, 6, 7, 5, weights=0.6)
    rng = np.random.default_rng(5)
    sources = [_random_sentence(small_vocab, rng, max_len=6) for _ in range(9)]

    def infer():
        outputs = model.greedy_decode_batch(sources, max_len=8)
        return [s.ids for s in outputs], model.log_prob_batch(sources, outputs).tolist()

    expected = infer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [f.result(timeout=120) for f in [pool.submit(infer) for _ in range(16)]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 16


def test_greedy_decode_deterministic_and_truncates(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=4, hidden_dim=5, seed=3)
    bias = np.full(len(small_vocab), -60.0)
    bias[4] = 60.0  # EOS never argmaxes
    model.params["out_b"].value = bias
    src = sentence(small_vocab, "a", "b")
    out1 = model.greedy_decode_batch([src], max_len=6)[0]
    out2 = model.greedy_decode_batch([src], max_len=6)[0]
    assert out1.ids == out2.ids
    assert len(out1.ids) == 6 and EOS not in out1.ids


def test_log_prob_requires_nonempty(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=4, hidden_dim=5, seed=3)
    src = sentence(small_vocab, "a")
    with pytest.raises(EmptySequenceError):
        model.log_prob_batch([Sentence(surface=(), ids=())], [src])


def test_log_prob_invariant_to_padding(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=8, hidden_dim=9, seed=8)
    src_short = sentence(small_vocab, "a", "b")
    tgt_short = sentence(small_vocab, "c")
    src_long = sentence(small_vocab, "a", "b", "c", "d", "e")
    tgt_long = sentence(small_vocab, "e", "d", "c", "b", "a")
    solo = model.log_prob_batch([src_short], [tgt_short])[0]
    batched = model.log_prob_batch([src_short, src_long], [tgt_short, tgt_long])[0]
    assert abs(solo - batched) < 1e-10


def _random_sentence(vocab, rng, min_len=1, max_len=4):
    tokens = ["a", "b", "c", "d", "e"]
    n = int(rng.integers(min_len, max_len + 1))
    return sentence(vocab, *(tokens[int(rng.integers(5))] for _ in range(n)))


def test_mle_memorization_loss_decreases(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=32, hidden_dim=48, seed=4)
    rng = np.random.default_rng(0)
    pairs = [(_random_sentence(small_vocab, rng, 2, 4),
              _random_sentence(small_vocab, rng, 2, 4)) for _ in range(10)]
    opt = AdamState(lr=1e-2)
    losses = [model.mle_step(pairs, opt, 5.0) for _ in range(50)]
    assert losses[-1] < losses[0] * 0.5
    assert losses[-1] == min(losses)


def test_identity_finetune_reproduces_heldout(small_vocab):
    # fresh identity pairs each step: the model must learn to copy, not recall
    model = Seq2Seq(small_vocab, embed_dim=32, hidden_dim=48, seed=6)
    rng = np.random.default_rng(1)
    opt = AdamState(lr=1e-2)
    for _ in range(500):
        batch = [_random_sentence(small_vocab, rng) for _ in range(48)]
        model.mle_step([(s, s) for s in batch], opt, 5.0)
    for held in (("b", "d", "a"), ("e", "c"), ("a", "e", "b", "c")):
        s = sentence(small_vocab, *held)
        assert model.greedy_decode_batch([s], max_len=10)[0].surface == s.surface


def test_pad_positions_do_not_contribute(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=8, hidden_dim=9, seed=9)
    src = sentence(small_vocab, "a", "b")
    tgt = sentence(small_vocab, "c", "d")
    src_ids, src_mask = pad_batch([src.ids])
    tgt_ids, tgt_mask = pad_batch([tgt.ids])
    with ad.Tape() as tape:
        plain = model._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask)
    padded_tgt = np.concatenate([tgt_ids, np.zeros((1, 3), dtype=np.int64)], axis=1)
    padded_mask = np.concatenate([tgt_mask, np.zeros((1, 3))], axis=1)
    with ad.Tape() as tape2:
        padded = model._teacher_forced_nll(src_ids, src_mask, padded_tgt, padded_mask)
    assert abs(float(plain.value) - float(padded.value)) < 1e-12


def _reference_logits(model, src_ids, src_mask, tgt_ids):
    """Plain numpy forward that projects embed[ids] @ W_x + b for every row and step."""
    p = {k: v.value for k, v in model.params.items()}
    hd = model.hidden_dim

    def lstm_step(ids, h, c, lstm):
        z = p["embed"][ids] @ p[f"{lstm}_wx"] + p[f"{lstm}_b"] + h @ p[f"{lstm}_wh"]
        i, f, o = (1.0 / (1.0 + np.exp(-z[:, k * hd: (k + 1) * hd])) for k in range(3))
        c = f * c + i * np.tanh(z[:, 3 * hd:])
        return o * np.tanh(c), c

    batch, src_len = src_ids.shape
    h, c = np.zeros((batch, hd)), np.zeros((batch, hd))
    keys = np.zeros((batch, src_len, hd))
    for t in range(src_len):
        h_new, c_new = lstm_step(src_ids[:, t], h, c, "enc")
        live = src_mask[:, t, None] > 0
        h, c = np.where(live, h_new, h), np.where(live, c_new, c)
        keys[:, t] = h
    bias = np.where(src_mask > 0, 0.0, -1e9)
    dec_in = np.concatenate([np.full((batch, 1), BOS), tgt_ids[:, :-1]], axis=1)
    logits = []
    for t in range(tgt_ids.shape[1]):
        h, c = lstm_step(dec_in[:, t], h, c, "dec")
        scores = np.einsum("bh,bth->bt", h @ p["att_w"], keys) + bias
        alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha /= alpha.sum(axis=1, keepdims=True)
        ctx = np.einsum("bt,bth->bh", alpha, keys)
        comb = np.tanh(np.concatenate([h, ctx], axis=1) @ p["comb_w"] + p["comb_b"])
        logits.append(comb @ p["out_w"] + p["out_b"])
    return np.stack(logits, axis=1)


def test_teacher_forced_logits_match_per_row_reference(small_vocab):
    # repeated tokens within and across rows share one projected row each
    model = wide_model(small_vocab, 6, 7, 17, weights=ad.INIT_SCALE, embed=0.5,
                       bias_rng=np.random.default_rng(4))
    src_ids, src_mask = pad_batch([
        sentence(small_vocab, "a", "a", "b", "a").ids, sentence(small_vocab, "b", "a").ids,
        sentence(small_vocab, "c", "c", "c").ids,
    ])
    tgt_ids, _ = pad_batch([
        sentence(small_vocab, "d", "d", "a").ids, sentence(small_vocab, "a", "d", "d", "e").ids,
        sentence(small_vocab, "a").ids,
    ])
    got = model._teacher_forced_logits(src_ids, src_mask, tgt_ids).value
    want = _reference_logits(model, src_ids, src_mask, tgt_ids)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_mle_loss_grad_check(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=5, hidden_dim=6, seed=13)
    src_ids, src_mask = pad_batch([
        sentence(small_vocab, "a", "b").ids, sentence(small_vocab, "c").ids,
    ])
    tgt_ids, tgt_mask = pad_batch([
        sentence(small_vocab, "d").ids, sentence(small_vocab, "e", "a", "b").ids,
    ])

    def fn(params):
        total = model._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask)
        return ad.scale(total, 1.0 / tgt_mask.sum())

    err = grad_check(fn, list(model.params.values()), samples_per_param=15,
                     rng=np.random.default_rng(2))
    assert err < 1e-4


def test_mle_step_tape_size_does_not_grow_with_length(small_vocab, monkeypatch):
    # whole-sequence ops: a teacher-forced pass records a fixed node count
    model = Seq2Seq(small_vocab, embed_dim=5, hidden_dim=6, seed=13)
    sizes = []
    real_backward = ad.backward

    def counting_backward(tape, loss):
        sizes.append(len(tape.nodes))
        real_backward(tape, loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    opt = AdamState(lr=1e-3)
    for length in (3, 12):
        src = sentence(small_vocab, *(["a", "b", "c"] * 4)[:length])
        tgt = sentence(small_vocab, *(["d", "e"] * 6)[:length])
        model.mle_step([(src, tgt), (tgt, src)], opt, 5.0)
    assert sizes[0] == sizes[1]


def test_clone_and_checkpoint_round_trip(small_vocab, tmp_path):
    model = Seq2Seq(small_vocab, embed_dim=6, hidden_dim=7, seed=33)
    twin = model.clone()
    opt = AdamState(lr=1e-2)
    model.mle_step([(sentence(small_vocab, "a"), sentence(small_vocab, "b"))], opt, 5.0)
    assert not np.array_equal(model.params["out_b"].value, twin.params["out_b"].value)

    model.save(tmp_path / "m.ckpt")
    loaded = Seq2Seq.load(tmp_path / "m.ckpt", small_vocab)
    for k in model.params:
        assert np.array_equal(loaded.params[k].value, model.params[k].value)
    assert loaded.direction == model.direction

    with pytest.raises(ValueError):
        Seq2Seq.load(tmp_path / "m.ckpt", Vocabulary(["zzz"]))


def test_load_draws_no_random_numbers(small_vocab, tmp_path, monkeypatch):
    model = wide_model(small_vocab, 6, 7, 35, weights=0.6)
    model.save(tmp_path / "m.ckpt")
    sources = [sentence(small_vocab, *words.split()) for words in ("a b c", "e d", "b")]

    def no_draws(*args, **kwargs):
        raise AssertionError("Seq2Seq.load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = Seq2Seq.load(tmp_path / "m.ckpt", small_vocab)
    assert list(loaded.params) == list(model.params)
    for k, p in model.params.items():
        assert loaded.params[k].value.tobytes() == p.value.tobytes()
    assert ([s.ids for s in loaded.greedy_decode_batch(sources, max_len=6)]
            == [s.ids for s in model.greedy_decode_batch(sources, max_len=6)])
