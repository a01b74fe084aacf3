"""Enumeration oracle for the policy-gradient estimator.

Builds a tiny model whose decoder support is exactly {a, b, EOS} (all other
ids carry a -1e9 output bias, which underflows to probability zero), so the
outcome space with max_len=3 has 15 elements and the true gradient of the
expected reward can be computed term by term.
"""

import itertools

import numpy as np

from dualstyle import autodiff as ad
from dualstyle.corpus import EOS, Sentence, Vocabulary, pad_batch
from dualstyle.optim import collect_grads
from dualstyle.seq2seq import Seq2Seq

MAX_LEN = 3
ALPHABET = (4, 5)  # ids of "a" and "b"


def build_masked_model(seed=0):
    vocab = Vocabulary(["a", "b"])
    model = Seq2Seq(vocab, embed_dim=4, hidden_dim=5, seed=seed)
    bias = model.params["out_b"].value
    bias[[0, 1, 2]] = -1e9  # PAD/UNK/BOS can never be emitted
    source = vocab.to_ids(Sentence(("a", "b")))
    return vocab, model, source


def outcomes():
    for length in range(MAX_LEN):
        for prefix in itertools.product(ALPHABET, repeat=length):
            yield prefix + (EOS,)
    for prefix in itertools.product(ALPHABET, repeat=MAX_LEN):
        yield prefix


def outcome_sentence(vocab, ids):
    surface = tuple(vocab.token_of(i) for i in ids if i != EOS)
    return Sentence(surface=surface, ids=tuple(ids))


def make_reward_table(seed=1):
    """Deterministic reward per outcome; the empty outcome pays nothing,
    matching the estimator's degenerate-sample rule."""
    rng = np.random.default_rng(seed)
    table = {}
    for ids in outcomes():
        table[tuple(ids)] = 0.0 if ids == (EOS,) else float(rng.uniform(0.05, 1.0))
    return table


def reward_fn_from_table(table):
    def fn(samples, _sources):
        return np.array([table[tuple(s.ids)] for s in samples])
    return fn


def exact_gradient(model, source, table):
    """Sum over outcomes of R(y) P(y) d log P(y) / d theta."""
    vocab = model.vocab
    grads = {k: np.zeros_like(p.value) for k, p in model.params.items()}
    src_ids, src_mask = pad_batch([source.ids])
    for ids in outcomes():
        reward = table[tuple(ids)]
        if reward == 0.0:
            continue
        prob = float(np.exp(model.log_prob_batch([source], [outcome_sentence(vocab, ids)])[0]))
        tgt_ids, tgt_mask = pad_batch([ids])
        with ad.Tape() as tape:
            nll = model._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask)
        ad.backward(tape, nll)
        step = collect_grads(model.params)
        for k in grads:
            grads[k] -= reward * prob * step[k]  # d log P = -d nll
    return grads
