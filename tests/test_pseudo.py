import numpy as np

from dualstyle.corpus import (
    StyleCorpus,
    StyleLabel,
    SyntheticTaskSpec,
    generate_synthetic,
    tokenize,
)
from dualstyle.optim import AdamState
from dualstyle.pseudo import (
    back_translate_batch,
    build_style_lexicon,
    make_pretrain_pairs,
    salience,
    template_transfer,
)
from dualstyle.seq2seq import Seq2Seq

from conftest import sentence


def corpus_from_lines(x_lines, y_lines, x_dev=(), y_dev=()):
    lx, ly = StyleLabel(0, "neg"), StyleLabel(1, "pos")
    data = {
        ("neg", "train"): [tokenize(l) for l in x_lines],
        ("pos", "train"): [tokenize(l) for l in y_lines],
        ("neg", "dev"): [tokenize(l) for l in x_dev],
        ("pos", "dev"): [tokenize(l) for l in y_dev],
    }
    return StyleCorpus(lx, ly, data)


def test_salience_formula():
    assert salience(50, 0, 1.0) == 51.0
    assert salience(10, 10, 1.0) == 1.0
    assert salience(0, 0, 1.0) == 1.0


def test_lexicon_marks_exclusive_ngrams():
    corpus = corpus_from_lines(["u a"] * 50, ["v a"] * 50)
    lex = build_style_lexicon(corpus, lam=1.0, gamma=5.0)
    assert ("u",) in lex.entries["neg"]
    assert ("v",) in lex.entries["pos"]
    assert ("a",) not in lex.entries["neg"]
    assert ("a",) not in lex.entries["pos"]
    # marked sets are disjoint for gamma > 1
    assert not set(lex.entries["neg"]) & set(lex.entries["pos"])


def test_lexicon_threshold():
    corpus = corpus_from_lines(["u a"] * 3, ["v a"] * 3)
    lex = build_style_lexicon(corpus, lam=1.0, gamma=5.0)
    assert ("u",) not in lex.entries["neg"]  # salience 4 < 5


def test_template_single_slot():
    corpus = corpus_from_lines(["the meal was tasty"] * 20, ["the meal was bland"] * 20)
    lex = build_style_lexicon(corpus, lam=1.0, gamma=5.0)
    out, applied = template_transfer(tokenize("the meal was tasty"), lex,
                                     StyleLabel(1, "pos"))
    assert applied
    assert out.surface == ("the", "meal", "was", "bland")


def test_template_no_marker_unchanged():
    corpus = corpus_from_lines(["the u meal"] * 20, ["the v meal"] * 20)
    lex = build_style_lexicon(corpus, lam=1.0, gamma=5.0)
    neutral = tokenize("the meal")
    out, applied = template_transfer(neutral, lex, StyleLabel(1, "pos"))
    assert not applied
    assert out.surface == neutral.surface


def test_template_two_slots_same_length():
    # style words appear in many contexts so bigrams stay under threshold
    x_lines, y_lines = [], []
    ctx = ["one", "two", "three", "four", "five", "six"]
    for c in ctx:
        x_lines.append(f"{c} u1 {c}")
        x_lines.append(f"{c} u2 {c}")
        y_lines.append(f"{c} v1 {c}")
        y_lines.append(f"{c} v2 {c}")
    corpus = corpus_from_lines(x_lines, y_lines)
    lex = build_style_lexicon(corpus, lam=1.0, gamma=5.0)
    assert set(lex.entries["neg"]) == {("u1",), ("u2",)}
    out, applied = template_transfer(tokenize("one u1 two u2 three"), lex,
                                     StyleLabel(1, "pos"))
    assert applied
    assert len(out.surface) == 5
    assert out.surface[1] in ("v1", "v2") and out.surface[3] in ("v1", "v2")


def test_template_involution_on_synthetic():
    # needs a threshold that marks the style unigrams and nothing else
    corpus, gold = generate_synthetic(SyntheticTaskSpec(seed=3))
    lex = build_style_lexicon(corpus, lam=1.0, gamma=230.0)
    assert all(len(g) == 1 for side in lex.entries.values() for g in side)
    toward_y = StyleLabel(1, corpus.label_y.name)
    toward_x = StyleLabel(0, corpus.label_x.name)
    applied_count = 0
    for s in corpus.of(corpus.label_x, "dev")[:60]:
        once, applied = template_transfer(s, lex, toward_y)
        if not applied:
            continue
        applied_count += 1
        back, applied_back = template_transfer(once, lex, toward_x)
        assert applied_back
        assert back.surface == s.surface
    assert applied_count >= 40


def test_pretrain_pairs_totality_and_gold(tiny_task):
    corpus, gold, vocab = tiny_task
    lex = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    pairs_f, pairs_g = make_pretrain_pairs(corpus, lex, vocab)
    assert len(pairs_f) == len(corpus.of(corpus.label_x, "train"))
    assert len(pairs_g) == len(corpus.of(corpus.label_y, "train"))
    for pair in pairs_f[:200]:
        if pair.source.surface != pair.target.surface:  # applied
            assert pair.target.surface == gold.apply_gold(pair.source).surface


def test_identity_pairs_for_unmarked(tiny_task):
    corpus, gold, vocab = tiny_task
    # yank the threshold high enough that nothing is marked
    lex = build_style_lexicon(corpus, lam=1.0, gamma=1e9)
    pairs_f, _ = make_pretrain_pairs(corpus, lex, vocab)
    assert all(p.source.surface == p.target.surface for p in pairs_f)


def test_lexicon_build_is_reproducible(tiny_task):
    corpus, _, _ = tiny_task
    l1 = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    l2 = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    assert l1.entries == l2.entries


def test_back_translate_contract(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=8, hidden_dim=9, seed=2)
    s = sentence(small_vocab, "a", "b", "c")
    [pair] = back_translate_batch(model, [s], max_len=9)
    assert pair.target is s


def test_back_translate_identity_model(small_vocab):
    model = Seq2Seq(small_vocab, embed_dim=32, hidden_dim=48, seed=6)
    rng = np.random.default_rng(1)
    tokens = ["a", "b", "c", "d", "e"]
    opt = AdamState(lr=1e-2)
    for _ in range(500):
        batch = [sentence(small_vocab, *(tokens[int(rng.integers(5))]
                                         for _ in range(int(rng.integers(1, 5)))))
                 for _ in range(48)]
        model.mle_step([(s, s) for s in batch], opt, 5.0)
    probes = [sentence(small_vocab, "d", "a"), sentence(small_vocab, "c", "e", "b")]
    pairs = back_translate_batch(model, probes, max_len=9)
    for pair, probe in zip(pairs, probes):
        assert pair.source.surface == probe.surface
        assert pair.target is probe


