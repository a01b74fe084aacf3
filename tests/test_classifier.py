import math

import numpy as np
import pytest

from dualstyle.checkpoint import save_checkpoint
from dualstyle.classifier import (
    LR,
    WIDTHS,
    ClassifierConfig,
    TextClassifier,
    predicted_class,
    train_classifier,
)
from dualstyle.corpus import (
    Sentence,
    StyleCorpus,
    StyleLabel,
    SyntheticTaskSpec,
    build_vocab,
    generate_synthetic,
    lexicon_oracle_label,
)
from dualstyle.errors import EmptySequenceError
from dualstyle.optim import AdamState

from conftest import sentence


def zeroed_classifier(vocab) -> TextClassifier:
    clf = TextClassifier(vocab, ClassifierConfig(embed_dim=8, channels=4, seed=0))
    for p in clf.params.values():
        p.value = np.zeros_like(p.value)
    return clf


def style_accuracy(clf: TextClassifier, sentences, target: StyleLabel) -> float:
    """Share of sentences whose predicted class is the target style (the ACC metric)."""
    return float((predicted_class(clf.classify_prob_batch(sentences)) == target.index).mean())


def test_zero_classifier_is_uniform(small_vocab):
    clf = zeroed_classifier(small_vocab)
    probs = clf.classify_prob_batch([sentence(small_vocab, "a", "b")])[0]
    assert np.allclose(probs, [0.5, 0.5], atol=1e-15)


def test_logit_gap_softmax_value(small_vocab):
    clf = zeroed_classifier(small_vocab)
    clf.params["lin_b"].value = np.array([2.0, 0.0])
    probs = clf.classify_prob_batch([sentence(small_vocab, "c")])[0]
    expect = math.exp(2.0) / (math.exp(2.0) + 1.0)
    assert abs(probs[0] - expect) < 1e-12
    assert abs(probs[0] - 0.881) < 1e-3
    assert abs(probs[1] - 0.119) < 1e-3


def test_probabilities_sum_to_one(small_vocab):
    clf = TextClassifier(small_vocab, ClassifierConfig(embed_dim=8, channels=4, seed=1))
    rng = np.random.default_rng(0)
    toks = ["a", "b", "c", "d", "e"]
    sents = [sentence(small_vocab, *(toks[int(rng.integers(5))]
                                     for _ in range(int(rng.integers(1, 8)))))
             for _ in range(50)]
    probs = clf.classify_prob_batch(sents)
    assert (probs > 0).all() and (probs < 1).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12


def test_empty_sentence_rejected(small_vocab):
    clf = zeroed_classifier(small_vocab)
    with pytest.raises(EmptySequenceError):
        clf.classify_prob_batch([Sentence(surface=(), ids=(3,))])


def test_style_accuracy_counts(small_vocab):
    clf = zeroed_classifier(small_vocab)
    clf.params["lin_b"].value = np.array([0.0, 1.0])  # always class 1
    sents = [sentence(small_vocab, "a")] * 4
    assert style_accuracy(clf, sents, StyleLabel(1, "pos")) == 1.0
    assert style_accuracy(clf, sents, StyleLabel(0, "neg")) == 0.0


def test_tie_breaks_toward_first_style(small_vocab):
    clf = zeroed_classifier(small_vocab)
    sents = [sentence(small_vocab, "a", "b")] * 3
    assert style_accuracy(clf, sents, StyleLabel(0, "neg")) == 1.0
    assert style_accuracy(clf, sents, StyleLabel(1, "pos")) == 0.0


def test_mixed_accuracy_fraction(small_vocab):
    clf = zeroed_classifier(small_vocab)
    # widths (1,2,3) all-zero convs; route class via linear bias per call
    clf.params["lin_b"].value = np.array([0.0, 1.0])
    sents = [sentence(small_vocab, "a")] * 3
    probs_hit = predicted_class(clf.classify_prob_batch(sents))
    clf.params["lin_b"].value = np.array([1.0, 0.0])
    probs_miss = predicted_class(clf.classify_prob_batch([sentence(small_vocab, "b")]))
    preds = np.concatenate([probs_hit, probs_miss])
    acc = float((preds == 1).mean())
    assert acc == 0.75


def test_training_separable_task(tiny_task, tiny_classifier):
    corpus, gold, vocab = tiny_task
    dev = corpus.of(corpus.label_x, "dev") + corpus.of(corpus.label_y, "dev")
    labels = [0] * len(corpus.of(corpus.label_x, "dev")) + [1] * len(corpus.of(corpus.label_y, "dev"))
    preds = predicted_class(tiny_classifier.classify_prob_batch(dev))
    acc = float((preds == np.array(labels)).mean())
    assert acc >= 0.98


def test_agreement_with_lexicon_oracle(tiny_task, tiny_classifier):
    corpus, gold, vocab = tiny_task
    dev = corpus.of(corpus.label_x, "dev") + corpus.of(corpus.label_y, "dev")
    oracle = np.array([lexicon_oracle_label(s, gold) for s in dev])
    preds = predicted_class(tiny_classifier.classify_prob_batch(dev))
    assert float((preds == oracle).mean()) >= 0.98


def test_identical_corpora_chance_accuracy():
    spec = SyntheticTaskSpec(train_per_style=120, dev_per_style=40, test_per_style=10, seed=3)
    corpus, _ = generate_synthetic(spec)
    same = corpus.of(corpus.label_x, "train")
    same_dev = corpus.of(corpus.label_x, "dev")
    mirrored = StyleCorpus(corpus.label_x, corpus.label_y, {
        (corpus.label_x.name, "train"): same,
        (corpus.label_y.name, "train"): same,
        (corpus.label_x.name, "dev"): same_dev,
        (corpus.label_y.name, "dev"): same_dev,
    })
    vocab = build_vocab(mirrored.all_train(), min_count=1)
    mirrored = mirrored.numericalize(vocab)
    _, dev_acc = train_classifier(mirrored, vocab,
                                  ClassifierConfig(embed_dim=12, channels=6, epochs=2, seed=0))
    assert abs(dev_acc - 0.5) <= 0.05


def test_no_dev_split_reports_nan_accuracy(tiny_task, capsys):
    corpus, _, vocab = tiny_task
    train_only = StyleCorpus(corpus.label_x, corpus.label_y, {
        (lab.name, "train"): corpus.of(lab, "train")[:40] for lab in corpus.labels()
    })
    clf, dev_acc = train_classifier(train_only, vocab,
                                    ClassifierConfig(embed_dim=8, channels=4, epochs=1, seed=0))
    assert clf.frozen
    assert math.isnan(dev_acc)
    from dualstyle.cli import _log
    _log(event="pretrain_classifier", dev_acc=round(dev_acc, 4))
    assert "dev_acc=nan" in capsys.readouterr().out


def test_frozen_classifier_rejects_training(tiny_task, tiny_classifier):
    corpus, _, vocab = tiny_task
    with pytest.raises(RuntimeError):
        tiny_classifier.train_batch([corpus.of(corpus.label_x, "dev")[0]],
                                    np.array([0]), AdamState())


def test_classifier_checkpoint_round_trip(tiny_task, tiny_classifier, tmp_path):
    _, _, vocab = tiny_task
    tiny_classifier.save(tmp_path / "cls.ckpt")
    loaded = TextClassifier.load(tmp_path / "cls.ckpt", vocab)
    assert loaded.frozen
    for k in tiny_classifier.params:
        assert np.array_equal(loaded.params[k].value, tiny_classifier.params[k].value)


def test_classifier_load_draws_no_random_numbers(tiny_task, tiny_classifier, tmp_path,
                                                  monkeypatch):
    corpus, _, vocab = tiny_task
    tiny_classifier.save(tmp_path / "cls.ckpt")

    def no_draws(*args, **kwargs):
        raise AssertionError("TextClassifier.load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    loaded = TextClassifier.load(tmp_path / "cls.ckpt", vocab)
    assert list(loaded.params) == list(tiny_classifier.params)
    for k, p in tiny_classifier.params.items():
        assert loaded.params[k].value.tobytes() == p.value.tobytes()
    dev = corpus.of(corpus.label_x, "dev")[:20]
    assert (loaded.classify_prob_batch(dev).tobytes()
            == tiny_classifier.classify_prob_batch(dev).tobytes())


def test_classifier_checkpoint_with_a_widths_entry_still_loads(tiny_task, tiny_classifier,
                                                                tmp_path):
    # the header of a classifier checkpoint once carried its filter widths
    corpus, _, vocab = tiny_task
    meta = {"kind": "cls", "embed_dim": tiny_classifier.cfg.embed_dim,
            "channels": tiny_classifier.cfg.channels, "widths": [1, 2, 3],
            "frozen": True, "vocab_hash": vocab.content_hash()}
    save_checkpoint(tmp_path / "cls.ckpt",
                    {k: p.value for k, p in tiny_classifier.params.items()}, meta)
    loaded = TextClassifier.load(tmp_path / "cls.ckpt", vocab)
    assert loaded.frozen
    dev = corpus.of(corpus.label_x, "dev") + corpus.of(corpus.label_y, "dev")
    assert np.array_equal(loaded.classify_prob_batch(dev),
                          tiny_classifier.classify_prob_batch(dev))


def _reference_forward_backward(params, widths, ids, lengths, labels):
    """The classifier in plain numpy with einsum convolutions: the class
    probabilities and the gradients of the mean cross-entropy."""
    arrays = {k: p.value for k, p in params.items()}
    emb = arrays["embed"][ids]
    batch = len(ids)
    feats, saved = [], []
    for w in widths:
        windows = np.lib.stride_tricks.sliding_window_view(emb, w, axis=1)
        conv = np.maximum(np.einsum("btew,wec->btc", windows, arrays[f"conv{w}_w"])
                          + arrays[f"conv{w}_b"], 0.0)
        valid = np.arange(conv.shape[1])[None, :] <= (lengths[:, None] - w)
        arg = np.where(valid[:, :, None], conv, -np.inf).argmax(axis=1)
        feats.append(np.take_along_axis(conv, arg[:, None, :], axis=1)[:, 0])
        saved.append((w, windows, conv, arg))
    features = np.concatenate(feats, axis=1)
    logits = features @ arrays["lin_w"] + arrays["lin_b"]
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)

    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    grads = {"lin_w": features.T @ dlogits, "lin_b": dlogits.sum(axis=0)}
    dfeatures = dlogits @ arrays["lin_w"].T
    demb = np.zeros_like(emb)
    channels = arrays["conv1_b"].size
    for k, (w, windows, conv, arg) in enumerate(saved):
        dconv = np.zeros_like(conv)
        np.put_along_axis(dconv, arg[:, None, :],
                          dfeatures[:, None, k * channels: (k + 1) * channels], axis=1)
        dconv *= conv > 0
        grads[f"conv{w}_w"] = np.einsum("btew,btc->wec", windows, dconv)
        grads[f"conv{w}_b"] = dconv.sum(axis=(0, 1))
        for j in range(w):
            demb[:, j: j + conv.shape[1]] += dconv @ arrays[f"conv{w}_w"][j].T
    grads["embed"] = np.zeros_like(arrays["embed"])
    np.add.at(grads["embed"], ids, demb)
    return probs, grads


def test_classifier_matches_an_einsum_reference_on_a_ragged_batch(small_vocab, monkeypatch):
    # a clip bound no gradient reaches, so the raw gradients reach adam_step
    monkeypatch.setattr("dualstyle.classifier.GRAD_CLIP", 1e9)
    cfg = ClassifierConfig(embed_dim=6, channels=5, seed=4)
    clf = TextClassifier(small_vocab, cfg)
    rng = np.random.default_rng(2)
    for p in clf.params.values():
        p.value = rng.normal(0, 0.5, p.value.shape)
    # the one-token sentence is padded to the widest filter (3)
    sents = [sentence(small_vocab, *toks.split()) for toks in
             ("a b c d e", "c", "e d", "b b a c", "d a e c b a")]
    labels = np.array([0, 1, 1, 0, 1])
    ids, lengths = clf._prepare(sents)
    assert ids.shape == (5, 6) and lengths[1] == 3
    probs, want = _reference_forward_backward(clf.params, WIDTHS, ids, lengths, labels)

    assert np.abs(clf.classify_prob_batch(sents) - probs).max() < 1e-12
    assert np.array_equal(predicted_class(clf.classify_prob_batch(sents)),
                          np.where(probs[:, 1] > probs[:, 0], 1, 0))

    seen = {}
    monkeypatch.setattr("dualstyle.classifier.adam_step",
                        lambda params, grads, opt: seen.update(grads))
    clf.train_batch(sents, labels, AdamState(lr=LR))
    assert sorted(seen) == sorted(want)
    for name, g in want.items():
        assert np.abs(seen[name] - g).max() < 1e-12, name
