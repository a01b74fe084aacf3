import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualstyle import autodiff as ad, rewards
from dualstyle.classifier import ClassifierConfig, TextClassifier
from dualstyle.corpus import EOS, Sentence, StyleLabel
from dualstyle.errors import EmptySequenceError
from dualstyle.rewards import (
    RewardConfig,
    combine_batch,
    combined_rewards,
    content_reward_batch,
    style_reward_batch,
)
from dualstyle.seq2seq import Seq2Seq

from conftest import sentence, wide_model


@pytest.fixture()
def uniform_classifier(small_vocab):
    clf = TextClassifier(small_vocab, ClassifierConfig(embed_dim=8, channels=4, seed=0))
    for p in clf.params.values():
        p.value = np.zeros_like(p.value)
    return clf


def test_style_reward_uniform_classifier(small_vocab, uniform_classifier):
    s = [sentence(small_vocab, "a", "b")]
    assert style_reward_batch(uniform_classifier, s, StyleLabel(0, "neg"))[0] == 0.5
    assert style_reward_batch(uniform_classifier, s, StyleLabel(1, "pos"))[0] == 0.5


def test_style_reward_softmax_value(small_vocab, uniform_classifier):
    uniform_classifier.params["lin_b"].value = np.array([2.0, 0.0])
    s = [sentence(small_vocab, "a")]
    r = style_reward_batch(uniform_classifier, s, StyleLabel(0, "neg"))[0]
    assert abs(r - 0.881) < 1e-3


def test_style_rewards_sum_to_one(small_vocab, uniform_classifier):
    uniform_classifier.params["lin_b"].value = np.array([1.3, -0.4])
    s = [sentence(small_vocab, "b", "c", "d")]
    r0 = style_reward_batch(uniform_classifier, s, StyleLabel(0, "neg"))[0]
    r1 = style_reward_batch(uniform_classifier, s, StyleLabel(1, "pos"))[0]
    assert abs(r0 + r1 - 1.0) < 1e-12


def uniform3_model(vocab) -> Seq2Seq:
    """Decoder uniform over {EOS, a, b}: all other ids are masked out."""
    model = Seq2Seq(vocab, embed_dim=4, hidden_dim=5, seed=0)
    for name in ("dec_wx", "dec_wh", "comb_w", "att_w", "out_w"):
        model.params[name].value = np.zeros_like(model.params[name].value)
    bias = np.full(len(vocab), -1e9)
    bias[[EOS, 4, 5]] = 0.0
    model.params["out_b"].value = bias
    return model


def test_content_reward_uniform_decoder(small_vocab):
    model = uniform3_model(small_vocab)
    y_prime = sentence(small_vocab, "b", "c")
    x = sentence(small_vocab, "a")  # ids (4, EOS): two steps of 1/3 each
    norm = content_reward_batch(model, [y_prime], [x])[0]
    assert abs(norm - 1.0 / 3.0) < 1e-9


def test_content_reward_zero_when_impossible(small_vocab):
    model = uniform3_model(small_vocab)
    y_prime = sentence(small_vocab, "a")
    x = sentence(small_vocab, "c")  # id 6 is masked out
    assert content_reward_batch(model, [y_prime], [x])[0] == 0.0


def test_content_reward_rejects_empty(small_vocab):
    model = uniform3_model(small_vocab)
    with pytest.raises(EmptySequenceError):
        content_reward_batch(model, [Sentence((), ())], [sentence(small_vocab, "a")])


def combine(r_style: float, r_content: float, beta: float) -> float:
    """Scalar reference for ``combine_batch``: the weighted harmonic mean of
    the two rewards, 0 when its denominator vanishes."""
    denom = beta * beta * r_content + r_style
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * r_content * r_style / denom


def test_combine_direct_value():
    # beta=0.5: (1.25 * 0.8 * 0.4) / (0.25 * 0.8 + 0.4)
    assert abs(combine(0.4, 0.8, 0.5) - 0.4 / 0.6) < 1e-6
    assert abs(combine(0.4, 0.8, 0.5) - 0.6666666) < 1e-6


def test_combine_of_equals_is_identity():
    for v in (0.0, 0.25, 0.5, 1.0):
        for beta in (0.5, 1.0, 2.0):
            assert combine(v, v, beta) == pytest.approx(v, abs=1e-12)


def test_combine_annihilates_at_zero():
    assert combine(0.0, 0.7, 0.5) == 0.0
    assert combine(0.7, 0.0, 2.0) == 0.0
    assert combine(0.0, 0.0, 1.0) == 0.0


@settings(max_examples=200, deadline=None)
@given(st.floats(0, 1), st.floats(0, 1), st.floats(0.1, 10))
def test_combine_bounds_and_symmetry(r_style, r_content, beta):
    value = combine(r_style, r_content, beta)
    assert min(r_style, r_content) - 1e-12 <= value <= max(r_style, r_content) + 1e-12
    flipped = combine(r_content, r_style, 1.0 / beta)
    assert value == pytest.approx(flipped, rel=1e-9, abs=1e-12)


def test_combine_batch_matches_scalar_combine_exactly():
    rng = np.random.default_rng(3)
    r_style = rng.random(500)
    r_content = rng.random(500)
    r_style[rng.random(500) < 0.2] = 0.0
    r_content[rng.random(500) < 0.2] = 0.0
    for beta in (0.1, 0.5, 1.0, 3.0):
        vec = combine_batch(r_style, r_content, beta)
        ref = [combine(float(s), float(c), beta) for s, c in zip(r_style, r_content)]
        assert vec.tolist() == ref
    assert (combine_batch(r_style, r_content, 0.5)[(r_style == 0) & (r_content == 0)] == 0).all()


def test_breakdown_invariants():
    # the (style, content, total) rows that combined_rewards reports
    r_style, r_content = np.array([0.3, 0.0]), np.array([0.9, 0.9])
    r_total = combine_batch(r_style, r_content, 0.5)
    assert r_total[0] <= max(r_style[0], r_content[0]) + 1e-12
    assert r_total[1] == 0.0


def test_combined_rewards_zero_for_degenerate(small_vocab, uniform_classifier):
    model = uniform3_model(small_vocab)
    xs = [sentence(small_vocab, "a"), sentence(small_vocab, "a")]
    samples = [Sentence(surface=(), ids=(EOS,)), sentence(small_vocab, "a")]
    r_style, r_content, r_total = combined_rewards(
        uniform_classifier, model, samples, xs, StyleLabel(1, "pos"), RewardConfig()
    )
    assert r_style[0] == 0.0 and r_content[0] == 0.0 and r_total[0] == 0.0
    assert r_style[1] == 0.5 and r_total[1] > 0.0


def test_combined_rewards_score_each_distinct_pair_once(small_vocab, monkeypatch):
    clf = TextClassifier(small_vocab, ClassifierConfig(embed_dim=8, channels=4, seed=3))
    lin_w = clf.params["lin_w"]
    lin_w.value = np.random.default_rng(3).normal(0, 2.0, lin_w.value.shape)
    back = wide_model(small_vocab, 8, 9, 4, embed=ad.EMBED_STD)
    x1, x2 = sentence(small_vocab, "a", "b"), sentence(small_vocab, "c", "d", "e")
    s1, s2 = sentence(small_vocab, "b"), sentence(small_vocab, "e", "a", "c")
    empty = Sentence(surface=(), ids=(EOS,))
    # (s1, x1) three times, once through an equal but distinct sample object;
    # (s2, x1) twice, once through an equal source object; (s1, x2) differs
    # from the first pair in the source only
    samples = [s1, s2, sentence(small_vocab, "b"), empty, s1, s1, s2, empty]
    xs = [x1, x1, x1, x1, x2, x1, sentence(small_vocab, "a", "b"), x2]
    target, cfg = StyleLabel(1, "pos"), RewardConfig()

    ref_style, ref_content = np.zeros(8), np.zeros(8)
    for i, (yp, x) in enumerate(zip(samples, xs)):
        if yp.surface:
            ref_style[i] = style_reward_batch(clf, [yp], target)[0]
            ref_content[i] = content_reward_batch(back, [yp], [x])[0]

    seen = []
    for name in ("style_reward_batch", "content_reward_batch"):
        scorer = getattr(rewards, name)

        def recording(*args, scorer=scorer, name=name):
            seen.append((name, [s.ids for s in args[1]]))
            if name == "content_reward_batch":
                seen.append((name + " xs", [x.ids for x in args[2]]))
            return scorer(*args)

        monkeypatch.setattr(rewards, name, recording)
    r_style, r_content, r_total = combined_rewards(clf, back, samples, xs, target, cfg)
    assert np.array_equal(r_style, ref_style)
    assert np.array_equal(r_content, ref_content)
    assert np.array_equal(r_total, combine_batch(ref_style, ref_content, cfg.beta))
    assert r_total[0] == r_total[2] == r_total[5] and r_total[1] == r_total[6]
    assert dict(seen) == {
        "style_reward_batch": [s1.ids, s2.ids, s1.ids],
        "content_reward_batch": [s1.ids, s2.ids, s1.ids],
        "content_reward_batch xs": [x1.ids, x1.ids, x2.ids],
    }


def test_reward_config_validation():
    # combine_batch weighs by beta^2, so a beta whose square overflows is refused
    for beta in (0.0, -1.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError):
            RewardConfig(beta=beta)
    with pytest.raises(ValueError):
        RewardConfig(sample_size=0)
