from unittest import mock

import numpy as np
import pytest

from dualstyle import autodiff as ad
from dualstyle.classifier import ClassifierConfig, train_classifier
from dualstyle.corpus import Sentence, SyntheticTaskSpec, Vocabulary, build_vocab, generate_synthetic
from dualstyle.seq2seq import Seq2Seq

TINY_SPEC = SyntheticTaskSpec(
    train_per_style=300, dev_per_style=80, test_per_style=80,
    pair_count=8, rare_pair_count=2, rare_weight=0.5, seed=5,
)


@pytest.fixture(scope="session")
def tiny_task():
    corpus, gold = generate_synthetic(TINY_SPEC)
    vocab = build_vocab(corpus.all_train(), min_count=1)
    return corpus.numericalize(vocab), gold, vocab


@pytest.fixture(scope="session")
def tiny_models(tiny_task):
    _, _, vocab = tiny_task
    model_f = Seq2Seq(vocab, embed_dim=24, hidden_dim=32, direction="x2y", seed=[5, 1])
    model_g = Seq2Seq(vocab, embed_dim=24, hidden_dim=32, direction="y2x", seed=[5, 2])
    return model_f, model_g


@pytest.fixture(scope="session")
def tiny_classifier(tiny_task):
    corpus, _, vocab = tiny_task
    cfg = ClassifierConfig(embed_dim=24, channels=12, epochs=3, seed=5)
    clf, dev_acc = train_classifier(corpus, vocab, cfg)
    assert dev_acc >= 0.9
    return clf


def wide_model(vocab: Vocabulary, embed_dim: int, hidden_dim: int, seed, *,
               weights: float = 1.0, embed: float = 1.0,
               bias_rng: np.random.Generator | None = None) -> Seq2Seq:
    """A ``Seq2Seq`` drawn by the constructor's rule at wider scales: its
    weights from U(-weights, weights) and its embeddings from N(0, embed),
    bit for bit what the same seed draws at those scales.  With
    ``bias_rng``, its four bias vectors are then drawn from N(0, 0.3) by
    it, so that every parameter matters."""
    with mock.patch.multiple(ad, INIT_SCALE=weights, EMBED_STD=embed):
        model = Seq2Seq(vocab, embed_dim=embed_dim, hidden_dim=hidden_dim, seed=seed)
    if bias_rng is not None:
        for name in ("enc_b", "dec_b", "comb_b", "out_b"):
            model.params[name].value = bias_rng.normal(0, 0.3, model.params[name].value.shape)
    return model


@pytest.fixture()
def small_vocab():
    return Vocabulary(["a", "b", "c", "d", "e"])


def sentence(vocab: Vocabulary, *tokens: str) -> Sentence:
    return vocab.to_ids(Sentence(surface=tuple(tokens)))


def square_sum(t: ad.Tensor) -> ad.Tensor:
    """sum(t * t) as a scalar node: the flattened row times the flattened column."""
    if t.value.ndim == 0:
        row = col = (None, None)  # a 0-d t as a (1, 1) array
    else:
        flat = np.unravel_index(np.arange(t.value.size), t.value.shape)
        row, col = tuple(i[None, :] for i in flat), tuple(i[:, None] for i in flat)
    zero = ad.parameter(np.zeros(1))
    return ad.masked_sum(ad.affine(ad.take(t, row), ad.take(t, col), zero), np.ones((1, 1)))


class DiskFull:
    """A file with room for ``ROOM`` bytes: a write past that stores what
    fits and then fails, as on a full disk."""

    ROOM = 20

    def __init__(self, fh):
        self.fh = fh
        self.written = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        room = self.ROOM - self.written
        self.written += self.fh.write(data[:room])
        if len(data) > room:
            raise OSError("disk full")
        return len(data)

    def __getattr__(self, name):
        return getattr(self.fh, name)
