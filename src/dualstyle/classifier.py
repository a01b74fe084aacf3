"""Convolutional binary style classifier; frozen after pre-training.

The classifier provides P(style | sentence) both for the style reward during
dual training and for the ACC metric.  Its embeddings are independent of the
transfer models so the reward cannot drift with the policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .checkpoint import load_model, save_model
from .corpus import EOS, PAD, Sentence, StyleCorpus, Vocabulary, epoch_batches
from .errors import EmptySequenceError
from .optim import AdamState, adam_step, clip_global_norm, collect_grads

# Adam's step size, the training batch and the global-norm clip bound.
LR, BATCH_SIZE, GRAD_CLIP = 1e-3, 32, 5.0
# The convolution filter widths, in tokens.
WIDTHS = (1, 2, 3)


@dataclass
class ClassifierConfig:
    embed_dim: int = 64
    channels: int = 32
    epochs: int = 8
    seed: int = 0

    def __post_init__(self):
        if min(self.embed_dim, self.channels, self.epochs) < 1:
            raise ValueError("embed_dim, channels and epochs must be at least 1")


def predicted_class(probs: np.ndarray) -> np.ndarray:
    """Argmax class per row of (B, 2) probabilities; exact ties go to class 0."""
    return np.where(probs[:, 1] > probs[:, 0], 1, 0)


class TextClassifier:
    """Parallel convolutions over token embeddings, max-pooled, to 2 logits."""

    def __init__(self, vocab: Vocabulary, cfg: ClassifierConfig):
        self.cfg = cfg
        self.vocab = vocab
        self.frozen = False
        self.params = ad.initial_parameters(self._param_shapes(), cfg.seed)

    def _param_shapes(self) -> dict[str, tuple[int, ...]]:
        """Every parameter's shape by name, in the order ``__init__`` draws them."""
        e, ch = self.cfg.embed_dim, self.cfg.channels
        shapes = {"embed": (len(self.vocab), e)}
        for w in WIDTHS:
            shapes[f"conv{w}_w"] = (w, e, ch)
            shapes[f"conv{w}_b"] = (ch,)
        shapes["lin_w"] = (ch * len(WIDTHS), 2)
        shapes["lin_b"] = (2,)
        return shapes

    def _prepare(self, sentences: list[Sentence]) -> tuple[np.ndarray, np.ndarray]:
        """Content ids (EOS stripped), right-padded to at least the widest filter."""
        min_len = max(WIDTHS)
        rows = []
        for s in sentences:
            ids = [i for i in s.ids if i != EOS]
            if not ids:
                raise EmptySequenceError("cannot classify an empty sentence")
            rows.append(ids)
        lengths = np.array([max(len(r), min_len) for r in rows])
        width = int(lengths.max())
        ids = np.full((len(rows), width), PAD, dtype=np.int64)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
        return ids, lengths

    def _logits(self, ids: np.ndarray, lengths: np.ndarray) -> ad.Tensor:
        emb = ad.embedding(self.params["embed"], ids)  # (B, T, E)
        pooled = []
        for w in WIDTHS:
            conv = ad.relu(ad.conv1d(emb, self.params[f"conv{w}_w"],
                                     self.params[f"conv{w}_b"]))
            n_windows = ids.shape[1] - w + 1
            valid = np.arange(n_windows)[None, :] <= (lengths[:, None] - w)
            pooled.append(ad.max_over_time(conv, valid))
        features = ad.concat(pooled, axis=1)
        return ad.affine(features, self.params["lin_w"], self.params["lin_b"])

    def classify_prob_batch(self, sentences: list[Sentence]) -> np.ndarray:
        """Softmax over the two style classes, one row per sentence."""
        ids, lengths = self._prepare(sentences)
        return ad.softmax_values(self._logits(ids, lengths).value)

    def freeze(self) -> None:
        self.frozen = True

    def train_batch(self, sentences: list[Sentence], labels: np.ndarray,
                    opt: AdamState) -> float:
        if self.frozen:
            raise RuntimeError("classifier is frozen")
        ids, lengths = self._prepare(sentences)
        with ad.Tape() as tape:
            logits = self._logits(ids, lengths)
            nll = ad.cross_entropy(logits, labels)
            loss = ad.scale(ad.masked_sum(nll, np.ones(len(sentences))), 1.0 / len(sentences))
        ad.backward(tape, loss)
        grads = collect_grads(self.params)
        clip_global_norm(grads, GRAD_CLIP)
        adam_step(self.params, grads, opt)
        return float(loss.value)

    def save(self, path) -> None:
        save_model(path, self, {"kind": "cls", "embed_dim": self.cfg.embed_dim,
                                "channels": self.cfg.channels, "frozen": self.frozen})

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> "TextClassifier":
        """The classifier saved at ``path``, built like ``Seq2Seq.load``: from
        ``np.empty`` parameters that ``load_model`` checks and fills."""
        def build(meta):
            clf = cls.__new__(cls)
            clf.vocab, clf.frozen = vocab, meta["frozen"]
            clf.cfg = ClassifierConfig(embed_dim=meta["embed_dim"], channels=meta["channels"])
            clf.params = {name: ad.parameter(np.empty(shape))
                          for name, shape in clf._param_shapes().items()}
            return clf
        return load_model(path, vocab, build)


def train_classifier(corpus: StyleCorpus, vocab: Vocabulary,
                     cfg: ClassifierConfig) -> tuple[TextClassifier, float]:
    """Cross-entropy training on the (sentence, style) pairs of a
    numericalized corpus.

    Returns the best-dev-accuracy snapshot, already frozen, plus that
    accuracy.  With no dev split it returns the final epoch and an accuracy
    of ``nan``, since there is nothing to measure it on.
    """
    clf = TextClassifier(vocab, cfg)
    opt = AdamState(lr=LR)
    rng = np.random.default_rng(cfg.seed + 1)

    train_items = [(s, lab.index) for lab in corpus.labels() for s in corpus.of(lab, "train")]
    dev_items = [(s, lab.index) for lab in corpus.labels() for s in corpus.of(lab, "dev")]

    best_acc, best_state = -1.0, None
    for _ in range(cfg.epochs):
        for batch in epoch_batches(train_items, BATCH_SIZE, rng):
            clf.train_batch([s for s, _ in batch], np.array([lab for _, lab in batch]), opt)
        if dev_items:
            preds = predicted_class(clf.classify_prob_batch([s for s, _ in dev_items]))
            acc = float((preds == np.array([lab for _, lab in dev_items])).mean())
            if acc > best_acc:
                best_acc = acc
                best_state = {k: p.value.copy() for k, p in clf.params.items()}
    if best_state is None:
        best_acc = float("nan")
    else:
        for k, p in clf.params.items():
            p.value = best_state[k]
    clf.freeze()
    return clf, best_acc
