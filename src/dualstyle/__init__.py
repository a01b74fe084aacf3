"""Unsupervised text style transfer with two dual sequence mapping models.

The package couples an attention-based encoder-decoder per transfer
direction, a frozen convolutional style classifier, policy-gradient training
on style/content rewards, template pseudo-parallel warm-up, annealed
back-translation teacher forcing, and a BLEU/accuracy evaluation harness.

Submodules import lazily so that the CLI can pin BLAS thread counts before
numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # corpus
    "PAD": "corpus", "UNK": "corpus", "BOS": "corpus", "EOS": "corpus",
    "Sentence": "corpus", "StyleLabel": "corpus", "StyleCorpus": "corpus",
    "SyntheticTaskSpec": "corpus", "Vocabulary": "corpus",
    "build_vocab": "corpus", "generate_synthetic": "corpus",
    "tokenize": "corpus",
    # numerics
    "Tape": "autodiff", "Tensor": "autodiff", "backward": "autodiff",
    "grad_check": "autodiff", "parameter": "autodiff",
    "AdamState": "optim", "adam_step": "optim", "clip_global_norm": "optim",
    "save_checkpoint": "checkpoint", "load_checkpoint": "checkpoint",
    # models
    "Seq2Seq": "seq2seq",
    "TextClassifier": "classifier", "ClassifierConfig": "classifier",
    "train_classifier": "classifier",
    # rewards
    "RewardConfig": "rewards", "combine": "rewards",
    # pseudo-parallel data
    "StyleLexicon": "pseudo", "PseudoPair": "pseudo",
    "build_style_lexicon": "pseudo", "template_transfer": "pseudo",
    "make_pretrain_pairs": "pseudo",
    # training
    "TrainConfig": "dualrl", "TrainState": "dualrl", "AnnealSchedule": "dualrl",
    "anneal_interval": "dualrl", "train": "dualrl", "pretrain": "dualrl",
    # evaluation
    "corpus_bleu": "evaluation", "g2h2": "evaluation", "evaluate": "evaluation",
    "EvalReport": "evaluation",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return __all__
