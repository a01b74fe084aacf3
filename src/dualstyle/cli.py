"""Command-line entry point wiring the whole pipeline.

Subcommands: synth, pretrain-classifier, pretrain, train, transfer,
evaluate, ablate.  Every command is deterministic given --seed.
Configuration is a flat JSON file; command-line flags override file values,
and the fully resolved config is written into the run directory before any
training starts.  ``train --resume`` refuses a config that differs from the
saved one in anything but the iteration and epoch budgets.

Each default is written once.  A key that fills a field of a library config
object (``SyntheticTaskSpec``, ``TrainConfig``, ``RewardConfig``,
``ClassifierConfig``) takes that field's default and shares its name, unless
``RENAMED`` names the field; ``seed`` fills three of them.  Only the keys
that feed function parameters (model sizes, vocabulary and lexicon
settings) and the two paths are written out in ``DEFAULTS``.
A config file's values must have their defaults' JSON types.
"""

from __future__ import annotations

import os

# BLAS thread cap; must be set before numpy loads.  Default 1 keeps CLI runs
# strictly deterministic across machines with different core counts.  It caps
# BLAS threads only: seq2seq's inference always runs as two halves on two
# threads, whatever this is set to.
_threads = os.environ.get("DUALSTYLE_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import dualrl, pseudo
from .checkpoint import write_atomic
from .classifier import ClassifierConfig, TextClassifier, train_classifier
from .corpus import (
    RESERVED_TOKENS,
    StyleLabel,
    SyntheticTaskSpec,
    Vocabulary,
    build_vocab,
    generate_synthetic,
    load_corpus,
    load_references,
    read_sentences,
    save_corpus,
    save_references,
)
from .dualrl import TrainConfig, train
from .errors import DualStyleError, EmptySequenceError
from .evaluation import evaluate
from .rewards import RewardConfig
from .seq2seq import Seq2Seq

# Config keys named otherwise than the field they fill: (config object, field) -> key.
RENAMED = {
    (ClassifierConfig, "embed_dim"): "cls_embed_dim",
    (ClassifierConfig, "channels"): "cls_channels",
    (ClassifierConfig, "epochs"): "cls_epochs",
}

# Fields that no config key fills: the nested config.
UNKEYED = {(TrainConfig, "reward")}


def _keys(cls) -> dict[str, str]:
    """Config key -> field name for each field of ``cls`` that a key fills."""
    return {RENAMED.get((cls, f.name), f.name): f.name for f in fields(cls)
            if (cls, f.name) not in UNKEYED}


def _build(cls, cfg: dict, **nested):
    """``cls`` with every keyed field taken from ``cfg``."""
    return cls(**nested, **{field: cfg[key] for key, field in _keys(cls).items()})


DEFAULTS: dict = {
    **{key: getattr(default, field)
       for default in (SyntheticTaskSpec(), TrainConfig(), RewardConfig(), ClassifierConfig())
       for key, field in _keys(type(default)).items()},
    # keys that feed Seq2Seq, build_vocab and build_style_lexicon
    "embed_dim": 300,
    "hidden_dim": 256,
    "min_count": 1,
    "salience_lambda": 1.0,
    "salience_gamma": 5.0,
    # paths
    "data_dir": "data",
    "run_dir": "runs/default",
}

# Desk-scale preset for the default synthetic task.  The published-scale
# schedule (dual_lr, anneal gap) assumes tens of thousands of iterations;
# this preset compresses it proportionally so a full run fits in CPU minutes,
# and raises the salience threshold so a slice of style words stays below the
# template lexicon (implicit style that only the reward loop can fix).
DESK_PRESET: dict = {
    "dual_lr": 1e-3,
    "anneal_gap": 20.0,
    "max_dual_epochs": 10,
    "max_iterations": 160,
    "sample_size": 2,
    "salience_gamma": 230.0,
    "cls_epochs": 6,
}

PRESETS = {"desk": DESK_PRESET}

# The types a config-file value may take, by the type of its key's default.
# No key takes a bool; the one None default, max_iterations, means "no cap".
FILE_TYPES = {int: (int,), float: (int, float), str: (str,), type(None): (int, type(None))}

# The only config keys a resumed run may change: its budgets.
RESUME_MUTABLE = ("max_dual_epochs", "max_iterations")


def resolve_config(config_path=None, preset: str | None = None,
                   overrides: dict | None = None) -> dict:
    cfg = dict(DEFAULTS)
    if preset:
        if preset not in PRESETS:
            raise DualStyleError(f"unknown preset {preset!r}")
        cfg.update(PRESETS[preset])
    if config_path:
        file_cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
        if not isinstance(file_cfg, dict):
            raise DualStyleError("a config file must hold a JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise DualStyleError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_cfg.items():
            allowed = FILE_TYPES[type(DEFAULTS[key])]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise DualStyleError(f"config key {key} takes "
                                     f"{' or '.join(t.__name__ for t in allowed)}, "
                                     f"not {type(value).__name__}: {value!r}")
        cfg.update(file_cfg)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    return cfg


def task_spec(cfg: dict) -> SyntheticTaskSpec:
    return _build(SyntheticTaskSpec, cfg)


def train_config(cfg: dict) -> TrainConfig:
    return _build(TrainConfig, cfg, reward=_build(RewardConfig, cfg))


def write_config(cfg: dict, run_dir) -> None:
    write_atomic(Path(run_dir) / "config.json",
                 [(json.dumps(cfg, sort_keys=True, indent=2) + "\n").encode("utf-8")])


def check_resume_config(cfg: dict, run_dir) -> None:
    """Refuse to resume a run under a config that differs from its saved one
    in any key outside ``RESUME_MUTABLE``."""
    saved = json.loads((Path(run_dir) / "config.json").read_text(encoding="utf-8"))
    changed = sorted(k for k in set(saved) | set(cfg)
                     if k not in RESUME_MUTABLE and saved.get(k) != cfg.get(k))
    if changed:
        raise DualStyleError("cannot resume with a changed config: " + ", ".join(
            f"{k} {saved.get(k)!r} -> {cfg.get(k)!r}" for k in changed))


def save_vocab(vocab: Vocabulary, run_dir) -> None:
    tokens = vocab.id_to_token[len(RESERVED_TOKENS):]
    write_atomic(Path(run_dir) / "vocab.txt",
                 ["".join(t + "\n" for t in tokens).encode("utf-8")])


def load_vocab(run_dir) -> Vocabulary:
    path = Path(run_dir) / "vocab.txt"
    return Vocabulary(path.read_text(encoding="utf-8").splitlines())


def get_vocab(cfg: dict, run_dir, corpus) -> Vocabulary:
    path = Path(run_dir) / "vocab.txt"
    if path.exists():
        return load_vocab(run_dir)
    vocab = build_vocab(corpus.all_train(), min_count=cfg["min_count"])
    save_vocab(vocab, run_dir)
    return vocab


def _log(**kv) -> None:
    print(" ".join(f"{k}={v}" for k, v in kv.items()))


# ---------------------------------------------------------------------------
# command implementations (cmd_transfer and cmd_evaluate return their results)
# ---------------------------------------------------------------------------

def cmd_synth(cfg: dict) -> None:
    spec = task_spec(cfg)
    corpus, gold = generate_synthetic(spec)
    data_dir = Path(cfg["data_dir"])
    save_corpus(corpus, data_dir)
    save_references(gold.refs, data_dir)
    (data_dir / "task.json").write_text(
        json.dumps(asdict(spec), sort_keys=True, indent=2) + "\n", encoding="utf-8")
    n_train = len(corpus.of(corpus.label_x, "train")) + len(corpus.of(corpus.label_y, "train"))
    _log(event="synth", kind=spec.kind, seed=spec.seed, data_dir=data_dir,
         train_sentences=n_train)


def cmd_pretrain_classifier(cfg: dict) -> None:
    cls_cfg = _build(ClassifierConfig, cfg)
    corpus = load_corpus(cfg["data_dir"], cfg["style_x"], cfg["style_y"])
    run_dir = Path(cfg["run_dir"])
    write_config(cfg, run_dir)
    vocab = get_vocab(cfg, run_dir, corpus)
    corpus = corpus.numericalize(vocab)
    clf, dev_acc = train_classifier(corpus, vocab, cls_cfg)
    clf.save(run_dir / "checkpoints" / "cls.ckpt")
    _log(event="pretrain_classifier", dev_acc=round(dev_acc, 4),
         ckpt=run_dir / "checkpoints" / "cls.ckpt")


def _build_models(cfg: dict, vocab: Vocabulary) -> tuple[Seq2Seq, Seq2Seq]:
    model_f = Seq2Seq(vocab, embed_dim=cfg["embed_dim"], hidden_dim=cfg["hidden_dim"],
                      direction="x2y", seed=[cfg["seed"], 1])
    model_g = Seq2Seq(vocab, embed_dim=cfg["embed_dim"], hidden_dim=cfg["hidden_dim"],
                      direction="y2x", seed=[cfg["seed"], 2])
    return model_f, model_g


def cmd_pretrain(cfg: dict) -> None:
    tc = train_config(cfg)
    corpus = load_corpus(cfg["data_dir"], cfg["style_x"], cfg["style_y"])
    run_dir = Path(cfg["run_dir"])
    write_config(cfg, run_dir)
    vocab = get_vocab(cfg, run_dir, corpus)
    num = corpus.numericalize(vocab)
    lex = pseudo.build_style_lexicon(corpus, lam=cfg["salience_lambda"],
                                     gamma=cfg["salience_gamma"])
    pairs_f, pairs_g = pseudo.make_pretrain_pairs(num, lex, vocab)
    dev_f, dev_g = pseudo.make_pretrain_pairs(num, lex, vocab, split="dev")
    model_f, model_g = _build_models(cfg, vocab)
    report = dualrl.pretrain(model_f, model_g, pairs_f, pairs_g, tc,
                             dev_pairs_f=dev_f, dev_pairs_g=dev_g)
    ck = run_dir / "checkpoints"
    model_f.save(ck / "f_pre.ckpt")
    model_g.save(ck / "g_pre.ckpt")
    for direction, r in report.items():
        _log(event="pretrain", direction=direction,
             ppl_before=r["ppl_before"], ppl_after=r["ppl_after"])


def cmd_train(cfg: dict, resume: bool = False) -> None:
    tc = train_config(cfg)
    corpus = load_corpus(cfg["data_dir"], cfg["style_x"], cfg["style_y"])
    gold_refs = _load_gold_refs(cfg, corpus)
    run_dir = Path(cfg["run_dir"])
    if resume:
        check_resume_config(cfg, run_dir)
    write_config(cfg, run_dir)
    vocab = get_vocab(cfg, run_dir, corpus)
    num = corpus.numericalize(vocab)
    ck = run_dir / "checkpoints"
    clf = TextClassifier.load(ck / "cls.ckpt", vocab)
    clf.freeze()
    model_f = Seq2Seq.load(ck / "f_pre.ckpt", vocab)
    model_g = Seq2Seq.load(ck / "g_pre.ckpt", vocab)
    result = train(model_f, model_g, clf, num, tc, run_dir=run_dir,
                   gold_refs=gold_refs, resume=resume)
    best = next((row for row in result.history
                 if row["epoch"] == result.state.best_epoch), {})
    _log(event="train", ablation=tc.ablation, epochs=len(result.history),
         iterations=result.state.iteration,
         best_epoch=result.state.best_epoch,
         dev_score=best.get("dev_score"), dev_acc=best.get("dev_acc"),
         dev_gold_bleu=best.get("dev_gold_bleu"))


def _load_gold_refs(cfg: dict, corpus) -> dict | None:
    refs = {}
    for label in corpus.labels():
        for split in ("dev", "test"):
            per_line = load_references(cfg["data_dir"], label.name, split)
            if per_line:
                refs[(label.name, split)] = per_line
    return refs or None


def cmd_transfer(cfg: dict, direction: str, in_path, out_path,
                 checkpoint: str = "best") -> dict:
    run_dir = Path(cfg["run_dir"])
    vocab = load_vocab(run_dir)
    tag = "f" if direction == "x2y" else "g"
    model = Seq2Seq.load(run_dir / "checkpoints" / f"{tag}_{checkpoint}.ckpt", vocab)
    sentences = [vocab.to_ids(s) for s in read_sentences(in_path)]
    if not sentences:
        raise EmptySequenceError(f"{in_path}: no sentences")
    outputs = model.greedy_decode_batch(sentences, max_len=cfg["max_decode_len"])
    Path(out_path).write_text(
        "".join(o.text() + "\n" for o in outputs), encoding="utf-8")
    _log(event="transfer", direction=direction, lines=len(sentences), out=out_path)
    return {"outputs": outputs}


def cmd_evaluate(cfg: dict, outputs_path, reference_paths, target_style: str,
                 inputs_path=None, report_dir=None) -> dict:
    styles = (cfg["style_x"], cfg["style_y"])
    if target_style not in styles:
        raise DualStyleError(f"unknown target style {target_style!r}: "
                             f"expected {styles[0]!r} or {styles[1]!r}")
    target = StyleLabel(styles.index(target_style), target_style)
    run_dir = Path(cfg["run_dir"])
    vocab = load_vocab(run_dir)
    clf = TextClassifier.load(run_dir / "checkpoints" / "cls.ckpt", vocab)
    report = evaluate(outputs_path, reference_paths, clf, target,
                      report_dir=report_dir, inputs_path=inputs_path)
    _log(event="evaluate", acc=round(report.acc, 1), bleu=round(report.bleu, 1),
         g2=round(report.g2, 1), h2=round(report.h2, 1),
         n=report.n_sentences)
    return {"report": report}


def cmd_ablate(cfg: dict, mode: str) -> None:
    """Dual training under ``mode`` in ``<run_dir>/ablate_<mode>``, from copies
    of the run's classifier, warm start and vocabulary, so that the run's own
    checkpoints and events stay as they are."""
    sub = dict(cfg)
    sub["ablation"] = mode
    sub["run_dir"] = str(Path(cfg["run_dir"]) / f"ablate_{mode}")
    base_ck = Path(cfg["run_dir"]) / "checkpoints"
    sub_ck = Path(sub["run_dir"]) / "checkpoints"
    sub_ck.mkdir(parents=True, exist_ok=True)
    for name in ("cls.ckpt", "f_pre.ckpt", "g_pre.ckpt"):
        (sub_ck / name).write_bytes((base_ck / name).read_bytes())
    (Path(sub["run_dir"]) / "vocab.txt").write_bytes(
        (Path(cfg["run_dir"]) / "vocab.txt").read_bytes())
    cmd_train(sub)
    _log(event="ablate", mode=mode, run_dir=sub["run_dir"])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--preset", default=None, choices=sorted(PRESETS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--data-dir", dest="data_dir", default=None)
    p.add_argument("--run-dir", dest="run_dir", default=None)


def _overrides(args: argparse.Namespace) -> dict:
    """The parsed arguments that name config keys."""
    return {k: v for k, v in vars(args).items() if k in DEFAULTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualstyle",
        description="Dual-model unsupervised text style transfer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic style-transfer corpus")
    _add_common(p)
    p.add_argument("--kind", default=None,
                   choices=["lexicon_swap", "casing", "marker"])
    p.set_defaults(func=lambda cfg, args: cmd_synth(cfg))

    p = sub.add_parser("pretrain-classifier", help="train and freeze the style classifier")
    _add_common(p)
    p.set_defaults(func=lambda cfg, args: cmd_pretrain_classifier(cfg))

    p = sub.add_parser("pretrain", help="warm-start both transfer models on template pairs")
    _add_common(p)
    p.set_defaults(func=lambda cfg, args: cmd_pretrain(cfg))

    p = sub.add_parser("train", help="run dual training")
    _add_common(p)
    p.add_argument("--max-iterations", dest="max_iterations", type=int, default=None)
    p.add_argument("--resume", action="store_true")
    p.set_defaults(func=lambda cfg, args: cmd_train(cfg, resume=args.resume))

    p = sub.add_parser("transfer", help="greedy-transfer a file of sentences")
    _add_common(p)
    p.add_argument("--direction", required=True, choices=["x2y", "y2x"])
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)
    p.add_argument("--checkpoint", default="best", choices=["best", "last", "pre"])
    p.set_defaults(func=lambda cfg, args: cmd_transfer(
        cfg, args.direction, args.in_path, args.out_path, args.checkpoint))

    p = sub.add_parser("evaluate", help="score transferred outputs against references")
    _add_common(p)
    p.add_argument("--outputs", required=True)
    p.add_argument("--refs", required=True, help="comma-separated reference files")
    p.add_argument("--target-style", dest="target_style", required=True)
    p.add_argument("--inputs", default=None)
    p.add_argument("--report-dir", dest="report_dir", default=None)
    p.set_defaults(func=lambda cfg, args: cmd_evaluate(
        cfg, args.outputs, args.refs.split(","), args.target_style,
        inputs_path=args.inputs, report_dir=args.report_dir))

    p = sub.add_parser("ablate", help="dual training with one component removed")
    _add_common(p)
    p.add_argument("--mode", required=True, choices=list(dualrl.ABLATIONS))
    p.set_defaults(func=lambda cfg, args: cmd_ablate(cfg, args.mode))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args.config, args.preset, _overrides(args))
        args.func(cfg, args)
    except (DualStyleError, OSError, ValueError) as exc:
        print(f"error={exc.__class__.__name__} detail={exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
