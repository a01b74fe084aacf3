"""In-memory span tracer over the public functions of the dualstyle layers.

A span is (name, start, end, parent).  Layer spans wrap public module
functions and methods; op spans wrap the fused autodiff primitives, and the
backward rule (``vjp``) of every taped node an op returns is wrapped too, so
backward time is attributed to the op that recorded the node.

Modules bind several functions with ``from ... import``, so a name is
patched in every loaded ``dualstyle`` module that holds it, not only where it
is defined; otherwise calls through those bindings would leave spans empty.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

MARK = "_perfbench_span"

# (module, attribute path) for every traced public entry point.
LAYER_TARGETS = (
    ("corpus", "pad_batch"),
    ("autodiff", "backward"),
    ("seq2seq", "Seq2Seq.sample_batch"),
    ("seq2seq", "Seq2Seq.greedy_decode_batch"),
    ("seq2seq", "Seq2Seq.log_prob_batch"),
    ("seq2seq", "Seq2Seq.clone"),
    ("seq2seq", "Seq2Seq.mle_step"),
    ("classifier", "train_classifier"),
    ("classifier", "TextClassifier.train_batch"),
    ("classifier", "TextClassifier.classify_prob_batch"),
    ("rewards", "combined_rewards"),
    ("rewards", "content_reward_batch"),
    ("rewards", "style_reward_batch"),
    ("pseudo", "build_style_lexicon"),
    ("pseudo", "make_pretrain_pairs"),
    ("pseudo", "back_translate_batch"),
    ("dualrl", "train"),
    ("dualrl", "rl_step"),
    ("dualrl", "reinforce_gradient"),
    ("dualrl", "teacher_forcing_step"),
    ("dualrl", "evaluate_dev"),
    ("optim", "adam_step"),
    ("optim", "clip_global_norm"),
    ("evaluation", "evaluate"),
    ("evaluation", "evaluate_sentences"),
    ("evaluation", "corpus_bleu"),
    ("evaluation", "sentence_bleu_smoothed"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("cli", "cmd_transfer"),
    ("cli", "cmd_evaluate"),
)

OPS = ("lstm_cell", "bilinear_attention", "affine", "tanh_affine",
       "cross_entropy", "embedding", "conv1d")

PER_LAYER_METRICS = (
    [(f"autodiff.{op}.{d}_s", "s") for op in OPS for d in ("fwd", "bwd")]
    + [
        ("autodiff.backward.s", "s"),
        ("autodiff.backward.calls", "count"),
        ("autodiff.tape_nodes", "count"),
        ("seq2seq.sample_batch.s", "s"),
        ("seq2seq.sample_batch.tokens", "count"),
        ("seq2seq.sample_batch.mean_len", "tokens"),
        ("seq2seq.log_prob_batch.s", "s"),
        ("seq2seq.clone.s", "s"),
        ("seq2seq.greedy_decode_batch.s", "s"),
        ("seq2seq.greedy_decode_batch.tokens", "count"),
        ("seq2seq.greedy_decode_batch.mean_len", "tokens"),
        ("seq2seq.decode_steps", "count"),
        ("seq2seq.mle_step.s_p50", "s"),
        ("seq2seq.mle_step.s_p90", "s"),
        ("rewards.combined_rewards.s", "s"),
        ("rewards.content_reward_batch.s", "s"),
        ("rewards.style_reward_batch.s", "s"),
        ("rewards.valid_ratio", "ratio"),
        ("dualrl.rl_step.s_p50", "s"),
        ("dualrl.rl_step.s_p90", "s"),
        ("dualrl.reinforce_gradient.self_s", "s"),
        ("dualrl.teacher_forcing_step.s", "s"),
        ("dualrl.tf_triggers", "count"),
        ("dualrl.evaluate_dev.s", "s"),
        ("optim.adam_step.s", "s"),
        ("optim.clip_global_norm.s", "s"),
        ("classifier.train_batch.s", "s"),
        ("classifier.classify_prob_batch.s", "s"),
        ("classifier.classify_prob_batch.rows", "count"),
        ("pseudo.back_translate_batch.s", "s"),
        ("pseudo.build_style_lexicon.s", "s"),
        ("pseudo.make_pretrain_pairs.s", "s"),
        ("corpus.pad_batch.s", "s"),
        ("evaluation.corpus_bleu.s", "s"),
        ("evaluation.evaluate_sentences.s", "s"),
        ("evaluation.sentence_bleu_smoothed.s", "s"),
        ("checkpoint.save_checkpoint.s", "s"),
        ("checkpoint.save_checkpoint.bytes", "bytes"),
        ("checkpoint.load_checkpoint.s", "s"),
        ("cli.cmd_transfer.s", "s"),
        ("cli.cmd_evaluate.s", "s"),
        ("trace.overhead_share", "ratio"),
        ("trace.unattributed_s", "s"),
    ]
)


def _sites(short: str, path: str):
    """Every (owner, attribute) through which callers reach a target."""
    owner = importlib.import_module(f"dualstyle.{short}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if len(parts) > 1:
        return [(owner, attr)]  # a method: looked up on its class only
    target = getattr(owner, attr)
    target = getattr(target, "__wrapped__", target)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if name == "dualstyle" or not name.startswith("dualstyle."):
            continue
        for key, value in vars(mod).items():
            if value is target or getattr(value, "__wrapped__", None) is target:
                sites.append((mod, key))
    return sites


def installed_wrappers() -> list[str]:
    """Names of traced targets that currently resolve to a tracer wrapper."""
    found = []
    for short, path in LAYER_TARGETS + tuple(("autodiff", op) for op in OPS):
        for owner, attr in _sites(short, path):
            if hasattr(getattr(owner, attr), MARK):
                found.append(f"{owner.__name__}.{attr}")
    return found


def _count_decode(tracer, name, out, args):
    rows = len(out)
    tokens = sum(len(s.ids) for s in out)
    tracer.counts[f"{name}.rows"] += rows
    tracer.counts[f"{name}.tokens"] += tokens
    # the decode loop runs until the longest row has ended
    tracer.counts["seq2seq.decode_steps"] += max((len(s.ids) for s in out), default=0)


def _count_sample(tracer, name, out, args):
    _count_decode(tracer, name, out[0], args)


def _count_valid(tracer, name, out, args):
    samples = args[2]
    tracer.counts["rewards.samples"] += len(samples)
    tracer.counts["rewards.valid"] += sum(1 for s in samples if len(s.surface) > 0)


def _count_rows(tracer, name, out, args):
    tracer.counts[f"{name}.rows"] += len(out)


def _count_tape(tracer, name, out, args):
    tracer.counts["autodiff.tape_nodes.total"] += len(args[0].nodes)


def _count_bytes(tracer, name, out, args):
    tracer.counts[f"{name}.bytes"] += os.path.getsize(args[0])


COUNTERS = {
    "seq2seq.sample_batch": _count_sample,
    "seq2seq.greedy_decode_batch": _count_decode,
    "rewards.combined_rewards": _count_valid,
    "classifier.classify_prob_batch": _count_rows,
    "autodiff.backward": _count_tape,
    "checkpoint.save_checkpoint": _count_bytes,
}


class Tracer:
    """Records spans while ``active``; wrappers stay inert otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, is_op]
        self.counts: dict[str, float] = defaultdict(float)
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, is_op: bool) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, is_op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name, False)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, is_op: bool = False, counter=None,
              wrap_vjp: bool = False):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name, is_op)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, name, out, args)
            if wrap_vjp and out.vjp is not None:
                out.vjp = tracer._wrap(f"{name}.bwd", out.vjp, is_op=True)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, MARK, name)
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        targets = [(s, p, False) for s, p in LAYER_TARGETS]
        targets += [("autodiff", op, True) for op in OPS]
        for short, path, is_op in targets:
            name = f"{short}.{path.split('.')[-1]}"
            for owner, attr in _sites(short, path):
                original = getattr(owner, attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, is_op,
                                                COUNTERS.get(name), wrap_vjp=is_op))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reporting -------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_time(self, name: str, subtract_ops: bool = True) -> float:
        """Summed duration of ``name`` spans minus what their children cover.

        With ``subtract_ops=False`` only child layer spans are subtracted, so
        a layer keeps the autodiff work it issues directly, such as the taped
        re-forward in ``reinforce_gradient``.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, is_op in self.spans:
            if parent >= 0 and (subtract_ops or not is_op):
                child_time[parent] += end - start
        return float(sum(s[2] - s[1] - child_time[i]
                         for i, s in enumerate(self.spans) if s[0] == name))

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def per_layer(self, root: str, overhead_share: float) -> dict[str, float]:
        """Every per-layer metric; a layer the run never reached reads 0."""
        out = {metric: 0.0 for metric, _unit in PER_LAYER_METRICS}
        for metric, unit in PER_LAYER_METRICS:
            if unit == "s" and metric.endswith(".s"):
                out[metric] = self.total(metric[:-2])
        for op in OPS:
            out[f"autodiff.{op}.fwd_s"] = self.total(f"autodiff.{op}")
            out[f"autodiff.{op}.bwd_s"] = self.total(f"autodiff.{op}.bwd")
        backward_calls = len(self.durations("autodiff.backward"))
        out["autodiff.backward.calls"] = float(backward_calls)
        if backward_calls:
            out["autodiff.tape_nodes"] = self.counts["autodiff.tape_nodes.total"] / backward_calls
        for name in ("seq2seq.sample_batch", "seq2seq.greedy_decode_batch"):
            out[f"{name}.tokens"] = self.counts[f"{name}.tokens"]
            if self.counts[f"{name}.rows"]:
                out[f"{name}.mean_len"] = (self.counts[f"{name}.tokens"]
                                           / self.counts[f"{name}.rows"])
        out["seq2seq.decode_steps"] = self.counts["seq2seq.decode_steps"]
        for name in ("seq2seq.mle_step", "dualrl.rl_step"):
            d = self.durations(name)
            if d:
                out[f"{name}.s_p50"] = float(np.percentile(d, 50))
                out[f"{name}.s_p90"] = float(np.percentile(d, 90))
        if self.counts["rewards.samples"]:
            out["rewards.valid_ratio"] = self.counts["rewards.valid"] / self.counts["rewards.samples"]
        out["dualrl.reinforce_gradient.self_s"] = self.self_time(
            "dualrl.reinforce_gradient", subtract_ops=False)
        out["dualrl.tf_triggers"] = float(len(self.durations("dualrl.teacher_forcing_step")))
        out["classifier.classify_prob_batch.rows"] = self.counts["classifier.classify_prob_batch.rows"]
        out["checkpoint.save_checkpoint.bytes"] = self.counts["checkpoint.save_checkpoint.bytes"]
        out["trace.overhead_share"] = overhead_share
        out["trace.unattributed_s"] = self.self_time(root)
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, is_op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": is_op}) + "\n")
