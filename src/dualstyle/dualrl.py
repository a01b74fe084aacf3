"""Dual training engine: warm-up pre-training, alternating policy-gradient
updates on the two mapping models, and annealed pseudo teacher forcing.

Each iteration trains the x->y model on a style-x batch (sampled transfers
scored by the frozen classifier and by the opposite model's reconstruction
probability), optionally consolidates it with one MLE step on back-translated
pairs, then does the mirrored pair of updates for the y->x model.  A
policy-gradient step is three plain calls: ``sample_batch``, then
``combined_rewards``, then ``reinforce_gradient`` on the samples and rewards.

A run directory keeps each thing once.  The best models live only in
``f_best.ckpt``/``g_best.ckpt``.  The history lives only in one append-only
record, ``events.jsonl``: a JSON line per RL iteration (the two directions'
mean rewards) and per epoch (the ``TrainResult.history`` row).  The ``last``
checkpoint's ``state.json`` stores the record's length, so a resume cuts the
record back to that length; a straight and a resumed run both read their
history back from its epoch lines.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .classifier import TextClassifier
from .corpus import Sentence, StyleCorpus, StyleLabel, pad_batch
from .evaluation import corpus_bleu, g2h2, style_accuracy
from .optim import AdamState, adam_step, clip_global_norm
from .pseudo import PseudoPair, back_translate_batch
from .rewards import RewardConfig, combined_rewards, distinct_pairs
from .seq2seq import Seq2Seq

ABLATIONS = ("rl_plus_mle", "rl_only", "mle_only")


@dataclass
class AnnealSchedule:
    """Exponential growth of the teacher-forcing interval, capped."""

    p0: float = 1.0
    p_max: float = 100.0
    rate: float = 1.1
    gap: float = 1000.0

    def __post_init__(self):
        if self.rate <= 1.0:
            raise ValueError("rate must exceed 1")
        if self.p0 > self.p_max:
            raise ValueError("p0 must not exceed p_max")


def anneal_interval(iteration: int, schedule: AnnealSchedule) -> float:
    """Interval p at a given iteration: min(p0 * rate^(i/gap), p_max)."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    exponent = (iteration / schedule.gap) * math.log(schedule.rate)
    if exponent >= math.log(schedule.p_max / schedule.p0):
        return schedule.p_max
    return schedule.p0 * math.exp(exponent)


@dataclass
class TrainConfig:
    pretrain_epochs: int = 5
    max_dual_epochs: int = 20
    max_iterations: int | None = None
    pretrain_lr: float = 1e-3
    dual_lr: float = 1e-5
    pretrain_batch: int = 32
    dual_batch: int = 128
    reward: RewardConfig = field(default_factory=RewardConfig)
    schedule: AnnealSchedule = field(default_factory=AnnealSchedule)
    ablation: str = "rl_plus_mle"
    patience: int = 1
    grad_clip: float = 5.0
    temperature: float = 1.0
    max_decode_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        if min(self.pretrain_lr, self.dual_lr) <= 0:
            raise ValueError("learning rates must be positive")


@dataclass
class TrainState:
    iteration: int = 0
    epoch: int = 0
    interval: float = 1.0
    last_trigger: dict = field(default_factory=dict)
    degenerate_count: int = 0
    best_score: float = -math.inf
    best_epoch: int = -1
    epochs_since_improvement: int = 0
    events_bytes: int = 0


def should_teacher_force(state: TrainState, direction: str) -> bool:
    """Spacing rule: trigger once the gap since the last trigger reaches p.

    Well-defined for fractional p and equal to the modulo rule for integer p
    starting from p0 = 1.  Updates the trigger bookkeeping when firing.
    """
    last = state.last_trigger.get(direction)
    if last is None or state.iteration - last >= state.interval:
        state.last_trigger[direction] = state.iteration
        return True
    return False


# ---------------------------------------------------------------------------
# policy gradient
# ---------------------------------------------------------------------------

def reinforce_gradient(policy: Seq2Seq, sources: list[Sentence],
                       samples: list[Sentence], rewards: np.ndarray,
                       ) -> tuple[dict[str, np.ndarray], int]:
    """Sampled estimate of the gradient of expected reward, as parameter grads.

    ``samples`` holds k = len(samples) // len(sources) samples per source,
    source major, and ``rewards`` one reward per sample.  Subtracts the
    leave-one-out baseline (for k > 1; at k = 1 the advantage is the reward
    itself) and backpropagates (1/(B*k)) * sum advantage * log-prob.  Empty
    samples keep their gradient term with reward 0 but are excluded from the
    baseline means, so the estimator stays unbiased.

    A source group whose k advantages are all zero adds exactly nothing to
    that sum (for k > 1, any group of k equal rewards),
    so only the other groups are taped; with none left the gradient is an
    exact zero array per parameter.  Returns the gradients and the number of
    taped groups.
    """
    batch = len(sources)
    k = len(samples) // batch
    valid = np.array([len(s.surface) > 0 for s in samples], dtype=np.float64)
    rewards = np.asarray(rewards, dtype=np.float64) * valid
    r_mat = rewards.reshape(batch, k)
    v_mat = valid.reshape(batch, k)
    if k > 1:
        # pairwise-difference form of R_k - mean(others): exactly zero when
        # all rewards in a group agree
        diffs = (r_mat[:, :, None] - r_mat[:, None, :]) * v_mat[:, None, :]
        others_cnt = v_mat.sum(axis=1, keepdims=True) - v_mat
        advantage = np.where(others_cnt > 0,
                             diffs.sum(axis=2) / np.maximum(others_cnt, 1.0),
                             r_mat)
    else:
        advantage = r_mat
    advantage = advantage.reshape(-1)

    weights = advantage / (batch * k)
    groups, rows = taped_groups(weights, k)
    if groups.size:
        src_ids, src_mask = pad_batch([sources[i].ids for i in groups])
        tgt_ids, tgt_mask = pad_batch([samples[i].ids for i in rows])
        _, grads = policy.taped_gradients(lambda model: model._teacher_forced_nll(
            src_ids, src_mask, tgt_ids, tgt_mask, row_weights=weights[rows],
            source_repeat=k))
    else:
        grads = {name: np.zeros_like(p.value) for name, p in policy.params.items()}
    return grads, int(groups.size)


def taped_groups(weights: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The source groups (k consecutive rows each) with a non-zero weight,
    and the indices of their rows."""
    groups = np.flatnonzero(weights.reshape(-1, k).any(axis=1))
    return groups, (groups[:, None] * k + np.arange(k)).reshape(-1)


def rl_step(policy: Seq2Seq, opposite_snapshot: Seq2Seq, clf: TextClassifier,
            batch: list[Sentence], target: StyleLabel, cfg: TrainConfig,
            opt: AdamState, rng: np.random.Generator) -> dict:
    """One policy-gradient update for one direction: sample k transfers per
    source, score them, and take one clipped Adam step on their gradient.

    Returns the mean rewards, the degenerate (empty) sample count, the gradient
    norm before clipping, ``taped_groups`` and ``distinct_pairs``.
    """
    k = cfg.reward.sample_size
    samples, _ = policy.sample_batch(batch, k, rng, cfg.max_decode_len, cfg.temperature)
    sources_rep = [batch[i // k] for i in range(len(samples))]
    r_style, r_content, r_total = combined_rewards(
        clf, opposite_snapshot, samples, sources_rep, target, cfg.reward)
    grads, groups = reinforce_gradient(policy, batch, samples, r_total)
    grad_norm = clip_global_norm(grads, cfg.grad_clip)
    adam_step(policy.params, grads, opt)
    return {
        "mean_r_style": float(np.mean(r_style)),
        "mean_r_content": float(np.mean(r_content)),
        "mean_r_total": float(np.mean(r_total)),
        "degenerate": sum(len(s.surface) == 0 for s in samples),
        "grad_norm": grad_norm,
        "taped_groups": groups,
        "distinct_pairs": len(distinct_pairs(samples, sources_rep)[0]),
    }


def teacher_forcing_step(model: Seq2Seq, opposite_live: Seq2Seq,
                         batch: list[Sentence], opt: AdamState,
                         cfg: TrainConfig) -> float:
    """Back-translate a batch with the live opposite model, then one MLE step.

    The pair's target side is always the authentic corpus sentence.
    """
    pairs = back_translate_batch(opposite_live, batch, cfg.max_decode_len)
    return model.mle_step(pairs, opt, cfg.grad_clip)


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

def pretrain(model_f: Seq2Seq, model_g: Seq2Seq,
             pairs_f: list[PseudoPair], pairs_g: list[PseudoPair],
             cfg: TrainConfig,
             dev_pairs_f: list[PseudoPair] | None = None,
             dev_pairs_g: list[PseudoPair] | None = None) -> dict:
    """MLE warm start of both models on their template pseudo pairs."""
    report = {}
    for name, model, pairs, dev_pairs, salt in (
        ("x2y", model_f, pairs_f, dev_pairs_f, 11),
        ("y2x", model_g, pairs_g, dev_pairs_g, 13),
    ):
        opt = AdamState(lr=cfg.pretrain_lr)
        rng = np.random.default_rng([cfg.seed, salt])
        ppl_before = math.exp(model.mean_nll(dev_pairs)) if dev_pairs else None
        for _ in range(cfg.pretrain_epochs):
            order = rng.permutation(len(pairs))
            for lo in range(0, len(order), cfg.pretrain_batch):
                chunk = [pairs[i] for i in order[lo: lo + cfg.pretrain_batch]]
                model.mle_step(chunk, opt, cfg.grad_clip)
        ppl_after = math.exp(model.mean_nll(dev_pairs)) if dev_pairs else None
        report[name] = {"ppl_before": ppl_before, "ppl_after": ppl_after}
    return report


# ---------------------------------------------------------------------------
# dev-set scoring
# ---------------------------------------------------------------------------

def evaluate_dev(model_f: Seq2Seq, model_g: Seq2Seq, clf: TextClassifier,
                 corpus: StyleCorpus, cfg: TrainConfig,
                 gold_refs: dict | None = None, split: str = "dev") -> dict:
    """Development score: harmonic mean of style accuracy and the
    references-free BLEU of outputs against their own inputs, averaged over
    the two directions.  Gold-reference numbers ride along when available."""
    out = {}
    for key, model, src_label, tgt_label in (
        ("x2y", model_f, corpus.label_x, corpus.label_y),
        ("y2x", model_g, corpus.label_y, corpus.label_x),
    ):
        inputs = corpus.of(src_label, split)
        outputs = model.greedy_decode_batch(inputs, max_len=cfg.max_decode_len)
        candidates = [o.surface for o in outputs]
        acc, _ = style_accuracy(outputs, clf, tgt_label)
        bleu_self = corpus_bleu(candidates, [[inp.surface] for inp in inputs])
        metrics = {"acc": acc, "bleu_self": bleu_self,
                   "score": g2h2(acc, bleu_self)[1]}
        refs = (gold_refs or {}).get((src_label.name, split))
        if refs is not None:
            bleu_gold = corpus_bleu(candidates, [[r.surface for r in rr] for rr in refs])
            metrics["bleu_gold"] = bleu_gold
            metrics["h2_gold"] = g2h2(acc, bleu_gold)[1]
        out[key] = metrics
    out["dev_acc"] = (out["x2y"]["acc"] + out["y2x"]["acc"]) / 2.0
    out["dev_bleu"] = (out["x2y"]["bleu_self"] + out["y2x"]["bleu_self"]) / 2.0
    out["dev_score"] = (out["x2y"]["score"] + out["y2x"]["score"]) / 2.0
    if "bleu_gold" in out["x2y"]:
        out["dev_gold_bleu"] = (out["x2y"]["bleu_gold"] + out["y2x"]["bleu_gold"]) / 2.0
        out["dev_gold_h2"] = (out["x2y"]["h2_gold"] + out["y2x"]["h2_gold"]) / 2.0
    return out


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

@dataclass
class TrainResult:
    model_f: Seq2Seq
    model_g: Seq2Seq
    state: TrainState
    history: list[dict]


def _epoch_batches(items: list, batch_size: int, seed_parts: list[int]) -> list[list]:
    rng = np.random.default_rng(seed_parts)
    order = rng.permutation(len(items))
    return [[items[i] for i in order[lo: lo + batch_size]]
            for lo in range(0, len(order), batch_size)]


def _history_row(state: TrainState, reward_sums: dict, n_rl: int, dev: dict) -> dict:
    row = {
        "iteration": state.iteration,
        "epoch": state.epoch,
        "mean_r_style": reward_sums["r_style"] / n_rl if n_rl else None,
        "mean_r_content": reward_sums["r_content"] / n_rl if n_rl else None,
        "mean_r_total": reward_sums["r_total"] / n_rl if n_rl else None,
        "dev_acc": dev["dev_acc"],
        "dev_bleu": dev["dev_bleu"],
        "dev_score": dev["dev_score"],
        "dev_gold_bleu": dev.get("dev_gold_bleu"),
        "dev_gold_h2": dev.get("dev_gold_h2"),
    }
    return row


def _append_event(path: Path, event: dict) -> int:
    """Append one line to the run's event record and flush it to disk.

    Returns the record's length in bytes.
    """
    with open(path, "ab") as fh:
        fh.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())
        return fh.tell()


def _save_models(run_dir: Path, tag: str, model_f: Seq2Seq, model_g: Seq2Seq) -> None:
    model_f.save(run_dir / "checkpoints" / f"f_{tag}.ckpt")
    model_g.save(run_dir / "checkpoints" / f"g_{tag}.ckpt")


def save_train_state(run_dir, state: TrainState) -> None:
    payload = json.dumps(asdict(state), sort_keys=True)
    write_atomic(Path(run_dir) / "checkpoints" / "state.json", [payload.encode("utf-8")])


def load_train_state(run_dir) -> TrainState:
    payload = json.loads((Path(run_dir) / "checkpoints" / "state.json").read_text())
    return TrainState(**payload)


def train(model_f: Seq2Seq, model_g: Seq2Seq, clf: TextClassifier,
          corpus: StyleCorpus, cfg: TrainConfig, run_dir,
          gold_refs: dict | None = None, resume: bool = False) -> TrainResult:
    """Alternating dual training of ``model_f`` and ``model_g`` in place.

    Per iteration: policy-gradient update for the x->y model on a style-x
    batch, conditional teacher forcing for it on back-translated style-y
    sentences, then the mirrored updates for the y->x model.  Dev score is
    evaluated once per epoch; training stops at the iteration/epoch budget or
    once the score has not improved for ``patience`` epochs, whichever comes
    first.  The models passed in come back holding the best weights, read
    from ``f_best.ckpt``/``g_best.ckpt``, or as trained if no epoch ran.  The
    history is the epoch lines of ``events.jsonl`` without their ``"event"``.
    """
    if not clf.frozen:
        raise RuntimeError("classifier must be frozen before dual training")
    train_x = corpus.of(corpus.label_x, "train")
    train_y = corpus.of(corpus.label_y, "train")
    iters_per_epoch = max(1, math.ceil(len(train_x) / cfg.dual_batch))
    max_iters = cfg.max_iterations
    if max_iters is None:
        max_iters = cfg.max_dual_epochs * iters_per_epoch

    opt_f = AdamState(lr=cfg.dual_lr)
    opt_g = AdamState(lr=cfg.dual_lr)
    state = TrainState()
    start_epoch = 0
    run_dir = Path(run_dir)
    events = run_dir / "events.jsonl"
    ck = run_dir / "checkpoints"
    if resume:
        model_f.load_state_dict(load_checkpoint(ck / "f_last.ckpt")[0])
        model_g.load_state_dict(load_checkpoint(ck / "g_last.ckpt")[0])
        arrays, meta = load_checkpoint(ck / "opt_f_last.ckpt")
        opt_f.load_state_arrays(arrays, meta["t"])
        arrays, meta = load_checkpoint(ck / "opt_g_last.ckpt")
        opt_g.load_state_arrays(arrays, meta["t"])
        state = load_train_state(run_dir)
        start_epoch = state.epoch
        # lines past the checkpoint were written by iterations that rerun
        os.truncate(events, state.events_bytes)
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        events.write_bytes(b"")

    rl_on = cfg.ablation in ("rl_plus_mle", "rl_only")
    mle_on = cfg.ablation in ("rl_plus_mle", "mle_only")

    for epoch in range(start_epoch, cfg.max_dual_epochs):
        if state.iteration >= max_iters:
            break
        state.epoch = epoch
        rl_x = _epoch_batches(train_x, cfg.dual_batch, [cfg.seed, 21, epoch])
        rl_y = _epoch_batches(train_y, cfg.dual_batch, [cfg.seed, 22, epoch])
        tf_y = _epoch_batches(train_y, cfg.dual_batch, [cfg.seed, 23, epoch])
        tf_x = _epoch_batches(train_x, cfg.dual_batch, [cfg.seed, 24, epoch])
        rng = np.random.default_rng([cfg.seed, 25, epoch])

        reward_sums = {"r_style": 0.0, "r_content": 0.0, "r_total": 0.0}
        n_rl = 0
        for it in range(iters_per_epoch):
            if state.iteration >= max_iters:
                break
            state.interval = anneal_interval(state.iteration, cfg.schedule)
            stats_f = stats_g = None

            if rl_on:
                f_snap = model_f.clone()
                stats_f = rl_step(model_f, model_g, clf, rl_x[it % len(rl_x)],
                                  corpus.label_y, cfg, opt_f, rng)
            if mle_on and should_teacher_force(state, "x2y"):
                teacher_forcing_step(model_f, model_g, tf_y[it % len(tf_y)], opt_f, cfg)

            if rl_on:
                stats_g = rl_step(model_g, f_snap, clf, rl_y[it % len(rl_y)],
                                  corpus.label_x, cfg, opt_g, rng)
            if mle_on and should_teacher_force(state, "y2x"):
                teacher_forcing_step(model_g, model_f, tf_x[it % len(tf_x)], opt_g, cfg)

            if rl_on:
                event = {"event": "iteration", "iteration": state.iteration}
                for key in ("r_style", "r_content", "r_total"):
                    mean_f, mean_g = stats_f[f"mean_{key}"], stats_g[f"mean_{key}"]
                    # one direction at a time, as the epoch means always summed
                    reward_sums[key] += mean_f
                    reward_sums[key] += mean_g
                    event[f"mean_{key}"] = (mean_f + mean_g) / 2
                state.degenerate_count += stats_f["degenerate"] + stats_g["degenerate"]
                n_rl += 2
                _append_event(events, event)
            state.iteration += 1

        dev = evaluate_dev(model_f, model_g, clf, corpus, cfg, gold_refs)
        row = _history_row(state, reward_sums, n_rl, dev)
        state.events_bytes = _append_event(events, {"event": "epoch", **row})

        improved = dev["dev_score"] > state.best_score
        if improved:
            state.best_score = dev["dev_score"]
            state.best_epoch = epoch
            state.epochs_since_improvement = 0
            _save_models(run_dir, "best", model_f, model_g)
        else:
            state.epochs_since_improvement += 1
        state.epoch = epoch + 1
        _save_models(run_dir, "last", model_f, model_g)
        save_checkpoint(ck / "opt_f_last.ckpt", opt_f.state_arrays(), {"t": opt_f.t})
        save_checkpoint(ck / "opt_g_last.ckpt", opt_g.state_arrays(), {"t": opt_g.t})
        save_train_state(run_dir, state)
        if state.epochs_since_improvement >= cfg.patience:
            break
        if state.iteration >= max_iters:
            break

    if state.best_epoch >= 0:
        model_f.load_state_dict(load_checkpoint(ck / "f_best.ckpt")[0])
        model_g.load_state_dict(load_checkpoint(ck / "g_best.ckpt")[0])
    lines = events.read_text(encoding="utf-8").splitlines()
    history = [event for event in map(json.loads, lines) if event.pop("event") == "epoch"]
    return TrainResult(model_f=model_f, model_g=model_g, state=state, history=history)
