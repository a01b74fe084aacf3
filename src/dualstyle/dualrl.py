"""Dual training engine: warm-up pre-training, policy-gradient updates on the
two mapping models, and annealed pseudo teacher forcing.

Each iteration first samples and scores both directions against the models
as the iteration found them: x->y transfers of a style-x batch, then y->x
transfers of a style-y batch, each scored by the frozen classifier and by the
opposite model's reconstruction probability.  Then, one direction at a time,
it takes that direction's policy-gradient update (``rl_step``) and, if the
annealed schedule fires (``anneal_interval``, whose one setting is
``TrainConfig.anneal_gap``), one MLE step on pairs back-translated by the live
opposite model.  Both directions share one teacher-forcing trigger: the
schedule is asked once per iteration, and its answer holds for both MLE steps.

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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, load_model, save_checkpoint, write_atomic
from .classifier import TextClassifier
from .corpus import Sentence, StyleCorpus, epoch_batches, pad_batch
from .errors import InvalidSpecError, StateMismatchError
from .evaluation import corpus_bleu, g2h2, style_accuracy
from .optim import AdamState, adam_step, clip_global_norm
from .pseudo import PseudoPair, back_translate_batch
from .rewards import RewardConfig, combined_rewards, distinct_pairs
from .seq2seq import Seq2Seq

ABLATIONS = ("rl_plus_mle", "rl_only", "mle_only")


# The annealed teacher-forcing interval starts at P0 = 1 (force every
# iteration), grows by the factor ANNEAL_RATE every ``TrainConfig.anneal_gap``
# iterations, and stops at P_MAX.  Only the pace depends on how long a run is,
# so only ``anneal_gap`` is a setting; the start, rate and cap are the same
# for every run.
P0, P_MAX, ANNEAL_RATE = 1.0, 100.0, 1.1


def anneal_interval(iteration: int, gap: float) -> float:
    """Interval p at a given iteration: min(P0 * ANNEAL_RATE^(i/gap), P_MAX)."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    exponent = (iteration / gap) * math.log(ANNEAL_RATE)
    if exponent >= math.log(P_MAX / P0):
        return P_MAX
    return P0 * math.exp(exponent)


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
    anneal_gap: float = 1000.0
    ablation: str = "rl_plus_mle"
    patience: int = 1
    grad_clip: float = 5.0
    temperature: float = 1.0
    max_decode_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.ablation not in ABLATIONS:
            raise ValueError(f"ablation must be one of {ABLATIONS}")
        if not (0 < self.pretrain_lr < math.inf and 0 < self.dual_lr < math.inf):
            raise ValueError("learning rates must be positive and finite")
        if not (self.temperature > 0 and self.grad_clip > 0 and self.anneal_gap > 0):
            raise ValueError("temperature, grad_clip and anneal_gap must be positive")
        if min(self.pretrain_batch, self.dual_batch, self.max_decode_len, self.max_dual_epochs,
               1 if self.max_iterations is None else self.max_iterations) < 1:
            raise ValueError("pretrain_batch, dual_batch, max_decode_len, max_dual_epochs and "
                             "max_iterations must be at least 1")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must not be negative")
        if self.patience < 1:
            raise ValueError("patience must be at least 1: at 0 every run stops after one epoch")


@dataclass
class TrainState:
    iteration: int = 0
    epoch: int = 0
    last_trigger: int | None = None
    degenerate_count: int = 0
    best_score: float = -math.inf
    best_epoch: int = -1
    events_bytes: int = 0


def should_teacher_force(state: TrainState, interval: float) -> bool:
    """Spacing rule: trigger once the gap since the last trigger reaches
    the interval p.

    Well-defined for fractional p and equal to the modulo rule for integer p
    starting from ``P0`` = 1.  Records the iteration as the last trigger when
    firing.
    """
    if state.last_trigger is None or state.iteration - state.last_trigger >= interval:
        state.last_trigger = state.iteration
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
    leave-one-out baseline (a sample with no valid other sample in its group,
    as every sample at k = 1, keeps its reward as its advantage) and
    backpropagates (1/(B*k)) * sum advantage * log-prob.  Empty
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
    # pairwise-difference form of R_k - mean(others): exactly zero when
    # all rewards in a group agree
    diffs = (r_mat[:, :, None] - r_mat[:, None, :]) * v_mat[:, None, :]
    others_cnt = v_mat.sum(axis=1, keepdims=True) - v_mat
    advantage = np.where(others_cnt > 0,
                         diffs.sum(axis=2) / np.maximum(others_cnt, 1.0),
                         r_mat).reshape(-1)

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


def rl_step(policy: Seq2Seq, batch: list[Sentence], samples: list[Sentence],
            rewards: tuple[np.ndarray, np.ndarray, np.ndarray], cfg: TrainConfig,
            opt: AdamState) -> dict:
    """One policy-gradient update for one direction: a clipped Adam step on
    the gradient of ``samples`` (k per source of ``batch``, source major)
    scored by the ``combined_rewards`` triple ``rewards``.

    Returns the mean rewards, the degenerate (empty) sample count, the gradient
    norm before clipping, ``taped_groups`` and ``distinct_pairs``.
    """
    r_style, r_content, r_total = rewards
    grads, groups = reinforce_gradient(policy, batch, samples, r_total)
    grad_norm = clip_global_norm(grads, cfg.grad_clip)
    adam_step(policy.params, grads, opt)
    sources_rep = [batch[i // cfg.reward.sample_size] for i in range(len(samples))]
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
            for chunk in epoch_batches(pairs, cfg.pretrain_batch, rng):
                model.mle_step(chunk, opt, cfg.grad_clip)
        ppl_after = math.exp(model.mean_nll(dev_pairs)) if dev_pairs else None
        report[name] = {"ppl_before": ppl_before, "ppl_after": ppl_after}
    return report


# ---------------------------------------------------------------------------
# dev-set scoring
# ---------------------------------------------------------------------------

def evaluate_dev(model_f: Seq2Seq, model_g: Seq2Seq, clf: TextClassifier,
                 corpus: StyleCorpus, cfg: TrainConfig,
                 gold_refs: dict | None = None) -> dict:
    """Development score: harmonic mean of style accuracy and the
    references-free BLEU of outputs against their own inputs, averaged over
    the two directions.  Gold-reference numbers ride along when available.
    ``out["x2y"]`` and ``out["y2x"]`` hold each direction's own metrics under
    the names of the averages."""
    out = {}
    for key, model, src_label, tgt_label in (
        ("x2y", model_f, corpus.label_x, corpus.label_y),
        ("y2x", model_g, corpus.label_y, corpus.label_x),
    ):
        inputs = corpus.of(src_label, "dev")
        outputs = model.greedy_decode_batch(inputs, max_len=cfg.max_decode_len)
        candidates = [o.surface for o in outputs]
        acc, _ = style_accuracy(outputs, clf, tgt_label)
        bleu = corpus_bleu(candidates, [[inp.surface] for inp in inputs])
        metrics = {"dev_acc": acc, "dev_bleu": bleu, "dev_score": g2h2(acc, bleu)[1]}
        refs = (gold_refs or {}).get((src_label.name, "dev"))
        if refs is not None:
            gold_bleu = corpus_bleu(candidates, [[r.surface for r in rr] for rr in refs])
            metrics["dev_gold_bleu"] = gold_bleu
            metrics["dev_gold_h2"] = g2h2(acc, gold_bleu)[1]
        out[key] = metrics
    out.update({name: (out["x2y"][name] + out["y2x"][name]) / 2.0 for name in out["x2y"]})
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


def _mean_rewards(stats: list[dict]) -> dict:
    """Each reward part's mean over ``rl_step`` results, summed in their
    order; ``None`` when there are none."""
    return {key: sum(s[key] for s in stats) / len(stats) if stats else None
            for key in ("mean_r_style", "mean_r_content", "mean_r_total")}


def _append_event(path: Path, event: dict) -> int:
    """Append one line to the run's event record and flush it to disk.

    Returns the record's length in bytes.
    """
    with open(path, "ab") as fh:
        fh.write((json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())
        return fh.tell()


def save_train_state(run_dir, state: TrainState) -> None:
    payload = json.dumps(asdict(state), sort_keys=True)
    write_atomic(Path(run_dir) / "checkpoints" / "state.json", [payload.encode("utf-8")])


def load_train_state(run_dir) -> TrainState:
    path = Path(run_dir) / "checkpoints" / "state.json"
    payload = json.loads(path.read_text())
    names = {f.name for f in fields(TrainState)}
    extra, missing = sorted(payload.keys() - names), sorted(names - payload.keys())
    if extra or missing:
        raise StateMismatchError(f"{path} does not hold this version's train state: "
                                 f"extra keys {extra}, missing keys {missing}")
    return TrainState(**payload)


def train(model_f: Seq2Seq, model_g: Seq2Seq, clf: TextClassifier,
          corpus: StyleCorpus, cfg: TrainConfig, run_dir,
          gold_refs: dict | None = None, resume: bool = False) -> TrainResult:
    """Dual training of ``model_f`` and ``model_g`` in place.

    Per iteration: sample and score a style-x batch with the x->y model and a
    style-y batch with the y->x model, both against the models as the
    iteration began; then, x->y first, each model's policy-gradient update and
    its teacher forcing on back-translations by the live opposite model (one
    trigger decides both).  Dev score is evaluated once per epoch, so both
    styles need dev sentences, and ``gold_refs`` holds one reference set per
    dev sentence for both styles or for neither.  Training stops at the
    iteration/epoch budget or once the score has not improved for
    ``patience`` epochs, whichever comes first.  The models passed in come
    back holding the best weights, read from ``f_best.ckpt``/``g_best.ckpt``.
    The history is the epoch lines of ``events.jsonl`` without their ``"event"``.
    """
    if not clf.frozen:
        raise RuntimeError("classifier must be frozen before dual training")
    no_dev = [label.name for label in corpus.labels() if not corpus.of(label, "dev")]
    if no_dev:
        raise InvalidSpecError(f"no dev sentences for style {', '.join(no_dev)}: "
                               "dual training selects its models on the dev split")
    refs = gold_refs or {}
    uncovered = [label.name for label in corpus.labels()
                 if len(refs.get((label.name, "dev"), ())) != len(corpus.of(label, "dev"))]
    if any((label.name, "dev") in refs for label in corpus.labels()) and uncovered:
        raise InvalidSpecError(f"dev references for style {', '.join(uncovered)} do not give "
                               "one set per dev sentence: give them for both styles or neither")
    train_x = corpus.of(corpus.label_x, "train")
    train_y = corpus.of(corpus.label_y, "train")
    iters_per_epoch = max(1, math.ceil(len(train_x) / cfg.dual_batch))
    max_iters = cfg.max_iterations or cfg.max_dual_epochs * iters_per_epoch

    # one row per direction: checkpoint tag, policy, opposite model, optimizer,
    # target style, RL and TF splits, and the seed salts of their epoch orders
    directions = (
        ("f", model_f, model_g, AdamState(lr=cfg.dual_lr), corpus.label_y,
         train_x, train_y, 21, 23),
        ("g", model_g, model_f, AdamState(lr=cfg.dual_lr), corpus.label_x,
         train_y, train_x, 22, 24),
    )
    state = TrainState()
    run_dir = Path(run_dir)
    events = run_dir / "events.jsonl"
    ck = run_dir / "checkpoints"
    if resume:
        state = load_train_state(run_dir)
        for tag, policy, _, opt, *_ in directions:
            load_model(ck / f"{tag}_last.ckpt", policy.vocab, lambda _: policy)
            arrays, meta = load_checkpoint(ck / f"opt_{tag}_last.ckpt")
            opt.load_state_arrays(arrays, meta["t"])
        # lines past the checkpoint were written by iterations that rerun
        os.truncate(events, state.events_bytes)
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        events.write_bytes(b"")

    rl_on = cfg.ablation in ("rl_plus_mle", "rl_only")
    mle_on = cfg.ablation in ("rl_plus_mle", "mle_only")
    k = cfg.reward.sample_size

    for epoch in range(state.epoch, cfg.max_dual_epochs):
        if state.iteration >= max_iters:
            break
        state.epoch = epoch
        orders = [[epoch_batches(split, cfg.dual_batch,
                                 np.random.default_rng([cfg.seed, salt, epoch]))
                   for split, salt in ((rl_split, rl_salt), (tf_split, tf_salt))]
                  for *_, rl_split, tf_split, rl_salt, tf_salt in directions]
        rng = np.random.default_rng([cfg.seed, 25, epoch])

        epoch_stats = []
        for it in range(iters_per_epoch):
            if state.iteration >= max_iters:
                break
            forced = mle_on and should_teacher_force(
                state, anneal_interval(state.iteration, cfg.anneal_gap))

            # both directions are scored before either model moves
            scored = []
            if rl_on:
                for (_, policy, opposite, _, target, *_), (rl, _) in zip(directions, orders):
                    batch = rl[it % len(rl)]
                    samples, _ = policy.sample_batch(batch, k, rng, cfg.max_decode_len, cfg.temperature)
                    sources_rep = [batch[i // k] for i in range(len(samples))]
                    scored.append((batch, samples, combined_rewards(
                        clf, opposite, samples, sources_rep, target, cfg.reward)))

            stats = []
            for i, ((_, policy, opposite, opt, *_), (_, tf)) in enumerate(zip(directions, orders)):
                if rl_on:
                    stats.append(rl_step(policy, *scored[i], cfg, opt))
                if forced:
                    teacher_forcing_step(policy, opposite, tf[it % len(tf)], opt, cfg)

            if rl_on:
                state.degenerate_count += sum(s["degenerate"] for s in stats)
                epoch_stats += stats
                _append_event(events, {"event": "iteration", "iteration": state.iteration,
                                       **_mean_rewards(stats)})
            state.iteration += 1

        dev = evaluate_dev(model_f, model_g, clf, corpus, cfg, gold_refs)
        state.events_bytes = _append_event(events, {
            "event": "epoch", "iteration": state.iteration, "epoch": state.epoch,
            **_mean_rewards(epoch_stats),
            **{key: dev.get(key) for key in ("dev_acc", "dev_bleu", "dev_score",
                                             "dev_gold_bleu", "dev_gold_h2")}})

        if dev["dev_score"] > state.best_score:
            state.best_score = dev["dev_score"]
            state.best_epoch = epoch
        state.epoch = epoch + 1
        for tag, policy, _, opt, *_ in directions:
            if state.best_epoch == epoch:
                policy.save(ck / f"{tag}_best.ckpt")
            policy.save(ck / f"{tag}_last.ckpt")
            save_checkpoint(ck / f"opt_{tag}_last.ckpt", opt.state_arrays(), {"t": opt.t})
        save_train_state(run_dir, state)
        if epoch - state.best_epoch >= cfg.patience:
            break

    # every run has finished an epoch, and its finite dev score beat the initial -inf
    for tag, policy, *_ in directions:
        load_model(ck / f"{tag}_best.ckpt", policy.vocab, lambda _: policy)
    lines = events.read_text(encoding="utf-8").splitlines()
    history = [event for event in map(json.loads, lines) if event.pop("event") == "epoch"]
    return TrainResult(model_f=model_f, model_g=model_g, state=state, history=history)
