"""The benchmark's three workloads: set-up, the measured unit, output checks.

Every workload calls only public functions of the ``dualstyle`` modules.  A
run sets up once (data preparation is repeated and its median taken), then
repeats the workload's fixed unit of work until the requested seconds have
passed, at least once.  Rates are medians over units; quality guards come
from a fixed budget at a fixed seed, so they must repeat exactly from unit to
unit, and that is checked.  The classifier rate is read differently, from
short classifier calls made between the warm start's MLE steps (see
``Readings``).

- ``warm_start``: classifier training plus a fixed budget of MLE steps of
  both directions on template pseudo pairs, the warm start the other two
  workloads run in set-up.  Taped forward/backward, ``conv1d`` and Adam, with
  no sampling and no rewards.
- ``dual_rl``: ``dualrl.train`` (RL+MLE, desk RL settings) from models
  warm-started in set-up: sampling, both rewards, back-translation,
  teacher forcing, dev evaluation and run-dir checkpoints.
- ``transfer``: ``cli.cmd_transfer`` then ``cli.cmd_evaluate`` on dev and
  test in both directions from warm-started checkpoints: untaped decoding,
  classification and BLEU.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import itertools
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dualstyle import classifier, cli, corpus, dualrl, pseudo, rewards
from dualstyle.corpus import EOS
from dualstyle.optim import AdamState
from dualstyle.seq2seq import Seq2Seq

from . import tracer as tracing

WORKLOADS = ("warm_start", "dual_rl", "transfer")
# One classifier epoch already reaches 100% dev accuracy on this task; the
# desk preset's six would make the classifier most of every run.
CLS_EPOCHS = 1
# Data preparation is timed this many times in set-up and the median kept.
SETUP_REPEATS = 3
# A classifier training reading trains a fresh classifier for one epoch on a
# shard of this many training sentences of each style.
CLF_SHARD_PER_STYLE = 64


@dataclass(frozen=True)
class Scale:
    """Shapes and fixed budgets.  The defaults are the measured desk sizes."""

    embed_dim: int = 300
    hidden_dim: int = 256
    train_per_style: int = 4000
    dev_per_style: int = 400
    test_per_style: int = 400
    cls_embed_dim: int = 64
    cls_channels: int = 32
    # Warm start: template-pair MLE at the desk batch of 32 but a higher rate
    # than the desk pre-training, so that 70 steps per direction reach
    # outputs as long as their inputs (dev gold BLEU about 82-92).  Sample
    # length sets every recurrent cost downstream; at the desk rate of 1e-3,
    # or with 40 steps of batch 64, outputs stay short or far from the
    # references.
    warm_lr: float = 7e-3
    warm_steps: int = 70
    dual_iterations: int = 3
    dual_batch: int = 128
    check_rows: int = 16


@dataclass
class Task:
    cfg: dict
    corpus: corpus.StyleCorpus
    gold: corpus.GoldReferences
    vocab: corpus.Vocabulary
    num: corpus.StyleCorpus
    pairs: tuple  # (x2y pairs, y2x pairs), template pseudo pairs
    dev_pairs: tuple


class Ledger:
    """Operations attempted and failed, including output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation, failed if the block raises."""
        self.attempted += 1
        try:
            yield
        except Exception:  # a failing operation is measured, not fatal
            self.failed += 1
            self.problems.append(what)
            traceback.print_exc(file=sys.stderr)


@dataclass
class Result:
    rate: float  # the workload's primary throughput, items/s
    rate_name: str  # its name and unit in the workload's own terms
    rate_unit: str
    quality_main: float  # percentages, higher is better
    quality_aux: float
    guards: dict  # name -> (value, unit), quality guards under their own names
    counts: dict
    outputs: object = None  # what the unmeasured checks inspect
    clf_sent_per_s: float | None = None  # set by measure() from the readings


def config(seed: int, scale: Scale, run_dir: Path) -> dict:
    return cli.resolve_config(preset="desk", overrides={
        "seed": seed,
        "train_per_style": scale.train_per_style,
        "dev_per_style": scale.dev_per_style,
        "test_per_style": scale.test_per_style,
        "embed_dim": scale.embed_dim,
        "hidden_dim": scale.hidden_dim,
        "cls_embed_dim": scale.cls_embed_dim,
        "cls_channels": scale.cls_channels,
        "cls_epochs": CLS_EPOCHS,
        "dual_batch": scale.dual_batch,
        "max_iterations": scale.dual_iterations,
        "data_dir": str(run_dir / "data"),
        "run_dir": str(run_dir / "run"),
    })


def prepare(cfg: dict) -> Task:
    """Synthetic task, vocabulary, salience lexicon and template pairs."""
    raw, gold = corpus.generate_synthetic(cli.task_spec(cfg))
    vocab = corpus.build_vocab(raw.all_train(), min_count=cfg["min_count"])
    num = raw.numericalize(vocab)
    lex = pseudo.build_style_lexicon(raw, lam=cfg["salience_lambda"],
                                     gamma=cfg["salience_gamma"])
    pairs = pseudo.make_pretrain_pairs(num, lex, vocab)
    dev_pairs = pseudo.make_pretrain_pairs(num, lex, vocab, split="dev")
    return Task(cfg, raw, gold, vocab, num, pairs, dev_pairs)


def prepare_repeated(cfg: dict, repeats: int) -> tuple[Task, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        task = prepare(cfg)
        times.append(time.perf_counter() - t0)
    return task, statistics.median(times)


def clf_config(cfg: dict) -> classifier.ClassifierConfig:
    return classifier.ClassifierConfig(
        embed_dim=cfg["cls_embed_dim"], channels=cfg["cls_channels"],
        epochs=cfg["cls_epochs"], seed=cfg["seed"])


def train_clf(task: Task):
    """One classifier training; returns (classifier, dev accuracy)."""
    return classifier.train_classifier(task.num, task.vocab, clf_config(task.cfg))


class Readings:
    """Sentences/s of short classifier calls, one after each warm-start MLE step.

    A shared 2-vCPU host flips between a fast and a slow speed every few
    seconds, and the classifier, small and bound by interpreter overhead, runs
    about 1.7x faster in the fast phase (seq2seq's larger products swing
    less).  A median then lands in whichever phase held most of a run: over
    ten seeds its quartile spread reached 0.26-0.35 of the median.  So the
    classifier is read in many short calls spread over the half minute of
    MLE steps, and the rate reported is the one nine calls in ten reach: the
    90th-percentile call time, inverted, which stays in the common slow
    phase.
    """

    def __init__(self):
        self.rates: list[float] = []
        self.busy = 0.0  # seconds spent in readings

    def timed(self, sentences: int, call) -> None:
        t0 = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        self.rates.append(sentences / elapsed)
        self.busy += elapsed

    def rate(self) -> float:
        return statistics.quantiles(self.rates, n=10)[0]

    def training_probe(self, task: Task):
        """Train a fresh classifier on the next shard of the training split.

        The shards carry no dev split, so ``train_classifier`` only trains.
        """
        num, k = task.num, CLF_SHARD_PER_STYLE
        xs, ys = (num.of(label, "train") for label in num.labels())
        shards = [corpus.StyleCorpus(num.label_x, num.label_y, {
            (num.label_x.name, "train"): xs[i * k:(i + 1) * k],
            (num.label_y.name, "train"): ys[i * k:(i + 1) * k]})
            for i in range(min(len(xs), len(ys)) // k)]
        cls_cfg = clf_config(task.cfg)
        cycle = itertools.cycle(shards)

        def probe(_clf) -> None:
            shard = next(cycle)
            self.timed(2 * k * cls_cfg.epochs,
                       lambda: classifier.train_classifier(shard, task.vocab, cls_cfg))
        return probe

    def inference_probe(self, task: Task):
        """Classify one style's dev split with the frozen classifier."""
        cycle = itertools.cycle([task.num.of(label, "dev") for label in task.num.labels()])

        def probe(clf) -> None:
            sentences = next(cycle)
            self.timed(len(sentences), lambda: clf.classify_prob_batch(sentences))
        return probe


def mle_direction(task: Task, scale: Scale, which: int, ledger: Ledger, after_step=None):
    """``scale.warm_steps`` MLE updates of a fresh model for one direction.

    Returns the model, the target tokens and the seconds spent in
    ``mle_step``, and every step's loss.  ``after_step()``, if given, runs
    after each step, outside its timing.
    """
    seed = task.cfg["seed"]
    direction = ("x2y", "y2x")[which]
    pairs = task.pairs[which]
    size = task.cfg["pretrain_batch"]
    model = Seq2Seq(task.vocab, embed_dim=scale.embed_dim, hidden_dim=scale.hidden_dim,
                    direction=direction, seed=[seed, which + 1])
    opt = AdamState(lr=scale.warm_lr)
    order = np.random.default_rng([seed, 11 + which]).permutation(len(pairs))
    tokens, busy, losses = 0, 0.0, []
    for step in range(scale.warm_steps):
        picks = order[np.arange(step * size, (step + 1) * size) % len(pairs)]
        batch = [(pairs[i].source, pairs[i].target) for i in picks]
        with ledger.operation(f"mle_step {direction} {step}"):
            t0 = time.perf_counter()
            loss = model.mle_step(batch, opt, task.cfg["grad_clip"])
            busy += time.perf_counter() - t0
            tokens += sum(len(t.ids) for _, t in batch)
            losses.append(loss)
        if after_step is not None:
            after_step()
    return model, tokens, busy, losses


@dataclass
class WarmModels:
    clf: classifier.TextClassifier
    clf_acc: float
    models: list  # [x2y, y2x]
    mle_rate: float  # target tokens/s over all mle_step calls
    losses: list


def warm_start(task: Task, scale: Scale, ledger: Ledger, probe) -> WarmModels:
    """Frozen classifier plus both models warm-started on template pairs.

    ``probe(clf)`` takes one classifier reading after every MLE step.
    """
    clf, acc = train_clf(task)
    directions = [mle_direction(task, scale, which, ledger, lambda: probe(clf))
                  for which in (0, 1)]
    return WarmModels(
        clf=clf, clf_acc=acc,
        models=[d[0] for d in directions],
        mle_rate=sum(d[1] for d in directions) / sum(d[2] for d in directions),
        losses=[loss for d in directions for loss in d[3]])


def dev_nll(task: Task, models) -> float:
    """Per-token dev NLL over both directions' template dev pairs."""
    nlls = [m.mean_nll([(p.source, p.target) for p in dev])
            for m, dev in zip(models, task.dev_pairs)]
    return float(np.mean(nlls))


# ---------------------------------------------------------------------------
# output checks, run outside the measured region
# ---------------------------------------------------------------------------

def check_decoded(ledger: Ledger, outputs, vocab_size: int, cap: int, what: str) -> None:
    """Ids in vocabulary range, ending at the first EOS or at the cap."""
    for i, s in enumerate(outputs):
        ids = s.ids
        ok = (len(ids) > 0 and all(0 <= t < vocab_size for t in ids)
              and EOS not in ids[:-1]
              and (ids[-1] == EOS or len(ids) == cap))
        if not ledger.check(ok, f"{what} row {i} ids {ids}"):
            return


def check_finite(ledger: Ledger, values, what: str, lo=-math.inf, hi=math.inf) -> None:
    arr = np.asarray(values, dtype=np.float64)
    ledger.check(arr.size > 0 and bool(np.all(np.isfinite(arr)))
                 and bool(np.all((arr >= lo) & (arr <= hi))), what)


def check_policy(ledger: Ledger, task: Task, policy: Seq2Seq, opposite: Seq2Seq,
                 clf, source_label, target_label, cfg: dict, scale: Scale) -> None:
    """Sampler contract and reward range on a fixed subset of dev sources."""
    sources = task.num.of(source_label, "dev")[: scale.check_rows]
    k = cfg["sample_size"]
    cap = cfg["max_decode_len"]
    rng = np.random.default_rng([cfg["seed"], 99])
    samples, logps = policy.sample_batch(sources, k, rng, max_len=cap)
    check_decoded(ledger, samples, len(task.vocab), cap, f"{policy.direction} samples")
    sources_rep = [sources[i // k] for i in range(len(samples))]
    rescored = policy.log_prob_batch(sources_rep, samples)
    ledger.check(bool(np.allclose(logps, rescored, rtol=1e-9, atol=1e-9)),
                 f"{policy.direction} sample log-probs differ from rescoring: "
                 f"max gap {float(np.max(np.abs(logps - rescored)))}")
    reward_cfg = rewards.RewardConfig(beta=cfg["beta"], sample_size=k)
    parts = rewards.combined_rewards(clf, opposite, samples, sources_rep,
                                     target_label, reward_cfg)
    for name, values in zip(("style", "content", "total"), parts):
        check_finite(ledger, values, f"{policy.direction} {name} rewards in [0, 1]", 0.0, 1.0)
    outputs = policy.greedy_decode_batch(sources, max_len=cap)
    check_decoded(ledger, outputs, len(task.vocab), cap, f"{policy.direction} greedy")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up state plus one repeatable ``unit`` of measured work."""

    def __init__(self, seed: int, scale: Scale, work_dir: Path, ledger: Ledger):
        self.scale = scale
        self.work_dir = work_dir
        self.ledger = ledger
        self.cfg = config(seed, scale, work_dir)
        self.readings = Readings()
        self.task, prep_s = prepare_repeated(self.cfg, SETUP_REPEATS)
        t0 = time.perf_counter()
        self.setup()
        # classifier readings taken during set-up are not set-up work
        self.setup_s = prep_s + time.perf_counter() - t0 - self.readings.busy
        self.units = 0

    def setup(self) -> None:
        pass

    def warm_start(self) -> None:
        """Frozen classifier and warm-started models for the later stages.

        The classifier is trained once, here, so these workloads read the
        classifier work they do themselves, inference (style rewards and
        accuracy), between the warm start's MLE steps.
        """
        warm = warm_start(self.task, self.scale, self.ledger,
                          self.readings.inference_probe(self.task))
        check_finite(self.ledger, warm.losses, "warm-start losses finite")
        self.clf, self.models = warm.clf, warm.models

    def unit(self) -> Result:
        raise NotImplementedError

    def check(self, first: Result, later: Result) -> None:
        """Quality guards repeat exactly from unit to unit."""
        self.ledger.check(
            (later.quality_main, later.quality_aux) == (first.quality_main, first.quality_aux),
            f"quality differs between units: {first.quality_main, first.quality_aux} "
            f"then {later.quality_main, later.quality_aux}")


class WarmStart(Workload):
    def unit(self) -> Result:
        warm = warm_start(self.task, self.scale, self.ledger,
                          self.readings.training_probe(self.task))
        # both guards are filled in by finish(), outside the timing
        return Result(rate=warm.mle_rate, rate_name="mle_tok_per_s", rate_unit="tok/s",
                      quality_main=math.nan, quality_aux=math.nan,
                      guards={"clf_dev_acc": (warm.clf_acc, "ratio")},
                      counts={"mle_steps": 2 * self.scale.warm_steps},
                      outputs=warm)

    def finish(self, result: Result) -> Result:
        """Quality guards after the budget, plus output checks (unmeasured).

        The main guard is the per-token dev likelihood exp(-NLL).  Accuracy
        saturates at 100% on this task, so the auxiliary guard is the mean
        probability the classifier gives the true style on dev, which still
        moves when the classifier computes something else.
        """
        warm = result.outputs
        clf, acc, models = warm.clf, warm.clf_acc, warm.models
        check_finite(self.ledger, warm.losses, "mle losses finite")
        nll = dev_nll(self.task, models)
        check_finite(self.ledger, [nll], "warm dev nll finite", 0.0)
        check_finite(self.ledger, [acc], "classifier dev accuracy in [0, 1]", 0.0, 1.0)
        cap = self.cfg["max_decode_len"]
        for model, label in zip(models, self.task.num.labels()):
            sources = self.task.num.of(label, "dev")[: self.scale.check_rows]
            outputs = model.greedy_decode_batch(sources, max_len=cap)
            check_decoded(self.ledger, outputs, len(self.task.vocab), cap,
                          f"{model.direction} greedy")
        true_probs = []
        for label in self.task.num.labels():
            probs = clf.classify_prob_batch(self.task.num.of(label, "dev"))
            check_finite(self.ledger, probs, "classifier probabilities in [0, 1]", 0.0, 1.0)
            true_probs.extend(probs[:, label.index])
        result.quality_main = 100.0 * math.exp(-nll)
        result.quality_aux = 100.0 * float(np.mean(true_probs))
        result.guards["warm_dev_nll"] = (nll, "nat/tok")
        return result


class DualRL(Workload):
    def setup(self) -> None:
        self.warm_start()

    def unit(self) -> Result:
        model_f, model_g = (m.clone() for m in self.models)
        run_dir = self.work_dir / f"dual_{self.units}"
        tc = cli.train_config(self.cfg)
        iterations = self.cfg["max_iterations"]
        t0 = time.perf_counter()
        result = dualrl.train(model_f, model_g, self.clf, self.task.num, tc,
                              run_dir=run_dir, gold_refs=self.task.gold.refs)
        elapsed = time.perf_counter() - t0
        shutil.rmtree(run_dir, ignore_errors=True)
        self.units += 1
        rate = iterations * 2 * tc.dual_batch / elapsed
        last = result.history[-1]
        return Result(rate=rate, rate_name="dual_src_per_s", rate_unit="src/s",
                      quality_main=last["dev_gold_h2"],
                      quality_aux=100.0 * last["mean_r_total"],
                      guards={"dual_r_total": (last["mean_r_total"], "ratio"),
                              "dual_dev_h2": (last["dev_gold_h2"], "%")},
                      counts={"iterations": result.state.iteration,
                              "degenerate_samples": result.state.degenerate_count},
                      outputs=result)

    def finish(self, result: Result) -> Result:
        history = result.outputs.history
        for row in history:
            check_finite(self.ledger, [v for v in row.values() if v is not None],
                         f"history row {row['iteration']} finite")
        check_finite(self.ledger, [history[-1]["mean_r_total"]],
                     "mean reward in [0, 1]", 0.0, 1.0)
        num = self.task.num
        f, g = result.outputs.model_f, result.outputs.model_g
        check_policy(self.ledger, self.task, f, g, self.clf, num.label_x, num.label_y,
                     self.cfg, self.scale)
        check_policy(self.ledger, self.task, g, f, self.clf, num.label_y, num.label_x,
                     self.cfg, self.scale)
        return result


class Transfer(Workload):
    SPLITS = ("dev", "test")

    def setup(self) -> None:
        self.warm_start()
        data_dir = Path(self.cfg["data_dir"])
        run_dir = Path(self.cfg["run_dir"])
        corpus.save_corpus(self.task.corpus, data_dir)
        corpus.save_references(self.task.gold.refs, data_dir)
        run_dir.mkdir(parents=True)
        cli.save_vocab(self.task.vocab, run_dir)
        ck = run_dir / "checkpoints"
        self.clf.save(ck / "cls.ckpt")
        self.models[0].save(ck / "f_pre.ckpt")
        self.models[1].save(ck / "g_pre.ckpt")
        self.out_dir = self.work_dir / "outputs"
        self.out_dir.mkdir()

    def jobs(self):
        x, y = self.cfg["style_x"], self.cfg["style_y"]
        data_dir = Path(self.cfg["data_dir"])
        for split in self.SPLITS:
            for direction, src, tgt in (("x2y", x, y), ("y2x", y, x)):
                yield (direction, tgt, data_dir / f"{src}.{split}.txt",
                       data_dir / f"{src}.{split}.ref0.txt",
                       self.out_dir / f"{direction}.{split}.txt")

    def unit(self) -> Result:
        outputs, reports, sentences = [], [], 0
        t0 = time.perf_counter()
        for direction, tgt, in_path, ref_path, out_path in self.jobs():
            with self.ledger.operation(f"transfer {in_path.name}"), \
                    contextlib.redirect_stdout(io.StringIO()):
                out = cli.cmd_transfer(self.cfg, direction, in_path, out_path,
                                       checkpoint="pre")["outputs"]
                report = cli.cmd_evaluate(self.cfg, out_path, [ref_path], tgt,
                                          inputs_path=in_path)["report"]
                outputs.append(out)
                reports.append(report)
                sentences += len(out)
        elapsed = time.perf_counter() - t0
        rate = sentences / elapsed
        bleu = float(np.mean([r.bleu for r in reports]))
        acc = float(np.mean([r.acc for r in reports]))
        return Result(rate=rate, rate_name="transfer_sent_per_s", rate_unit="sent/s",
                      quality_main=bleu, quality_aux=acc,
                      guards={"transfer_gold_bleu": (bleu, "BLEU"),
                              "transfer_acc": (acc, "%")},
                      counts={"sentences": sentences,
                              "mean_output_len": float(np.mean(
                                  [len(s.ids) for out in outputs for s in out]))},
                      outputs=(outputs, reports))

    def finish(self, result: Result) -> Result:
        outputs, reports = result.outputs
        cap = self.cfg["max_decode_len"]
        for out, (direction, *_rest) in zip(outputs, self.jobs()):
            check_decoded(self.ledger, out, len(self.task.vocab), cap, f"{direction} transfer")
        for r in reports:
            check_finite(self.ledger, [r.bleu, r.acc, r.g2, r.h2], "evaluation scores in [0, 100]",
                         0.0, 100.0)
        return result


CLASSES = {"warm_start": WarmStart, "dual_rl": DualRL, "transfer": Transfer}


def rss_mb(field: str) -> float:
    """``VmRSS`` (now) or ``VmHWM`` (peak) of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise KeyError(field)


def reset_peak_rss() -> bool:
    """Free what set-up left behind and restart the peak at the current RSS.

    Returns False where the kernel offers no reset; the peak then covers the
    whole process, set-up included.
    """
    gc.collect()
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def measure(workload: Workload, seconds: float) -> tuple[Result, list[float]]:
    """Repeat the unit until ``seconds`` have passed; median rate over units.

    The classifier rate comes from every reading taken so far: in set-up on
    dual_rl and transfer, in the units on warm_start.
    """
    results = []
    t0 = time.perf_counter()
    while not results or time.perf_counter() - t0 < seconds:
        results.append(workload.unit())
    first = workload.finish(results[0])
    for later in results[1:]:
        workload.check(first, workload.finish(later))
    rates = [r.rate for r in results]
    first.rate = statistics.median(rates)
    first.clf_sent_per_s = workload.readings.rate()
    first.counts["clf_readings"] = len(workload.readings.rates)
    return first, rates


def run(name: str, seed: int, seconds: float, trace: bool, scale: Scale,
        work_root: Path, trace_path: Path | None = None) -> dict:
    """One benchmark run; returns metrics, counts, memory use and the ledger.

    The peak RSS of the run is taken over the measured units only: set-up's
    peak is recorded beside it, then the high-water mark is reset.
    """
    ledger = Ledger()
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        workload = CLASSES[name](seed, scale, work_dir, ledger)
        memory = {"setup_peak_mb": rss_mb("VmHWM")}
        memory["peak_reset"] = reset_peak_rss()
        memory["measure_start_mb"] = rss_mb("VmRSS")
        result, rates = measure(workload, seconds)
        memory["measure_peak_mb"] = rss_mb("VmHWM")
        ledger.check(not tracing.installed_wrappers(), "untraced run has no tracer wrappers")
        out = {"result": result, "setup_s": workload.setup_s, "ledger": ledger,
               "units": len(rates), "per_layer": None, "memory": memory}
        if trace:
            # A separate traced pass: one data preparation and one unit.
            tr = tracing.Tracer()
            tr.install()
            try:
                tr.active = True
                with tr.span("bench"):
                    prepare(workload.cfg)
                with tr.span("bench"):
                    traced = workload.unit()
                tr.active = False
            finally:
                tr.uninstall()
            workload.check(result, workload.finish(traced))
            overhead = 1.0 - traced.rate / statistics.median(rates)
            out["per_layer"] = tr.per_layer("bench", overhead)
            if trace_path is not None:
                tr.write(trace_path)
        return out
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

