import json
import math

import numpy as np
import pytest

from dualstyle import autodiff as ad
from dualstyle import dualrl
from dualstyle.checkpoint import checkpoint_hash, load_checkpoint
from dualstyle.corpus import pad_batch
from dualstyle.dualrl import (
    AnnealSchedule,
    TrainConfig,
    TrainState,
    anneal_interval,
    evaluate_dev,
    pretrain,
    reinforce_gradient,
    rl_step,
    should_teacher_force,
    taped_groups,
    teacher_forcing_step,
    train,
)
from dualstyle.optim import AdamState, adam_step, collect_grads
from dualstyle.pseudo import build_style_lexicon, make_pretrain_pairs
from dualstyle.rewards import RewardConfig, combined_rewards
from dualstyle.seq2seq import Seq2Seq

from conftest import sentence
from pg_oracle import (
    build_masked_model,
    exact_gradient,
    make_reward_table,
    reward_fn_from_table,
)

DEFAULT_SCHEDULE = AnnealSchedule()  # p0=1, p_max=100, rate=1.1, gap=1000


def test_interval_starts_at_p0():
    assert anneal_interval(0, DEFAULT_SCHEDULE) == 1.0


def test_interval_monotone_and_capped():
    values = [anneal_interval(i, DEFAULT_SCHEDULE) for i in range(0, 100000, 500)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 100.0


def test_interval_cap_boundary():
    # gap * ln(p_max/p0) / ln(rate) = 48317.7: the cap binds from 48318 on
    assert anneal_interval(48317, DEFAULT_SCHEDULE) < 100.0
    assert anneal_interval(48318, DEFAULT_SCHEDULE) == 100.0
    assert anneal_interval(10**9, DEFAULT_SCHEDULE) == 100.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        AnnealSchedule(rate=1.0)
    with pytest.raises(ValueError):
        AnnealSchedule(p0=200.0, p_max=100.0)
    with pytest.raises(ValueError):
        anneal_interval(-1, DEFAULT_SCHEDULE)


def test_trigger_every_iteration_at_unit_interval():
    state = TrainState()
    state.interval = 1.0
    fired = []
    for i in range(5):
        state.iteration = i
        fired.append(should_teacher_force(state, "x2y"))
    assert fired == [True] * 5


def test_trigger_spacing_fractional():
    state = TrainState()
    state.interval = 2.5
    fired = []
    for i in range(10):
        state.iteration = i
        if should_teacher_force(state, "x2y"):
            fired.append(i)
    assert fired == [0, 3, 6, 9]


def test_trigger_spacing_at_cap():
    state = TrainState()
    state.interval = 100.0
    fired = []
    for i in range(250):
        state.iteration = i
        if should_teacher_force(state, "x2y"):
            fired.append(i)
    assert fired == [0, 100, 200]


def test_directions_have_independent_triggers():
    state = TrainState()
    state.interval = 2.0
    state.iteration = 0
    assert should_teacher_force(state, "x2y")
    state.iteration = 1
    assert should_teacher_force(state, "y2x")  # first call for this direction
    assert not should_teacher_force(state, "x2y")


# ---------------------------------------------------------------------------
# policy gradient
# ---------------------------------------------------------------------------

def test_equal_rewards_give_zero_gradient():
    vocab, model, source = build_masked_model(seed=3)
    # keep empty samples out of the draw: they are forced to reward zero,
    # which would legitimately break the all-equal premise
    model.params["out_b"].value[3] -= 8.0
    samples, _ = model.sample_batch([source] * 4, 3, np.random.default_rng(0), max_len=3)
    assert all(s.surface for s in samples)
    grads, groups = reinforce_gradient(model, [source] * 4, samples,
                                       np.full(len(samples), 0.7))
    assert groups == 0
    assert set(grads) == set(model.params)
    for g in grads.values():
        assert np.abs(g).max() < 1e-15

    params_before = {k: p.value.copy() for k, p in model.params.items()}
    adam_step(model.params, grads, AdamState(lr=1e-3))
    for k, p in model.params.items():
        assert np.array_equal(p.value, params_before[k])


def test_kept_groups_give_the_full_batch_gradient(small_vocab):
    # float64 on both sides: the kept groups alone give the full-batch
    # gradient up to summation order, zero-weight groups included or not
    model = Seq2Seq(small_vocab, embed_dim=8, hidden_dim=9, seed=6,
                    init_scale=1.0, embed_scale=1.0)
    rng = np.random.default_rng(6)
    for name in ("enc_b", "dec_b", "comb_b", "out_b"):
        model.params[name].value = rng.normal(0, 0.3, model.params[name].value.shape)
    tokens = ("a", "b", "c", "d", "e")

    def sentences(n, max_len):
        return [sentence(small_vocab, *(tokens[int(i)] for i in
                                         rng.integers(0, 5, int(rng.integers(1, max_len + 1)))))
                for _ in range(n)]

    k = 3
    sources, samples = sentences(5, 6), sentences(15, 7)
    weights = rng.normal(0, 1, 15)
    weights[[0, 1, 2, 9, 10, 11]] = 0.0  # groups 0 and 3
    weights[4] = 0.0  # a zero row inside a kept group stays in its group
    groups, rows = taped_groups(weights, k)
    assert groups.tolist() == [1, 2, 4]
    assert rows.tolist() == [3, 4, 5, 6, 7, 8, 12, 13, 14]

    def grads64(srcs, tgts, w):
        src_ids, src_mask = pad_batch([s.ids for s in srcs])
        tgt_ids, tgt_mask = pad_batch([t.ids for t in tgts])
        with ad.Tape() as tape:
            loss = model._teacher_forced_nll(src_ids, src_mask, tgt_ids, tgt_mask,
                                             row_weights=w, source_repeat=k)
        ad.backward(tape, loss)
        return float(loss.value), collect_grads(model.params)

    loss_full, full = grads64(sources, samples, weights)
    loss_kept, kept = grads64([sources[i] for i in groups], [samples[i] for i in rows],
                              weights[rows])
    assert loss_kept == pytest.approx(loss_full, rel=1e-12)
    assert set(kept) == set(full)
    for name, g in full.items():
        assert np.linalg.norm(kept[name] - g) <= 1e-12 * np.linalg.norm(g), name


def test_reinforce_gradient_tapes_only_groups_with_weight():
    vocab, model, source = build_masked_model(seed=3)
    model.params["out_b"].value[3] -= 8.0  # no empty samples, as above
    k, batch = 2, 6

    samples, _ = model.sample_batch([source] * batch, k, np.random.default_rng(1), max_len=3)
    assert all(s.surface for s in samples)
    # groups 0, 2 and 4 get equal rewards, so a zero advantage
    rows = np.arange(len(samples))
    rewards = np.where((rows // k) % 2 == 0, 0.5, 0.2 + 0.3 * (rows % k))

    grads, groups = reinforce_gradient(model, [source] * batch, samples, rewards)
    assert groups == 3
    advantage = np.array([0.0, 0.0, -0.3, 0.3] * 3)
    src_ids, src_mask = pad_batch([source.ids] * batch)
    tgt_ids, tgt_mask = pad_batch([s.ids for s in samples])
    _, full = model.taped_gradients(lambda m: m._teacher_forced_nll(
        src_ids, src_mask, tgt_ids, tgt_mask, row_weights=advantage / (batch * k),
        source_repeat=k))
    assert set(grads) == set(full)
    for name, g in full.items():
        assert np.linalg.norm(grads[name] - g) <= 1e-5 * np.linalg.norm(g), name


@pytest.mark.parametrize("k", [1, 4])
def test_estimator_is_unbiased(k):
    # k = 1 is the plain estimator (the advantage is the reward itself);
    # k = 4 subtracts the leave-one-out baseline
    vocab, model, source = build_masked_model(seed=0)
    table = make_reward_table(seed=1)
    fn = reward_fn_from_table(table)
    exact = exact_gradient(model, source, table)

    per_batch = 40
    n_batches = 120  # 19.2k samples at k = 4: a fast version of the acceptance check
    rng = np.random.default_rng(99)
    names = sorted(exact)
    sums = {k_: np.zeros_like(exact[k_]) for k_ in names}
    sq_sums = {k_: np.zeros_like(exact[k_]) for k_ in names}
    for _ in range(n_batches):
        samples, _ = model.sample_batch([source] * per_batch, k, rng, max_len=3)
        grads, _ = reinforce_gradient(model, [source] * per_batch, samples, fn(samples, None))
        for k_ in names:
            est = -grads[k_]  # loss gradient is minus the reward gradient
            sums[k_] += est
            sq_sums[k_] += est * est
    bad = 0
    total = 0
    err_sq = 0.0
    ref_sq = 0.0
    for k_ in names:
        mean = sums[k_] / n_batches
        var = sq_sums[k_] / n_batches - mean ** 2
        sigma = np.sqrt(np.maximum(var, 0.0) / n_batches)
        z = np.abs(mean - exact[k_]) / np.where(sigma > 0, sigma, np.inf)
        bad += int((z > 4.0).sum())
        total += z.size
        err_sq += float(((mean - exact[k_]) ** 2).sum())
        ref_sq += float((exact[k_] ** 2).sum())
    # a correct estimator converges in aggregate and leaves at most
    # multiple-comparison stragglers beyond 4 sigma
    assert math.sqrt(err_sq / ref_sq) < 0.1
    assert bad <= max(2, total // 150), f"{bad}/{total} coordinates out of bounds"


def test_rl_step_runs_and_reports(tiny_task, tiny_models, tiny_classifier):
    corpus, gold, vocab = tiny_task
    model_f, model_g = tiny_models
    policy = model_f.clone()
    cfg = TrainConfig(dual_lr=1e-3, reward=RewardConfig(sample_size=2), seed=0)
    batch = corpus.of(corpus.label_x, "train")[:16]
    # the samples rl_step draws: the same policy and a rng with the same seed
    samples, _ = policy.sample_batch(batch, 2, np.random.default_rng(0),
                                     cfg.max_decode_len, cfg.temperature)
    sources_rep = [batch[i // 2] for i in range(len(samples))]
    _, _, r_total = combined_rewards(tiny_classifier, model_g, samples, sources_rep,
                                     corpus.label_y, cfg.reward)
    stats = rl_step(policy, model_g.clone(), tiny_classifier, batch, corpus.label_y,
                    cfg, AdamState(lr=cfg.dual_lr), np.random.default_rng(0))
    assert 0.0 <= stats["mean_r_style"] <= 1.0
    assert 0.0 <= stats["mean_r_content"] <= 1.0
    assert stats["mean_r_total"] == float(np.mean(r_total))
    assert stats["degenerate"] == sum(not s.surface for s in samples)
    assert stats["distinct_pairs"] == len({(y.ids, x.ids) for y, x in zip(samples, sources_rep)
                                           if y.surface})
    # a group is taped unless its k rewards agree (then every advantage is 0)
    assert stats["taped_groups"] == sum(len(set(g)) > 1 for g in r_total.reshape(-1, 2))


def test_teacher_forcing_targets_are_authentic(tiny_task, tiny_models):
    corpus, gold, vocab = tiny_task
    model_f, model_g = tiny_models
    model = model_f.clone()
    batch = corpus.of(corpus.label_y, "train")[:8]
    from dualstyle.pseudo import back_translate_batch
    cfg = TrainConfig()
    pairs = back_translate_batch(model_g, batch, cfg.max_decode_len)
    assert all(p.target is s for p, s in zip(pairs, batch))
    loss = teacher_forcing_step(model, model_g, batch, AdamState(lr=1e-3), cfg)
    assert math.isfinite(loss) and loss > 0


# ---------------------------------------------------------------------------
# pre-training
# ---------------------------------------------------------------------------

def build_pairs(tiny_task):
    corpus, _, vocab = tiny_task
    lex = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    pairs = make_pretrain_pairs(corpus, lex, vocab)
    dev = make_pretrain_pairs(corpus, lex, vocab, split="dev")
    return pairs, dev


def test_pretrain_zero_epochs_is_identity(tiny_task, tiny_models):
    (pairs_f, pairs_g), _ = build_pairs(tiny_task)
    model_f, model_g = tiny_models
    f2, g2 = model_f.clone(), model_g.clone()
    cfg = TrainConfig(pretrain_epochs=0, seed=0)
    pretrain(f2, g2, pairs_f, pairs_g, cfg)
    for k in f2.params:
        assert np.array_equal(f2.params[k].value, model_f.params[k].value)


def test_pretrain_reduces_dev_perplexity_and_is_deterministic(tiny_task, tiny_models):
    (pairs_f, pairs_g), (dev_f, dev_g) = build_pairs(tiny_task)
    model_f, model_g = tiny_models

    def run():
        f2, g2 = model_f.clone(), model_g.clone()
        cfg = TrainConfig(pretrain_epochs=1, pretrain_lr=2e-3, pretrain_batch=32, seed=0)
        report = pretrain(f2, g2, pairs_f, pairs_g, cfg,
                          dev_pairs_f=dev_f, dev_pairs_g=dev_g)
        return f2, report

    f_run1, report = run()
    for direction in ("x2y", "y2x"):
        assert report[direction]["ppl_after"] < report[direction]["ppl_before"]
    f_run2, _ = run()
    for k in f_run1.params:
        assert np.array_equal(f_run1.params[k].value, f_run2.params[k].value)


# ---------------------------------------------------------------------------
# the full loop at miniature scale
# ---------------------------------------------------------------------------

def mini_cfg(**kw):
    base = dict(
        max_dual_epochs=2, max_iterations=None, dual_lr=1e-3, dual_batch=64,
        reward=RewardConfig(sample_size=2),
        schedule=AnnealSchedule(p0=1.0, p_max=100.0, rate=1.1, gap=5.0),
        max_decode_len=16, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def warm_models(tiny_task, tiny_classifier):
    """Pre-trained far enough that dev decoding is not empty, so the tests of
    model selection, early stopping and resume compare real dev scores."""
    corpus, gold, vocab = tiny_task
    lex = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    pairs_f, pairs_g = make_pretrain_pairs(corpus, lex, vocab)
    model_f = Seq2Seq(vocab, embed_dim=24, hidden_dim=32, direction="x2y", seed=[5, 1])
    model_g = Seq2Seq(vocab, embed_dim=24, hidden_dim=32, direction="y2x", seed=[5, 2])
    cfg = TrainConfig(pretrain_epochs=20, pretrain_lr=1e-2, seed=0)
    pretrain(model_f, model_g, pairs_f, pairs_g, cfg)
    dev = evaluate_dev(model_f, model_g, tiny_classifier, corpus, mini_cfg(), gold_refs=gold.refs)
    assert min(dev["dev_acc"], dev["dev_bleu"], dev["dev_score"], dev["dev_gold_bleu"]) > 0.0
    return model_f, model_g


def test_train_is_deterministic_and_freezes_classifier(
        tiny_task, warm_models, tiny_classifier, tmp_path):
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    tiny_classifier.save(tmp_path / "cls_before.ckpt")

    def run(run_dir):
        res = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus,
                    mini_cfg(), run_dir=run_dir, gold_refs=gold.refs)
        return res

    res1 = run(tmp_path / "r1")
    res2 = run(tmp_path / "r2")
    h1 = (tmp_path / "r1" / "events.jsonl").read_bytes()
    h2 = (tmp_path / "r2" / "events.jsonl").read_bytes()
    assert h1 == h2
    for name in ("f_best", "g_best", "f_last", "g_last"):
        assert checkpoint_hash(tmp_path / "r1" / "checkpoints" / f"{name}.ckpt") == \
            checkpoint_hash(tmp_path / "r2" / "checkpoints" / f"{name}.ckpt")

    tiny_classifier.save(tmp_path / "cls_after.ckpt")
    assert checkpoint_hash(tmp_path / "cls_before.ckpt") == \
        checkpoint_hash(tmp_path / "cls_after.ckpt")

    assert len(res1.history) == 2
    events = [json.loads(line) for line in h1.decode("utf-8").splitlines()]
    assert sum(e["event"] == "iteration" for e in events) >= 2
    assert [{k: v for k, v in e.items() if k != "event"}
            for e in events if e["event"] == "epoch"] == res1.history


def test_best_checkpoint_matches_best_score(tiny_task, warm_models, tiny_classifier, tmp_path):
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    cfg = mini_cfg(max_dual_epochs=3)
    res = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus,
                cfg, run_dir=tmp_path / "run", gold_refs=gold.refs)
    best_row = max(res.history, key=lambda r: r["dev_score"])
    assert res.state.best_score == best_row["dev_score"]
    redo = evaluate_dev(res.model_f, res.model_g, tiny_classifier, corpus, cfg,
                        gold_refs=gold.refs)
    assert redo["dev_score"] == pytest.approx(res.state.best_score, abs=1e-9)


def test_early_stopping_stops_after_stall(tiny_task, warm_models, tiny_classifier, tmp_path):
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    # patience 1 with a long epoch budget: the run must halt on the first
    # epoch whose dev score fails to improve, not exhaust the budget
    cfg = mini_cfg(max_dual_epochs=12, patience=1)
    res = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg,
                run_dir=tmp_path, gold_refs=gold.refs)
    scores = [row["dev_score"] for row in res.history]
    if len(res.history) < 12:
        assert scores[-1] <= max(scores[:-1])
        running_best = scores[0]
        for s in scores[1:-1]:
            assert s > running_best
            running_best = s


@pytest.fixture(scope="module")
def straight_run(tiny_task, warm_models, tiny_classifier, tmp_path_factory):
    """A 4-epoch run without interruption, for the resume tests to match."""
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    run_dir = tmp_path_factory.mktemp("straight")
    res = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus,
                mini_cfg(max_dual_epochs=4, patience=10), run_dir=run_dir,
                gold_refs=gold.refs)
    return res, run_dir


def test_resume_reproduces_straight_run(tiny_task, warm_models, tiny_classifier,
                                        straight_run, tmp_path):
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    straight, straight_dir = straight_run
    cfg4 = mini_cfg(max_dual_epochs=4, patience=10)
    cfg2 = mini_cfg(max_dual_epochs=2, patience=10)
    train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg2,
          run_dir=tmp_path / "resumed", gold_refs=gold.refs)
    resumed = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg4,
                    run_dir=tmp_path / "resumed", gold_refs=gold.refs, resume=True)

    assert resumed.history == straight.history
    assert (straight_dir / "events.jsonl").read_bytes() == \
        (tmp_path / "resumed" / "events.jsonl").read_bytes()
    for name in ("f_last", "g_last"):
        assert checkpoint_hash(straight_dir / "checkpoints" / f"{name}.ckpt") == \
            checkpoint_hash(tmp_path / "resumed" / "checkpoints" / f"{name}.ckpt")


def test_resume_after_a_crash_mid_epoch(tiny_task, warm_models, tiny_classifier,
                                       straight_run, tmp_path, monkeypatch):
    # the crash comes after epoch 2's iterations were logged, past the last
    # checkpoint; the resume must cut those lines and run them again
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    straight, straight_dir = straight_run
    cfg4 = mini_cfg(max_dual_epochs=4, patience=10)

    calls = []

    def evaluate_dev_crashing_on_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return evaluate_dev(*args, **kwargs)

    monkeypatch.setattr(dualrl, "evaluate_dev", evaluate_dev_crashing_on_third_call)
    with pytest.raises(KeyboardInterrupt):
        train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg4,
              run_dir=tmp_path / "crashed", gold_refs=gold.refs)
    monkeypatch.undo()
    saved = json.loads((tmp_path / "crashed" / "checkpoints" / "state.json").read_text())
    assert saved["epoch"] == 2
    assert (tmp_path / "crashed" / "events.jsonl").stat().st_size > saved["events_bytes"]

    resumed = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg4,
                    run_dir=tmp_path / "crashed", gold_refs=gold.refs, resume=True)
    assert resumed.history == straight.history
    assert (straight_dir / "events.jsonl").read_bytes() == \
        (tmp_path / "crashed" / "events.jsonl").read_bytes()
    for name in ("f_last", "g_last"):
        assert checkpoint_hash(straight_dir / "checkpoints" / f"{name}.ckpt") == \
            checkpoint_hash(tmp_path / "crashed" / "checkpoints" / f"{name}.ckpt")


def test_resume_returns_the_best_models(tiny_task, warm_models, tiny_classifier,
                                       straight_run, tmp_path):
    # the best epoch comes before the resume point and no later epoch beats it
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    straight, _ = straight_run
    cfg4 = mini_cfg(max_dual_epochs=4, patience=10)
    assert straight.state.best_epoch < 2

    train(model_f.clone(), model_g.clone(), tiny_classifier, corpus,
          mini_cfg(max_dual_epochs=3, patience=10), run_dir=tmp_path / "resumed",
          gold_refs=gold.refs)
    resumed = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg4,
                    run_dir=tmp_path / "resumed", gold_refs=gold.refs, resume=True)
    assert resumed.state.best_epoch == straight.state.best_epoch
    for ours, theirs in ((resumed.model_f, straight.model_f),
                         (resumed.model_g, straight.model_g)):
        for name, p in theirs.params.items():
            assert np.array_equal(ours.params[name].value, p.value), name


def test_train_returns_the_models_it_was_given_holding_the_best_weights(
        tiny_task, warm_models, tiny_classifier, tmp_path):
    corpus, gold, vocab = tiny_task
    f, g = (m.clone() for m in warm_models)
    res = train(f, g, tiny_classifier, corpus, mini_cfg(patience=10),
                run_dir=tmp_path / "run", gold_refs=gold.refs)
    assert res.model_f is f and res.model_g is g
    assert res.state.best_epoch >= 0
    for model, name in ((f, "f_best"), (g, "g_best")):
        arrays, _ = load_checkpoint(tmp_path / "run" / "checkpoints" / f"{name}.ckpt")
        assert set(arrays) == set(model.params)
        for key, p in model.params.items():
            assert np.array_equal(p.value, arrays[key]), (name, key)

    # no iteration: the models come back untouched and the history is empty
    f, g = (m.clone() for m in warm_models)
    res = train(f, g, tiny_classifier, corpus, mini_cfg(max_iterations=0),
                run_dir=tmp_path / "none", gold_refs=gold.refs)
    assert res.model_f is f and res.model_g is g
    assert res.history == [] and res.state.best_epoch == -1
    for model, warm in zip((f, g), warm_models):
        for key, p in warm.params.items():
            assert np.array_equal(model.params[key].value, p.value), key


@pytest.mark.parametrize("mode", ["rl_only", "mle_only"])
def test_ablation_modes_run(tiny_task, warm_models, tiny_classifier, mode, tmp_path):
    corpus, gold, vocab = tiny_task
    model_f, model_g = warm_models
    cfg = mini_cfg(max_dual_epochs=1, ablation=mode)
    res = train(model_f.clone(), model_g.clone(), tiny_classifier, corpus, cfg,
                run_dir=tmp_path / mode, gold_refs=gold.refs)
    assert len(res.history) == 1
    row = res.history[0]
    if mode == "mle_only":
        assert row["mean_r_style"] is None
    else:
        assert row["mean_r_style"] is not None


def test_train_requires_frozen_classifier(tiny_task, warm_models, tmp_path):
    corpus, _, vocab = tiny_task
    from dualstyle.classifier import ClassifierConfig, TextClassifier
    clf = TextClassifier(vocab, ClassifierConfig(embed_dim=8, channels=4, seed=0))
    model_f, model_g = warm_models
    with pytest.raises(RuntimeError):
        train(model_f.clone(), model_g.clone(), clf, corpus, mini_cfg(), run_dir=tmp_path)
