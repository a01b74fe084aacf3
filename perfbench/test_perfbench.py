"""Checks of the benchmark itself, at a tiny scale.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload runs once traced.  The spans it is expected to reach must fire
and the spans predicted to stay at zero must stay at zero; an untraced run
must not see a single tracer wrapper.
"""

import json
from pathlib import Path

import pytest

from dualstyle import classifier, dualrl, seq2seq
from dualstyle.corpus import EOS, Sentence
from perfbench import run, tracer, workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = workloads.Scale(
    embed_dim=24, hidden_dim=32, train_per_style=300, dev_per_style=40,
    test_per_style=40, cls_embed_dim=16, cls_channels=8, warm_lr=1e-2,
    warm_steps=60, dual_iterations=2, dual_batch=16, check_rows=4,
)

OPS_FWD = [f"autodiff.{op}.fwd_s" for op in tracer.OPS]
OPS_BWD = [f"autodiff.{op}.bwd_s" for op in tracer.OPS]
SAMPLING = ["seq2seq.sample_batch.s", "seq2seq.sample_batch.tokens"]
REWARDS = ["rewards.combined_rewards.s", "rewards.content_reward_batch.s",
           "rewards.style_reward_batch.s", "rewards.valid_ratio"]
TRAINING = ["autodiff.backward.s", "autodiff.backward.calls", "autodiff.tape_nodes",
            "optim.adam_step.s", "optim.clip_global_norm.s"]

EXPECTED = {
    "warm_start": {
        "fire": OPS_FWD + OPS_BWD + TRAINING + [
            "seq2seq.mle_step.s_p50", "classifier.train_batch.s",
            "classifier.classify_prob_batch.s", "corpus.pad_batch.s",
            "pseudo.build_style_lexicon.s", "pseudo.make_pretrain_pairs.s",
        ],
        "zero": SAMPLING + REWARDS + [
            "dualrl.rl_step.s_p50", "dualrl.tf_triggers",
            "pseudo.back_translate_batch.s", "cli.cmd_transfer.s",
        ],
    },
    "dual_rl": {
        "fire": OPS_FWD + [m for m in OPS_BWD if "conv1d" not in m] + TRAINING
        + SAMPLING + REWARDS + [
            "seq2seq.log_prob_batch.s", "seq2seq.clone.s",
            "seq2seq.greedy_decode_batch.s", "seq2seq.decode_steps",
            "seq2seq.mle_step.s_p50", "dualrl.rl_step.s_p50",
            "dualrl.reinforce_gradient.self_s", "dualrl.teacher_forcing_step.s",
            "dualrl.tf_triggers", "dualrl.evaluate_dev.s",
            "classifier.classify_prob_batch.rows", "pseudo.back_translate_batch.s",
            "corpus.pad_batch.s", "evaluation.corpus_bleu.s",
            "checkpoint.save_checkpoint.s", "checkpoint.save_checkpoint.bytes",
        ],
        "zero": ["classifier.train_batch.s", "autodiff.conv1d.bwd_s",
                 "cli.cmd_transfer.s", "cli.cmd_evaluate.s"],
    },
    "transfer": {
        "fire": [m for m in OPS_FWD if "cross_entropy" not in m] + [
            "seq2seq.greedy_decode_batch.s", "seq2seq.greedy_decode_batch.mean_len",
            "classifier.classify_prob_batch.s", "evaluation.corpus_bleu.s",
            "evaluation.evaluate_sentences.s", "evaluation.sentence_bleu_smoothed.s",
            "checkpoint.load_checkpoint.s", "cli.cmd_transfer.s", "cli.cmd_evaluate.s",
        ],
        "zero": OPS_BWD + TRAINING + SAMPLING + REWARDS + [
            "seq2seq.mle_step.s_p50", "dualrl.rl_step.s_p50",
            "checkpoint.save_checkpoint.s",
        ],
    },
}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def traced(request, tmp_path_factory):
    out = workloads.run(request.param, 3, 0.0, True, TINY,
                        tmp_path_factory.mktemp(request.param))
    return request.param, out


def test_traced_run_is_clean(traced):
    name, out = traced
    assert out["ledger"].failed == 0, out["ledger"].problems
    assert not tracer.installed_wrappers()
    memory = out["memory"]
    assert memory["measure_peak_mb"] >= memory["measure_start_mb"] > 0


def test_metrics_match_benchmark_json(traced):
    name, out = traced
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    reported = run.end_to_end(out["result"], out["setup_s"], 100.0)
    assert {k: v["unit"] for k, v in reported.items()} == declared
    assert all(reported[k]["value"] > 0 for k in ("setup_s", "throughput", "clf_sent_per_s"))
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == dict(tracer.PER_LAYER_METRICS)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_expected_spans_fire(traced):
    name, out = traced
    per_layer = out["per_layer"]
    assert set(per_layer) == {m for m, _ in tracer.PER_LAYER_METRICS}
    silent = [m for m in EXPECTED[name]["fire"] if per_layer[m] <= 0]
    assert not silent


def test_predicted_zero_spans_stay_zero(traced):
    name, out = traced
    moved = {m: out["per_layer"][m] for m in EXPECTED[name]["zero"] if out["per_layer"][m]}
    assert not moved


def test_untraced_run_sees_no_wrapper(tmp_path):
    out = workloads.run("warm_start", 4, 0.0, False, TINY, tmp_path)
    ledger = out["ledger"]
    assert ledger.failed == 0, ledger.problems
    assert out["per_layer"] is None


def test_every_import_site_is_patched():
    tr = tracer.Tracer()
    tr.install()
    try:
        bound = [dualrl.adam_step, dualrl.clip_global_norm, dualrl.combined_rewards,
                 dualrl.back_translate_batch, dualrl.pad_batch,
                 seq2seq.adam_step, seq2seq.clip_global_norm, seq2seq.pad_batch,
                 classifier.adam_step, classifier.clip_global_norm]
        assert all(hasattr(fn, tracer.MARK) for fn in bound)
    finally:
        tr.uninstall()
    assert not tracer.installed_wrappers()


def test_spans_nest_inside_their_parents(tmp_path):
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.active = True
        with tr.span("bench"):
            workloads.prepare(workloads.config(3, TINY, tmp_path))
    finally:
        tr.active = False
        tr.uninstall()
    assert tr.spans
    for name, start, end, parent, _is_op in tr.spans:
        assert start <= end
        if parent >= 0:
            p = tr.spans[parent]
            assert p[1] <= start and end <= p[2]


def test_failed_check_counts():
    ledger = workloads.Ledger()
    good = Sentence(surface=("a",), ids=(4, EOS))
    no_eos = Sentence(surface=("a", "a"), ids=(4, 4))
    workloads.check_decoded(ledger, [good], vocab_size=5, cap=3, what="good")
    workloads.check_decoded(ledger, [no_eos], vocab_size=5, cap=3, what="short, no EOS")
    workloads.check_decoded(ledger, [Sentence(("x",), (7, EOS))], 5, 3, "out of range")
    workloads.check_finite(ledger, [0.5, float("nan")], "nan reward", 0.0, 1.0)
    assert (ledger.attempted, ledger.failed) == (4, 3)
