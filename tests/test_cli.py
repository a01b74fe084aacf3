import builtins
import io
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dualstyle import cli, dualrl
from dualstyle.classifier import ClassifierConfig
from dualstyle.corpus import EOS, SyntheticTaskSpec, epoch_batches
from dualstyle.dualrl import TrainConfig, evaluate_dev
from dualstyle.errors import DualStyleError
from dualstyle.optim import AdamState
from dualstyle.pseudo import build_style_lexicon, make_pretrain_pairs
from dualstyle.rewards import RewardConfig
from dualstyle.seq2seq import Seq2Seq

from conftest import DiskFull


@pytest.fixture(scope="module")
def eos_first_run(tmp_path_factory, tiny_task, tiny_classifier):
    """A run directory whose x->y model emits EOS first on some dev inputs.

    The model is pre-trained on its template pairs until its transfers score
    a non-zero gold BLEU; its EOS bias is then raised until a quarter of the
    dev inputs decode to an empty output.
    """
    corpus, gold, vocab = tiny_task
    lex = build_style_lexicon(corpus, lam=1.0, gamma=30.0)
    pairs_f, _ = make_pretrain_pairs(corpus, lex, vocab)
    model_f = Seq2Seq(vocab, embed_dim=24, hidden_dim=32, direction="x2y", seed=[5, 1])
    opt = AdamState(lr=1e-2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        for batch in epoch_batches(pairs_f, 32, rng):
            model_f.mle_step([(p.source, p.target) for p in batch], opt, 5.0)
    inputs = corpus.of(corpus.label_x, "dev")
    max_len = cli.DEFAULTS["max_decode_len"]
    for _ in range(40):
        model_f.params["out_b"].value[EOS] += 0.25
        n_empty = sum(not o.surface for o in model_f.greedy_decode_batch(inputs, max_len))
        if n_empty >= len(inputs) // 4:
            break
    assert 0 < n_empty < len(inputs)

    root = tmp_path_factory.mktemp("cli")
    run_dir = root / "run"
    tiny_classifier.save(run_dir / "checkpoints" / "cls.ckpt")
    model_f.save(run_dir / "checkpoints" / "f_best.ckpt")
    cli.save_vocab(vocab, run_dir)
    in_path, ref_path = root / "in.txt", root / "ref0.txt"
    in_path.write_text("".join(s.text() + "\n" for s in inputs))
    ref_path.write_text("".join(
        rr[0].text() + "\n" for rr in gold.refs[(corpus.label_x.name, "dev")]))
    return {"root": root, "run_dir": run_dir, "model_f": model_f, "n_empty": n_empty,
            "in_path": in_path, "ref_path": ref_path}


def _evaluate_args(run, out_path, target_style):
    return ["evaluate", "--run-dir", str(run["run_dir"]), "--outputs", str(out_path),
            "--refs", str(run["ref_path"]), "--target-style", target_style]


def test_transfer_then_evaluate_matches_dev_scores(eos_first_run, tiny_task, tiny_models,
                                                   tiny_classifier):
    corpus, gold, _ = tiny_task
    run = eos_first_run
    dev = evaluate_dev(run["model_f"], tiny_models[1], tiny_classifier, corpus,
                       TrainConfig(max_decode_len=cli.DEFAULTS["max_decode_len"]),
                       gold_refs=gold.refs)["x2y"]
    assert dev["dev_acc"] > 0.0 and dev["dev_gold_bleu"] > 0.0

    out_path, report_dir = run["root"] / "out.txt", run["root"] / "report"
    assert cli.main(["transfer", "--run-dir", str(run["run_dir"]), "--direction", "x2y",
                     "--in", str(run["in_path"]), "--out", str(out_path)]) == 0
    assert out_path.read_text().splitlines().count("") == run["n_empty"]
    assert cli.main(_evaluate_args(run, out_path, corpus.label_y.name) + [
        "--inputs", str(run["in_path"]), "--report-dir", str(report_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    assert report["n_sentences"] == len(corpus.of(corpus.label_x, "dev"))
    assert (report["acc"], report["bleu"]) == (dev["dev_acc"], dev["dev_gold_bleu"])
    rows = [r.split("\t") for r in (report_dir / "sentences.tsv").read_text().splitlines()[1:]]
    assert [float(r[2]) for r in rows if r[1] == ""] == [0.0] * run["n_empty"]


def test_evaluate_rejects_unknown_target_style(eos_first_run, capsys):
    ref_path = eos_first_run["ref_path"]
    assert cli.main(_evaluate_args(eos_first_run, ref_path, "bogus")) == 1
    err = capsys.readouterr().err
    assert "DualStyleError" in err and "'negative'" in err and "'positive'" in err


def test_evaluate_reports_an_os_error_as_an_error_line(eos_first_run, capsys):
    # "ref0.txt," also names "", and Path("") is the current directory
    args = _evaluate_args(eos_first_run, eos_first_run["ref_path"], "positive")
    args[args.index("--refs") + 1] += ","
    assert cli.main(args) == 1
    assert "error=IsADirectoryError detail=" in capsys.readouterr().err


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    # a value must have its default's JSON type: an int key never takes a bool,
    # a float key takes an int, and max_iterations takes an int or null
    for bad, named in (({"seed": 3, "log_rewards": True}, "log_rewards"),
                       ({"dual_batch": "32"}, "dual_batch"), ({"cls_epochs": "2"}, "cls_epochs"),
                       ({"seed": True}, "seed"), ({"cls_epochs": 2.0}, "cls_epochs"),
                       ({"dual_lr": "1e-3"}, "dual_lr"), ({"beta": None}, "beta"),
                       ({"style_x": 1}, "style_x"), ({"max_iterations": 1.5}, "max_iterations"),
                       ({"max_iterations": "5"}, "max_iterations"), (3, "JSON object"),
                       ([["seed", 3]], "JSON object")):
        path.write_text(json.dumps(bad))
        with pytest.raises(DualStyleError, match=named):
            cli.resolve_config(path)
    path.write_text(json.dumps({"seed": 3, "dual_lr": 1, "max_iterations": None}))
    cfg = cli.resolve_config(path, preset="desk")
    assert (cfg["seed"], cfg["dual_lr"], cfg["max_iterations"]) == (3, 1, None)
    path.write_text(json.dumps({"max_iterations": 5}))
    assert cli.resolve_config(path)["max_iterations"] == 5


def test_a_config_value_of_the_wrong_type_is_an_error_line(tmp_path, capsys):
    # unchecked, both died with a TypeError traceback, the second after writing
    # config.json and vocab.txt
    run = _trained_run(tmp_path, commands=("synth",))
    bad = ((["train"], {"dual_batch": "32"}), (["pretrain-classifier"], {"cls_epochs": "2"}))
    for command, change in bad:
        capsys.readouterr()
        assert run(command, **change) == 1, change
        assert "error=DualStyleError detail=config key " in capsys.readouterr().err, change
    assert not (tmp_path / "run").exists()
    assert run(["pretrain-classifier"]) == 0
    saved = (tmp_path / "run" / "config.json").read_bytes()
    for command, change in bad:
        assert run(command, **change) == 1, change
        assert (tmp_path / "run" / "config.json").read_bytes() == saved, change


def _trained_run(tmp_path, commands=("synth", "pretrain-classifier", "pretrain", "train")):
    """Run the pipeline's ``commands`` at toy size under ``tmp_path/run``;
    returns ``run(command, **changes)``, which runs one more CLI command."""
    cfg = {"train_per_style": 40, "dev_per_style": 10, "test_per_style": 10,
           "embed_dim": 8, "hidden_dim": 8, "cls_embed_dim": 8, "cls_channels": 4,
           "cls_epochs": 1, "pretrain_epochs": 1, "max_dual_epochs": 1, "max_iterations": 1,
           "dual_batch": 16, "sample_size": 2, "max_decode_len": 8,
           "data_dir": str(tmp_path / "data"), "run_dir": str(tmp_path / "run")}

    def run(command, **changes):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**cfg, **changes}))
        return cli.main(command + ["--config", str(path)])

    for command in commands:
        assert run([command]) == 0
    return run


def test_resume_refuses_a_changed_config(tmp_path, capsys):
    run = _trained_run(tmp_path)
    saved = (tmp_path / "run" / "config.json").read_text()
    capsys.readouterr()
    assert run(["train", "--resume"], dual_lr=5e-4, seed=3) == 1
    err = capsys.readouterr().err
    assert "DualStyleError" in err and "dual_lr" in err and "seed" in err
    assert (tmp_path / "run" / "config.json").read_text() == saved
    assert run(["train", "--resume"], max_dual_epochs=2, max_iterations=2) == 0
    assert json.loads((tmp_path / "run" / "config.json").read_text())["max_dual_epochs"] == 2


# The annealing start, rate and cap, keys of config files and run directories
# written before they became the constants dualrl.P0, P_MAX and ANNEAL_RATE.
REMOVED_SCHEDULE_KEYS = {"p0": 1.0, "p_max": 100.0, "anneal_rate": 1.1}


def test_a_config_file_naming_a_removed_schedule_key_is_refused(tmp_path, capsys):
    run = _trained_run(tmp_path, commands=("synth",))
    for key, value in REMOVED_SCHEDULE_KEYS.items():
        capsys.readouterr()
        assert run(["train"], **{key: value}) == 1, key
        assert f"error=DualStyleError detail=unknown config keys: ['{key}']" in \
            capsys.readouterr().err, key
    assert not (tmp_path / "run").exists()


def test_resume_refuses_a_run_whose_config_holds_removed_schedule_keys(tmp_path, capsys):
    run = _trained_run(tmp_path)
    config = tmp_path / "run" / "config.json"
    config.write_text(json.dumps({**json.loads(config.read_text()), **REMOVED_SCHEDULE_KEYS}))
    saved = {path: path.read_bytes() for path in (config, tmp_path / "run" / "events.jsonl")}
    capsys.readouterr()
    assert run(["train", "--resume"]) == 1
    err = capsys.readouterr().err
    assert "error=DualStyleError detail=cannot resume with a changed config: " in err
    assert all(f"{key} {value!r} -> None" in err for key, value in REMOVED_SCHEDULE_KEYS.items())
    assert {path: path.read_bytes() for path in saved} == saved


def test_resume_refuses_a_state_file_of_another_version(tmp_path, capsys):
    run = _trained_run(tmp_path)
    state_path = tmp_path / "run" / "checkpoints" / "state.json"
    state_path.write_text(json.dumps({**json.loads(state_path.read_text()),
                                      "epochs_since_improvement": 0}))
    events = (tmp_path / "run" / "events.jsonl").read_bytes()
    capsys.readouterr()
    assert run(["train", "--resume"]) == 1
    err = capsys.readouterr().err
    assert "error=StateMismatchError" in err and "epochs_since_improvement" in err
    assert (tmp_path / "run" / "events.jsonl").read_bytes() == events


def test_resume_refuses_models_of_another_size(tmp_path, capsys):
    run = _trained_run(tmp_path)
    # a new warm start at another width rewrites config.json, so the config
    # check passes and only the weights differ from the saved *_last models
    assert run(["pretrain"], hidden_dim=4) == 0
    events = (tmp_path / "run" / "events.jsonl").read_bytes()
    capsys.readouterr()
    assert run(["train", "--resume"], hidden_dim=4) == 1
    err = capsys.readouterr().err
    assert "error=ValueError" in err and "f_last.ckpt" in err
    assert (tmp_path / "run" / "events.jsonl").read_bytes() == events


def test_train_prints_the_dev_metrics_of_its_best_epoch(tmp_path, capsys, monkeypatch):
    run = _trained_run(tmp_path, commands=("synth", "pretrain-classifier", "pretrain"))
    scores = iter([30.0, 20.0, 10.0])

    def falling_scores(*args, **kwargs):
        score = next(scores)
        return {"dev_acc": score + 1, "dev_bleu": score + 2, "dev_score": score,
                "dev_gold_bleu": score + 3, "dev_gold_h2": score + 4}

    monkeypatch.setattr(dualrl, "evaluate_dev", falling_scores)
    capsys.readouterr()
    # one iteration per epoch; patience 2 stops the run after epoch 2
    assert run(["train"], dual_batch=40, max_dual_epochs=4, max_iterations=4, patience=2) == 0
    (line,) = [out for out in capsys.readouterr().out.splitlines()
               if out.startswith("event=train ")]
    assert " epochs=3 " in line and " best_epoch=0 " in line
    assert line.endswith(" dev_score=30.0 dev_acc=31.0 dev_gold_bleu=33.0")


def test_interrupted_config_write_keeps_the_run_resumable(tmp_path, monkeypatch):
    run = _trained_run(tmp_path)
    run_dir = tmp_path / "run"
    saved = (run_dir / "config.json").read_text()
    real_open = builtins.open

    def full_disk_in_run_dir(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if "w" in mode and Path(file).parent == run_dir else fh

    # every way a file gets opened for writing: open() and Path.write_text
    monkeypatch.setattr(builtins, "open", full_disk_in_run_dir)
    monkeypatch.setattr(io, "open", full_disk_in_run_dir)
    with pytest.raises(OSError, match="disk full"):
        cli.write_config({**json.loads(saved), "max_dual_epochs": 2}, run_dir)
    monkeypatch.undo()
    assert (run_dir / "config.json").read_text() == saved
    assert sorted(p.name for p in run_dir.iterdir() if p.is_file()) == [
        "config.json", "events.jsonl", "vocab.txt"]
    assert run(["train", "--resume"], max_dual_epochs=2, max_iterations=2) == 0


@pytest.mark.parametrize("styles", [("positive",), ("negative", "positive")])
def test_train_without_a_dev_split_names_the_style_and_writes_no_events(
        tmp_path, capsys, styles):
    run = _trained_run(tmp_path, commands=("synth",))
    for style in styles:
        (tmp_path / "data" / f"{style}.dev.txt").unlink()
    assert run(["pretrain-classifier"]) == 0
    assert run(["pretrain"]) == 0
    capsys.readouterr()
    assert run(["train"]) == 1
    err = capsys.readouterr().err
    assert f"error=InvalidSpecError detail=no dev sentences for style {', '.join(styles)}:" in err
    assert not (tmp_path / "run" / "events.jsonl").exists()


def _drop_last_line(path: Path) -> None:
    path.write_text("".join(line + "\n" for line in path.read_text().splitlines()[:-1]))


@pytest.mark.parametrize("style,damage", [("negative", _drop_last_line),
                                          ("positive", Path.unlink)])
def test_train_refuses_dev_references_that_miss_a_sentence_or_a_style(
        tmp_path, capsys, style, damage):
    # unchecked, both fail only after a whole epoch: one with a LengthMismatchError,
    # the other with a KeyError, and neither leaves a run that can be resumed
    run = _trained_run(tmp_path, commands=("synth", "pretrain-classifier", "pretrain"))
    damage(tmp_path / "data" / f"{style}.dev.ref0.txt")
    capsys.readouterr()
    assert run(["train"]) == 1
    err = capsys.readouterr().err
    assert f"error=InvalidSpecError detail=dev references for style {style} " in err
    assert not (tmp_path / "run" / "events.jsonl").exists()


def test_train_refuses_settings_that_crash_or_corrupt_a_run_before_writing(tmp_path, capsys):
    run = _trained_run(tmp_path)
    run_dir = tmp_path / "run"
    saved = {name: (run_dir / name).read_bytes() for name in ("config.json", "events.jsonl")}
    # a beta whose square overflows makes every reward NaN
    for bad in ({"temperature": 0}, {"grad_clip": -1}, {"anneal_gap": 0}, {"anneal_gap": -1},
                {"dual_batch": 0}, {"pretrain_batch": 0}, {"max_decode_len": 0},
                {"patience": 0}, {"dual_lr": float("nan")}, {"anneal_gap": float("nan")},
                {"max_dual_epochs": 0}, {"max_dual_epochs": -2}, {"max_iterations": 0},
                {"pretrain_epochs": -1}, {"beta": 1e200}, {"beta": float("inf")}):
        capsys.readouterr()
        assert run(["train"], **bad) == 1, bad
        assert "error=ValueError detail=" in capsys.readouterr().err, bad
        assert {name: (run_dir / name).read_bytes() for name in saved} == saved, bad


def test_pretrain_classifier_refuses_a_classifier_that_cannot_train(tmp_path, capsys):
    # at 0 epochs an untrained classifier would become the style reward of train
    run = _trained_run(tmp_path, commands=("synth",))
    capsys.readouterr()
    assert run(["pretrain-classifier"], cls_epochs=0) == 1
    assert "error=ValueError detail=" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# A distinct value, none of them a default, for every key that fills a field
# of a library config object.
ROUTED = {
    "kind": "marker", "seed": 7, "vocab_size": 201, "max_len": 13, "pair_count": 11,
    "train_per_style": 4001, "dev_per_style": 401, "test_per_style": 402,
    "rare_pair_count": 3, "rare_weight": 0.45, "style_x": "sad", "style_y": "glad",
    "pretrain_epochs": 6, "max_dual_epochs": 21, "max_iterations": 161, "pretrain_lr": 2e-3,
    "dual_lr": 3e-5, "pretrain_batch": 33, "dual_batch": 129, "ablation": "rl_only",
    "patience": 2, "grad_clip": 5.5, "temperature": 0.9, "max_decode_len": 31,
    "beta": 0.6, "sample_size": 5, "anneal_gap": 999.0, "cls_embed_dim": 65,
    "cls_channels": 34, "cls_epochs": 9,
}


def test_each_config_key_fills_exactly_its_own_field(tmp_path, monkeypatch):
    d = cli.DEFAULTS
    assert set(ROUTED) == set(d) - {"embed_dim", "hidden_dim", "min_count", "salience_lambda",
                                    "salience_gamma", "data_dir", "run_dir"}
    assert all(value != d[key] for key, value in ROUTED.items())
    assert len({repr(value) for value in ROUTED.values()}) == len(ROUTED)
    cfg = {**d, **ROUTED}

    def same_name(cls):
        return {f.name: ROUTED[f.name] for f in fields(cls) if f.name in ROUTED}

    assert cli.task_spec(cfg) == SyntheticTaskSpec(**same_name(SyntheticTaskSpec))
    assert cli.train_config(cfg) == TrainConfig(
        **same_name(TrainConfig), reward=RewardConfig(**same_name(RewardConfig)))

    class Built(Exception):
        pass

    def capture(corpus, vocab, cls_cfg):
        raise Built(cls_cfg)

    _toy_data(tmp_path)
    monkeypatch.setattr(cli, "train_classifier", capture)
    with pytest.raises(Built) as built:
        cli.cmd_pretrain_classifier({**cfg, "style_x": d["style_x"], "style_y": d["style_y"],
                                     "data_dir": str(tmp_path / "data"),
                                     "run_dir": str(tmp_path / "run")})
    assert built.value.args[0] == ClassifierConfig(
        embed_dim=ROUTED["cls_embed_dim"], channels=ROUTED["cls_channels"],
        epochs=ROUTED["cls_epochs"], seed=ROUTED["seed"])

    for key, value in cli.DESK_PRESET.items():
        assert key in d and not isinstance(value, bool), key
        assert isinstance(value, cli.FILE_TYPES[type(d[key])]), key


def test_ablate_trains_a_copy_of_the_run_under_the_named_mode(tmp_path):
    run = _trained_run(tmp_path)
    assert run(["ablate", "--mode", "mle_only"]) == 0
    base, sub = tmp_path / "run", tmp_path / "run" / "ablate_mle_only"
    for name in ("cls", "f_pre", "g_pre"):
        assert (sub / "checkpoints" / f"{name}.ckpt").read_bytes() == \
            (base / "checkpoints" / f"{name}.ckpt").read_bytes(), name
    events = [json.loads(line) for line in (sub / "events.jsonl").read_text().splitlines()]
    assert any(e["event"] == "epoch" for e in events)
    assert json.loads((sub / "config.json").read_text())["ablation"] == "mle_only"


def _blank_third_line(src: Path, dst: Path) -> Path:
    lines = src.read_text().splitlines()
    dst.write_text("\n".join(lines[:2] + [" "] + lines[3:]) + "\n")
    return dst


def _toy_data(tmp_path):
    """``synth`` at toy size; returns ``run(command)`` on the same config."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train_per_style": 10, "dev_per_style": 5, "test_per_style": 5,
                                "data_dir": str(tmp_path / "data"),
                                "run_dir": str(tmp_path / "run")}))

    def run(command):
        return cli.main(command + ["--config", str(path)])

    assert run(["synth"]) == 0
    return run


def test_a_blank_corpus_line_is_named_by_place(tmp_path, capsys):
    run = _toy_data(tmp_path)
    path = tmp_path / "data" / f"{cli.DEFAULTS['style_x']}.train.txt"
    _blank_third_line(path, path)
    assert run(["pretrain-classifier"]) == 1
    assert f"detail={path}:3: blank line" in capsys.readouterr().err


def test_a_blank_reference_line_is_named_by_place(tmp_path, capsys):
    run = _toy_data(tmp_path)
    path = tmp_path / "data" / f"{cli.DEFAULTS['style_y']}.test.ref0.txt"
    _blank_third_line(path, path)
    assert run(["train"]) == 1
    assert f"detail={path}:3: blank line" in capsys.readouterr().err


@pytest.mark.parametrize("column", ["--refs", "--inputs"])
def test_a_blank_evaluate_line_is_named_by_place(eos_first_run, column, tmp_path, capsys):
    run = eos_first_run
    path = _blank_third_line(run["ref_path"], tmp_path / "blank.txt")
    args = _evaluate_args(run, run["ref_path"], "positive")
    if column == "--refs":
        args[args.index("--refs") + 1] = str(path)
    else:
        args += ["--inputs", str(path)]
    assert cli.main(args) == 1
    assert f"detail={path}:3: blank line" in capsys.readouterr().err


def test_a_blank_transfer_input_line_is_named_by_place(eos_first_run, tmp_path, capsys):
    run = eos_first_run
    path = _blank_third_line(run["in_path"], tmp_path / "blank.txt")
    assert cli.main(["transfer", "--run-dir", str(run["run_dir"]), "--direction", "x2y",
                     "--in", str(path), "--out", str(tmp_path / "out.txt")]) == 1
    assert f"detail={path}:3: blank line" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


def test_an_empty_transfer_input_is_refused(eos_first_run, tmp_path, capsys):
    run = eos_first_run
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert cli.main(["transfer", "--run-dir", str(run["run_dir"]), "--direction", "x2y",
                     "--in", str(path), "--out", str(tmp_path / "out.txt")]) == 1
    assert f"error=EmptySequenceError detail={path}: no sentences" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()
