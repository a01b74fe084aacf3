import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualstyle.corpus import (
    EOS,
    PAD,
    UNK,
    Sentence,
    SyntheticTaskSpec,
    build_vocab,
    epoch_batches,
    generate_synthetic,
    lexicon_oracle_label,
    load_corpus,
    load_references,
    pad_batch,
    read_references,
    save_corpus,
    save_references,
    tokenize,
)
from dualstyle.errors import EmptyLineError, InvalidSpecError, LengthMismatchError


def test_tokenize_whitespace_split():
    assert tokenize("good food !").surface == ("good", "food", "!")


def test_tokenize_collapses_runs():
    assert tokenize("  a  b ").surface == ("a", "b")


def test_tokenize_rejects_empty():
    with pytest.raises(EmptyLineError):
        tokenize("")
    with pytest.raises(EmptyLineError):
        tokenize("   \t ")


def test_build_vocab_min_count():
    sents = [tokenize("a a b")]
    v1 = build_vocab(sents, min_count=1)
    assert v1.id_of("a") != UNK and v1.id_of("b") != UNK
    assert len(v1) == 6  # 4 reserved + 2

    v2 = build_vocab(sents, min_count=2)
    assert v2.id_of("b") == UNK
    assert v2.to_ids(tokenize("b")).ids[0] == UNK


def test_build_vocab_deterministic_order():
    sents = [tokenize("c a a b b z")]
    v1 = build_vocab(sents, min_count=1)
    v2 = build_vocab(sents, min_count=1)
    assert v1.id_to_token == v2.id_to_token
    # frequency desc, then lexicographic
    assert v1.id_to_token[4:] == ["a", "b", "c", "z"]


def test_to_ids_appends_eos_and_round_trips():
    vocab = build_vocab([tokenize("good food")], min_count=1)
    s = vocab.to_ids(tokenize("good food"))
    assert s.ids[-1] == EOS
    assert [vocab.token_of(i) for i in s.ids[:-1]] == ["good", "food"]


def test_oov_maps_to_unk():
    vocab = build_vocab([tokenize("good food")], min_count=1)
    s = vocab.to_ids(tokenize("good pizza"))
    assert s.ids[1] == UNK


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12))
def test_round_trip_property(tokens):
    vocab = build_vocab([tokenize("a b c d e f g")], min_count=1)
    s = vocab.to_ids(Sentence(surface=tuple(tokens)))
    assert tuple(vocab.token_of(i) for i in s.ids[:-1]) == tuple(tokens)
    assert all(i >= 4 for i in s.ids[:-1])  # reserved ids never produced


def test_synthetic_deterministic():
    spec = SyntheticTaskSpec(train_per_style=50, dev_per_style=10, test_per_style=10, seed=7)
    c1, g1 = generate_synthetic(spec)
    c2, g2 = generate_synthetic(spec)
    for key in c1.sentences:
        assert [s.surface for s in c1.sentences[key]] == [s.surface for s in c2.sentences[key]]
    assert g1.lexicon == g2.lexicon
    for key in g1.refs:
        assert [[r.surface for r in line] for line in g1.refs[key]] == \
               [[r.surface for r in line] for line in g2.refs[key]]


def test_synthetic_shapes_and_unsupervised_contract():
    spec = SyntheticTaskSpec(train_per_style=40, dev_per_style=12, test_per_style=9, seed=1)
    corpus, gold = generate_synthetic(spec)
    for label in corpus.labels():
        assert len(corpus.of(label, "train")) == 40
        assert len(corpus.of(label, "dev")) == 12
        assert len(corpus.of(label, "test")) == 9
        assert (label.name, "train") not in gold.refs
        assert (label.name, "dev") in gold.refs
        assert (label.name, "test") in gold.refs


def test_gold_map_is_involution():
    spec = SyntheticTaskSpec(train_per_style=30, dev_per_style=10, test_per_style=10, seed=3)
    corpus, gold = generate_synthetic(spec)
    for label in corpus.labels():
        for s in corpus.of(label, "dev"):
            assert gold.apply_gold(gold.apply_gold(s)).surface == s.surface


def test_every_sentence_carries_a_style_word():
    spec = SyntheticTaskSpec(train_per_style=60, dev_per_style=10, test_per_style=10, seed=9)
    corpus, gold = generate_synthetic(spec)
    words = {0: set(gold.x_words), 1: set(gold.y_words)}
    for label in corpus.labels():
        for split in ("train", "dev", "test"):
            for s in corpus.of(label, split):
                assert words[label.index] & set(s.surface)


def test_lexicon_oracle_is_perfect():
    spec = SyntheticTaskSpec(train_per_style=60, dev_per_style=20, test_per_style=10, seed=2)
    corpus, gold = generate_synthetic(spec)
    for label in corpus.labels():
        for s in corpus.of(label, "dev"):
            assert lexicon_oracle_label(s, gold) == label.index


def test_gold_reference_matches_lexicon_substitution():
    spec = SyntheticTaskSpec(train_per_style=30, dev_per_style=15, test_per_style=10, seed=4)
    corpus, gold = generate_synthetic(spec)
    for label in corpus.labels():
        refs = gold.refs[(label.name, "dev")]
        for s, ref in zip(corpus.of(label, "dev"), refs):
            assert ref[0].surface == gold.apply_gold(s).surface


@pytest.mark.parametrize("kind", ["casing", "marker"])
def test_other_kinds_generate(kind):
    spec = SyntheticTaskSpec(kind=kind, train_per_style=20, dev_per_style=5,
                             test_per_style=5, seed=0)
    corpus, gold = generate_synthetic(spec)
    assert len(corpus.of(corpus.label_x, "train")) == 20
    s = corpus.of(corpus.label_y, "dev")[0]
    ref = gold.refs[(corpus.label_y.name, "dev")][0][0]
    assert s.surface != ref.surface


def test_invalid_specs_rejected():
    with pytest.raises(InvalidSpecError):
        generate_synthetic(SyntheticTaskSpec(kind="nope"))
    with pytest.raises(InvalidSpecError):
        generate_synthetic(SyntheticTaskSpec(pair_count=0))
    with pytest.raises(InvalidSpecError):
        generate_synthetic(SyntheticTaskSpec(vocab_size=10))


def test_corpus_files_round_trip(tmp_path):
    spec = SyntheticTaskSpec(train_per_style=25, dev_per_style=8, test_per_style=6, seed=11)
    corpus, gold = generate_synthetic(spec)
    save_corpus(corpus, tmp_path)
    save_references(gold.refs, tmp_path)
    loaded = load_corpus(tmp_path, corpus.label_x.name, corpus.label_y.name)
    for key in corpus.sentences:
        assert [s.surface for s in loaded.sentences[key]] == \
               [s.surface for s in corpus.sentences[key]]
    refs = load_references(tmp_path, corpus.label_x.name, "dev")
    assert len(refs) == 8
    assert refs[0][0].surface == gold.refs[(corpus.label_x.name, "dev")][0][0].surface

    ref0, ref1 = tmp_path / f"{corpus.label_x.name}.dev.ref0.txt", tmp_path / "other.txt"
    lines = ref0.read_text(encoding="utf-8").splitlines()
    ref1.write_text("".join(line + "\n" for line in reversed(lines)), encoding="utf-8")
    assert [[r.text() for r in rr] for rr in read_references([ref0, ref1])] == \
        [[a, b] for a, b in zip(lines, reversed(lines))]
    ref1.write_text("".join(line + "\n" for line in lines[:-1]), encoding="utf-8")
    with pytest.raises(LengthMismatchError, match=re.escape(f"{ref1} has 7 lines")):
        read_references([ref0, ref1])


def test_load_corpus_rejects_a_blank_line_naming_its_place(tmp_path):
    # dev and test files are line-aligned with their references: dropping a
    # blank line would shift every later sentence against its reference
    spec = SyntheticTaskSpec(train_per_style=25, dev_per_style=8, test_per_style=6, seed=11)
    corpus, _ = generate_synthetic(spec)
    save_corpus(corpus, tmp_path)
    path = tmp_path / f"{corpus.label_x.name}.dev.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:3] + ["  "] + lines[3:]) + "\n", encoding="utf-8")
    with pytest.raises(EmptyLineError, match=re.escape(f"{path}:4:")):
        load_corpus(tmp_path, corpus.label_x.name, corpus.label_y.name)


def test_pad_batch():
    ids, mask = pad_batch([(4, 5, EOS), (6, EOS)])
    assert ids.shape == (2, 3)
    assert ids[1, 2] == PAD
    assert mask.tolist() == [[1, 1, 1], [1, 1, 0]]


@pytest.mark.parametrize("size,lengths", [(4, [4, 4, 2]), (5, [5, 5]), (20, [10])])
def test_epoch_batches_cut_each_epochs_permutation(size, lengths):
    items = [f"s{i}" for i in range(10)]
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(3):  # each epoch draws the next permutation from the same generator
        batches = epoch_batches(items, size, rng)
        assert [len(b) for b in batches] == lengths
        flat = [x for b in batches for x in b]
        assert sorted(flat) == sorted(items)
        assert flat == [items[i] for i in ref.permutation(10)]
