import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualstyle.classifier import predicted_class
from dualstyle.corpus import Sentence, StyleLabel
from dualstyle.errors import EmptyLineError, LengthMismatchError, MissingReferenceError
from dualstyle.evaluation import (
    corpus_bleu,
    evaluate,
    evaluate_sentences,
    g2h2,
    sentence_bleu_smoothed,
    style_accuracy,
)

# Published (ACC, BLEU, G2, H2) rows from style-transfer benchmark tables.
# One row was dropped: its printed overall scores (8.1, 1.9) cannot be
# recovered from its printed inputs (70.2, 0.9), which give (7.9, 1.8).
REFERENCE_ROWS = [
    (96.0, 2.9, 16.7, 5.7),
    (95.4, 5.0, 21.9, 9.6),
    (8.7, 42.3, 19.2, 14.4),
    (50.2, 27.9, 37.4, 35.9),
    (75.3, 17.9, 36.7, 28.9),
    (64.9, 37.0, 49.0, 47.1),
    (85.3, 29.0, 49.7, 43.3),
    (89.0, 31.1, 52.6, 46.1),
    (81.8, 45.5, 61.0, 58.5),
    (95.4, 44.5, 65.1, 60.7),
    (85.6, 55.2, 68.7, 67.1),
    (74.0, 100.0, 86.0, 85.1),
    (91.3, 0.4, 6.0, 0.8),
    (22.7, 7.9, 13.4, 11.7),
    (17.9, 12.3, 14.8, 14.6),
    (70.5, 3.6, 15.9, 6.8),
    (79.5, 2.0, 12.6, 3.9),
    (18.8, 29.2, 23.4, 22.9),
    (55.2, 21.2, 34.2, 30.6),
    (52.9, 35.2, 43.1, 42.3),
    (70.8, 33.4, 48.6, 45.4),
    (71.1, 41.9, 54.6, 52.7),
    (84.3, 100.0, 91.8, 91.5),
]


@pytest.mark.parametrize("acc,bleu,g2,h2", REFERENCE_ROWS)
def test_overall_scores_regression(acc, bleu, g2, h2):
    got_g2, got_h2 = g2h2(acc, bleu)
    assert abs(got_g2 - g2) <= 0.1
    assert abs(got_h2 - h2) <= 0.1


def test_g2h2_degenerate_cases():
    assert g2h2(50.0, 50.0) == (50.0, 50.0)
    assert g2h2(0.0, 70.0) == (0.0, 0.0)
    assert g2h2(0.0, 0.0) == (0.0, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.floats(0, 100), st.floats(0, 100))
def test_means_chain(acc, bleu):
    g2, h2 = g2h2(acc, bleu)
    am = (acc + bleu) / 2.0
    assert h2 <= g2 + 1e-9
    assert g2 <= am + 1e-9


def toks(text):
    return tuple(text.split())


def test_corpus_bleu_identity_is_100():
    cands = [toks("the cat sat"), toks("a dog barked loudly today")]
    refs = [[toks("the cat sat")], [toks("a dog barked loudly today")]]
    assert corpus_bleu(cands, refs) == pytest.approx(100.0, abs=1e-9)


def test_corpus_bleu_hand_counted():
    # precisions 5/5, 3/4, 2/3, 1/2 and brevity penalty exp(1 - 6/5)
    cand = [toks("the cat sat on mat")]
    refs = [[toks("the cat sat on the mat")]]
    expected = 100.0 * math.exp(1.0 - 6.0 / 5.0) * (
        (5 / 5) * (3 / 4) * (2 / 3) * (1 / 2)) ** 0.25
    got = corpus_bleu(cand, refs)
    assert abs(got - expected) < 1e-9
    assert abs(got - 57.9) <= 0.1


def test_corpus_bleu_disjoint_is_zero():
    assert corpus_bleu([toks("aa bb cc dd")], [[toks("x y z w")]]) == 0.0


def test_corpus_bleu_zero_without_any_fourgram():
    # all candidates shorter than 4 tokens: the 4-gram numerator is zero
    assert corpus_bleu([toks("a b")], [[toks("a b")]]) == 0.0


def test_duplicate_reference_never_changes_score():
    cands = [toks("the cat sat on mat"), toks("a b c d")]
    refs = [[toks("the cat sat on the mat")], [toks("a b c d e")]]
    base = corpus_bleu(cands, refs)
    doubled = [[r[0], r[0]] for r in refs]
    assert corpus_bleu(cands, doubled) == pytest.approx(base, abs=1e-12)


def test_new_distinct_reference_never_decreases():
    cands = [toks("the cat sat on mat")]
    refs = [[toks("the cat sat on the mat")]]
    base = corpus_bleu(cands, refs)
    widened = [[refs[0][0], toks("the cat sat on mat today")]]
    assert corpus_bleu(cands, widened) >= base - 1e-12


def test_permutation_invariance():
    cands = [toks("a b c d e"), toks("the cat sat on mat"), toks("p q r s")]
    refs = [[toks("a b c d f")], [toks("the cat sat on the mat")], [toks("p q r s t")]]
    base = corpus_bleu(cands, refs)
    order = [2, 0, 1]
    shuffled = corpus_bleu([cands[i] for i in order], [refs[i] for i in order])
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_closest_length_tie_prefers_shorter():
    # candidate length 5; refs of length 4 and 6 tie, shorter (4) wins: BP = 1
    cand = [toks("a b c d e")]
    refs = [[toks("a b c d"), toks("a b c d e f")]]
    got = corpus_bleu(cand, refs)
    # matches: unigram 5? cand tokens a..e; clipped vs max ref counts: all present
    # p1=5/5, p2=4/4, p3=3/3, p4=2/2 -> BLEU = 100 with BP=1
    assert got == pytest.approx(100.0, abs=1e-9)


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        corpus_bleu([toks("a")], [[toks("a")], [toks("b")]])
    with pytest.raises(LengthMismatchError):
        corpus_bleu([], [])


def test_missing_reference_rejected():
    with pytest.raises(MissingReferenceError):
        corpus_bleu([toks("a b")], [[]])


def test_smoothed_sentence_bleu_values():
    assert sentence_bleu_smoothed([toks("a b c d e")], [[toks("a b c d e")]])[0] == \
        pytest.approx(100.0, abs=1e-9)
    # p1 = 4/5; smoothed p2 = (3+1)/(4+1), p3 = (2+1)/(3+1), p4 = (1+1)/(2+1)
    expected = 100.0 * (0.8 * 0.8 * 0.75 * (2 / 3)) ** 0.25
    assert expected == pytest.approx(75.2128, abs=1e-3)
    assert sentence_bleu_smoothed([toks("a b c d f")], [[toks("a b c d e")]])[0] == \
        pytest.approx(expected, abs=1e-9)
    assert sentence_bleu_smoothed([toks("x y")], [[toks("a b")]]) == [0.0]


def _reference_stats(cand, refs):
    """Per-order clipped matches and n-gram counts, order by order, and the
    closest reference length with ties going to the shorter reference."""
    matches, totals = [], []
    for n in range(1, 5):
        grams = [tuple(cand[i: i + n]) for i in range(len(cand) - n + 1)]
        ref_grams = [[tuple(r[i: i + n]) for i in range(len(r) - n + 1)] for r in refs]
        matches.append(sum(min(grams.count(g), max(rg.count(g) for rg in ref_grams))
                           for g in set(grams)))
        totals.append(len(grams))
    closest = min(sorted(len(r) for r in refs), key=lambda n: abs(n - len(cand)))
    return matches, totals, closest


def _reference_corpus_bleu(cands, refsets):
    stats = [_reference_stats(c, r) for c, r in zip(cands, refsets)]
    matches = [sum(s[0][n] for s in stats) for n in range(4)]
    totals = [sum(s[1][n] for s in stats) for n in range(4)]
    cand_length = sum(len(c) for c in cands)
    ref_length = sum(s[2] for s in stats)
    if cand_length == 0 or 0 in matches or 0 in totals:
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4
    bp = 1.0 if cand_length > ref_length else math.exp(1.0 - ref_length / cand_length)
    return 100.0 * bp * math.exp(log_precision)


def _reference_sentence_bleu(cand, refs):
    matches, totals, ref_len = _reference_stats(cand, refs)
    log_precision = 0.0
    for n in range(4):
        match, total = matches[n] + (n > 0), totals[n] + (n > 0)
        if total == 0 or match == 0:
            return 0.0
        log_precision += math.log(match / total) / 4
    bp = 1.0 if len(cand) > ref_len else math.exp(1.0 - ref_len / max(len(cand), 1))
    return 100.0 * bp * math.exp(log_precision)


_tokens = st.lists(st.sampled_from("abc"), max_size=8).map(tuple)
_case = st.tuples(_tokens, st.lists(_tokens, min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(_case, min_size=1, max_size=4))
@example([((), [("a",)])])  # empty candidate
@example([(("a", "b", "c", "a", "b"), [("a", "b", "c", "a"), ("a", "b", "c", "a", "b", "c")])])
@example([(("a", "b", "a", "b"), [("b", "a", "b"), (), ("a", "b", "a", "b", "a")])])
def test_bleu_matches_a_per_order_reference(cases):
    # the second and third examples tie on reference length: 4 and 6 around 5, 3 and 5 around 4
    cands = [c for c, _ in cases]
    refsets = [r for _, r in cases]
    assert corpus_bleu(cands, refsets) == _reference_corpus_bleu(cands, refsets)
    assert sentence_bleu_smoothed(cands, refsets) == [
        _reference_sentence_bleu(cand, refs) for cand, refs in cases]


_words = st.integers(0, 49_999).map(lambda i: f"w{i}")


@st.composite
def _large_alphabet_case(draw):
    """A candidate of up to 40 tokens from a few of 50k types, so that its
    n-grams repeat, and 1-3 references that each keep a prefix and a suffix
    of it around other tokens."""
    pool = draw(st.lists(_words, min_size=1, max_size=8))
    cand = draw(st.lists(st.sampled_from(pool), max_size=40))
    refs = []
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(cand)))
        j = draw(st.integers(i, len(cand)))
        middle = draw(st.lists(st.one_of(st.sampled_from(pool), _words), max_size=8))
        refs.append(tuple(cand[:i] + middle + cand[j:]))
    return tuple(cand), refs


@settings(max_examples=150, deadline=None)
@given(st.lists(_large_alphabet_case(), min_size=1, max_size=4))
def test_bleu_on_a_large_alphabet_matches_a_per_order_reference(cases):
    cands = [c for c, _ in cases]
    refsets = [r for _, r in cases]
    assert corpus_bleu(cands, refsets) == _reference_corpus_bleu(cands, refsets)
    assert sentence_bleu_smoothed(cands, refsets) == [
        _reference_sentence_bleu(cand, refs) for cand, refs in cases]


@settings(max_examples=60, deadline=None)
@given(cases=st.lists(st.one_of(_case, _large_alphabet_case()), min_size=1, max_size=5))
def test_best_ref_bleu_is_the_best_single_reference(tiny_task, tiny_classifier, cases):
    corpus, _, _ = tiny_task
    outputs = [Sentence(surface=c) for c, _ in cases]
    references = [[Sentence(surface=r) for r in refs] for _, refs in cases]
    report = evaluate_sentences(outputs, references, tiny_classifier,
                                StyleLabel(1, corpus.label_y.name))
    assert [r["best_ref_bleu"] for r in report.records] == [
        max(_reference_sentence_bleu(cand, [r]) for r in refs) for cand, refs in cases]


def test_evaluate_files_end_to_end(tmp_path, tiny_task, tiny_classifier):
    corpus, gold, vocab = tiny_task
    label_y = StyleLabel(1, corpus.label_y.name)
    outputs = [r[0] for r in gold.refs[(corpus.label_x.name, "dev")][:30]]
    inputs = corpus.of(corpus.label_x, "dev")[:30]
    out_path = tmp_path / "outputs.txt"
    ref_path = tmp_path / "refs0.txt"
    in_path = tmp_path / "inputs.txt"
    out_path.write_text("".join(o.text() + "\n" for o in outputs))
    ref_path.write_text("".join(o.text() + "\n" for o in outputs))
    in_path.write_text("".join(s.text() + "\n" for s in inputs))

    report = evaluate(out_path, [ref_path], tiny_classifier, label_y,
                      report_dir=tmp_path / "rep", inputs_path=in_path)
    assert report.bleu == pytest.approx(100.0, abs=1e-9)
    assert report.acc >= 95.0
    assert report.n_sentences == 30
    assert (tmp_path / "rep" / "report.json").exists()
    tsv = (tmp_path / "rep" / "sentences.tsv").read_text().splitlines()
    assert tsv[0].split("\t") == ["input", "output", "p_target_style", "best_ref_bleu"]
    assert len(tsv) == 31

    with pytest.raises(LengthMismatchError):
        short = tmp_path / "short.txt"
        short.write_text("one line\n")
        evaluate(out_path, [short], tiny_classifier, label_y)
    with pytest.raises(MissingReferenceError):
        evaluate(out_path, [], tiny_classifier, label_y)


def test_gold_outputs_score_high(tiny_task, tiny_classifier):
    corpus, gold, vocab = tiny_task
    label_y = StyleLabel(1, corpus.label_y.name)
    refs = gold.refs[(corpus.label_x.name, "dev")]
    outputs = [r[0] for r in refs]
    report = evaluate_sentences(outputs, refs, tiny_classifier, label_y)
    assert report.bleu == pytest.approx(100.0, abs=1e-9)
    assert report.acc >= 98.0



def test_empty_output_is_a_style_miss_in_every_scorer(tmp_path, tiny_task, tiny_classifier):
    corpus, gold, vocab = tiny_task
    label_y = StyleLabel(1, corpus.label_y.name)
    refs = gold.refs[(corpus.label_x.name, "dev")][:6]
    inputs = corpus.of(corpus.label_x, "dev")[:6]
    empty = Sentence(surface=())
    # a gold transfer (a hit), an empty output, the untransferred input (a miss)
    outputs = [refs[0][0], empty, inputs[2], refs[3][0], empty, inputs[5]]
    kept = [o for o in outputs if o.surface]
    probs = tiny_classifier.classify_prob_batch([vocab.to_ids(o) for o in kept])
    assert list(predicted_class(probs)) == [1, 0, 1, 0]
    expected_bleu = corpus_bleu([o.surface for o in outputs],
                                [[r.surface for r in rr] for rr in refs])
    assert expected_bleu > 0.0

    acc, p_target = style_accuracy(outputs, tiny_classifier, label_y)
    assert acc == 100.0 * 2 / 6
    assert p_target[1] == 0.0 and p_target[4] == 0.0
    assert min(p_target[[0, 3]]) > 0.5 > max(p_target[[2, 5]])

    report = evaluate_sentences(outputs, refs, tiny_classifier, label_y)
    assert (report.acc, report.bleu) == (acc, expected_bleu)
    assert [r["p_target_style"] for r in report.records] == list(p_target)

    out_path, ref_path = tmp_path / "outputs.txt", tmp_path / "refs0.txt"
    out_path.write_text("".join(o.text() + "\n" for o in outputs))
    assert out_path.read_text().splitlines()[1] == ""
    ref_path.write_text("".join(rr[0].text() + "\n" for rr in refs))
    from_file = evaluate(out_path, [ref_path], tiny_classifier, label_y)
    assert (from_file.acc, from_file.bleu) == (acc, expected_bleu)
    assert [r["p_target_style"] for r in from_file.records] == list(p_target)

    # blank lines stay errors in the reference and input files
    with pytest.raises(EmptyLineError):
        evaluate(out_path, [out_path], tiny_classifier, label_y)
    with pytest.raises(EmptyLineError):
        evaluate(ref_path, [ref_path], tiny_classifier, label_y, inputs_path=out_path)
