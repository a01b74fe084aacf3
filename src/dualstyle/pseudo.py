"""Pseudo-parallel pairs: template substitution for warm-up pre-training and
on-the-fly back-translation pairs for annealed teacher forcing.

Style n-grams (n <= 2) are marked by smoothed frequency ratio between the two
corpora.  Template transfer deletes maximal marked source-style n-grams and
inserts the target-style entry whose observed corpus context around the slot
matches best.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .corpus import Sentence, StyleCorpus, StyleLabel, Vocabulary, ngrams
from .seq2seq import Seq2Seq

_LEFT_EDGE = "<s>"
_RIGHT_EDGE = "</s>"


@dataclass
class StyleLexicon:
    """Marked n-grams per style with salience scores and slot contexts."""

    entries: dict[str, dict[tuple[str, ...], float]]
    contexts: dict[str, dict[tuple[str, ...], tuple[set, set]]]
    style_names: tuple[str, str]

    def other_style(self, style: str) -> str:
        a, b = self.style_names
        return b if style == a else a


class PseudoPair(NamedTuple):
    source: Sentence
    target: Sentence


def _ngram_counts(sentences: list[Sentence], max_n: int = 2) -> Counter:
    counts = Counter()
    for sent in sentences:
        for n in range(1, max_n + 1):
            counts.update(ngrams(sent.surface, n))
    return counts


def salience(ngram_count_own: int, ngram_count_other: int, lam: float) -> float:
    """Smoothed frequency ratio of an n-gram between the two style corpora."""
    return (ngram_count_own + lam) / (ngram_count_other + lam)


def build_style_lexicon(corpus: StyleCorpus, lam: float, gamma: float) -> StyleLexicon:
    """Mark n-grams whose salience meets the threshold, per style.

    For gamma > 1 the two marked sets are necessarily disjoint since the two
    salience directions multiply to 1.
    """
    name_x, name_y = corpus.label_x.name, corpus.label_y.name
    counts = {
        name_x: _ngram_counts(corpus.of(corpus.label_x, "train")),
        name_y: _ngram_counts(corpus.of(corpus.label_y, "train")),
    }
    entries: dict[str, dict[tuple[str, ...], float]] = {name_x: {}, name_y: {}}
    for own, other in ((name_x, name_y), (name_y, name_x)):
        for gram, cnt in counts[own].items():
            score = salience(cnt, counts[other].get(gram, 0), lam)
            if score >= gamma:
                entries[own][gram] = score
    contexts = {label.name: _slot_contexts(corpus.of(label, "train"), entries[label.name])
                for label in corpus.labels()}
    return StyleLexicon(entries=entries, contexts=contexts, style_names=(name_x, name_y))


def _slot_contexts(sentences: list[Sentence],
                   marked: dict[tuple[str, ...], float]) -> dict:
    """Adjacent tokens observed around each marked n-gram in its own corpus."""
    ctx: dict[tuple[str, ...], tuple[set, set]] = {g: (set(), set()) for g in marked}
    if not marked:
        return ctx
    max_n = max(len(g) for g in marked)
    for sent in sentences:
        toks = sent.surface
        for n in range(1, max_n + 1):
            for i, gram in enumerate(ngrams(toks, n)):
                if gram in ctx:
                    prev = toks[i - 1] if i > 0 else _LEFT_EDGE
                    nxt = toks[i + n] if i + n < len(toks) else _RIGHT_EDGE
                    ctx[gram][0].add(prev)
                    ctx[gram][1].add(nxt)
    return ctx


def _find_slots(tokens: tuple[str, ...],
                marked: dict[tuple[str, ...], float]) -> list[tuple[int, int]]:
    """Maximal marked n-gram spans, scanned left to right, bigrams first."""
    slots = []
    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens) and tuple(tokens[i: i + 2]) in marked:
            slots.append((i, i + 2))
            i += 2
        elif (tokens[i],) in marked:
            slots.append((i, i + 1))
            i += 1
        else:
            i += 1
    return slots


def _pick_replacement(lex: StyleLexicon, target_style: str,
                      prev: str, nxt: str) -> tuple[str, ...] | None:
    """Target-style entry with the best slot-context match.

    Score counts whether the entry has ever been seen after ``prev`` and
    before ``nxt`` in the target corpus; ties break by salience, then
    lexicographically.
    """
    entries = lex.entries.get(target_style, {})
    if not entries:
        return None
    contexts = lex.contexts.get(target_style, {})
    best = None
    for gram, sal in entries.items():
        prevs, nexts = contexts.get(gram, (set(), set()))
        score = (prev in prevs) + (nxt in nexts)
        key = (-score, -sal, gram)
        if best is None or key < best[0]:
            best = (key, gram)
    return best[1]


def template_transfer(sentence: Sentence, lex: StyleLexicon,
                      target: StyleLabel) -> tuple[Sentence, bool]:
    """Swap marked source-style n-grams for retrieved target-style entries.

    Returns the rewritten sentence and whether any slot was found; with no
    marked n-gram the sentence comes back unchanged.
    """
    source_style = lex.other_style(target.name)
    tokens = sentence.surface
    slots = _find_slots(tokens, lex.entries.get(source_style, {}))
    if not slots:
        return sentence, False
    out: list[str] = []
    cursor = 0
    for lo, hi in slots:
        out.extend(tokens[cursor:lo])
        prev = tokens[lo - 1] if lo > 0 else _LEFT_EDGE
        nxt = tokens[hi] if hi < len(tokens) else _RIGHT_EDGE
        replacement = _pick_replacement(lex, target.name, prev, nxt)
        if replacement is not None:
            out.extend(replacement)
        cursor = hi
    out.extend(tokens[cursor:])
    return Sentence(surface=tuple(out)), True


def make_pretrain_pairs(corpus: StyleCorpus, lex: StyleLexicon,
                        vocab: Vocabulary, split: str = "train",
                        ) -> tuple[list[PseudoPair], list[PseudoPair]]:
    """Template pairs for both directions; marker-free sentences become identity pairs.

    ``corpus`` is numericalized, and its sentences are the pairs' sources.
    The first list trains the x->y model (sources from the x corpus), the
    second the y->x model.
    """
    pairs_f: list[PseudoPair] = []
    pairs_g: list[PseudoPair] = []
    for label, opposite, sink in (
        (corpus.label_x, corpus.label_y, pairs_f),
        (corpus.label_y, corpus.label_x, pairs_g),
    ):
        for sent in corpus.of(label, split):
            transferred, applied = template_transfer(sent, lex, opposite)
            tgt = vocab.to_ids(transferred) if applied else sent
            sink.append(PseudoPair(sent, tgt))
    return pairs_f, pairs_g


def back_translate_batch(model: Seq2Seq, sentences: list[Sentence],
                         max_len: int) -> list[PseudoPair]:
    """Pair each greedy output of ``model`` with the sentence it came from.

    ``model`` must be the live opposite-direction model; the target side is
    always the real corpus sentence.
    """
    generated = model.greedy_decode_batch(sentences, max_len)
    return [PseudoPair(g, s) for g, s in zip(generated, sentences)]

