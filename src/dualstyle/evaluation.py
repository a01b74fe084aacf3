"""Automatic evaluation: multi-reference corpus BLEU, ACC, and overall scores.

``corpus_bleu`` reproduces the classic tokenized corpus-level BLEU-4: clipped
n-gram counts against the maximum per-reference count, brevity penalty from
the closest reference length (ties broken toward the shorter reference), and
a hard zero when any n-gram order has no match corpus-wide.

``style_accuracy`` is the one ACC rule, shared by file evaluation and the dev
score that selects checkpoints.  An empty output (a model that emits EOS
first, written by ``transfer`` as a blank line) cannot be classified: it
counts as a style miss with P(target) = 0, as degenerate samples get a zero
style reward in training, and as an empty candidate in BLEU.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .classifier import predicted_class
from .corpus import Sentence, StyleLabel, ngrams, read_references, read_sentences, tokenize
from .errors import LengthMismatchError, MissingReferenceError

MAX_ORDER = 4


class Ngrams:
    """A token sequence's length and its n-grams of every order up to
    ``MAX_ORDER``, counted once.

    ``corpus_bleu`` and ``sentence_bleu_smoothed`` take these in place of
    token sequences, so a sentence scored against several reference sets is
    counted only once.
    """

    __slots__ = ("length", "counts")

    def __init__(self, tokens):
        tokens = tuple(tokens)
        self.length = len(tokens)
        self.counts = Counter(g for n in range(1, MAX_ORDER + 1) for g in ngrams(tokens, n))


def _counted(tokens) -> Ngrams:
    return tokens if isinstance(tokens, Ngrams) else Ngrams(tokens)


def _bleu_stats(cand: Ngrams, refs: list[Ngrams]) -> tuple[list[int], list[int], int]:
    """Clipped matches and n-gram counts of ``cand`` per order, plus the
    reference length closest to its length (ties go to the shorter).

    Each candidate n-gram counts at most as often as it occurs in the
    reference that holds it most often.
    """
    max_ref = refs[0].counts
    for ref in refs[1:]:
        max_ref = max_ref | ref.counts
    matches, totals = [0] * MAX_ORDER, [0] * MAX_ORDER
    for gram, cnt in cand.counts.items():
        matches[len(gram) - 1] += min(cnt, max_ref[gram])
        totals[len(gram) - 1] += cnt
    closest = min((r.length for r in refs), key=lambda n: (abs(n - cand.length), n))
    return matches, totals, closest


def corpus_bleu(candidates, references) -> float:
    """Corpus-level BLEU-4 in [0, 100] over token sequences.

    ``candidates`` is a list of token sequences; ``references`` a parallel
    list of reference sets (each a list of token sequences).  Any sequence
    may be given as its ``Ngrams``.
    """
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} reference sets"
        )
    if not candidates:
        raise LengthMismatchError("empty evaluation set")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    cand_length = 0
    ref_length = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise MissingReferenceError("a candidate has no references")
        cand = _counted(cand)
        cand_matches, cand_totals, closest = _bleu_stats(cand, [_counted(r) for r in refs])
        matches = [m + c for m, c in zip(matches, cand_matches)]
        totals = [t + c for t, c in zip(totals, cand_totals)]
        cand_length += cand.length
        ref_length += closest
    if any(m == 0 for m in matches):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / MAX_ORDER
    bp = 1.0 if cand_length > ref_length else math.exp(1.0 - ref_length / cand_length)
    return 100.0 * bp * math.exp(log_precision)


def sentence_bleu_smoothed(candidate, references) -> float:
    """Sentence-level BLEU-4 in [0, 100] with add-1 smoothing on orders >= 2.

    It fills the per-sentence ``best_ref_bleu`` of an evaluation report;
    the reported BLEU is always the unsmoothed corpus-level score above.
    Like ``corpus_bleu``, it takes token sequences or their ``Ngrams``.
    """
    cand = _counted(candidate)
    refs = [_counted(r) for r in references]
    if not refs:
        raise MissingReferenceError("sentence BLEU needs at least one reference")
    matches, totals, ref_len = _bleu_stats(cand, refs)
    log_precision = 0.0
    for n, match, total in zip(range(1, MAX_ORDER + 1), matches, totals):
        if n >= 2:
            match += 1
            total += 1
        if match == 0:
            return 0.0
        log_precision += math.log(match / total) / MAX_ORDER
    bp = 1.0 if cand.length > ref_len else math.exp(1.0 - ref_len / max(cand.length, 1))
    return 100.0 * bp * math.exp(log_precision)


def g2h2(acc: float, bleu: float) -> tuple[float, float]:
    """Geometric and harmonic means of two percentages."""
    g2 = math.sqrt(acc * bleu)
    h2 = 0.0 if acc + bleu == 0 else 2.0 * acc * bleu / (acc + bleu)
    return g2, h2


@dataclass
class EvalReport:
    acc: float
    bleu: float
    g2: float
    h2: float
    n_sentences: int
    config_hash: str
    records: list[dict]

    def summary(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"}


def style_accuracy(outputs: list[Sentence], clf,
                   target: StyleLabel) -> tuple[float, np.ndarray]:
    """ACC in [0, 100] and P(target style) per output.

    Only the non-empty outputs are classified, in one batch; an empty output
    is a miss with P(target) = 0.
    """
    p_target = np.zeros(len(outputs))
    nonempty = [i for i, o in enumerate(outputs) if len(o.surface) > 0]
    hits = 0
    if nonempty:
        probs = clf.classify_prob_batch(
            [clf.vocab.to_ids(outputs[i]) if outputs[i].ids is None else outputs[i]
             for i in nonempty])
        p_target[nonempty] = probs[:, target.index]
        hits = int((predicted_class(probs) == target.index).sum())
    return 100.0 * hits / len(outputs), p_target


def evaluate_sentences(outputs: list[Sentence], references: list[list[Sentence]],
                       clf, target: StyleLabel, inputs: list[Sentence] | None = None,
                       ) -> EvalReport:
    """Score already-loaded outputs against reference sets; ``corpus_bleu``
    runs first and refuses a set count unlike the outputs' or an empty set.

    Each output and each reference is counted once, for the corpus BLEU and
    for every ``best_ref_bleu``.
    """
    cands = [Ngrams(o.surface) for o in outputs]
    refsets = [[Ngrams(r.surface) for r in refs] for refs in references]
    bleu = corpus_bleu(cands, refsets)
    acc, p_target = style_accuracy(outputs, clf, target)
    g2, h2 = g2h2(acc, bleu)
    config_hash = hashlib.sha256(json.dumps({
        "vocab": clf.vocab.content_hash(),
        "target": target.name,
    }, sort_keys=True).encode()).hexdigest()[:16]
    records = []
    for i, (out, cand, refs) in enumerate(zip(outputs, cands, refsets)):
        best_ref = max(sentence_bleu_smoothed(cand, [r]) for r in refs)
        records.append({
            "input": inputs[i].text() if inputs else "",
            "output": out.text(),
            "p_target_style": float(p_target[i]),
            "best_ref_bleu": best_ref,
        })
    return EvalReport(acc=acc, bleu=bleu, g2=g2, h2=h2, n_sentences=len(outputs),
                      config_hash=config_hash, records=records)


def evaluate(outputs_path, reference_paths, clf, target: StyleLabel,
             report_dir=None, inputs_path=None) -> EvalReport:
    """Score a file of transferred sentences against line-aligned references.

    A blank line in the outputs file is an empty output; a blank reference or
    input line is rejected with its ``path:line``.
    """
    out_lines = Path(outputs_path).read_text(encoding="utf-8").splitlines()
    outputs = [tokenize(ln) if ln.strip() else Sentence(surface=()) for ln in out_lines]
    if not reference_paths:
        raise MissingReferenceError("no reference files given")
    references = read_references(reference_paths)
    if len(references) != len(outputs):
        raise LengthMismatchError(
            f"{reference_paths[0]} has {len(references)} lines, outputs have {len(outputs)}"
        )
    inputs = None
    if inputs_path is not None:
        inputs = read_sentences(inputs_path)
        if len(inputs) != len(outputs):
            raise LengthMismatchError("inputs file is not line-aligned with outputs")
    report = evaluate_sentences(outputs, references, clf, target, inputs)
    if report_dir is not None:
        write_report(report, report_dir)
    return report


def write_report(report: EvalReport, report_dir) -> None:
    out = Path(report_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report.summary(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with open(out / "sentences.tsv", "w", encoding="utf-8") as fh:
        fh.write("input\toutput\tp_target_style\tbest_ref_bleu\n")
        for rec in report.records:
            fh.write(f"{rec['input']}\t{rec['output']}\t"
                     f"{rec['p_target_style']!r}\t{rec['best_ref_bleu']!r}\n")
