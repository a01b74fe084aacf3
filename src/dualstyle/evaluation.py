"""Automatic evaluation: multi-reference corpus BLEU, ACC, and overall scores.

``corpus_bleu`` reproduces the classic tokenized corpus-level BLEU-4: clipped
n-gram counts against the maximum per-reference count, brevity penalty from
the closest reference length (ties broken toward the shorter reference), and
a hard zero when any n-gram order has no match corpus-wide.
``sentence_bleu_smoothed`` scores each candidate of a batch on its own.

Both count through ``_bleu_stats`` and score its rows with ``_bleu``, the
one BLEU expression.  The counts are on integer arrays: tokens are interned
to ints, each order's n-grams get ids from ``np.unique`` on the pair (id of
the first n-1 tokens, last token), and matches are counted and clipped by
sorting and ``searchsorted``.  The counts are exact integers, so every
score is bit for bit what counting n-gram by n-gram gives.

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
from dataclasses import dataclass, fields
from itertools import chain, count
from pathlib import Path

import numpy as np

from .classifier import predicted_class
from .corpus import Sentence, StyleLabel, read_references, read_sentences, tokenize
from .errors import LengthMismatchError, MissingReferenceError

MAX_ORDER = 4


def _bleu_stats(candidates, references):
    """Every candidate's clipped n-gram matches and n-gram counts per order,
    as (N, ``MAX_ORDER``) int arrays, plus its length and the reference
    length closest to it (ties go to the shorter), as (N,) int arrays.

    Each candidate n-gram counts at most as often as it occurs in the
    reference of its set that holds it most often.  Every set must hold at
    least one reference.
    """
    seqs = [*candidates, *(r for refs in references for r in refs)]
    flat = list(chain.from_iterable(seqs))
    # A token's id is the place of its first occurrence in ``flat``; every
    # token and n-gram id is below ``bound``, so no key below overflows.
    first_seen = {}
    tokens = np.fromiter(map(first_seen.setdefault, flat, count()), np.int64, len(flat))
    bound = max(len(flat), 1)
    lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
    n_cands = len(candidates)
    set_sizes = np.fromiter(map(len, references), np.int64, n_cands)
    set_starts = np.cumsum(set_sizes) - set_sizes
    widest = int(set_sizes.max(initial=1))
    # Per sequence: the candidate it belongs to, and its column in that set
    # (a candidate is column 0 of its own).
    owner = np.concatenate([np.arange(n_cands), np.repeat(np.arange(n_cands), set_sizes)])
    column = np.concatenate([np.zeros(n_cands, np.int64),
                             np.arange(set_sizes.sum()) - np.repeat(set_starts, set_sizes)])
    seq_of = np.repeat(np.arange(len(seqs)), lengths)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(flat))  # tokens left

    cand_len = lengths[:n_cands]
    matches = np.zeros((n_cands, MAX_ORDER), np.int64)
    gram = tokens  # the id of the n-gram starting at each token
    for n in range(1, MAX_ORDER + 1):
        starts = np.flatnonzero(room >= n)
        if n > 1:
            key = gram[starts] * bound + tokens[starts + n - 1]
            gram = np.zeros_like(tokens)
            gram[starts] = np.unique(key, return_inverse=True)[1]
        seq = seq_of[starts]
        pair = owner[seq] * bound + gram[starts]  # (candidate, n-gram)
        in_cand = seq < n_cands
        cand_pairs, cand_counts = np.unique(pair[in_cand], return_counts=True)
        # Count each pair in each reference, then keep the most any one
        # reference of the set holds.  The slot past the last pair holds 0.
        ref_keys, ref_counts = np.unique(pair[~in_cand] * widest + column[seq[~in_cand]],
                                         return_counts=True)
        ref_pairs, slot = np.unique(ref_keys // widest, return_inverse=True)
        most = np.zeros(len(ref_pairs) + 1, np.int64)
        np.maximum.at(most, slot, ref_counts)
        at = np.searchsorted(ref_pairs, cand_pairs)
        held = np.where(np.append(ref_pairs, -1)[at] == cand_pairs, most[at], 0)
        matches[:, n - 1] = np.bincount(cand_pairs // bound, np.minimum(cand_counts, held),
                                        minlength=n_cands)
    totals = np.maximum(cand_len[:, None] - np.arange(MAX_ORDER), 0)
    ref_len, ref_owner = lengths[n_cands:], owner[n_cands:]
    order = np.lexsort((ref_len, np.abs(ref_len - cand_len[ref_owner]), ref_owner))
    return matches, totals, cand_len, ref_len[order[set_starts]]


def _check_sets(candidates, references, missing: str) -> None:
    """Refuse a set count unlike the candidates', then an empty set."""
    if len(candidates) != len(references):
        raise LengthMismatchError(
            f"{len(candidates)} candidates vs {len(references)} reference sets"
        )
    if not all(references):
        raise MissingReferenceError(missing)


def corpus_bleu(candidates, references) -> float:
    """Corpus-level BLEU-4 in [0, 100] over token sequences.

    ``candidates`` is a list of token sequences; ``references`` a parallel
    list of reference sets (each a list of token sequences).
    """
    _check_sets(candidates, references, "a candidate has no references")
    if not candidates:
        raise LengthMismatchError("empty evaluation set")
    matches, totals, lengths, closest = _bleu_stats(candidates, references)
    return _bleu(matches.sum(axis=0).tolist(), totals.sum(axis=0).tolist(),
                 int(lengths.sum()), int(closest.sum()))


def sentence_bleu_smoothed(candidates, references) -> list[float]:
    """Sentence-level BLEU-4 in [0, 100] of each candidate against its own
    reference set, with add-1 smoothing on orders >= 2.

    It fills the per-sentence ``best_ref_bleu`` of an evaluation report;
    the reported BLEU is always the unsmoothed corpus-level score above.
    """
    _check_sets(candidates, references, "sentence BLEU needs at least one reference")
    matches, totals, lengths, closest = _bleu_stats(candidates, references)
    add_one = np.arange(MAX_ORDER) >= 1
    return list(map(_bleu, (matches + add_one).tolist(), (totals + add_one).tolist(),
                    lengths.tolist(), closest.tolist()))


def _bleu(matches: list[int], totals: list[int], length: int, ref_len: int) -> float:
    """BLEU-4 in [0, 100] of one ``_bleu_stats`` row or their sum.  It is 0
    when an order has no match, so ``length`` is positive wherever the
    brevity penalty divides by it."""
    if not all(matches):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(matches, totals)) / MAX_ORDER
    bp = 1.0 if length > ref_len else math.exp(1.0 - ref_len / length)
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

    ``best_ref_bleu`` is the best smoothed sentence BLEU against any single
    reference: one ``sentence_bleu_smoothed`` call per reference column, a
    set with fewer references repeating its last one.
    """
    cands = [o.surface for o in outputs]
    refsets = [[r.surface for r in refs] for refs in references]
    bleu = corpus_bleu(cands, refsets)
    columns = [sentence_bleu_smoothed(cands, [[refs[min(j, len(refs) - 1)]] for refs in refsets])
               for j in range(max(map(len, refsets)))]
    acc, p_target = style_accuracy(outputs, clf, target)
    g2, h2 = g2h2(acc, bleu)
    config_hash = hashlib.sha256(json.dumps({
        "vocab": clf.vocab.content_hash(),
        "target": target.name,
    }, sort_keys=True).encode()).hexdigest()[:16]
    records = []
    for i, (out, *scores) in enumerate(zip(outputs, *columns)):
        records.append({
            "input": inputs[i].text() if inputs else "",
            "output": out.text(),
            "p_target_style": float(p_target[i]),
            "best_ref_bleu": max(scores),
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
