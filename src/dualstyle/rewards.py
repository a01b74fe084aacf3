"""Reward signals for dual training: style accuracy, content preservation,
and their weighted harmonic combination.

The content reward is the probability that the opposite-direction model
reconstructs the original sentence from the transferred one, normalized
for length: the per-token geometric mean of the sequence probability.

A policy often draws the same sample for a source again (over a third of
the (sample, source) pairs of a desk batch repeat an earlier one), so both
rewards score each distinct pair once and copy its values to the repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import TextClassifier
from .corpus import Sentence, StyleLabel
from .seq2seq import Seq2Seq


@dataclass
class RewardConfig:
    beta: float = 0.5
    sample_size: int = 4

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")


def style_reward_batch(clf: TextClassifier, sentences: list[Sentence],
                       target: StyleLabel) -> np.ndarray:
    return clf.classify_prob_batch(sentences)[:, target.index]


def content_reward_batch(back_model: Seq2Seq, y_primes: list[Sentence],
                         xs: list[Sentence]) -> np.ndarray:
    log_probs = back_model.log_prob_batch(y_primes, xs)
    lengths = np.array([len(x.ids) for x in xs], dtype=np.float64)
    return np.exp(log_probs / lengths)


def combine(r_style: float, r_content: float, beta: float) -> float:
    """Weighted harmonic mean of the two rewards; 0 when both vanish."""
    denom = beta * beta * r_content + r_style
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * r_content * r_style / denom


def combine_batch(r_style: np.ndarray, r_content: np.ndarray, beta: float) -> np.ndarray:
    """``combine`` over arrays, element by element, with the same zero rule."""
    denom = beta * beta * r_content + r_style
    num = (1.0 + beta * beta) * r_content * r_style
    return np.divide(num, denom, out=np.zeros_like(num), where=denom != 0.0)


def distinct_pairs(y_primes: list[Sentence], xs: list[Sentence],
                   ) -> tuple[list[int], np.ndarray]:
    """The distinct non-degenerate (sample, source) pairs of a batch.

    Returns the row of each distinct pair's first occurrence, and for every
    row the position of its pair in that list (-1 for an empty sample).
    Pairs are equal when their token ids are.
    """
    first: dict[tuple, int] = {}
    rows: list[int] = []
    slot = np.full(len(y_primes), -1, dtype=np.int64)
    for i, (yp, x) in enumerate(zip(y_primes, xs)):
        if len(yp.surface) > 0:
            key = (yp.ids, x.ids)
            if key not in first:
                first[key] = len(rows)
                rows.append(i)
            slot[i] = first[key]
    return rows, slot


def combined_rewards(clf: TextClassifier, back_model: Seq2Seq,
                     y_primes: list[Sentence], xs: list[Sentence],
                     target: StyleLabel, cfg: RewardConfig,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (style, content, combined) rewards; degenerate rows get 0.

    Each distinct (sample, source) pair is scored once and its rewards are
    copied to every row that holds it, so equal pairs get bit-equal rewards.
    """
    rows, slot = distinct_pairs(y_primes, xs)
    r_style = np.zeros(len(y_primes))
    r_content = np.zeros(len(y_primes))
    if rows:
        vp = [y_primes[i] for i in rows]
        vx = [xs[i] for i in rows]
        valid = slot >= 0
        r_style[valid] = style_reward_batch(clf, vp, target)[slot[valid]]
        r_content[valid] = content_reward_batch(back_model, vp, vx)[slot[valid]]
    return r_style, r_content, combine_batch(r_style, r_content, cfg.beta)
