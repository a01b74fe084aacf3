"""Corpora, tokenization, vocabulary, and synthetic style-transfer tasks.

Corpus files are one whitespace-pretokenized sentence per line, one file per
(style, split) named ``<style>.<split>.txt``.  Reference files for dev/test
are ``<style>.<split>.ref<k>.txt``, line-aligned to the corresponding corpus
file and containing target-style renderings of its sentences.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import EmptyLineError, InvalidSpecError, LengthMismatchError

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED_TOKENS = ("<pad>", "<unk>", "<s>", "</s>")
SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class StyleLabel:
    """One of the two styles of a task. ``index`` is the classifier class id."""

    index: int
    name: str


@dataclass(frozen=True)
class Sentence:
    """Whitespace tokens plus, once numericalized, their vocabulary ids.

    ``ids`` is EOS-terminated, or ends at the decode cap for generated
    sentences that never drew EOS.  ``Vocabulary.to_ids`` never puts a
    reserved id in it, but a sampled or decoded sentence keeps every id the
    decoder drew before EOS, PAD, BOS and UNK included, so that its ids
    rescore to the sampler's log-probability.  ``pad_batch`` masks by length,
    so such ids are scored as ordinary tokens.
    """

    surface: tuple[str, ...]
    ids: tuple[int, ...] | None = None

    def text(self) -> str:
        return " ".join(self.surface)


def ngrams(tokens, n: int):
    """The n-grams of a token sequence as tuples, left to right."""
    tokens = tuple(tokens)  # once, so that each slice is already a tuple
    for i in range(len(tokens) - n + 1):
        yield tokens[i: i + n]


def tokenize(raw_line: str) -> Sentence:
    """Split a line on runs of whitespace; blank lines are rejected."""
    tokens = raw_line.split()
    if not tokens:
        raise EmptyLineError("cannot tokenize an empty line")
    return Sentence(surface=tuple(tokens))


def read_sentences(path) -> list[Sentence]:
    """One sentence per line of a file; a blank line is rejected by its place.

    Corpus, reference and input files are line-aligned with one another, so
    a blank line is an error, never a sentence to drop.
    """
    sentences = []
    for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            raise EmptyLineError(f"{path}:{number}: blank line")
        sentences.append(tokenize(line))
    return sentences


class Vocabulary:
    """Bijection between non-reserved tokens and ids; ids 0..3 are reserved."""

    def __init__(self, tokens: list[str]):
        self.id_to_token: list[str] = list(RESERVED_TOKENS) + list(tokens)
        self.token_to_id: dict[str, int] = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate token in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def token_of(self, idx: int) -> str:
        return self.id_to_token[idx]

    def to_ids(self, sentence: Sentence) -> Sentence:
        """Numericalize; unknown tokens map to UNK and EOS is appended."""
        ids = tuple(self.id_of(t) for t in sentence.surface) + (EOS,)
        return replace(sentence, ids=ids)

    def content_hash(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocab(sentences, min_count: int) -> Vocabulary:
    """Shared vocabulary over an iterable of sentences.

    Tokens with frequency below ``min_count`` are dropped (they will map to
    UNK).  Id assignment is deterministic: frequency descending, then token
    lexicographic.
    """
    counts = Counter()
    for sent in sentences:
        counts.update(sent.surface)
    kept = [t for t, c in counts.items() if c >= min_count]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


@dataclass
class StyleCorpus:
    """Non-parallel corpora for the two styles, partitioned into splits."""

    label_x: StyleLabel
    label_y: StyleLabel
    sentences: dict[tuple[str, str], list[Sentence]]  # (style name, split) -> sentences

    def of(self, label: StyleLabel, split: str) -> list[Sentence]:
        return self.sentences.get((label.name, split), [])

    def labels(self) -> tuple[StyleLabel, StyleLabel]:
        return (self.label_x, self.label_y)

    def all_train(self) -> list[Sentence]:
        return self.of(self.label_x, "train") + self.of(self.label_y, "train")

    def numericalize(self, vocab: Vocabulary) -> "StyleCorpus":
        data = {k: [vocab.to_ids(s) for s in v] for k, v in self.sentences.items()}
        return StyleCorpus(self.label_x, self.label_y, data)


def save_corpus(corpus: StyleCorpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (style, split), sents in sorted(corpus.sentences.items()):
        path = out / f"{style}.{split}.txt"
        path.write_text("".join(s.text() + "\n" for s in sents), encoding="utf-8")


def load_corpus(data_dir, style_x: str, style_y: str) -> StyleCorpus:
    root = Path(data_dir)
    data = {}
    for style in (style_x, style_y):
        for split in SPLITS:
            path = root / f"{style}.{split}.txt"
            if not path.exists():
                if split == "train":
                    raise FileNotFoundError(f"missing corpus file {path}")
                continue
            data[(style, split)] = read_sentences(path)
    return StyleCorpus(StyleLabel(0, style_x), StyleLabel(1, style_y), data)


def save_references(refs, data_dir) -> None:
    """Write reference files line-aligned to the corpus files they annotate."""
    out = Path(data_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (style, split), per_line in sorted(refs.items()):
        n_refs = max((len(r) for r in per_line), default=0)
        for k in range(n_refs):
            path = out / f"{style}.{split}.ref{k}.txt"
            path.write_text(
                "".join(r[k].text() + "\n" for r in per_line), encoding="utf-8"
            )


def read_references(paths) -> list[list[Sentence]]:
    """Line-aligned reference files read as one reference set per line, the
    sets holding one sentence per file in file order."""
    columns = [read_sentences(path) for path in paths]
    for path, column in zip(paths, columns):
        if len(column) != len(columns[0]):
            raise LengthMismatchError(
                f"{path} has {len(column)} lines, {paths[0]} has {len(columns[0])}")
    return [list(refs) for refs in zip(*columns)]


def load_references(data_dir, style: str, split: str) -> list[list[Sentence]]:
    """Reference sets for ``<style>.<split>.txt``, one list per line."""
    root = Path(data_dir)
    ref_files = []
    while (root / f"{style}.{split}.ref{len(ref_files)}.txt").exists():
        ref_files.append(root / f"{style}.{split}.ref{len(ref_files)}.txt")
    return read_references(ref_files)


# ---------------------------------------------------------------------------
# Synthetic tasks with known gold transfers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Recipe for a small style-transfer task with exact gold references."""

    kind: str = "lexicon_swap"  # lexicon_swap | casing | marker
    vocab_size: int = 200
    max_len: int = 12
    pair_count: int = 14
    seed: int = 0
    train_per_style: int = 4000
    dev_per_style: int = 400
    test_per_style: int = 400
    rare_pair_count: int = 4
    rare_weight: float = 0.44
    style_x: str = "negative"
    style_y: str = "positive"

    def __post_init__(self):
        if self.kind not in ("lexicon_swap", "casing", "marker"):
            raise InvalidSpecError(f"unknown synthetic task kind {self.kind!r}")
        if self.max_len < 6:
            raise InvalidSpecError("max_len must be at least 6")
        if not (0 < self.pair_count <= len(_X_WORDS)):
            raise InvalidSpecError(f"pair_count must be in 1..{len(_X_WORDS)}")
        if not (0 <= self.rare_pair_count < self.pair_count):
            raise InvalidSpecError("rare_pair_count must be below pair_count")
        if min(self.train_per_style, self.dev_per_style, self.test_per_style) <= 0:
            raise InvalidSpecError("split sizes must be positive")


@dataclass
class GoldReferences:
    """Gold transfers for dev/test lines plus the generating word map."""

    refs: dict[tuple[str, str], list[list[Sentence]]]
    lexicon: dict[str, str]  # token -> counterpart, symmetric
    x_words: tuple[str, ...]
    y_words: tuple[str, ...]

    def apply_gold(self, sentence: Sentence) -> Sentence:
        surface = tuple(self.lexicon.get(t, t) for t in sentence.surface)
        return Sentence(surface=surface)


_X_WORDS = (
    "bland", "soggy", "stale", "sour", "greasy", "burnt", "watery", "rubbery",
    "salty", "bitter", "mushy", "chewy", "smelly", "lumpy", "gritty", "flavorless",
)
_Y_WORDS = (
    "tasty", "crisp", "fresh", "sweet", "tender", "golden", "juicy", "silky",
    "savory", "rich", "moist", "fluffy", "creamy", "fragrant", "zesty", "delicious",
)
_NOUNS = (
    "bread", "soup", "tea", "rice", "cake", "fish", "salad", "stew", "pie",
    "sauce", "toast", "curry", "noodles", "pasta", "broth", "dumpling",
    "pancake", "waffle", "biscuit", "pudding", "cheese", "butter", "garlic",
    "onion", "pepper", "mushroom", "bacon", "chicken", "corn", "beans",
    "squash", "melon", "apple", "plum", "ham", "trout", "clam", "leek",
    "basil", "mint", "cocoa", "cider", "jam", "scone", "tart", "roll",
    "wrap", "bun",
)
_OPENERS = ("honestly", "frankly", "overall", "somehow")
_DETERMINERS = ("the", "a", "some")
_TAILS = (
    ("again",),
    ("tonight",),
    ("at", "noon"),
    ("at", "dinner"),
    ("this", "time"),
    ("for", "lunch"),
    ("on", "the", "side"),
    ("with", "every", "bite"),
)


def _frame(rng: np.random.Generator, max_len: int) -> tuple[list[str], int, int]:
    """Common sentence frame; returns tokens plus style-slot and noun-slot indices."""
    tokens: list[str] = []
    if rng.random() < 0.3:
        tokens.append(_OPENERS[rng.integers(len(_OPENERS))])
    tokens.append(_DETERMINERS[rng.integers(len(_DETERMINERS))])
    slot = len(tokens)
    tokens.append("")  # style word goes here, directly before the noun
    noun_slot = len(tokens)
    tokens.append("")  # noun goes here
    tail = _TAILS[rng.integers(len(_TAILS))]
    if len(tokens) + len(tail) <= max_len:
        tokens.extend(tail)
    else:
        tokens.append(_TAILS[0][0])
    return tokens, slot, noun_slot


def _gen_lexicon_swap(spec: SyntheticTaskSpec, rng: np.random.Generator):
    pairs = [(_X_WORDS[k], _Y_WORDS[k]) for k in range(spec.pair_count)]
    nouns = [
        _NOUNS[2 * k: 2 * k + 2] if 2 * k + 2 <= len(_NOUNS) else _NOUNS[-2:]
        for k in range(spec.pair_count)
    ]
    # The last rare_pair_count pairs are down-weighted so their style words
    # stay below a (raised) salience threshold while the classifier still
    # sees enough of them.
    weights = np.ones(spec.pair_count)
    if spec.rare_pair_count:
        weights[-spec.rare_pair_count:] = spec.rare_weight
    weights = weights / weights.sum()

    def make_sentence(style_side: int) -> tuple[Sentence, Sentence]:
        k = int(rng.choice(spec.pair_count, p=weights))
        tokens, slot, noun_slot = _frame(rng, spec.max_len)
        tokens[slot] = pairs[k][style_side]
        tokens[noun_slot] = nouns[k][rng.integers(len(nouns[k]))]
        gold = list(tokens)
        gold[slot] = pairs[k][1 - style_side]
        return Sentence(tuple(tokens)), Sentence(tuple(gold))

    lexicon = {}
    for xw, yw in pairs:
        lexicon[xw] = yw
        lexicon[yw] = xw
    x_words = tuple(p[0] for p in pairs)
    y_words = tuple(p[1] for p in pairs)
    return make_sentence, lexicon, x_words, y_words


def _gen_casing(spec: SyntheticTaskSpec, rng: np.random.Generator):
    def make_sentence(style_side: int) -> tuple[Sentence, Sentence]:
        k = int(rng.integers(spec.pair_count))
        tokens, slot, noun_slot = _frame(rng, spec.max_len)
        tokens[slot] = _Y_WORDS[k]
        tokens[noun_slot] = _NOUNS[k % len(_NOUNS)]
        if style_side == 1:
            tokens = [t.upper() for t in tokens]
        gold = [t.lower() if style_side == 1 else t.upper() for t in tokens]
        return Sentence(tuple(tokens)), Sentence(tuple(gold))

    return make_sentence, {}, (), ()


def _gen_marker(spec: SyntheticTaskSpec, rng: np.random.Generator):
    markers = ("meh", "wow")

    def make_sentence(style_side: int) -> tuple[Sentence, Sentence]:
        k = int(rng.integers(spec.pair_count))
        tokens, slot, noun_slot = _frame(rng, spec.max_len - 1)
        tokens[slot] = _Y_WORDS[k]
        tokens[noun_slot] = _NOUNS[k % len(_NOUNS)]
        tokens = [markers[style_side]] + tokens
        gold = [markers[1 - style_side]] + tokens[1:]
        return Sentence(tuple(tokens)), Sentence(tuple(gold))

    lexicon = {markers[0]: markers[1], markers[1]: markers[0]}
    return make_sentence, lexicon, (markers[0],), (markers[1],)


def generate_synthetic(spec: SyntheticTaskSpec) -> tuple[StyleCorpus, GoldReferences]:
    """Build a deterministic synthetic corpus plus gold references.

    Only dev and test sentences carry references; the train split is
    reference-free, matching the unsupervised training contract.
    """
    rng = np.random.default_rng(spec.seed)
    makers = {
        "lexicon_swap": _gen_lexicon_swap,
        "casing": _gen_casing,
        "marker": _gen_marker,
    }
    make_sentence, lexicon, x_words, y_words = makers[spec.kind](spec, rng)

    label_x = StyleLabel(0, spec.style_x)
    label_y = StyleLabel(1, spec.style_y)
    sizes = {
        "train": spec.train_per_style,
        "dev": spec.dev_per_style,
        "test": spec.test_per_style,
    }
    data: dict[tuple[str, str], list[Sentence]] = {}
    refs: dict[tuple[str, str], list[list[Sentence]]] = {}
    for split in SPLITS:
        for label, side in ((label_x, 0), (label_y, 1)):
            sents, golds = [], []
            for _ in range(sizes[split]):
                sent, gold = make_sentence(side)
                sents.append(sent)
                golds.append([gold])
            data[(label.name, split)] = sents
            if split != "train":
                refs[(label.name, split)] = golds

    corpus = StyleCorpus(label_x, label_y, data)
    vocab_used = {t for sents in data.values() for s in sents for t in s.surface}
    if len(vocab_used) > spec.vocab_size:
        raise InvalidSpecError(
            f"task uses {len(vocab_used)} tokens, over the budget {spec.vocab_size}"
        )
    return corpus, GoldReferences(refs, lexicon, x_words, y_words)


def lexicon_oracle_label(sentence: Sentence, gold: GoldReferences) -> int:
    """Style index by exact lexicon lookup; the trivial synthetic-task oracle."""
    for token in sentence.surface:
        if token in gold.x_words:
            return 0
        if token in gold.y_words:
            return 1
    return -1


def pad_batch(id_seqs) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id tuples into (ids, mask) arrays, padded with PAD."""
    max_len = max(len(s) for s in id_seqs)
    ids = np.full((len(id_seqs), max_len), PAD, dtype=np.int64)
    mask = np.zeros((len(id_seqs), max_len), dtype=np.float64)
    for i, seq in enumerate(id_seqs):
        ids[i, : len(seq)] = seq
        mask[i, : len(seq)] = 1.0
    return ids, mask


def epoch_batches(items: list, size: int, rng: np.random.Generator) -> list[list]:
    """One epoch of ``items`` in ``rng.permutation`` order, cut into batches
    of ``size``; the last batch holds what is left."""
    order = rng.permutation(len(items))
    return [[items[i] for i in order[lo: lo + size]] for lo in range(0, len(order), size)]
