"""Baseline tokenizers: frequency-merge BPE and a min-frequency word vocab.

Both produce output in the same continuation-marker form as the unigram
tokenizer (word-internal pieces carry a leading '_'), so detokenize() is
shared. BPE merges never cross word boundaries; merge selection is highest
pair count with lexicographic tie-break, and pair counting sums left to
right in corpus order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .corpus import Corpus, normalize_words, read_text
from .errors import VocabFormatError
from .unigram import CONTINUATION, CONTROL_TOKENS, mark_continuations

UNK = "<unk>"
WORD_SPECIALS = CONTROL_TOKENS + (UNK,)

BPE_HEADER = "#bpe"


# ---------------------------------------------------------------------------
# BPE


@dataclass(frozen=True)
class BpeModel:
    """The ordered merge list, which alone defines tokenization."""

    merges: tuple[tuple[str, str], ...]


def _merge_word(symbols: list[str], left: str, right: str) -> list[str]:
    """Single left-to-right pass replacing adjacent (left, right) pairs."""
    out: list[str] = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def train_bpe(corpus: Corpus, num_merges: int) -> BpeModel:
    """Greedy highest-count merges within words; stops early when no pair
    occurs at least twice."""
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    if not corpus.word_counts:
        raise ValueError("cannot train BPE on an empty corpus")
    words: dict[str, list[str]] = {w: list(w) for w in corpus.word_counts}
    counts = corpus.word_counts
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        pair_counts: Counter[tuple[str, str]] = Counter()
        for w, symbols in words.items():
            c = counts[w]
            for a, b in zip(symbols, symbols[1:]):
                pair_counts[(a, b)] += c
        if not pair_counts:
            break
        top = max(pair_counts.values())
        if top < 2:
            break
        best = min(p for p, c in pair_counts.items() if c == top)
        merges.append(best)
        for w, symbols in words.items():
            if best[0] in symbols:
                words[w] = _merge_word(symbols, *best)
    return BpeModel(tuple(merges))


def _bpe_word_symbols(word: str, model: BpeModel) -> list[str]:
    symbols = list(word)
    for left, right in model.merges:
        if left in symbols:
            symbols = _merge_word(symbols, left, right)
    return symbols


def bpe_tokenize(text: str, model: BpeModel) -> list[str]:
    """Apply merges in training order within each word, then mark
    continuations. Characters never seen in training pass through as
    singleton symbols.

    A merged symbol that itself starts with '_' must not land word-initial
    (detokenize would misread it as a continuation), so its leading
    underscore is split off as its own piece.
    """
    per_word: list[list[str]] = []
    for word in normalize_words(text):
        symbols = _bpe_word_symbols(word, model)
        if len(symbols[0]) > 1 and symbols[0][0] == CONTINUATION:
            symbols = [CONTINUATION, symbols[0][1:]] + symbols[1:]
        per_word.append(symbols)
    return mark_continuations(per_word)


def save_bpe(model: BpeModel, path: str | Path) -> None:
    lines = [BPE_HEADER]
    lines.extend(f"{a} {b}" for a, b in model.merges)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_bpe(path: str | Path) -> BpeModel:
    lines = read_text(path, VocabFormatError).splitlines()
    if not lines or lines[0] != BPE_HEADER:
        raise VocabFormatError(f"{path}: missing {BPE_HEADER!r} header")
    merges: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise VocabFormatError(f"{path}: line {lineno}: expected 'left right'")
        merges.append((parts[0], parts[1]))
    return BpeModel(tuple(merges))


# ---------------------------------------------------------------------------
# word-level


class WordVocab:
    """Distinct words, specials first. Only the words after the specials
    are members (`in`): everything else, a special's spelling included,
    maps to <unk>."""

    __slots__ = ("words", "_learned")

    def __init__(self, words: Sequence[str]):
        words = tuple(words)
        if words[: len(WORD_SPECIALS)] != WORD_SPECIALS:
            raise VocabFormatError("word vocab must start with the special tokens")
        if len(set(words)) != len(words):
            repeated = next(w for w, c in Counter(words).items() if c > 1)
            raise VocabFormatError(f"word vocab repeats {repeated!r}")
        self.words = words
        self._learned = frozenset(words[len(WORD_SPECIALS):])

    @property
    def size(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._learned


def train_word_vocab(corpus: Corpus, min_freq: int = 5) -> WordVocab:
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = corpus.word_counts
    kept = [w for w, c in counts.items() if c >= min_freq and w not in WORD_SPECIALS]
    kept.sort(key=lambda w: (-counts[w], w))
    return WordVocab(WORD_SPECIALS + tuple(kept))


def word_tokenize(text: str, vocab: WordVocab) -> list[str]:
    """The normalized words, each one the vocabulary did not learn as <unk>."""
    return [w if w in vocab else UNK for w in normalize_words(text)]


def oov_rate(texts: Sequence[str], vocab: WordVocab) -> float:
    """Fraction of word tokens mapping to <unk>. train_word_vocab never
    learns a special, so a caption word spelled like one, <unk> included,
    counts as out of vocabulary."""
    total = 0
    oov = 0
    for text in texts:
        toks = word_tokenize(text, vocab)
        total += len(toks)
        oov += sum(t == UNK for t in toks)
    return (oov / total) if total else 0.0


def save_word_vocab(vocab: WordVocab, path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(vocab.words) + "\n", encoding="utf-8", newline="\n"
    )


def load_word_vocab(path: str | Path) -> WordVocab:
    words = read_text(path, VocabFormatError).splitlines()
    if len(words) < len(WORD_SPECIALS):
        raise VocabFormatError(f"{path}: missing special tokens")
    return WordVocab(words)
