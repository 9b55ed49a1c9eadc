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

from .corpus import Corpus, normalize_text, read_text
from .errors import VocabFormatError
from .unigram import CONTINUATION, mark_continuations

WORD_SPECIALS = ("<pad>", "<bos>", "<eos>", "<unk>")
UNK = "<unk>"

BPE_HEADER = "#bpe"


# ---------------------------------------------------------------------------
# BPE


@dataclass(frozen=True)
class BpeModel:
    """Ordered merge list plus the symbol set it induces.

    vocab is the training character alphabet together with every merge
    product; after loading from a file (which stores only merges) it is the
    reconstructible subset: symbols mentioned in merges and their products.
    Tokenization itself never consults vocab, so behavior is identical.
    """

    merges: tuple[tuple[str, str], ...]
    vocab: frozenset[str]


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
    alphabet = {ch for w in words for ch in w}
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
    vocab = alphabet | {a + b for a, b in merges}
    return BpeModel(tuple(merges), frozenset(vocab))


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
    for word in normalize_text(text).split():
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
    vocab = {s for pair in merges for s in pair} | {a + b for a, b in merges}
    return BpeModel(tuple(merges), frozenset(vocab))


# ---------------------------------------------------------------------------
# word-level


class WordVocab:
    """Words kept at min_freq, specials first; everything else maps to <unk>."""

    __slots__ = ("words", "min_freq", "_index")

    def __init__(self, words: Sequence[str], min_freq: int):
        words = tuple(words)
        if words[: len(WORD_SPECIALS)] != WORD_SPECIALS:
            raise VocabFormatError("word vocab must start with the special tokens")
        self.words = words
        self.min_freq = min_freq
        self._index = frozenset(words)

    @property
    def size(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index


def train_word_vocab(corpus: Corpus, min_freq: int = 5) -> WordVocab:
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts = corpus.word_counts
    kept = [w for w, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda w: (-counts[w], w))
    return WordVocab(WORD_SPECIALS + tuple(kept), min_freq)


def word_tokenize(text: str, vocab: WordVocab) -> list[str]:
    return [w if w in vocab else UNK for w in normalize_text(text).split()]


def oov_rate(texts: Sequence[str], vocab: WordVocab) -> float:
    """Fraction of word tokens mapping to <unk>."""
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


def load_word_vocab(path: str | Path, min_freq: int = 5) -> WordVocab:
    words = read_text(path, VocabFormatError).splitlines()
    if len(words) < len(WORD_SPECIALS):
        raise VocabFormatError(f"{path}: missing special tokens")
    return WordVocab(tuple(words), min_freq)
