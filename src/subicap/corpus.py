"""Caption corpus loading, normalization, and summary statistics.

A corpus is a list of (image_id, caption) pairs. Captions are stored in
canonical form: NFKC-normalized, lowercased, single-space separated, and
truncated to the first `max_words` whitespace words. Every structure here is
immutable after construction, so concurrent readers need no locking; the
word/character tallies are accumulated left to right in file order.
"""

from __future__ import annotations

import importlib.resources
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import CorpusFormatError, SubicapError

DEFAULT_MAX_WORDS = 16


def read_text(path: str | Path, error: type[SubicapError]) -> str:
    """A file's UTF-8 text; bytes that do not decode raise `error`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text: {err}") from None


def normalize_text(text: str) -> str:
    """Canonical caption form: NFKC, lowercase, single-space separated."""
    folded = unicodedata.normalize("NFKC", text).lower()
    return " ".join(folded.split())


def truncate_words(text: str, max_words: int = DEFAULT_MAX_WORDS) -> str:
    if max_words < 1:
        raise ValueError(f"max_words must be >= 1, got {max_words}")
    return " ".join(text.split()[:max_words])


@dataclass(frozen=True)
class Caption:
    image_id: str
    text: str


@dataclass(frozen=True)
class CorpusStats:
    num_captions: int
    num_images: int
    total_words: int
    distinct_words: int
    avg_caption_length_words: float


class Corpus:
    """Normalized captions plus word counts and the character inventory.

    `char_inventory` covers every character of every stored caption,
    including the separating space.
    """

    __slots__ = ("captions", "word_counts", "char_inventory")

    def __init__(self, captions: Sequence[Caption]):
        caps = tuple(captions)
        counts: Counter[str] = Counter()
        chars: set[str] = set()
        for cap in caps:
            counts.update(cap.text.split())
            chars.update(cap.text)
        self.captions: tuple[Caption, ...] = caps
        self.word_counts: Counter[str] = counts
        self.char_inventory: frozenset[str] = frozenset(chars)

    def __len__(self) -> int:
        return len(self.captions)

    def texts(self) -> list[str]:
        return [cap.text for cap in self.captions]

    @classmethod
    def from_texts(
        cls,
        texts: Iterable[str],
        image_ids: Iterable[str] | None = None,
        max_words: int = DEFAULT_MAX_WORDS,
    ) -> "Corpus":
        texts = list(texts)
        ids = list(image_ids) if image_ids is not None else [
            f"img{i:04d}" for i in range(len(texts))
        ]
        if len(ids) != len(texts):
            raise ValueError("image_ids and texts length mismatch")
        return cls(
            [
                Caption(i, truncate_words(normalize_text(t), max_words))
                for i, t in zip(ids, texts)
            ]
        )


def load_corpus(path: str | Path, max_words: int = DEFAULT_MAX_WORDS) -> Corpus:
    """Read image_id<TAB>caption lines; '#' lines and blank lines are skipped.

    A data line without a tab is rejected with its 1-based line number.
    """
    captions: list[Caption] = []
    # universal newlines: "\r\n" and "\r" arrive as "\n"
    lines = read_text(path, CorpusFormatError).split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.startswith("#"):
            continue
        if "\t" not in line:
            raise CorpusFormatError(
                f"line {lineno}: expected image_id<TAB>caption, got {line!r}"
            )
        image_id, raw = line.split("\t", 1)
        captions.append(
            Caption(image_id, truncate_words(normalize_text(raw), max_words))
        )
    return Corpus(captions)


def corpus_stats(corpus: Corpus) -> CorpusStats:
    n = len(corpus.captions)
    total_words = sum(corpus.word_counts.values())
    return CorpusStats(
        num_captions=n,
        num_images=len({cap.image_id for cap in corpus.captions}),
        total_words=total_words,
        distinct_words=len(corpus.word_counts),
        avg_caption_length_words=(total_words / n) if n else 0.0,
    )


def bundled_corpus_path() -> Path:
    """Location of the packaged desk caption corpus."""
    ref = importlib.resources.files("subicap") / "data" / "desk_captions.tsv"
    return Path(str(ref))
