"""Unigram-LM subword vocabulary: training, Viterbi segmentation, detokenization.

Marker convention: a leading '_' marks a piece that CONTINUES the current
word; the first piece of every word is unmarked. Marked pieces are vocabulary
entries in their own right, separate from their unmarked twins, so "ing" and
"_ing" can carry different probabilities. A literal one-character "_" piece
is a word start (a word whose text begins with an underscore), never a
continuation.

The vocabulary is a probability simplex over pieces: entry scores are natural
log probabilities summing to one. The three control tokens <pad>/<bos>/<eos>
are not entries; they exist only in the serialized file (lines 0..2) and in
the token-id space used by the caption model, where entry i has token id i+3.

Training follows the usual unigram-LM recipe: seed with frequent substrings,
run EM over the per-word segmentation lattices, and interleave pruning rounds
that drop the multi-character pieces whose removal costs the least Viterbi
likelihood, until the target size is reached. Single-character pieces needed
for coverage are never pruned. All loops accumulate in corpus order, so
results are bitwise reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import Corpus, normalize_text
from .errors import (
    OrphanContinuationError,
    OutOfInventoryError,
    UnknownPieceError,
    VocabFormatError,
)

CONTINUATION = "_"
PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"
CONTROL_TOKENS = (PAD, BOS, EOS)
PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
NUM_CONTROLS = 3

NEG_INF = float("-inf")

# training recipe: seed with 20x the target, pieces of at most 16 content
# characters (the marker is free) seen at least twice; run 2 EM steps per
# round and keep 75% of the multi-character pieces per shrink round
MAX_PIECE_LENGTH = 16
MIN_PIECE_COUNT = 2
EM_SUBITERATIONS = 2
SHRINK_FACTOR = 0.75

# floor for zero expected counts, as a fraction of total mass; keeps scores
# finite for pieces no lattice can use (for example the space character)
# while perturbing the corpus likelihood far below test tolerances
_COUNT_FLOOR_FRACTION = 1e-30


def is_continuation(piece: str) -> bool:
    return len(piece) > 1 and piece[0] == CONTINUATION


def piece_content(piece: str) -> str:
    """The surface characters a piece contributes to its word."""
    return piece[1:] if is_continuation(piece) else piece


def mark_continuations(split_words: Iterable[Sequence[str]]) -> list[str]:
    """Flatten per-word piece lists, marking every non-initial piece.

    [["head", "ed"]] -> ["head", "_ed"]
    """
    out: list[str] = []
    for pieces in split_words:
        for k, piece in enumerate(pieces):
            out.append(piece if k == 0 else CONTINUATION + piece)
    return out


@dataclass(frozen=True)
class TokenSequence:
    """A segmented caption: pieces, model token ids, total log probability."""

    pieces: tuple[str, ...]
    ids: tuple[int, ...]
    total_score: float

    def __len__(self) -> int:
        return len(self.pieces)


@dataclass(frozen=True)
class TrainerConfig:
    target_vocab_size: int

    def __post_init__(self):
        if self.target_vocab_size < 1:
            raise ValueError("target_vocab_size must be >= 1")


class SubwordVocab:
    """Immutable piece inventory with log-probability scores.

    entries: (piece, score) in id order; scores are finite, <= 0, and
    exp-sum to one. required_chars holds the protected single-character
    pieces (both marker forms) that pruning must keep.
    """

    __slots__ = ("entries", "piece_to_id", "required_chars", "max_content_length")

    def __init__(self, entries: Sequence[tuple[str, float]]):
        ents = tuple(entries)
        index: dict[str, int] = {}
        for i, (piece, score) in enumerate(ents):
            if not piece:
                raise VocabFormatError("empty piece")
            if piece in index:
                raise VocabFormatError(f"duplicate piece {piece!r}")
            if not math.isfinite(score) or score > 1e-9:
                raise VocabFormatError(f"piece {piece!r} has invalid score {score}")
            index[piece] = i
        self.entries: tuple[tuple[str, float], ...] = ents
        self.piece_to_id: dict[str, int] = index
        self.required_chars: frozenset[str] = frozenset(
            p for p, _ in ents if len(piece_content(p)) == 1
        )
        self.max_content_length: int = max(
            (len(piece_content(p)) for p, _ in ents), default=1
        )

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def num_tokens(self) -> int:
        """Size of the model token-id space, controls included."""
        return len(self.entries) + NUM_CONTROLS

    def __contains__(self, piece: str) -> bool:
        return piece in self.piece_to_id

    def score(self, piece: str) -> float:
        try:
            return self.entries[self.piece_to_id[piece]][1]
        except KeyError:
            raise UnknownPieceError(f"piece {piece!r} is not in the vocabulary") from None

    def token_id(self, piece: str) -> int:
        try:
            return self.piece_to_id[piece] + NUM_CONTROLS
        except KeyError:
            raise UnknownPieceError(f"piece {piece!r} is not in the vocabulary") from None

    def piece_of_token(self, token_id: int) -> str:
        if token_id < NUM_CONTROLS:
            return CONTROL_TOKENS[token_id]
        return self.entries[token_id - NUM_CONTROLS][0]


# ---------------------------------------------------------------------------
# lattice


@dataclass(frozen=True)
class LatticeSpan:
    start: int
    end: int
    piece_id: int
    score: float


@dataclass(frozen=True)
class Lattice:
    """All vocabulary matches over one word, grouped by span end."""

    sentence: str
    spans: tuple[LatticeSpan, ...]
    by_end: tuple[tuple[int, ...], ...]  # span indices ending at position j


def _span_piece(word: str, i: int, j: int) -> str | None:
    """Vocabulary key for word[i:j], or None if not admissible at i.

    Multi-character pieces starting with '_' are reserved for continuations,
    so they never match at a word start.
    """
    if i == 0:
        piece = word[:j]
        if j > 1 and piece[0] == CONTINUATION:
            return None
        return piece
    return CONTINUATION + word[i:j]


def check_coverage(word: str, vocab: SubwordVocab) -> None:
    """Every position must be coverable by a single-character piece."""
    index = vocab.piece_to_id
    for pos, ch in enumerate(word):
        key = ch if pos == 0 else CONTINUATION + ch
        if key not in index:
            raise OutOfInventoryError(ch, pos)


def build_lattice(word: str, vocab: SubwordVocab) -> Lattice:
    if not word:
        raise ValueError("cannot build a lattice over an empty word")
    check_coverage(word, vocab)
    index = vocab.piece_to_id
    entries = vocab.entries
    n = len(word)
    max_len = vocab.max_content_length
    spans: list[LatticeSpan] = []
    by_end: list[list[int]] = [[] for _ in range(n + 1)]
    for i in range(n):
        for j in range(i + 1, min(i + max_len, n) + 1):
            key = _span_piece(word, i, j)
            if key is None:
                continue
            pid = index.get(key)
            if pid is None:
                continue
            by_end[j].append(len(spans))
            spans.append(LatticeSpan(i, j, pid, entries[pid][1]))
    return Lattice(word, tuple(spans), tuple(tuple(e) for e in by_end))


# ---------------------------------------------------------------------------
# segmentation


def _viterbi_word(
    word: str, vocab: SubwordVocab, skip_piece: int | None = None
) -> tuple[tuple[str, ...], float]:
    """Best segmentation of one word.

    Ties on score prefer fewer pieces, then the lexicographically smallest
    piece sequence. Exact float equality is intentional: ties arise from
    identical score sums, and anything else is a genuine difference.
    """
    lattice = build_lattice(word, vocab)
    entries = vocab.entries
    n = len(word)
    # per position: (score, n_pieces, pieces) or None
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for j in range(1, n + 1):
        top: tuple[float, int, tuple[str, ...]] | None = None
        for k in lattice.by_end[j]:
            span = lattice.spans[k]
            if skip_piece is not None and span.piece_id == skip_piece:
                continue
            prev = best[span.start]
            if prev is None:
                continue
            cand = (
                prev[0] + span.score,
                prev[1] + 1,
                prev[2] + (entries[span.piece_id][0],),
            )
            if (
                top is None
                or cand[0] > top[0]
                or (cand[0] == top[0] and (cand[1], cand[2]) < (top[1], top[2]))
            ):
                top = cand
        best[j] = top
    final = best[n]
    if final is None:
        # unreachable after check_coverage unless skip_piece removed a
        # single-character piece; callers never do that
        raise OutOfInventoryError(word[0], 0, f"no segmentation for {word!r}")
    return final[2], final[0]


def viterbi_segment(text: str, vocab: SubwordVocab) -> TokenSequence:
    """Segment a normalized caption word by word; scores add across words."""
    pieces: list[str] = []
    total = 0.0
    offset = 0
    for word in text.split():
        start = text.index(word, offset)
        try:
            word_pieces, score = _viterbi_word(word, vocab)
        except OutOfInventoryError as err:
            raise OutOfInventoryError(err.char, start + err.position) from None
        pieces.extend(word_pieces)
        total += score
        offset = start + len(word)
    ids = tuple(vocab.piece_to_id[p] + NUM_CONTROLS for p in pieces)
    return TokenSequence(tuple(pieces), ids, total)


def encode(text: str, vocab: SubwordVocab) -> TokenSequence:
    """Normalize then segment. Idempotent on already-normalized text."""
    return viterbi_segment(normalize_text(text), vocab)


def detokenize(tokens: TokenSequence | Iterable[str]) -> str:
    """Invert segmentation: join continuation pieces, space-join words."""
    pieces = tokens.pieces if isinstance(tokens, TokenSequence) else tuple(tokens)
    words: list[str] = []
    for k, piece in enumerate(pieces):
        if is_continuation(piece):
            if not words:
                raise OrphanContinuationError(
                    f"piece {piece!r} at index {k} continues no word"
                )
            words[-1] += piece[1:]
        else:
            words.append(piece)
    return " ".join(words)


# ---------------------------------------------------------------------------
# training


def _positional_substring_counts(corpus: Corpus) -> Counter[str]:
    """Occurrence counts of every admissible piece form, weighted by word count."""
    counts: Counter[str] = Counter()
    for word, c in corpus.word_counts.items():
        n = len(word)
        for i in range(n):
            for j in range(i + 1, min(i + MAX_PIECE_LENGTH, n) + 1):
                key = _span_piece(word, i, j)
                if key is not None:
                    counts[key] += c
    return counts


def build_seed_vocab(corpus: Corpus, seed_size: int) -> SubwordVocab:
    """Frequent-substring seed.

    Forced entries: the unmarked single for every inventory character, plus
    the marked single for every character observed word-internally. Multi
    character candidates need count >= MIN_PIECE_COUNT and are ranked by
    (count desc, piece asc); the top seed_size survive.
    """
    if not corpus.captions or not corpus.word_counts:
        raise ValueError("cannot seed a vocabulary from an empty corpus")
    counts = _positional_substring_counts(corpus)
    forced: list[str] = sorted(corpus.char_inventory - {" "}) + (
        [" "] if " " in corpus.char_inventory else []
    )
    singles: list[tuple[str, int]] = []
    for ch in forced:
        singles.append((ch, max(counts.get(ch, 0), 1)))
        marked = CONTINUATION + ch
        if counts.get(marked, 0) > 0:
            singles.append((marked, counts[marked]))
    single_set = {p for p, _ in singles}
    multi = [
        (piece, c)
        for piece, c in counts.items()
        if piece not in single_set
        and len(piece_content(piece)) >= 2
        and c >= MIN_PIECE_COUNT
    ]
    multi.sort(key=lambda item: (-item[1], item[0]))
    chosen = singles + multi[:seed_size]
    total = sum(c for _, c in chosen)
    scored = [(piece, math.log(c / total)) for piece, c in chosen]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return SubwordVocab(scored)


def _log_add(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _word_forward_backward(
    lattice: Lattice,
) -> tuple[float, list[tuple[int, float]]]:
    """Log marginal probability of one word and per-span posteriors.

    Returns (logZ, [(piece_id, posterior)...]) for every span on a full path.
    """
    n = len(lattice.sentence)
    fwd = [NEG_INF] * (n + 1)
    fwd[0] = 0.0
    for j in range(1, n + 1):
        acc = NEG_INF
        for k in lattice.by_end[j]:
            span = lattice.spans[k]
            if fwd[span.start] != NEG_INF:
                acc = _log_add(acc, fwd[span.start] + span.score)
        fwd[j] = acc
    log_z = fwd[n]
    if log_z == NEG_INF:
        raise OutOfInventoryError(lattice.sentence[0], 0,
                                  f"no segmentation for {lattice.sentence!r}")
    by_start: list[list[LatticeSpan]] = [[] for _ in range(n + 1)]
    for span in lattice.spans:
        by_start[span.start].append(span)
    bwd = [NEG_INF] * (n + 1)
    bwd[n] = 0.0
    for i in range(n - 1, -1, -1):
        acc = NEG_INF
        for span in by_start[i]:
            if bwd[span.end] != NEG_INF:
                acc = _log_add(acc, span.score + bwd[span.end])
        bwd[i] = acc
    posteriors: list[tuple[int, float]] = []
    for span in lattice.spans:
        if fwd[span.start] == NEG_INF or bwd[span.end] == NEG_INF:
            continue
        posteriors.append(
            (span.piece_id, math.exp(fwd[span.start] + span.score + bwd[span.end] - log_z))
        )
    return log_z, posteriors


def em_step(corpus: Corpus, vocab: SubwordVocab) -> tuple[SubwordVocab, float]:
    """One EM pass over all word lattices.

    Returns the re-estimated vocabulary and the corpus log-likelihood under
    the INPUT scores (sum over word tokens of the log marginal over all
    segmentations). Zero expected counts are floored at a 1e-30 fraction of
    the total before renormalizing, so every score stays finite.
    """
    expected = [0.0] * vocab.size
    log_likelihood = 0.0
    for word, c in corpus.word_counts.items():
        log_z, posteriors = _word_forward_backward(build_lattice(word, vocab))
        log_likelihood += c * log_z
        for pid, post in posteriors:
            expected[pid] += c * post
    total_positive = sum(expected)
    if total_positive <= 0.0:
        raise ValueError("EM produced no expected counts; corpus is empty?")
    # clamp, don't just replace zeros: starved pieces decay geometrically
    # across steps and would otherwise underflow to log(0)
    floor = total_positive * _COUNT_FLOOR_FRACTION
    floored = [e if e > floor else floor for e in expected]
    total = sum(floored)
    new_entries = [
        (piece, math.log(e / total))
        for (piece, _), e in zip(vocab.entries, floored)
    ]
    return SubwordVocab(new_entries), log_likelihood


def prune_vocab(corpus: Corpus, vocab: SubwordVocab, keep: int) -> SubwordVocab:
    """Drop the multi-character pieces whose removal costs the least.

    Cost of a piece is the exact drop in Viterbi corpus likelihood when only
    that piece is removed (words whose best path avoids it contribute zero,
    so unused pieces are removed first). Single-character coverage pieces are
    never candidates. Keeps `keep` of the others (all of them if there are
    fewer); survivor scores are renormalized to the simplex.
    """
    protected = vocab.required_chars
    multi_ids = [
        i for i, (p, _) in enumerate(vocab.entries) if p not in protected
    ]

    base_scores: dict[str, float] = {}
    usage: dict[int, list[str]] = {}
    use_count: Counter[int] = Counter()
    for word in corpus.word_counts:
        pieces, score = _viterbi_word(word, vocab)
        base_scores[word] = score
        seen = set()
        for p in pieces:
            pid = vocab.piece_to_id[p]
            if p in protected or pid in seen:
                continue
            seen.add(pid)
            usage.setdefault(pid, []).append(word)
            use_count[pid] += 1

    word_counts = corpus.word_counts
    losses: list[tuple[float, int, str]] = []  # (-loss, -n_words_using, piece)
    for pid in multi_ids:
        piece = vocab.entries[pid][0]
        loss = 0.0
        for word in usage.get(pid, ()):
            _, without = _viterbi_word(word, vocab, skip_piece=pid)
            loss += word_counts[word] * (base_scores[word] - without)
        losses.append((-loss, -use_count[pid], piece))
    losses.sort()
    kept_pieces = {piece for _, _, piece in losses[:max(keep, 0)]}

    survivors = [
        (p, s) for p, s in vocab.entries if p in protected or p in kept_pieces
    ]
    log_total = NEG_INF
    for _, s in survivors:
        log_total = _log_add(log_total, s)
    return SubwordVocab([(p, s - log_total) for p, s in survivors])


def train_unigram(corpus: Corpus, config: TrainerConfig) -> SubwordVocab:
    """Seed, then alternate EM and pruning down to the target size.

    Shrink rounds run until the vocabulary is within 10% of the target, then
    one exact prune (and a final EM settle) lands on target_vocab_size. A
    corpus whose substring inventory is smaller than the target yields a
    smaller vocabulary; pieces cannot be invented.
    """
    target = config.target_vocab_size
    vocab = build_seed_vocab(corpus, 20 * target)
    n_protected = len(vocab.required_chars)
    if target < n_protected + 1:
        raise ValueError(
            f"target_vocab_size {target} is below the coverage floor "
            f"{n_protected} + 1 single-character pieces"
        )

    while vocab.size > 1.1 * target:
        for _ in range(EM_SUBITERATIONS):
            vocab, _ = em_step(corpus, vocab)
        n_multi = vocab.size - n_protected
        keep = max(int(n_multi * SHRINK_FACTOR), target - n_protected)
        if keep >= n_multi:
            break
        vocab = prune_vocab(corpus, vocab, keep)
    for _ in range(EM_SUBITERATIONS):
        vocab, _ = em_step(corpus, vocab)
    if vocab.size > target:
        vocab = prune_vocab(corpus, vocab, target - n_protected)
        for _ in range(EM_SUBITERATIONS):
            vocab, _ = em_step(corpus, vocab)
    ordered = sorted(vocab.entries, key=lambda e: (-e[1], e[0]))
    return SubwordVocab(ordered)


# ---------------------------------------------------------------------------
# serialization: piece<TAB>score lines, controls first with score 0


def save_vocab(vocab: SubwordVocab, path: str | Path) -> None:
    lines = [f"{tok}\t0.000000" for tok in CONTROL_TOKENS]
    lines.extend(f"{piece}\t{score:.6f}" for piece, score in vocab.entries)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_vocab(path: str | Path) -> SubwordVocab:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise VocabFormatError(f"{path}: not UTF-8 text: {err}") from None
    lines = text.splitlines()
    if len(lines) < NUM_CONTROLS:
        raise VocabFormatError(f"{path}: fewer than {NUM_CONTROLS} lines")
    entries: list[tuple[str, float]] = []
    for lineno, line in enumerate(lines):
        if "\t" not in line:
            raise VocabFormatError(f"{path}: line {lineno + 1}: missing tab")
        piece, raw_score = line.split("\t", 1)
        try:
            score = float(raw_score)
        except ValueError:
            raise VocabFormatError(
                f"{path}: line {lineno + 1}: bad score {raw_score!r}"
            ) from None
        if lineno < NUM_CONTROLS:
            if piece != CONTROL_TOKENS[lineno] or score != 0.0:
                raise VocabFormatError(
                    f"{path}: line {lineno + 1}: expected control token "
                    f"{CONTROL_TOKENS[lineno]} with score 0"
                )
            continue
        entries.append((piece, score))
    if not entries:
        raise VocabFormatError(f"{path}: no vocabulary entries after controls")
    return SubwordVocab(entries)
