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

A lattice depends only on the piece set, not on the scores, so each piece
set has one lattice table: per distinct word, the (start, end, piece id) of
every match as int arrays; scores are read from the vocabulary when the
table is used. A vocabulary fills its table lazily, one word on first use.
em_step hands the re-scored vocabulary the same table (same pieces, same
order); prune_vocab derives the survivors' table by filtering the spans and
renumbering them, keeping their order, so every sum runs in the same order
as over a freshly built lattice. EM, the pruning loss scans, Viterbi and
encode all read the table, so a word's lattice is built once per training
run and once per loaded vocabulary.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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
    exp-sum to one, and `scores` holds them alone in the same order.
    required_chars holds the protected single-character pieces (both marker
    forms) that pruning must keep.

    The lattice table (see lattice()) starts empty and gains one entry per
    word on first use. em_step shares it with the vocabulary it returns and
    prune_vocab filters it into the survivors' table. It is derived data,
    a pure function of the pieces, so the vocabulary stays immutable in
    every observable way.
    """

    __slots__ = ("entries", "scores", "piece_to_id", "required_chars",
                 "max_content_length", "_lattices")

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
        self.scores: tuple[float, ...] = tuple(s for _, s in ents)
        self.piece_to_id: dict[str, int] = index
        lengths = [len(piece_content(p)) for p, _ in ents]
        self.required_chars: frozenset[str] = frozenset(
            p for (p, _), n in zip(ents, lengths) if n == 1
        )
        self.max_content_length: int = max(lengths, default=1)
        self._lattices: dict[str, Lattice] = {}

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

    def lattice(self, word: str) -> Lattice:
        """The lattice of `word` from this piece set's table, built on first use."""
        lat = self._lattices.get(word)
        if lat is None:
            lat = self._lattices[word] = build_lattice(word, self)
        return lat


# ---------------------------------------------------------------------------
# lattice


# array type code of the lattice tables: 64-bit, wide enough for any word
# length and piece id
_INT = "q"


class LatticeSpan(NamedTuple):
    start: int
    end: int
    piece_id: int


@dataclass(frozen=True, slots=True)
class Lattice:
    """All vocabulary matches over one word, ordered by (start, end).

    The spans starting at position i are offsets[i]:offsets[i + 1] of the
    parallel arrays ends and piece_ids.
    """

    sentence: str
    offsets: array
    ends: array
    piece_ids: array

    @property
    def spans(self) -> tuple[LatticeSpan, ...]:
        offsets = self.offsets
        return tuple(
            LatticeSpan(i, self.ends[k], self.piece_ids[k])
            for i in range(len(self.sentence))
            for k in range(offsets[i], offsets[i + 1])
        )

    def remapped(self, new_ids: Sequence[int]) -> Lattice:
        """Keep the spans whose piece has a new id (>= 0), in order, renumbered."""
        offsets, ends, piece_ids = array(_INT, [0]), array(_INT), array(_INT)
        for i in range(len(self.sentence)):
            for k in range(self.offsets[i], self.offsets[i + 1]):
                pid = new_ids[self.piece_ids[k]]
                if pid >= 0:
                    ends.append(self.ends[k])
                    piece_ids.append(pid)
            offsets.append(len(piece_ids))
        return Lattice(self.sentence, offsets, ends, piece_ids)


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
    n = len(word)
    max_len = vocab.max_content_length
    offsets, ends, piece_ids = array(_INT, [0]), array(_INT), array(_INT)
    for i in range(n):
        for j in range(i + 1, min(i + max_len, n) + 1):
            key = _span_piece(word, i, j)
            pid = None if key is None else index.get(key)
            if pid is not None:
                ends.append(j)
                piece_ids.append(pid)
        offsets.append(len(piece_ids))
    return Lattice(word, offsets, ends, piece_ids)


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
    lattice = vocab.lattice(word)
    offsets, ends, piece_ids = lattice.offsets, lattice.ends, lattice.piece_ids
    entries, scores = vocab.entries, vocab.scores
    n = len(word)
    # per position: (score, n_pieces, pieces) or None. Spans are visited by
    # start, so the candidates for one end arrive in order of their start.
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for i in range(n):
        prev = best[i]
        if prev is None:
            continue
        for k in range(offsets[i], offsets[i + 1]):
            pid = piece_ids[k]
            if pid == skip_piece:
                continue
            cand = (prev[0] + scores[pid], prev[1] + 1, prev[2] + (entries[pid][0],))
            j = ends[k]
            top = best[j]
            if (
                top is None
                or cand[0] > top[0]
                or (cand[0] == top[0] and (cand[1], cand[2]) < (top[1], top[2]))
            ):
                best[j] = cand
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


def _word_forward_backward(lattice: Lattice, scores: Sequence[float],
                           weight: int, expected: list[float]) -> float:
    """Log marginal probability of one word.

    Adds weight x posterior of every span on a full path to
    expected[piece_id], in span order.
    """
    offsets, ends, piece_ids = lattice.offsets, lattice.ends, lattice.piece_ids
    n = len(lattice.sentence)
    # forward by start: each end position sums its spans in order of start
    fwd = [NEG_INF] * (n + 1)
    fwd[0] = 0.0
    for i in range(n):
        if fwd[i] != NEG_INF:
            for k in range(offsets[i], offsets[i + 1]):
                j = ends[k]
                fwd[j] = _log_add(fwd[j], fwd[i] + scores[piece_ids[k]])
    log_z = fwd[n]
    if log_z == NEG_INF:
        raise OutOfInventoryError(lattice.sentence[0], 0,
                                  f"no segmentation for {lattice.sentence!r}")
    bwd = [NEG_INF] * (n + 1)
    bwd[n] = 0.0
    for i in range(n - 1, -1, -1):
        acc = NEG_INF
        for k in range(offsets[i], offsets[i + 1]):
            if bwd[ends[k]] != NEG_INF:
                acc = _log_add(acc, scores[piece_ids[k]] + bwd[ends[k]])
        bwd[i] = acc
    for i in range(n):
        if fwd[i] == NEG_INF:
            continue
        for k in range(offsets[i], offsets[i + 1]):
            if bwd[ends[k]] != NEG_INF:
                pid = piece_ids[k]
                expected[pid] += weight * math.exp(
                    fwd[i] + scores[pid] + bwd[ends[k]] - log_z)
    return log_z


def em_step(corpus: Corpus, vocab: SubwordVocab) -> tuple[SubwordVocab, float]:
    """One EM pass over all word lattices.

    Returns the re-estimated vocabulary and the corpus log-likelihood under
    the INPUT scores (sum over word tokens of the log marginal over all
    segmentations). Zero expected counts are floored at a 1e-30 fraction of
    the total before renormalizing, so every score stays finite. The
    returned vocabulary shares the input's lattice table.
    """
    expected = [0.0] * vocab.size
    log_likelihood = 0.0
    for word, c in corpus.word_counts.items():
        log_z = _word_forward_backward(vocab.lattice(word), vocab.scores, c, expected)
        log_likelihood += c * log_z
    total_positive = sum(expected)
    if total_positive <= 0.0:
        raise ValueError("EM produced no expected counts; corpus is empty?")
    # clamp, don't just replace zeros: starved pieces decay geometrically
    # across steps and would otherwise underflow to log(0)
    floor = total_positive * _COUNT_FLOOR_FRACTION
    floored = [e if e > floor else floor for e in expected]
    total = sum(floored)
    rescored = SubwordVocab([
        (piece, math.log(e / total))
        for (piece, _), e in zip(vocab.entries, floored)
    ])
    rescored._lattices = vocab._lattices
    return rescored, log_likelihood


def _kept_pieces(corpus: Corpus, vocab: SubwordVocab, keep: int) -> set[str]:
    """The `keep` multi-character pieces whose removal costs the most."""
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
    return {piece for _, _, piece in losses[:max(keep, 0)]}


def prune_vocab(corpus: Corpus, vocab: SubwordVocab, keep: int) -> SubwordVocab:
    """Drop the multi-character pieces whose removal costs the least.

    Cost of a piece is the exact drop in Viterbi corpus likelihood when only
    that piece is removed (words whose best path avoids it contribute zero,
    so unused pieces are removed first). Single-character coverage pieces are
    never candidates. Keeps `keep` of the others (all of them if there are
    fewer); survivor scores are renormalized to the simplex. The survivors'
    lattice table is the input's, filtered to the kept pieces.
    """
    # the loss scan's working set is freed before the survivors' table is built
    kept = vocab.required_chars | _kept_pieces(corpus, vocab, keep)
    survivors = [i for i, (p, _) in enumerate(vocab.entries) if p in kept]
    log_total = NEG_INF
    for i in survivors:
        log_total = _log_add(log_total, vocab.scores[i])
    pruned = SubwordVocab([(vocab.entries[i][0], vocab.scores[i] - log_total)
                           for i in survivors])
    new_ids = [-1] * vocab.size
    for new, old in enumerate(survivors):
        new_ids[old] = new
    pruned._lattices = {word: lat.remapped(new_ids)
                        for word, lat in vocab._lattices.items()}
    return pruned


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
