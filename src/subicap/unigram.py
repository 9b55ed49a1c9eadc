"""Unigram-LM subword vocabulary: training, Viterbi segmentation, detokenization.

Marker convention: a leading '_' marks a piece that CONTINUES the current
word; the first piece of every word is unmarked. Marked pieces are vocabulary
entries in their own right, separate from their unmarked twins, so "ing" and
"_ing" can carry different probabilities. A literal one-character "_" piece
is a word start (a word whose text begins with an underscore), never a
continuation.

The vocabulary is a probability simplex over pieces: entry scores are natural
log probabilities summing to one, held as one column per per-piece fact in id
order; EM and pruning derive their vocabulary by indexing their parent's. The
control tokens <pad>/<bos>/<eos> are not entries; they exist only in the
serialized file (lines 0..2) and in the caption model's token-id space, where
entry i has token id i+3.

Training follows the usual unigram-LM recipe: seed with frequent substrings,
run EM over the per-word segmentation lattices, and interleave pruning rounds
that drop the multi-character pieces whose removal costs the least Viterbi
likelihood, until the target size is reached. Single-character pieces needed
for coverage are never pruned. All loops accumulate in corpus order, so
results are bitwise reproducible.

A lattice is the (start, end, piece id) of every vocabulary match over a
word, as parallel int arrays in (start, end) order. It depends only on the
piece set, not on the scores, so each piece set has one lattice table over
the training words: the same spans with a word column, in (word, start,
end) order, from one build_lattice call per distinct word. em_step hands
the re-scored vocabulary the same table; prune_vocab filters its spans to
the survivors and renumbers them, keeping their order. EM's forward and
backward sums and pruning's best path without each piece run as array
passes over the table, one step per character position across all words,
with np.logaddexp / np.maximum reduceat; expected counts are one
np.bincount in span order. These add in the order a scalar walk adds, so
results are the same to the bit; for that the posterior's exp is libm's
math.exp, since np.exp's SIMD kernel rounds differently. Pruning's best
path of each word comes from the same max pass, traced back across all
words at once; only a word with two best spans into a position on its path
rebuilds its lattice and runs the one scalar Viterbi, which breaks the
tie, and which encode memoises per word.
"""

from __future__ import annotations

import copy
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .corpus import Corpus, normalize_text, read_text
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

    Parallel columns in id order: pieces; scores, as Python floats, finite,
    <= 0 and exp-summing to one; lengths, the pieces' content lengths as an
    int array. entries pairs pieces with scores. required_chars holds the
    protected single-character pieces (both marker forms) that pruning must
    keep. Only the constructor validates: em_step and prune_vocab index
    their parent's columns and lattice table (see _derived).

    The lattice table (see table()) is built on first use over the words
    asked for; the segmentation memo maps a word to its best (pieces,
    score). Both are derived data, pure functions of the columns, so the
    vocabulary stays immutable in every observable way.
    """

    __slots__ = ("pieces", "scores", "lengths", "piece_to_id", "required_chars",
                 "max_content_length", "_table", "_segmentations")

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
        self.pieces: tuple[str, ...] = tuple(p for p, _ in ents)
        self.scores: tuple[float, ...] = tuple(s for _, s in ents)
        self.lengths = np.array([len(piece_content(p)) for p in self.pieces], np.int64)
        self.piece_to_id: dict[str, int] = index
        self.required_chars = frozenset(compress(self.pieces, self.lengths == 1))
        self.max_content_length: int = int(self.lengths.max(initial=1))
        self._table: LatticeTable | None = None
        self._segmentations: dict[str, tuple[tuple[str, ...], float]] = {}

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self.pieces, self.scores))

    @property
    def size(self) -> int:
        return len(self.pieces)

    @property
    def num_tokens(self) -> int:
        """Size of the model token-id space, controls included."""
        return len(self.pieces) + NUM_CONTROLS

    def __contains__(self, piece: str) -> bool:
        return piece in self.piece_to_id

    def score(self, piece: str) -> float:
        try:
            return self.scores[self.piece_to_id[piece]]
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
        return self.pieces[token_id - NUM_CONTROLS]

    def table(self, words: Iterable[str]) -> LatticeTable:
        """The lattice table over `words`, in their order; built on the
        first call and again only when the words differ."""
        words = tuple(words)
        if self._table is None or self._table.words != words:
            self._table = LatticeTable.build(words, self)
        return self._table

    def _derived(self, scores: Sequence[float],
                 ids: np.ndarray | None = None) -> SubwordVocab:
        """The pieces `ids` (ascending; all if None) with new `scores`, which
        the caller has validated: the columns, index and lattice table
        indexed, and an empty segmentation memo. Every caller's ids keep
        every single-character piece, so required_chars is shared."""
        derived = copy.copy(self)
        derived.scores, derived._segmentations = tuple(scores), {}
        if ids is not None:
            derived.pieces = tuple(map(self.pieces.__getitem__, ids.tolist()))
            derived.lengths = self.lengths[ids]
            derived.piece_to_id = dict(zip(derived.pieces, range(len(ids))))
            derived.max_content_length = int(derived.lengths.max(initial=1))
            new_ids = np.full(self.size, -1, dtype=np.intc)
            new_ids[ids] = np.arange(len(ids))
            derived._table = self._table.filtered(new_ids)
        return derived


# ---------------------------------------------------------------------------
# lattice


# array type code of the lattice arrays: a C int, wide enough for any word
# length and piece id; the table holds them as np.intc to halve its memory
_INT = "i"


class LatticeSpan(NamedTuple):
    start: int
    end: int
    piece_id: int


@dataclass(frozen=True, slots=True)
class Lattice:
    """All vocabulary matches over one word, ordered by (start, end): the
    parallel int arrays starts, ends and piece_ids, one entry per span,
    the layout of a lattice table's rows."""

    sentence: str
    starts: array
    ends: array
    piece_ids: array

    @property
    def spans(self) -> tuple[LatticeSpan, ...]:
        return tuple(map(LatticeSpan, self.starts, self.ends, self.piece_ids))


def _bases(lengths: np.ndarray) -> np.ndarray:
    """Where each word's positions 0..n begin in one flat array, plus the
    array's size at the end."""
    return np.concatenate(([0], np.cumsum(lengths + 1)))


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """The indices at which a run of equal keys begins."""
    return np.flatnonzero(np.diff(keys, prepend=keys[:1] - 1))


class _Sweep:
    """One pass of a lattice recursion, a step per value of `step`, in
    ascending order: acc[d] = op.reduce(acc[src] + value) over the spans
    whose dst is d, in table order. A step reads only positions that an
    earlier step, or the caller, has set."""

    def __init__(self, dst: np.ndarray, step: np.ndarray):
        self.order = np.argsort(step, kind="stable")
        dst, step = dst[self.order], step[self.order]
        edges = [*_run_starts(step).tolist(), len(step)]
        self.steps = []
        for lo, hi in zip(edges, edges[1:]):
            heads = _run_starts(dst[lo:hi])
            self.steps.append((lo, hi, heads, dst[lo:hi][heads]))

    def run(self, op: np.ufunc, acc: np.ndarray, src: np.ndarray,
            values: np.ndarray) -> np.ndarray:
        src, values = src[self.order], values[self.order]
        for lo, hi, heads, targets in self.steps:
            acc[targets] = op.reduceat(acc[src[lo:hi]] + values[lo:hi], heads)
        return acc


class LatticeTable:
    """The lattices of a list of words as one flat table.

    Spans are in (word, start, end) order; word w's are
    offsets[w]:offsets[w + 1] of the parallel int arrays word, start, end
    and piece_id. A recursion keeps one value per character position in a
    flat array in which position i of word w is base[w] + i.
    """

    def __init__(self, words: tuple[str, ...], word: np.ndarray, start: np.ndarray,
                 end: np.ndarray, piece_id: np.ndarray):
        self.words = words
        self.word, self.start, self.end, self.piece_id = word, start, end, piece_id
        self.offsets = np.searchsorted(word, np.arange(len(words) + 1))
        self.lengths = np.array([len(w) for w in words], dtype=np.int64)
        self.base = _bases(self.lengths)
        self._sweeps: tuple[_Sweep, _Sweep] | None = None

    @classmethod
    def build(cls, words: tuple[str, ...], vocab: SubwordVocab) -> LatticeTable:
        """One build_lattice call per word."""
        word, start, end, piece_id = (array(_INT) for _ in range(4))
        for row, w in enumerate(words):
            lat = build_lattice(w, vocab)
            word.extend(repeat(row, len(lat.piece_ids)))
            start.extend(lat.starts)
            end.extend(lat.ends)
            piece_id.extend(lat.piece_ids)
        return cls(words, *(np.frombuffer(a, dtype=np.intc)
                            for a in (word, start, end, piece_id)))

    def flat(self, positions: np.ndarray) -> np.ndarray:
        """Each span's position in its word (its start or end), as a flat index."""
        return self.base[self.word] + positions

    def sweeps(self) -> tuple[_Sweep, _Sweep]:
        """The forward pass, by end, and the backward pass, by start from
        the last, that EM runs over this table."""
        if self._sweeps is None:
            self._sweeps = (_Sweep(self.flat(self.end), self.end),
                            _Sweep(self.flat(self.start), -self.start))
        return self._sweeps

    def filtered(self, new_ids: np.ndarray) -> LatticeTable:
        """The spans whose piece has a new id (>= 0), in order, renumbered."""
        piece_id = new_ids[self.piece_id]
        keep = piece_id >= 0
        return LatticeTable(self.words, self.word[keep], self.start[keep],
                            self.end[keep], piece_id[keep])

    def best_without(self, rows: np.ndarray, barred: np.ndarray,
                     scores: np.ndarray) -> np.ndarray:
        """Per k, the best path score of word rows[k] that avoids piece
        barred[k]: one max pass over the words' spans, a copy per k."""
        first = self.offsets[rows]
        sizes = self.offsets[rows + 1] - first
        pair = np.repeat(np.arange(len(rows)), sizes)
        span = np.arange(len(pair)) + np.repeat(first - (np.cumsum(sizes) - sizes), sizes)
        keep = self.piece_id[span] != barred[pair]
        pair, span = pair[keep], span[keep]
        base = _bases(self.lengths[rows])
        end = self.end[span]
        best = _Sweep(base[pair] + end, end).run(
            np.maximum, np.zeros(base[-1]), base[pair] + self.start[span],
            scores[self.piece_id[span]])
        return best[base[1:] - 1]


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


def build_lattice(word: str, vocab: SubwordVocab) -> Lattice:
    """Raises OutOfInventoryError at the first position no single-character piece covers."""
    if not word:
        raise ValueError("cannot build a lattice over an empty word")
    index = vocab.piece_to_id
    n = len(word)
    max_len = vocab.max_content_length
    starts, ends, piece_ids = array(_INT), array(_INT), array(_INT)
    for i in range(n):
        for j in range(i + 1, min(i + max_len, n) + 1):
            key = _span_piece(word, i, j)
            pid = None if key is None else index.get(key)
            if pid is not None:
                starts.append(i)
                ends.append(j)
                piece_ids.append(pid)
            elif j == i + 1:
                raise OutOfInventoryError(word[i], i)
    return Lattice(word, starts, ends, piece_ids)


# ---------------------------------------------------------------------------
# segmentation


def _viterbi_word(word: str, vocab: SubwordVocab) -> tuple[tuple[str, ...], float]:
    """Best segmentation of one word.

    Ties on score prefer fewer pieces, then the lexicographically smallest
    piece sequence. Exact float equality is intentional: ties arise from
    identical score sums, and anything else is a genuine difference.
    """
    lattice = build_lattice(word, vocab)
    pieces, scores = vocab.pieces, vocab.scores
    n = len(word)
    # per position: (score, n_pieces, pieces), None until a span reaches it;
    # build_lattice checked coverage, so every position is reached. Spans are
    # in start order, so best[i] is final when the spans from i are read, and
    # the candidates for one end arrive in order of start.
    best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
    best[0] = (0.0, 0, ())
    for i, j, pid in zip(lattice.starts, lattice.ends, lattice.piece_ids):
        prev_score, prev_n, prev_pieces = best[i]
        score = prev_score + scores[pid]
        top = best[j]
        if top is None or score > top[0]:
            best[j] = (score, prev_n + 1, prev_pieces + (pieces[pid],))
        elif score == top[0]:
            cand = (score, prev_n + 1, prev_pieces + (pieces[pid],))
            if cand[1:] < top[1:]:
                best[j] = cand
    score, _, pieces = best[n]
    return pieces, score


def viterbi_segment(text: str, vocab: SubwordVocab) -> TokenSequence:
    """Segment a normalized caption word by word; scores add across words.

    Each word's segmentation is memoised in the vocabulary; a word that
    cannot be segmented raises every time.
    """
    memo = vocab._segmentations
    pieces: list[str] = []
    total = 0.0
    offset = 0
    for word in text.split():
        start = text.index(word, offset)
        seg = memo.get(word)
        if seg is None:
            try:
                seg = memo[word] = _viterbi_word(word, vocab)
            except OutOfInventoryError as err:
                raise OutOfInventoryError(err.char, start + err.position) from None
        word_pieces, score = seg
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


def coverage_floor(corpus: Corpus) -> int:
    """How many single-character pieces a vocabulary of `corpus` must hold:
    the unmarked form of every inventory character plus the marked form of
    every character seen inside a word, as build_seed_vocab forces them."""
    internal = {ch for word in corpus.word_counts for ch in word[1:]}
    return len(corpus.char_inventory) + len(internal)


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
    multi = [(piece, c) for piece, c in counts.items()
             if len(piece_content(piece)) >= 2 and c >= MIN_PIECE_COUNT]
    multi.sort(key=lambda item: (-item[1], item[0]))
    chosen = singles + multi[:seed_size]
    total = sum(c for _, c in chosen)
    scored = [(piece, math.log(c / total)) for piece, c in chosen]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return SubwordVocab(scored)


def em_step(corpus: Corpus, vocab: SubwordVocab) -> tuple[SubwordVocab, float]:
    """One EM pass over the lattice table of the corpus words.

    Returns the re-estimated vocabulary and the corpus log-likelihood under
    the INPUT scores (sum over word tokens of the log marginal over all
    segmentations). Zero expected counts are floored at a 1e-30 fraction of
    the total before renormalizing, so every score stays finite and <= 0.
    The returned vocabulary shares the input's lattice table.
    """
    table = vocab.table(corpus.word_counts)
    counts = np.array(list(corpus.word_counts.values()), dtype=np.float64)
    span_scores = np.array(vocab.scores)[table.piece_id]
    src, dst = table.flat(table.start), table.flat(table.end)
    forward, backward = table.sweeps()
    # position 0 of each word starts the forward pass, its end the backward
    fwd = forward.run(np.logaddexp, np.zeros(table.base[-1]), src, span_scores)
    bwd = backward.run(np.logaddexp, np.zeros(table.base[-1]), dst, span_scores)
    log_z = fwd[table.base[1:] - 1]
    log_posterior = fwd[src] + span_scores + bwd[dst] - log_z[table.word]
    posterior = np.fromiter(map(math.exp, memoryview(log_posterior)), np.float64,
                            len(log_posterior))
    expected = np.bincount(table.piece_id, counts[table.word] * posterior,
                           vocab.size).tolist()
    log_likelihood = 0.0
    for term in (counts * log_z).tolist():
        log_likelihood += term
    total_positive = sum(expected)
    if total_positive <= 0.0:
        raise ValueError("EM produced no expected counts; corpus is empty?")
    # clamp, don't just replace zeros: starved pieces decay geometrically
    # across steps and would otherwise underflow to log(0)
    floor = total_positive * _COUNT_FLOOR_FRACTION
    floored = [e if e > floor else floor for e in expected]
    total = sum(floored)
    return vocab._derived([math.log(e / total) for e in floored]), log_likelihood


def _best_paths(table: LatticeTable, vocab: SubwordVocab
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each table word's best path score, and the (piece, word row) of every
    unprotected piece on its tie-broken best path: once each, in (piece,
    row) order.

    One max pass over the table gives every position's best score; a span
    is on a best path when it reaches its end's best score. Tracing those
    spans back from each word's end, one piece per step across all words,
    gives the word's path, unless a position on it has two such spans: only
    those words run the scalar Viterbi, which breaks the tie.
    """
    n = len(table.words)
    span_scores = np.array(vocab.scores)[table.piece_id]
    src, dst = table.flat(table.start), table.flat(table.end)
    best = table.sweeps()[0].run(np.maximum, np.zeros(table.base[-1]), src, span_scores)
    on_path = np.flatnonzero(best[src] + span_scores == best[dst])
    into = np.zeros(table.base[-1], dtype=np.int64)  # a best span into each position
    into[dst[on_path]] = on_path
    tie_at = np.bincount(dst[on_path], minlength=table.base[-1]) > 1
    tied = np.zeros(n, dtype=bool)
    keys = [np.zeros(0, dtype=np.int64)]  # piece * n + row per path piece
    row, pos = np.arange(n), table.base[1:] - 1
    while len(row):
        span = into[pos]
        tied[row[tie_at[pos]]] = True
        keys.append(table.piece_id[span].astype(np.int64) * n + row)
        pos = src[span]
        more = pos > table.base[row]
        row, pos = row[more], pos[more]
    keys = np.concatenate(keys)
    pieces, rows = np.divmod(keys, n)
    keep = vocab.lengths[pieces] > 1
    keep[tied[rows]] = False  # a tied word's path is the scalar Viterbi's
    tie_keys = [vocab.piece_to_id[p] * n + r for r in np.flatnonzero(tied).tolist()
                for p in _viterbi_word(table.words[r], vocab)[0]
                if p not in vocab.required_chars]
    keys = np.concatenate((keys[keep], np.array(tie_keys, dtype=np.int64)))
    # a stable argsort, whose kernel the lattice sweeps already use: np.sort
    # would map one more of numpy's sort kernels into memory
    keys = keys[np.argsort(keys, kind="stable")]
    used, rows = np.divmod(keys[_run_starts(keys)], n)
    return best[table.base[1:] - 1], used, rows


def _kept_pieces(corpus: Corpus, vocab: SubwordVocab, keep: int) -> np.ndarray:
    """The ids of the `keep` multi-character pieces whose removal costs the most."""
    table = vocab.table(corpus.word_counts)
    base_scores, used, rows = _best_paths(table, vocab)
    without = table.best_without(rows, used, np.array(vocab.scores))
    counts = np.array(list(corpus.word_counts.values()), dtype=np.float64)
    losses = np.bincount(used, counts[rows] * (base_scores[rows] - without), vocab.size)
    uses = np.bincount(used, minlength=vocab.size)
    # rank by (loss desc, words using it desc, piece asc): a stable sort of
    # the candidates in piece order
    candidates = np.array(sorted(np.flatnonzero(vocab.lengths > 1).tolist(),
                                 key=vocab.pieces.__getitem__), dtype=np.int64)
    ranked = candidates[np.lexsort((-uses[candidates], -losses[candidates]))]
    return ranked[:max(keep, 0)]


def prune_vocab(corpus: Corpus, vocab: SubwordVocab, keep: int) -> SubwordVocab:
    """Drop the multi-character pieces whose removal costs the least.

    Cost of a piece is the exact drop in Viterbi corpus likelihood when only
    that piece is removed (words whose best path avoids it contribute zero,
    so unused pieces are removed first). Single-character coverage pieces are
    never candidates. Keeps `keep` of the others (all of them if there are
    fewer); survivor scores are renormalized to the simplex. The survivors'
    lattice table is the input's, filtered to the kept pieces.
    """
    kept = vocab.lengths == 1
    kept[_kept_pieces(corpus, vocab, keep)] = True
    survivors = np.flatnonzero(kept)
    scores = np.array(vocab.scores)[survivors]
    return vocab._derived((scores - np.logaddexp.reduce(scores)).tolist(), survivors)


def train_unigram(corpus: Corpus, config: TrainerConfig) -> SubwordVocab:
    """Seed, then alternate EM and pruning down to the target size.

    Each round runs EM, then prunes unless the target is reached: shrink
    rounds while the vocabulary is over 110% of the target, then one exact
    prune that lands on target_vocab_size. A corpus whose substring
    inventory is smaller than the target yields a smaller vocabulary;
    pieces cannot be invented.
    """
    target = config.target_vocab_size
    n_protected = coverage_floor(corpus)
    if target < n_protected + 1:
        raise ValueError(
            f"vocabulary size {target} is below this corpus's floor of "
            f"{n_protected + 1}: {n_protected} single-character pieces plus one"
        )
    vocab = build_seed_vocab(corpus, 20 * target)

    while True:
        for _ in range(EM_SUBITERATIONS):
            vocab, _ = em_step(corpus, vocab)
        if vocab.size <= target:
            break
        keep = target - n_protected
        if vocab.size > 1.1 * target:
            keep = max(int((vocab.size - n_protected) * SHRINK_FACTOR), keep)
        vocab = prune_vocab(corpus, vocab, keep)
    return SubwordVocab(sorted(vocab.entries, key=lambda e: (-e[1], e[0])))


# ---------------------------------------------------------------------------
# serialization: piece<TAB>score lines, controls first with score 0


def save_vocab(vocab: SubwordVocab, path: str | Path) -> None:
    lines = [f"{tok}\t0.000000" for tok in CONTROL_TOKENS]
    lines.extend(f"{piece}\t{score:.6f}" for piece, score in vocab.entries)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_vocab(path: str | Path) -> SubwordVocab:
    lines = read_text(path, VocabFormatError).splitlines()
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
