"""Shared pytest wiring and test helpers.

The acceptance tests register one verdict line each; the terminal summary
prints the scoreboard after the run, where output capture can no longer
swallow it.

The decoding references live here, not in src/: a per-prefix scorer maps
a prefix tuple to (V,) log probabilities, greedy_reference follows its
argmax chain, and rows_of adapts it to the RowsFn the one beam search
asks for.

So do the unigram references: the exhaustive lattice (reference_lattice),
which build_lattice and each word's rows of a LatticeTable must equal, and
scalar walks over one such lattice per
word, the forward-backward (reference_em_step), the per-word Viterbi
(reference_viterbi, reference_encode) and the per-piece Viterbi loss scan
(reference_prune_vocab), which em_step, encode and prune_vocab must equal
to the bit. None of them calls build_lattice or _viterbi_word, so the
oracles share no lattice or Viterbi code with what they check.
"""

import json
import math
import struct
from array import array

import numpy as np

from subicap.model.decoding import Hypothesis
from subicap.model.transformer import BOS_ID, EOS_ID, PAD_ID, decoder_forward
from subicap.corpus import normalize_text
from subicap.errors import OutOfInventoryError
from subicap.unigram import CONTINUATION, NUM_CONTROLS, Lattice, SubwordVocab, TokenSequence

ACCEPTANCE_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    ACCEPTANCE_VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance scoreboard")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def edit_checkpoint_header(path, edit) -> None:
    """Rewrite a checkpoint file with edit(header) applied to its JSON header."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<I", raw[:4])
    header = json.loads(raw[4 : 4 + n])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<I", len(blob)) + blob + raw[4 + n :])


def log_softmax(logits):
    z = logits - logits.max()
    return z - math.log(np.exp(z).sum())


def model_step(q, params, cfg, first_banned=None):
    """Per-prefix scorer over the encoded regions q, one decoder_forward
    pass per prefix: the model's log-softmax at the last position, with
    <pad>, <bos> and, at a prefix of length 1, the first_banned ids -inf."""

    def step(prefix):
        out = log_softmax(decoder_forward(q, prefix, params, cfg)[-1])
        out[[PAD_ID, BOS_ID]] = -np.inf
        if first_banned is not None and len(prefix) == 1:
            out[first_banned] = -np.inf
        return out

    return step


def rows_of(step):
    """The RowsFn that scores each row of an (L, t) prefix array by step;
    it ignores parents, since step sees each whole prefix."""
    return lambda prefixes, parents: np.stack([step(tuple(p))
                                               for p in prefixes.tolist()])


def greedy_reference(step, max_len):
    """The argmax chain, first index winning a tie, until <eos> or max_len
    generated tokens: what beam width 1 must reproduce."""
    prefix = (BOS_ID,)
    logprob = 0.0
    for _ in range(max_len):
        logp = step(prefix)
        tok = int(np.argmax(logp))
        logprob += float(logp[tok])
        if tok == EOS_ID:
            return Hypothesis(prefix[1:], logprob, finished=True)
        prefix += (tok,)
    return Hypothesis(prefix[1:], logprob, finished=False)


NEG_INF = float("-inf")


def _span_key(word, i, j):
    """The vocabulary key of word[i:j], or None if no piece may match it:
    continuations carry the '_' marker, and a multi-character piece that
    starts with '_' is a continuation, never a word start."""
    if i > 0:
        return CONTINUATION + word[i:j]
    if j > 1 and word[0] == CONTINUATION:
        return None
    return word[:j]


def reference_lattice(word, vocab):
    """build_lattice as the exhaustive double loop: every (start, end) of
    the word, each keyed on its own, in (start, end) order; raises
    OutOfInventoryError at the first start whose one-character span has
    no piece."""
    if not word:
        raise ValueError("cannot build a lattice over an empty word")
    starts, ends, piece_ids = array("i"), array("i"), array("i")
    for i in range(len(word)):
        for j in range(i + 1, len(word) + 1):
            key = _span_key(word, i, j)
            pid = None if key is None else vocab.piece_to_id.get(key)
            if pid is not None:
                starts.append(i)
                ends.append(j)
                piece_ids.append(pid)
            elif j == i + 1:
                raise OutOfInventoryError(word[i], i)
    return Lattice(word, starts, ends, piece_ids)


def _log_add(a, b):
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def _word_forward_backward(lattice, scores, weight, expected):
    """Log marginal probability of one word; adds weight x posterior of
    every span to expected[piece_id], in span order."""
    spans = list(zip(lattice.starts, lattice.ends, lattice.piece_ids))
    n = len(lattice.sentence)
    # forward by start: each end position sums its spans in order of start
    fwd = [NEG_INF] * (n + 1)
    fwd[0] = 0.0
    for i, j, pid in spans:
        fwd[j] = _log_add(fwd[j], fwd[i] + scores[pid])
    log_z = fwd[n]
    # backward by start from the last: each start sums its spans in order of end
    bwd = [NEG_INF] * (n + 1)
    bwd[n] = 0.0
    for i in range(n - 1, -1, -1):
        acc = NEG_INF
        for start, j, pid in spans:
            if start == i:
                acc = _log_add(acc, scores[pid] + bwd[j])
        bwd[i] = acc
    for i, j, pid in spans:
        expected[pid] += weight * math.exp(fwd[i] + scores[pid] + bwd[j] - log_z)
    return log_z


def reference_em_step(corpus, vocab):
    """em_step as a scalar walk, word by word in corpus order."""
    expected = [0.0] * vocab.size
    log_likelihood = 0.0
    for word, c in corpus.word_counts.items():
        log_z = _word_forward_backward(reference_lattice(word, vocab), vocab.scores, c,
                                       expected)
        log_likelihood += c * log_z
    floor = sum(expected) * 1e-30
    floored = [e if e > floor else floor for e in expected]
    total = sum(floored)
    scores = [math.log(e / total) for e in floored]
    return SubwordVocab([(p, s) for (p, _), s in zip(vocab.entries, scores)]), log_likelihood


def reference_viterbi(word, vocab, skip_piece=None):
    """Best (pieces, score) of one word without piece id skip_piece; ties
    prefer fewer pieces, then the smallest piece sequence."""
    lattice = reference_lattice(word, vocab)
    best = [None] * (len(word) + 1)
    best[0] = (0.0, 0, ())
    # by start, so best[i] is final when the spans from i are read
    for i, j, pid in zip(lattice.starts, lattice.ends, lattice.piece_ids):
        if pid == skip_piece:
            continue
        prev = best[i]
        cand = (prev[0] + vocab.scores[pid], prev[1] + 1,
                prev[2] + (vocab.entries[pid][0],))
        top = best[j]
        if top is None or cand[0] > top[0] or (cand[0] == top[0] and cand[1:] < top[1:]):
            best[j] = cand
    return best[-1][2], best[-1][0]


def reference_segment(text, vocab):
    """viterbi_segment as the scalar walk: reference_viterbi per word, the
    word's caption offset from the str.index walk, and token ids through
    piece_to_id."""
    pieces, total, offset = [], 0.0, 0
    for word in text.split():
        start = text.index(word, offset)
        try:
            word_pieces, score = reference_viterbi(word, vocab)
        except OutOfInventoryError as err:
            raise OutOfInventoryError(err.char, start + err.position) from None
        pieces.extend(word_pieces)
        total += score
        offset = start + len(word)
    ids = tuple(vocab.piece_to_id[p] + NUM_CONTROLS for p in pieces)
    return TokenSequence(tuple(pieces), ids, total)


def reference_encode(text, vocab):
    """encode as normalize_text, then reference_segment."""
    return reference_segment(normalize_text(text), vocab)


def reference_prune_vocab(corpus, vocab, keep):
    """prune_vocab as the scalar scan: one Viterbi per word for its best
    path, then one per (piece, word on whose path it lies) without it."""
    protected = vocab.required_chars
    base, usage = {}, {}
    for word in corpus.word_counts:
        pieces, base[word] = reference_viterbi(word, vocab)
        for p in dict.fromkeys(pieces):
            if p not in protected:
                usage.setdefault(vocab.piece_to_id[p], []).append(word)
    ranked = []
    for pid, (piece, _) in enumerate(vocab.entries):
        if piece in protected:
            continue
        loss = 0.0
        for word in usage.get(pid, ()):
            without = reference_viterbi(word, vocab, skip_piece=pid)[1]
            loss += corpus.word_counts[word] * (base[word] - without)
        ranked.append((-loss, -len(usage.get(pid, ())), piece))
    ranked.sort()
    kept = protected | {piece for _, _, piece in ranked[:max(keep, 0)]}
    survivors = [(p, s) for p, s in vocab.entries if p in kept]
    log_total = NEG_INF
    for _, s in survivors:
        log_total = _log_add(log_total, s)
    return SubwordVocab([(p, s - log_total) for p, s in survivors])
