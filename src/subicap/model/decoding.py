"""Length-normalized beam search, the one search for every width.

The search extends prefixes of token ids that start with <bos>. At each
step it asks a RowsFn for all its live prefixes at once: in, an (L, t) int
array of L prefixes of one length t and the (L,) int array parents; out, an
(L, V) array of next-token log probabilities. The first call gets the one
prefix (<bos>,) and parents [0]; at every later call, prefix j is prefix
parents[j] of the call before with one token appended, so a parent may be
continued twice or not at all. A scorer may keep state from call to call
on that promise: model_rows_fn keeps the decoder's keys and values, reorders
them by parents and runs only the newest position of each row. A toy
scorer may ignore parents and score the prefixes alone; any such scorer
drives the same search.

Hypotheses are compared by total log probability divided by the number of
generated tokens (<eos> included when emitted); ties break toward fewer
content tokens, then the lexicographically smaller id sequence. Within a
step, candidates rank by score descending, then by token sequence
ascending. The search keeps its live prefixes sorted, so a candidate's flat
index row * V + token orders candidates exactly as their sequences do, and
ranking by (-score, flat index) is the tie rule. Width 1 is greedy
decoding exactly: at every step the single kept candidate is the argmax
extension, with the first index winning a tie, so the result is the argmax
chain. A candidate scored -inf is never kept, so the caption model's masked
tokens never enter a hypothesis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import RegionSet
from .transformer import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    DecoderCache,
    ModelConfig,
    _check_length,
    _decoder_fwd,
    decoder_forward,  # not called here; perfbench's tracer wraps it by this module's name
    encoder_forward,
)

RowsFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Hypothesis:
    """token_ids hold content only (no <bos>/<eos>); logprob covers every
    generated token including <eos> when present."""

    token_ids: tuple[int, ...]
    logprob: float
    finished: bool

    @property
    def n_generated(self) -> int:
        return len(self.token_ids) + (1 if self.finished else 0)

    @property
    def norm_score(self) -> float:
        return self.logprob / max(self.n_generated, 1)


def _log_probs(logits: np.ndarray, length: int,
               first_banned: np.ndarray | None) -> np.ndarray:
    """Log-softmax over the last axis, then <pad>, <bos> and, at a prefix of
    length 1, the first_banned ids set to -inf without renormalizing."""
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    logp[..., PAD_ID] = logp[..., BOS_ID] = -np.inf
    if first_banned is not None and length == 1:
        logp[..., first_banned] = -np.inf
    return logp


def model_rows_fn(q: np.ndarray, params, cfg: ModelConfig,
                  first_banned: np.ndarray | None = None) -> RowsFn:
    """Next-token scorer over one image's encoded regions q, for one search:
    each call is one decoder pass over the newest position of every row,
    which attends to the keys and values its parent row left in the cache.

    <pad> and <bos> score -inf, and so do the ids where the bool mask
    first_banned is True when they would open the caption. The other
    entries keep the model's log-softmax, not renormalized, so a
    hypothesis's logprob is the model's probability of its tokens.
    """
    cache = DecoderCache()

    def rows(prefixes: np.ndarray, parents: np.ndarray) -> np.ndarray:
        t = prefixes.shape[1]
        _check_length(t, cfg)
        cache.reorder(parents)
        h, _ = _decoder_fwd(q, prefixes[:, -1:], None, params, cfg, cache, t - 1)
        return _log_probs(h @ params["out.W"], t, first_banned)

    return rows


def beam_rows_decode(rows_fn: RowsFn, beam: int, max_len: int) -> Hypothesis:
    """Beam search keeping `beam` live prefixes, with one rows_fn call per
    step over all of them; see the module docstring for the ranking."""
    if beam < 1:
        raise ValueError("beam width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    live: list[tuple[tuple[int, ...], float]] = [((BOS_ID,), 0.0)]  # sorted
    parents = np.zeros(1, dtype=np.int64)
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        scores = np.array([score for _, score in live])
        prefixes = np.array([seq for seq, _ in live])
        cand = (scores[:, None] + rows_fn(prefixes, parents)).ravel()
        k = min(beam, cand.size)
        pick = np.flatnonzero(cand >= np.partition(cand, -k)[-k])  # kth's ties too
        top = cand[pick]
        order = np.lexsort((pick, -top))[:beam]
        vocab = cand.size // len(live)
        kept = []
        for i, score in zip(pick[order].tolist(), top[order].tolist()):
            if score == -np.inf:  # ranked last, so only -inf follow
                break
            row, tok = divmod(i, vocab)
            seq = live[row][0]
            if tok == EOS_ID:
                finished.append(Hypothesis(seq[1:], score, True))
            else:
                kept.append((i, seq + (tok,), score))
        kept.sort()  # flat index order is prefix order
        live = [(seq, score) for _, seq, score in kept]
        parents = np.array([i for i, _, _ in kept], dtype=np.int64) // vocab
        if not live:
            break
    finished += [Hypothesis(seq[1:], score, False) for seq, score in live]
    return min(finished, key=lambda h: (-h.norm_score, len(h.token_ids), h.token_ids))


def beam_search(
    q: np.ndarray, params, cfg: ModelConfig, beam: int, max_len: int
) -> Hypothesis:
    return beam_rows_decode(model_rows_fn(q, params, cfg), beam, max_len)


def caption_regions(
    regions: RegionSet,
    params,
    cfg: ModelConfig,
    beam: int = 1,
    max_len: int | None = None,
    first_banned: np.ndarray | None = None,
) -> Hypothesis:
    """Encode one image's regions and decode a caption hypothesis; see
    model_rows_fn for first_banned."""
    max_len = max_len if max_len is not None else cfg.max_seq_len
    q = encoder_forward(regions, params, cfg)
    return beam_rows_decode(model_rows_fn(q, params, cfg, first_banned), beam, max_len)
