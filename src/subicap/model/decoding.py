"""Greedy and length-normalized beam decoding.

Both search over next-token log probabilities for prefixes of token ids
that start with <bos>, so they can drive the caption model or any
hand-built toy scorer. Greedy asks a StepFn for one prefix at a time. The
beam asks a RowsFn for all its live prefixes at once: an (L, t) int array
of L prefixes of one length t in, an (L, V) array of log probabilities out.
model_rows_fn runs the decoder once over all L rows. beam_step_decode
stacks a per-prefix StepFn's rows into a RowsFn, which is how toy tables
reach the same search.

Hypotheses are compared by total log probability divided by the number of
generated tokens (<eos> included when emitted); ties break toward the
lexicographically smaller id sequence. Within a step, candidates rank by
score descending, then by token sequence ascending. The search keeps its
live rows sorted by prefix, so a candidate's flat index row * V + token
orders candidates exactly as their sequences do, and ranking by (-score,
flat index) is the tie rule. Beam width 1 reproduces greedy decoding
exactly: at every step the single kept candidate is the argmax extension,
with the same first-index tie rule. A candidate scored -inf is never kept,
so the caption model's masked tokens never enter a hypothesis.
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
    ModelConfig,
    _check_length,
    _decoder_fwd,
    decoder_forward,
    encoder_forward,
)

StepFn = Callable[[tuple[int, ...]], np.ndarray]
RowsFn = Callable[[np.ndarray], np.ndarray]


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


def model_step_fn(q: np.ndarray, params, cfg: ModelConfig,
                  first_banned: np.ndarray | None = None) -> StepFn:
    """Next-token scorer over the encoded regions q, one decoder pass per
    prefix.

    <pad> and <bos> score -inf, and so do the ids where the bool mask
    first_banned is True when they would open the caption. The other
    entries keep the model's log-softmax, not renormalized, so a
    hypothesis's logprob is the model's probability of its tokens.
    """

    def step(prefix: tuple[int, ...]) -> np.ndarray:
        logits = decoder_forward(q, prefix, params, cfg)
        return _log_probs(logits[-1], len(prefix), first_banned)

    return step


def model_rows_fn(q: np.ndarray, params, cfg: ModelConfig,
                  first_banned: np.ndarray | None = None) -> RowsFn:
    """model_step_fn for L prefixes in one decoder pass over L copies of q;
    only each row's last position goes through the output head."""

    def rows(prefixes: np.ndarray) -> np.ndarray:
        n_rows, t = prefixes.shape
        _check_length(t, cfg)
        h, _ = _decoder_fwd(np.tile(q, (n_rows, 1)), prefixes, None, params, cfg)
        last = h.reshape(n_rows, t, cfg.d_model)[:, -1]
        return _log_probs(last @ params["out.W"], t, first_banned)

    return rows


def greedy_step_decode(step_fn: StepFn, max_len: int) -> Hypothesis:
    """Argmax chain until <eos> or max_len generated tokens."""
    prefix: tuple[int, ...] = (BOS_ID,)
    logprob = 0.0
    content: list[int] = []
    for _ in range(max_len):
        logp = step_fn(prefix)
        tok = int(np.argmax(logp))
        logprob += float(logp[tok])
        if tok == EOS_ID:
            return Hypothesis(tuple(content), logprob, finished=True)
        content.append(tok)
        prefix = prefix + (tok,)
    return Hypothesis(tuple(content), logprob, finished=False)


def beam_rows_decode(rows_fn: RowsFn, beam: int, max_len: int) -> Hypothesis:
    """Beam search keeping `beam` live prefixes, with one rows_fn call per
    step over all of them; see the module docstring for the ranking."""
    if beam < 1:
        raise ValueError("beam width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    seqs = np.full((1, 1), BOS_ID, dtype=np.int64)  # live rows, sorted
    scores = np.zeros(1)
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        cand = (scores[:, None] + rows_fn(seqs)).ravel()
        k = min(beam, cand.size)
        kth = cand[np.argpartition(cand, -k)[-k]]  # its ties are kept too
        pick = np.flatnonzero((cand >= kth) & (cand > -np.inf))
        pick = pick[np.lexsort((pick, -cand[pick]))][:beam]
        vocab = cand.size // len(seqs)
        rows, toks = np.divmod(pick, vocab)
        ends = toks == EOS_ID
        finished += [Hypothesis(tuple(seqs[r, 1:].tolist()), score, True)
                     for r, score in zip(rows[ends].tolist(), cand[pick[ends]].tolist())]
        live = np.sort(pick[~ends])  # flat index order is prefix order
        rows, toks = np.divmod(live, vocab)
        seqs, scores = np.column_stack((seqs[rows], toks)), cand[live]
        if not len(live):
            break
    finished += [Hypothesis(tuple(seq), score, False)
                 for seq, score in zip(seqs[:, 1:].tolist(), scores.tolist())]
    return max(finished, key=lambda h: (h.norm_score, -len(h.token_ids), h.token_ids))


def beam_step_decode(step_fn: StepFn, beam: int, max_len: int) -> Hypothesis:
    """beam_rows_decode over a per-prefix step function, called per row."""
    return beam_rows_decode(
        lambda prefixes: np.stack([step_fn(tuple(p)) for p in prefixes.tolist()]),
        beam, max_len)


def greedy_decode(q: np.ndarray, params, cfg: ModelConfig, max_len: int) -> Hypothesis:
    return greedy_step_decode(model_step_fn(q, params, cfg), max_len)


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
    model_step_fn for first_banned."""
    max_len = max_len if max_len is not None else cfg.max_seq_len
    q = encoder_forward(regions, params, cfg)
    if beam == 1:
        return greedy_step_decode(model_step_fn(q, params, cfg, first_banned), max_len)
    return beam_rows_decode(model_rows_fn(q, params, cfg, first_banned), beam, max_len)
