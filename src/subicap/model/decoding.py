"""Greedy and length-normalized beam decoding.

Both operate over a step function mapping a prefix of token ids (starting
with <bos>) to next-token log probabilities, so they can drive the caption
model or any hand-built toy scorer. Hypotheses are compared by total log
probability divided by the number of generated tokens (<eos> included when
emitted); ties break toward the lexicographically smaller id sequence.
Beam width 1 reproduces greedy decoding exactly: at every step the single
kept candidate is the argmax extension, with the same first-index tie rule.
A candidate scored -inf is never kept, so the caption model's masked tokens
never enter a hypothesis.
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
    decoder_forward,
    encoder_forward,
)

StepFn = Callable[[tuple[int, ...]], np.ndarray]


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


def _log_probs(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def model_step_fn(q: np.ndarray, params, cfg: ModelConfig,
                  first_banned: np.ndarray | None = None) -> StepFn:
    """Next-token scorer over the encoded regions q. The decoder is rerun
    per prefix; at desk scale that costs nothing.

    <pad> and <bos> score -inf, and so do the ids where the bool mask
    first_banned is True when they would open the caption. The other
    entries keep the model's log-softmax, not renormalized, so a
    hypothesis's logprob is the model's probability of its tokens.
    """

    def step(prefix: tuple[int, ...]) -> np.ndarray:
        logits = decoder_forward(q, prefix, params, cfg)
        logp = _log_probs(logits[-1])
        logp[PAD_ID] = logp[BOS_ID] = -np.inf
        if first_banned is not None and len(prefix) == 1:
            logp[first_banned] = -np.inf
        return logp

    return step


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


def beam_step_decode(step_fn: StepFn, beam: int, max_len: int) -> Hypothesis:
    """Beam search keeping `beam` live prefixes per step.

    Live prefixes are ranked by total log probability (all have the same
    length, so normalization cannot reorder them); finished hypotheses are
    ranked by normalized score. Candidate ties break on (token sequence)
    ascending so runs are deterministic.
    """
    if beam < 1:
        raise ValueError("beam width must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    live: list[tuple[tuple[int, ...], float]] = [((BOS_ID,), 0.0)]
    finished: list[Hypothesis] = []
    for _ in range(max_len):
        candidates: list[tuple[float, tuple[int, ...]]] = []
        for prefix, logprob in live:
            logp = step_fn(prefix)
            for tok in range(logp.shape[0]):
                candidates.append((logprob + float(logp[tok]), prefix + (tok,)))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, seq in candidates[: beam]:
            if score == -np.inf:
                break
            if seq[-1] == EOS_ID:
                finished.append(Hypothesis(seq[1:-1], score, finished=True))
            else:
                live.append((seq, score))
        if not live:
            break
    for seq, score in live:
        finished.append(Hypothesis(seq[1:], score, finished=False))
    best = max(finished, key=lambda h: (h.norm_score, -len(h.token_ids), h.token_ids))
    return best


def greedy_decode(q: np.ndarray, params, cfg: ModelConfig, max_len: int) -> Hypothesis:
    return greedy_step_decode(model_step_fn(q, params, cfg), max_len)


def beam_search(
    q: np.ndarray, params, cfg: ModelConfig, beam: int, max_len: int
) -> Hypothesis:
    return beam_step_decode(model_step_fn(q, params, cfg), beam, max_len)


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
    step = model_step_fn(encoder_forward(regions, params, cfg), params, cfg,
                         first_banned)
    if beam == 1:
        return greedy_step_decode(step, max_len)
    return beam_step_decode(step, beam, max_len)
