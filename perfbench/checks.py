"""Correctness checks that do not trust the code they check.

Each check returns a list of problem strings (empty means accepted). The
tokenizer references read the vocabulary file directly and segment with
their own dynamic program; the model references recompute log-probs with
their own log-softmax over one full-sequence decoder pass and their own
finite differences. Nothing here compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import math
import re
import unicodedata

import numpy as np

from subicap.model.transformer import decoder_forward, encoder_forward

CONTROLS = ("<pad>", "<bos>", "<eos>")
PAD_ID, BOS_ID, EOS_ID = 0, 1, 2
# scores are written with six decimals, so each is off by at most 5e-7 and
# the probabilities sum to one within that share
SIMPLEX_TOL = 5e-7 + 1e-9
SCORE_TOL = 1e-9
GRAD_REL_TOL = 1e-4
# central differences at these steps carry at most ~1e-9 of float64
# roundoff; below this absolute gap a coordinate agrees whatever its
# relative error
GRAD_ABS_FLOOR = 1e-9
# The loss has ReLU kinks (feed-forward, geometry gates). A step that
# straddles one biases the difference, so a coordinate that disagrees at the
# first step is tried again at the smaller one. A wrong gradient disagrees
# at both, since away from a kink either difference is accurate far below
# GRAD_REL_TOL.
FD_STEPS = (1e-5, 1e-6)


def normalize(text: str) -> str:
    return " ".join(unicodedata.normalize("NFKC", text).lower().split())


def is_continuation(piece: str) -> bool:
    return len(piece) > 1 and piece[0] == "_"


# ---------------------------------------------------------------------------
# tokenizer


def read_vocab(path) -> tuple[list[str], list[float]]:
    """(pieces, scores) of a vocabulary file, control lines included."""
    pieces, scores = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            piece, _, raw = line.partition("\t")
            pieces.append(piece)
            scores.append(float(raw))
    return pieces, scores


def check_vocab(pieces, scores, size: int, corpus_words) -> list[str]:
    """Exact size, controls first, scores on the simplex, full coverage."""
    problems = []
    if tuple(pieces[:3]) != CONTROLS or any(s != 0.0 for s in scores[:3]):
        problems.append("vocab: the first three lines are not the controls")
    body, body_scores = pieces[3:], scores[3:]
    if len(body) != size:
        problems.append(f"vocab: {len(body)} pieces, requested {size}")
    if len(set(body)) != len(body):
        problems.append("vocab: duplicate pieces")
    bad = [s for s in body_scores if not math.isfinite(s) or s > 0.0]
    if bad:
        problems.append(f"vocab: {len(bad)} scores not finite and <= 0")
    else:
        mass = math.fsum(math.exp(s) for s in body_scores)
        if abs(mass - 1.0) > SIMPLEX_TOL:
            problems.append(f"vocab: probabilities sum to {mass!r}")
    have = set(body)
    missing = set()
    for word in corpus_words:
        if word[0] not in have:
            missing.add(word[0])
        missing.update("_" + ch for ch in word[1:] if "_" + ch not in have)
    if missing:
        problems.append(f"vocab: uncovered characters {sorted(missing)[:5]}")
    return problems


class Segmenter:
    """Exact best segmentation over a vocabulary file's scores.

    Ties prefer fewer pieces, then the smaller piece sequence, the rule the
    tokenizer documents. Results are memoized per word.
    """

    def __init__(self, pieces, scores):
        self.score = {p: s for p, s in zip(pieces[3:], scores[3:])}
        self.max_len = max(len(p) for p in self.score)
        self._memo: dict[str, tuple[float, tuple[str, ...]]] = {}

    def word(self, word: str) -> tuple[float, tuple[str, ...]]:
        if word in self._memo:
            return self._memo[word]
        n = len(word)
        best: list[tuple[float, int, tuple[str, ...]] | None] = [None] * (n + 1)
        best[0] = (0.0, 0, ())
        for j in range(1, n + 1):
            top = None
            for i in range(max(0, j - self.max_len), j):
                if best[i] is None:
                    continue
                piece = word[i:j] if i == 0 else "_" + word[i:j]
                if i == 0 and j > 1 and piece[0] == "_":
                    continue
                s = self.score.get(piece)
                if s is None:
                    continue
                prev = best[i]
                cand = (prev[0] + s, prev[1] + 1, prev[2] + (piece,))
                if top is None or cand[0] > top[0] or (
                    cand[0] == top[0] and cand[1:] < top[1:]
                ):
                    top = cand
            best[j] = top
        if best[n] is None:
            raise ValueError(f"no segmentation of {word!r}")
        self._memo[word] = (best[n][0], best[n][2])
        return self._memo[word]

    def caption(self, text: str) -> tuple[float, list[str]]:
        total, pieces = 0.0, []
        for w in text.split():
            s, p = self.word(w)
            total += s
            pieces.extend(p)
        return total, pieces


def detokenize(pieces) -> str:
    words: list[str] = []
    for p in pieces:
        if is_continuation(p):
            if not words:
                raise ValueError(f"continuation {p!r} opens the line")
            words[-1] += p[1:]
        else:
            words.append(p)
    return " ".join(words)


def check_encoded(inputs, outputs, seg: Segmenter) -> list[str]:
    """Each line's pieces must detokenize to the normalized caption and
    score exactly the optimum of the reference segmenter."""
    if len(outputs) != len(inputs):
        return [f"encode: {len(outputs)} output lines for {len(inputs)} inputs"]
    problems = []
    for k, (raw, line) in enumerate(zip(inputs, outputs)):
        text = normalize(raw)
        pieces = line.split(" ") if line else []
        try:
            if detokenize(pieces) != text:
                problems.append(f"encode line {k + 1}: does not detokenize back")
                continue
            got = math.fsum(seg.score[p] for p in pieces)
        except (KeyError, ValueError) as err:
            problems.append(f"encode line {k + 1}: {err}")
            continue
        best, _ = seg.caption(text)
        if abs(got - best) > SCORE_TOL:
            problems.append(f"encode line {k + 1}: score {got!r}, optimum {best!r}")
    return problems


# ---------------------------------------------------------------------------
# caption model


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def sequence_logprobs(q, token_ids, finished, params, cfg):
    """Per-position log-probs (T, V) and the generated targets, from one
    full-sequence decoder pass over <bos> + content."""
    inputs = [BOS_ID] + list(token_ids)
    targets = list(token_ids) + ([EOS_ID] if finished else [])
    logp = log_softmax(decoder_forward(q, inputs, params, cfg))
    return logp[: len(targets)], targets


def hypothesis_is_valid(token_ids, pieces) -> bool:
    """A caption holds no <pad>/<bos> and does not open mid-word."""
    if any(t in (PAD_ID, BOS_ID) for t in token_ids):
        return False
    return not (token_ids and is_continuation(pieces[token_ids[0]]))


def check_hypothesis(hyp, logp, targets, greedy: bool, pieces) -> list[str]:
    problems = []
    total = math.fsum(float(logp[t, tok]) for t, tok in enumerate(targets))
    if abs(total - hyp.logprob) > SCORE_TOL:
        problems.append(f"hypothesis log-prob {hyp.logprob!r}, recomputed {total!r}")
    if greedy:
        allowed = np.ones(logp.shape[1], dtype=bool)
        allowed[[PAD_ID, BOS_ID]] = False
        opening = allowed.copy()
        opening[[i for i, p in enumerate(pieces) if is_continuation(p)]] = False
        for t, tok in enumerate(targets):
            mask = opening if t == 0 else allowed
            if logp[t, tok] < logp[t][mask].max() - SCORE_TOL:
                problems.append(f"greedy token {tok} at position {t} is not the best")
                break
    return problems


def mean_cross_entropy(batch, params, cfg) -> float:
    """Mean next-token cross entropy, the training objective, recomputed."""
    total, n = 0.0, 0
    for regions, ids in batch:
        q = encoder_forward(regions, params, cfg)
        logp, targets = sequence_logprobs(q, ids, True, params, cfg)
        total -= float(logp[np.arange(len(targets)), targets].sum())
        n += len(targets)
    return total / n


def sample_coordinates(params, n: int, seed: int):
    """n (name, flat index) pairs, tensors and entries drawn uniformly."""
    rng = np.random.default_rng(seed)
    names = sorted(params)
    return [
        (name, int(rng.integers(params[name].size)))
        for name in (names[int(rng.integers(len(names)))] for _ in range(n))
    ]


def check_gradient(loss_fn, params, grads, coords) -> list[str]:
    """Central differences of loss_fn against the analytic gradient."""
    problems = []
    for name, flat in coords:
        arr = params[name].reshape(-1)
        keep = arr[flat]
        analytic = float(grads[name].reshape(-1)[flat])
        numerics = []
        for step in FD_STEPS:
            arr[flat] = keep + step
            up = loss_fn(params)
            arr[flat] = keep - step
            down = loss_fn(params)
            arr[flat] = keep
            numeric = (up - down) / (2 * step)
            gap = abs(analytic - numeric)
            if gap <= GRAD_ABS_FLOOR or gap <= GRAD_REL_TOL * max(abs(analytic), abs(numeric)):
                break
            numerics.append(numeric)
        else:
            problems.append(f"gradient {name}[{flat}]: {analytic!r} vs {numerics!r}")
    return problems


_LOSS = re.compile(r"loss[= ]([^\s]+)")


def logged_losses(log_text: str) -> list[float]:
    """Every loss value train-lm wrote to its log."""
    return [float(m.group(1)) for m in _LOSS.finditer(log_text)]
