"""Shared pytest wiring and test helpers.

The acceptance tests register one verdict line each; the terminal summary
prints the scoreboard after the run, where output capture can no longer
swallow it.

The decoding references live here, not in src/: a per-prefix scorer maps
a prefix tuple to (V,) log probabilities, greedy_reference follows its
argmax chain, and rows_of adapts it to the RowsFn the one beam search
asks for.
"""

import json
import math
import struct

import numpy as np

from subicap.model.decoding import Hypothesis
from subicap.model.transformer import BOS_ID, EOS_ID, PAD_ID, decoder_forward

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
    """The RowsFn that scores each row of an (L, t) prefix array by step."""
    return lambda prefixes: np.stack([step(tuple(p)) for p in prefixes.tolist()])


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
