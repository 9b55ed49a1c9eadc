"""Spans around calls into subicap's layers, recorded from outside src/.

Each public function is replaced, for the duration of one CLI call, by a
wrapper at the attribute its caller looks it up through (for example
``subicap.model.decoding.decoder_forward``). A span is (name, start, end,
parent, context); spans stay in memory and are written out once, at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

from subicap import corpus, unigram
from subicap.model import decoding, training, transformer

# (module, attribute, span name, info taken from (args, result) or None)
TARGETS = [
    (corpus, "load_corpus", "corpus.load_corpus", None),
    (unigram, "train_unigram", "unigram.train_unigram", None),
    (unigram, "build_seed_vocab", "unigram.build_seed_vocab", None),
    (unigram, "em_step", "unigram.em_step", None),
    (unigram, "prune_vocab", "unigram.prune_vocab", None),
    (unigram, "build_lattice", "unigram.build_lattice",
     lambda args, res: (args[0], len(res.spans))),
    (unigram, "encode", "unigram.encode", None),
    (unigram, "load_vocab", "unigram.load_vocab", None),
    (unigram, "save_vocab", "unigram.save_vocab", None),
    (training, "train_step", "training.train_step", None),
    (training, "loss_and_grads", "transformer.loss_and_grads", None),
    (transformer, "save_checkpoint", "transformer.save_checkpoint", None),
    (transformer, "load_checkpoint", "transformer.load_checkpoint", None),
    (decoding, "caption_regions", "decoding.caption_regions", None),
    (decoding, "encoder_forward", "transformer.encoder_forward", None),
    (decoding, "decoder_forward", "transformer.decoder_forward",
     lambda args, res: (len(args[1]), res.shape[-1])),
]


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, context, info]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.context = ""

    @contextlib.contextmanager
    def span(self, name: str, context: str):
        self.context = context
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.context, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][5] = info(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in TARGETS]
        try:
            for (mod, attr, name, info), (_, _, fn) in zip(TARGETS, originals):
                setattr(mod, attr, self._wrap(fn, name, info))
            yield
        finally:
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, ctx, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "context": ctx}) + "\n")


def layer_metrics(spans, tokens_by_beam: dict[int, int]) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced pass.

    Tokenizer-training figures are per train-tokenizer call; lattice figures
    are per train-tokenizer call plus per encode call; model figures are per
    call; decoding figures are per generated token, caption or search step
    at each beam width.
    """
    dur = [s[2] - s[1] for s in spans]
    covered = [0.0] * len(spans)
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
            children[s[3]].append(i)
    own = [d - c for d, c in zip(dur, covered)]
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)

    def where(name, ctx=None):
        return [i for i in by_name[name] if ctx is None or spans[i][4] == ctx]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    n_train = max(len(by_name["cli.train-tokenizer"]), 1)
    n_encode = max(len(by_name["cli.encode"]), 1)
    lat_train = where("unigram.build_lattice", "train-tokenizer")
    lat_encode = where("unigram.build_lattice", "encode")

    def per_cycle(f):
        return sum(f(i) for i in lat_train) / n_train + sum(f(i) for i in lat_encode) / n_encode

    m = {
        "corpus.load_corpus_s": (mean([dur[i] for i in by_name["corpus.load_corpus"]]), "s"),
        "unigram.build_seed_vocab_s": (mean([dur[i] for i in by_name["unigram.build_seed_vocab"]]), "s"),
        "unigram.em_step_self_s": (sum(own[i] for i in by_name["unigram.em_step"]) / n_train, "s"),
        "unigram.em_step_calls": (len(by_name["unigram.em_step"]) / n_train, "count"),
        "unigram.prune_vocab_self_s": (sum(own[i] for i in by_name["unigram.prune_vocab"]) / n_train, "s"),
        "unigram.prune_vocab_calls": (len(by_name["unigram.prune_vocab"]) / n_train, "count"),
        "unigram.build_lattice_s": (per_cycle(lambda i: dur[i]), "s"),
        "unigram.build_lattice_calls": (per_cycle(lambda i: 1), "count"),
        "unigram.lattice_spans": (per_cycle(lambda i: spans[i][5][1]), "count"),
        "unigram.encode_us_per_caption": (1e6 * mean([dur[i] for i in where("unigram.encode", "encode")]), "us"),
        "unigram.words_segmented": (len(lat_encode) / n_encode, "count"),
        "unigram.load_vocab_ms": (1e3 * mean([dur[i] for i in by_name["unigram.load_vocab"]]), "ms"),
        "unigram.save_vocab_ms": (1e3 * mean([dur[i] for i in by_name["unigram.save_vocab"]]), "ms"),
    }
    distinct = [
        len({spans[j][5][0] for j in _descendants(children, c, "unigram.build_lattice", spans)})
        for c in by_name["cli.encode"]
    ]
    m["unigram.distinct_words_segmented"] = (mean(distinct), "count")

    lag = 1e3 * mean([dur[i] for i in by_name["transformer.loss_and_grads"]])
    fwd = 1e3 * mean([dur[i] for i in by_name["transformer.loss_only"]])
    m["transformer.loss_and_grads_ms"] = (lag, "ms")
    m["transformer.forward_ms"] = (fwd, "ms")
    m["transformer.backward_ms"] = (lag - fwd, "ms")
    m["training.train_step_ms"] = (1e3 * mean([dur[i] for i in by_name["training.train_step"]]), "ms")
    m["training.adam_ms"] = (1e3 * mean([own[i] for i in by_name["training.train_step"]]), "ms")
    m["transformer.encoder_forward_ms"] = (1e3 * mean([dur[i] for i in by_name["transformer.encoder_forward"]]), "ms")
    m["transformer.decoder_forward_ms"] = (1e3 * mean([dur[i] for i in by_name["transformer.decoder_forward"]]), "ms")
    for beam, tokens in sorted(tokens_by_beam.items()):
        ctx = f"generate:{beam}"
        calls = where("transformer.decoder_forward", ctx)
        searches = where("decoding.caption_regions", ctx)
        steps = sum(
            len({spans[j][5][0] for j in children[c] if spans[j][0] == "transformer.decoder_forward"})
            for c in searches
        )
        m[f"transformer.decoder_forward_calls_per_token_beam{beam}"] = (len(calls) / tokens, "count")
        m[f"transformer.decoder_positions_per_token_beam{beam}"] = (
            sum(spans[i][5][0] for i in calls) / tokens, "count")
        m[f"decoding.search_self_ms_per_caption_beam{beam}"] = (
            1e3 * mean([own[i] for i in searches]), "ms")
        m[f"decoding.candidates_per_step_beam{beam}"] = (
            sum(spans[i][5][1] for i in calls) / max(steps, 1), "count")
    m["transformer.save_checkpoint_ms"] = (1e3 * mean([dur[i] for i in by_name["transformer.save_checkpoint"]]), "ms")
    m["transformer.load_checkpoint_ms"] = (1e3 * mean([dur[i] for i in by_name["transformer.load_checkpoint"]]), "ms")
    for sub in ("train-tokenizer", "encode", "train-lm", "generate"):
        m[f"cli.self_ms.{sub}"] = (1e3 * mean([own[i] for i in by_name[f"cli.{sub}"]]), "ms")
    return m


def _descendants(children, root, name, spans):
    out, todo = [], list(children[root])
    while todo:
        i = todo.pop()
        if spans[i][0] == name:
            out.append(i)
        todo.extend(children[i])
    return out
