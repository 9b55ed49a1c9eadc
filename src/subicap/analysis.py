"""Vocabulary tradeoff analytics: size sweeps, caption uniqueness, and
parameter-count arithmetic.

Reports serialize two ways: JSON with fixed keys for machines, and
aligned-column text for reading. Keys are stable; see the report
dataclasses for the full set.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Sequence

from .corpus import Corpus, normalize_text
from .model.transformer import ModelConfig, num_params, param_shapes
from .unigram import SubwordVocab, TrainerConfig, memoise_segmentations, train_unigram


# ---------------------------------------------------------------------------
# vocabulary size sweep


@dataclass(frozen=True)
class SweepEntry:
    requested_size: int
    actual_size: int
    mean_tokens_per_caption: float
    max_tokens_per_caption: int
    oov_word_rate: float
    distinct_pieces_used: int


@dataclass(frozen=True)
class SweepReport:
    num_captions: int
    entries: tuple[SweepEntry, ...]


def measure_tokenizer(corpus: Corpus, vocab: SubwordVocab,
                      requested_size: int) -> SweepEntry:
    """Token statistics of one vocabulary over one corpus. Words the
    vocabulary cannot cover count toward oov_word_rate and their captions
    are measured over the words that do segment."""
    memo = memoise_segmentations(corpus.word_counts, vocab)
    total_tokens = 0
    max_tokens = 0
    used: set[str] = set()
    oov_words = 0
    total_words = 0
    for text in corpus.texts():
        caption_tokens = 0
        for word in text.split():
            total_words += 1
            seg = memo.get(word)
            if seg is None:  # the batch leaves uncovered words out
                oov_words += 1
                continue
            caption_tokens += len(seg[0])
            used.update(seg[0])
        total_tokens += caption_tokens
        max_tokens = max(max_tokens, caption_tokens)
    n = len(corpus.captions)
    return SweepEntry(
        requested_size=requested_size,
        actual_size=vocab.size,
        mean_tokens_per_caption=(total_tokens / n) if n else 0.0,
        max_tokens_per_caption=max_tokens,
        oov_word_rate=(oov_words / total_words) if total_words else 0.0,
        distinct_pieces_used=len(used),
    )


def vocab_sweep(corpus: Corpus, sizes: Sequence[int]) -> SweepReport:
    """Train one unigram vocabulary per requested size and measure each.
    Sizes are processed in ascending order."""
    if not sizes:
        raise ValueError("need at least one vocabulary size")
    entries = []
    for k in sorted(sizes):
        vocab = train_unigram(corpus, TrainerConfig(target_vocab_size=k))
        entries.append(measure_tokenizer(corpus, vocab, k))
    return SweepReport(num_captions=len(corpus.captions), entries=tuple(entries))


# ---------------------------------------------------------------------------
# generated-caption uniqueness


@dataclass(frozen=True)
class UniquenessReport:
    num_generated: int
    pct_distinct: float  # distinct captions within the generated set
    pct_novel: float  # captions absent from the training corpus
    avg_length_words: float


def uniqueness_report(generated: Sequence[str], training: Corpus) -> UniquenessReport:
    """Both distinctness within the generated set and novelty against the
    training captions, plus mean word length. Captions are compared in
    normalized form."""
    caps = [normalize_text(g) for g in generated]
    if not caps:
        raise ValueError("no generated captions to report on")
    train_set = {cap.text for cap in training.captions}
    distinct = len(set(caps))
    novel = sum(c not in train_set for c in caps)
    total_words = sum(len(c.split()) for c in caps)
    n = len(caps)
    return UniquenessReport(
        num_generated=n,
        pct_distinct=100.0 * distinct / n,
        pct_novel=100.0 * novel / n,
        avg_length_words=total_words / n,
    )


# ---------------------------------------------------------------------------
# parameter counting


@dataclass(frozen=True)
class ParamCount:
    vocab_size: int
    d_model: int
    embedding_params: int
    output_params: int
    core_params: int
    total_params: int


def param_count(vocab_size: int, **dims) -> ParamCount:
    """Analytic tensor-size sum for a model configuration.

    The embedding and output head are the only tensors that scale with the
    vocabulary, so two counts at the same dims differ by exactly
    2 * (v1 - v2) * d_model.
    """
    cfg = ModelConfig(vocab_size=vocab_size, **dims)
    shapes = dict(param_shapes(cfg))
    embedding, output = math.prod(shapes["embed.W"]), math.prod(shapes["out.W"])
    total = num_params(cfg)
    return ParamCount(
        vocab_size=vocab_size,
        d_model=cfg.d_model,
        embedding_params=embedding,
        output_params=output,
        core_params=total - embedding - output,
        total_params=total,
    )


# ---------------------------------------------------------------------------
# serialization


def sweep_to_dict(report: SweepReport) -> dict:
    return {
        "report": "vocab_sweep",
        "num_captions": report.num_captions,
        "entries": [dataclasses.asdict(e) for e in report.entries],
    }


def sweep_to_text(report: SweepReport) -> str:
    header = f"{'size':>8} {'actual':>8} {'mean tok':>10} {'max tok':>8} {'oov rate':>9} {'used':>7}"
    rows = [f"vocabulary sweep over {report.num_captions} captions", header,
            "-" * len(header)]
    for e in report.entries:
        rows.append(
            f"{e.requested_size:>8d} {e.actual_size:>8d} "
            f"{e.mean_tokens_per_caption:>10.3f} {e.max_tokens_per_caption:>8d} "
            f"{e.oov_word_rate:>9.4f} {e.distinct_pieces_used:>7d}"
        )
    return "\n".join(rows) + "\n"


def uniqueness_to_dict(report: UniquenessReport) -> dict:
    return {"report": "uniqueness", **dataclasses.asdict(report)}


def uniqueness_to_text(report: UniquenessReport) -> str:
    return (
        f"generated captions: {report.num_generated}\n"
        f"distinct within set: {report.pct_distinct:.1f}%\n"
        f"novel vs training:   {report.pct_novel:.1f}%\n"
        f"average length:      {report.avg_length_words:.1f} words\n"
    )


def params_to_dict(counts: Sequence[ParamCount]) -> dict:
    out = {"report": "param_count",
           "entries": [dataclasses.asdict(c) for c in counts]}
    deltas = []
    for a, b in zip(counts, counts[1:]):
        deltas.append({
            "from_vocab": a.vocab_size,
            "to_vocab": b.vocab_size,
            "delta_total": b.total_params - a.total_params,
        })
    out["deltas"] = deltas
    return out


def params_to_text(counts: Sequence[ParamCount]) -> str:
    header = f"{'vocab':>8} {'d_model':>8} {'embed':>12} {'output':>12} {'core':>12} {'total':>13}"
    rows = [header, "-" * len(header)]
    for c in counts:
        rows.append(
            f"{c.vocab_size:>8d} {c.d_model:>8d} {c.embedding_params:>12,d} "
            f"{c.output_params:>12,d} {c.core_params:>12,d} {c.total_params:>13,d}"
        )
    for a, b in zip(counts, counts[1:]):
        rows.append(
            f"delta {a.vocab_size} -> {b.vocab_size}: "
            f"{b.total_params - a.total_params:+,d} parameters"
        )
    return "\n".join(rows) + "\n"


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"
