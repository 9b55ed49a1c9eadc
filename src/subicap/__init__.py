"""Subword caption vocabularies and a region-relation caption model.

Desk-scale numpy implementations of: a unigram-LM subword tokenizer with
continuation-marker pieces, BPE and word-level baselines, vocabulary size
tradeoff analytics, and an object-relation encoder/decoder caption model
with geometry-fused attention.
"""

__version__ = "0.1.0"

from .analysis import (
    ParamCount,
    SweepEntry,
    SweepReport,
    UniquenessReport,
    measure_tokenizer,
    param_count,
    uniqueness_report,
    vocab_sweep,
)
from .baselines import (
    BpeModel,
    WordVocab,
    bpe_tokenize,
    load_bpe,
    load_word_vocab,
    oov_rate,
    save_bpe,
    save_word_vocab,
    train_bpe,
    train_word_vocab,
    word_tokenize,
)
from .corpus import (
    Caption,
    Corpus,
    CorpusStats,
    bundled_corpus_path,
    corpus_stats,
    load_corpus,
    normalize_text,
    truncate_words,
)
from .unigram import (
    SubwordVocab,
    TokenSequence,
    TrainerConfig,
    build_seed_vocab,
    detokenize,
    em_step,
    encode,
    load_vocab,
    mark_continuations,
    prune_vocab,
    save_vocab,
    train_unigram,
    viterbi_segment,
)

__all__ = [
    "BpeModel",
    "Caption",
    "Corpus",
    "CorpusStats",
    "ParamCount",
    "SubwordVocab",
    "SweepEntry",
    "SweepReport",
    "TokenSequence",
    "TrainerConfig",
    "UniquenessReport",
    "WordVocab",
    "bpe_tokenize",
    "build_seed_vocab",
    "bundled_corpus_path",
    "corpus_stats",
    "detokenize",
    "em_step",
    "encode",
    "load_bpe",
    "load_corpus",
    "load_vocab",
    "load_word_vocab",
    "mark_continuations",
    "measure_tokenizer",
    "normalize_text",
    "oov_rate",
    "param_count",
    "prune_vocab",
    "save_bpe",
    "save_vocab",
    "save_word_vocab",
    "train_bpe",
    "train_unigram",
    "train_word_vocab",
    "truncate_words",
    "uniqueness_report",
    "vocab_sweep",
    "word_tokenize",
]
