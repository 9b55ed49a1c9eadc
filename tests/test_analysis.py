"""Vocabulary sweeps, caption uniqueness, and parameter arithmetic."""

import json

import pytest

from subicap import unigram
from subicap.analysis import (
    ParamCount,
    measure_tokenizer,
    param_count,
    params_to_dict,
    params_to_text,
    report_json,
    sweep_to_dict,
    sweep_to_text,
    uniqueness_report,
    uniqueness_to_dict,
    uniqueness_to_text,
    vocab_sweep,
)
from subicap.corpus import Corpus
from subicap.model.transformer import ModelConfig, num_params
from subicap.unigram import SubwordVocab

PAPER_DIMS = dict(d_model=512, n_enc_layers=6, n_dec_layers=6, n_heads=8,
                  d_ff=2048, d_in=2048, geo_embed_dim=64, max_seq_len=20)


def _vocab(scored):
    return SubwordVocab(list(scored.items()))


@pytest.fixture(scope="module")
def stems_corpus():
    """Inflections of a few stems; larger vocabularies absorb whole words."""
    import numpy as np

    rng = np.random.default_rng(11)
    stems = ["walk", "jump", "look", "call", "help", "play"]
    suffixes = ["", "s", "ed", "ing"]
    texts = []
    for _ in range(80):
        words = [stems[rng.integers(len(stems))] + suffixes[rng.integers(4)]
                 for _ in range(5)]
        texts.append(" ".join(words))
    return Corpus.from_texts(texts)


class TestMeasureTokenizer:
    def test_hand_counted_statistics(self):
        """Vocab covers {a, b}; 'cd' is out of inventory. Captions 'ab ab'
        and 'ab cd' give 4 words, 1 oov, token counts 2 and 1."""
        corpus = Corpus.from_texts(["ab ab", "ab cd"])
        vocab = _vocab({"a": -2.0, "b": -2.0, "_b": -2.0, "ab": -1.0})
        entry = measure_tokenizer(corpus, vocab, requested_size=10)
        assert entry.requested_size == 10
        assert entry.actual_size == 4
        assert entry.mean_tokens_per_caption == pytest.approx(1.5)
        assert entry.max_tokens_per_caption == 2
        assert entry.oov_word_rate == pytest.approx(0.25)
        assert entry.distinct_pieces_used == 1  # only "ab" ever wins

    def test_full_coverage_means_zero_oov(self):
        corpus = Corpus.from_texts(["aba", "bab"])
        vocab = _vocab({"a": -1.0, "b": -1.0, "_a": -1.0, "_b": -1.0})
        entry = measure_tokenizer(corpus, vocab, requested_size=4)
        assert entry.oov_word_rate == 0.0
        assert entry.mean_tokens_per_caption == pytest.approx(3.0)
        assert entry.distinct_pieces_used == 4

    def test_reads_the_batch_memo_without_lattices(self, monkeypatch):
        """The batch's memo holds every covered word, so an uncovered word,
        however often it repeats, counts as OOV with no build_lattice call."""
        calls, build = [], unigram.build_lattice
        monkeypatch.setattr(unigram, "build_lattice",
                            lambda word, vocab: calls.append(word) or build(word, vocab))
        corpus = Corpus.from_texts(["ab cd cd", "cd ab", "cd"])
        vocab = _vocab({"a": -2.0, "b": -2.0, "_b": -2.0, "ab": -1.0})
        entry = measure_tokenizer(corpus, vocab, requested_size=4)
        assert calls == []
        assert entry.oov_word_rate == pytest.approx(4 / 6)
        assert entry.mean_tokens_per_caption == pytest.approx(2 / 3)

    def test_empty_corpus_is_all_zero(self):
        entry = measure_tokenizer(Corpus([]), _vocab({"a": -1.0}), 1)
        assert entry.mean_tokens_per_caption == 0.0
        assert entry.oov_word_rate == 0.0


class TestVocabSweep:
    def test_entries_come_back_in_ascending_size(self, stems_corpus):
        report = vocab_sweep(stems_corpus, [60, 40])
        assert [e.requested_size for e in report.entries] == [40, 60]
        assert report.num_captions == len(stems_corpus.captions)

    def test_bigger_vocabulary_never_needs_more_tokens(self, stems_corpus):
        report = vocab_sweep(stems_corpus, [40, 55, 70])
        means = [e.mean_tokens_per_caption for e in report.entries]
        assert all(a >= b - 1e-9 for a, b in zip(means, means[1:]))
        assert all(e.oov_word_rate == 0.0 for e in report.entries)

    def test_actual_size_matches_request(self, stems_corpus):
        report = vocab_sweep(stems_corpus, [40])
        assert report.entries[0].actual_size == 40

    def test_rejects_empty_size_list(self, stems_corpus):
        with pytest.raises(ValueError, match="size"):
            vocab_sweep(stems_corpus, [])


class TestUniquenessReport:
    def test_hand_oracle(self):
        training = Corpus.from_texts(["a cat", "a dog"])
        generated = ["a cat", "a cat", "A CAT", "a bird"]
        rep = uniqueness_report(generated, training)
        assert rep.num_generated == 4
        assert rep.pct_distinct == pytest.approx(50.0)  # {a cat, a bird}
        assert rep.pct_novel == pytest.approx(25.0)  # only "a bird"
        assert rep.avg_length_words == pytest.approx(2.0)

    def test_comparison_is_normalization_insensitive(self):
        training = Corpus.from_texts(["Ｃａｔ nap"])
        rep = uniqueness_report(["cat nap"], training)
        assert rep.pct_novel == 0.0

    def test_all_novel_all_distinct(self):
        rep = uniqueness_report(["x y", "y z"], Corpus.from_texts(["a b"]))
        assert rep.pct_distinct == 100.0
        assert rep.pct_novel == 100.0

    def test_rejects_empty_generation(self):
        with pytest.raises(ValueError, match="generated"):
            uniqueness_report([], Corpus.from_texts(["a"]))


class TestParamCount:
    def test_matches_tensor_shape_sum(self):
        for v in (12, 40, 97):
            dims = dict(d_model=16, n_enc_layers=2, n_dec_layers=3, n_heads=4,
                        d_ff=32, d_in=7, geo_embed_dim=6, max_seq_len=12)
            cfg = ModelConfig(vocab_size=v, **dims)
            pc = param_count(v, **dims)
            assert pc.total_params == num_params(cfg)
            assert pc.total_params == (pc.embedding_params + pc.output_params
                                       + pc.core_params)

    def test_embedding_and_output_scale_with_vocab(self):
        pc = param_count(40, d_model=16, n_enc_layers=1, n_dec_layers=1,
                         n_heads=2, d_ff=32, d_in=7, geo_embed_dim=6,
                         max_seq_len=12)
        assert pc.embedding_params == 40 * 16
        assert pc.output_params == 40 * 16

    def test_published_scale_totals(self):
        """Full-size model at subword (9486) and word-level (1085)
        vocabulary sizes, and the exact gap between them."""
        big = param_count(9486, **PAPER_DIMS)
        small = param_count(1085, **PAPER_DIMS)
        assert big.total_params == 54_894_080
        assert small.total_params == 46_291_456
        assert big.total_params - small.total_params == 8_602_624
        assert big.total_params - small.total_params == 2 * (9486 - 1085) * 512

    def test_core_independent_of_vocab(self):
        a = param_count(500, **PAPER_DIMS)
        b = param_count(7000, **PAPER_DIMS)
        assert a.core_params == b.core_params


class TestSerializers:
    def test_sweep_dict_and_text(self, stems_corpus):
        report = vocab_sweep(stems_corpus, [40])
        d = sweep_to_dict(report)
        assert d["report"] == "vocab_sweep"
        assert d["num_captions"] == report.num_captions
        assert d["entries"][0]["requested_size"] == 40
        text = sweep_to_text(report)
        assert "40" in text and "oov rate" in text

    def test_uniqueness_dict_and_text(self):
        rep = uniqueness_report(["a b"], Corpus.from_texts(["c d"]))
        d = uniqueness_to_dict(rep)
        assert d["report"] == "uniqueness"
        assert d["pct_novel"] == 100.0
        assert "100.0%" in uniqueness_to_text(rep)

    def test_params_delta_is_signed(self):
        counts = [
            ParamCount(100, 8, 800, 800, 50, 1650),
            ParamCount(50, 8, 400, 400, 50, 850),
        ]
        d = params_to_dict(counts)
        assert d["deltas"] == [
            {"from_vocab": 100, "to_vocab": 50, "delta_total": -800}
        ]
        assert "-800 parameters" in params_to_text(counts)

    def test_report_json_roundtrips(self):
        payload = sweep_to_dict(
            vocab_sweep(Corpus.from_texts(["ab ab ab", "ba ba"]), [8]))
        text = report_json(payload)
        assert text.endswith("\n")
        assert json.loads(text) == payload
