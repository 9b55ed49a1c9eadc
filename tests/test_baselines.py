"""BPE and word-level baseline tokenizers."""

import pytest

from subicap.baselines import (
    BpeModel,
    UNK,
    WORD_SPECIALS,
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
from subicap.corpus import Corpus, bundled_corpus_path, load_corpus
from subicap.errors import VocabFormatError
from subicap.unigram import detokenize


@pytest.fixture(scope="module")
def desk():
    return load_corpus(bundled_corpus_path())


class TestTrainBpe:
    def test_single_merge_hand_oracle(self):
        # pair counts: (a,b)=2; nothing else reaches 2
        corpus = Corpus.from_texts(["ab", "ab", "b"])
        model = train_bpe(corpus, 5)
        assert model.merges == (("a", "b"),)

    def test_merge_count_tie_breaks_lexicographically(self):
        # (x,y) and (a,b) both occur twice; (a,b) sorts first
        corpus = Corpus.from_texts(["xy", "xy", "ab", "ab"])
        model = train_bpe(corpus, 1)
        assert model.merges == (("a", "b"),)

    def test_merges_chain_onto_products(self):
        corpus = Corpus.from_texts(["abc"] * 3)
        model = train_bpe(corpus, 2)
        assert model.merges == (("a", "b"), ("ab", "c"))

    def test_stops_when_no_pair_repeats(self):
        corpus = Corpus.from_texts(["ab", "cd"])
        model = train_bpe(corpus, 10)
        assert model.merges == ()

    def test_never_crosses_word_boundary(self):
        # "a b" adjacency exists only across a space; no merge may see it
        corpus = Corpus.from_texts(["a b"] * 10)
        model = train_bpe(corpus, 10)
        assert model.merges == ()

    def test_word_counts_weight_pairs(self):
        # "zq" appears in two captions, "ab" in three
        corpus = Corpus.from_texts(["zq ab", "zq ab", "ab"])
        model = train_bpe(corpus, 1)
        assert model.merges == (("a", "b"),)

    def test_rejects_negative_merge_count(self):
        with pytest.raises(ValueError):
            train_bpe(Corpus.from_texts(["ab"]), -1)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train_bpe(Corpus([]), 5)


class TestBpeTokenize:
    def test_continuations_marked(self):
        corpus = Corpus.from_texts(["abc", "abc", "ad"])
        model = train_bpe(corpus, 1)  # merge (a,b)
        assert bpe_tokenize("abc", model) == ["ab", "_c"]
        assert bpe_tokenize("ad", model) == ["a", "_d"]

    def test_unseen_chars_pass_through(self):
        model = train_bpe(Corpus.from_texts(["ab", "ab"]), 1)
        assert bpe_tokenize("xy", model) == ["x", "_y"]

    def test_normalizes_input(self):
        model = train_bpe(Corpus.from_texts(["ab", "ab"]), 1)
        assert bpe_tokenize("  AB ", model) == ["ab"]

    def test_word_initial_underscore_symbol_is_split(self):
        # a merge product that starts with the marker char must not sit at
        # a word start, or detokenize would glue it onto the previous word
        model = BpeModel(merges=(("_", "a"),))
        pieces = bpe_tokenize("_a", model)
        assert pieces == ["_", "_a"]
        assert detokenize(pieces) == "_a"

    def test_roundtrip_on_desk_corpus(self, desk):
        model = train_bpe(desk, 200)
        for text in desk.texts():
            assert detokenize(bpe_tokenize(text, model)) == text

    def test_merge_order_matters(self):
        # applying (b,c) before (a,b) would tokenize "abc" differently
        corpus = Corpus.from_texts(["abc abc ab", "bc"])
        model = train_bpe(corpus, 2)
        first = model.merges[0]
        got = bpe_tokenize("abc", model)
        assert got[0].startswith(first[0])


class TestBpeSerialization:
    def test_roundtrip_preserves_behavior(self, tmp_path, desk):
        model = train_bpe(desk, 100)
        path = tmp_path / "merges.bpe"
        save_bpe(model, path)
        loaded = load_bpe(path)
        assert loaded.merges == model.merges
        for text in desk.texts()[:50]:
            assert bpe_tokenize(text, loaded) == bpe_tokenize(text, model)

    def test_file_layout(self, tmp_path):
        model = train_bpe(Corpus.from_texts(["abc"] * 3), 2)
        path = tmp_path / "merges.bpe"
        save_bpe(model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["#bpe", "a b", "ab c"]

    def test_save_is_byte_deterministic(self, tmp_path, desk):
        model = train_bpe(desk, 50)
        p1, p2 = tmp_path / "m1.bpe", tmp_path / "m2.bpe"
        save_bpe(model, p1)
        save_bpe(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("a b\n", encoding="utf-8")
        with pytest.raises(VocabFormatError):
            load_bpe(path)

    def test_rejects_malformed_merge_line(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("#bpe\na b c\n", encoding="utf-8")
        with pytest.raises(VocabFormatError, match="line 2"):
            load_bpe(path)


class TestWordVocab:
    def test_min_freq_filter_and_order(self):
        corpus = Corpus.from_texts(["cat cat cat dog dog bird"])
        vocab = train_word_vocab(corpus, min_freq=2)
        assert vocab.words == WORD_SPECIALS + ("cat", "dog")

    def test_count_ties_break_lexicographically(self):
        corpus = Corpus.from_texts(["dog cat dog cat"])
        vocab = train_word_vocab(corpus, min_freq=2)
        assert vocab.words == WORD_SPECIALS + ("cat", "dog")

    def test_tokenize_maps_oov_to_unk(self):
        corpus = Corpus.from_texts(["a cat sat"] * 5)
        vocab = train_word_vocab(corpus, min_freq=5)
        assert word_tokenize("a crocheted cat", vocab) == ["a", UNK, "cat"]

    def test_oov_rate_hand_oracle(self):
        corpus = Corpus.from_texts(["a cat"] * 5)
        vocab = train_word_vocab(corpus, min_freq=5)
        # 4 words, 2 unknown
        assert oov_rate(["a zebu cat quagga"], vocab) == pytest.approx(0.5)
        assert oov_rate([], vocab) == 0.0

    def test_words_spelled_as_specials_are_oov(self):
        # the specials are never learned words, whatever the training counts
        vocab = train_word_vocab(Corpus.from_texts(["a <unk> cat"] * 5), 5)
        assert oov_rate(["<pad> <bos>"], vocab) == 1.0
        assert word_tokenize("a <eos> <unk> cat", vocab) == ["a", UNK, UNK, "cat"]
        assert oov_rate(["a <unk> cat"], vocab) == pytest.approx(1 / 3)

    def test_caption_words_spelled_as_specials_are_counted_once(self):
        corpus = Corpus.from_texts(["a <unk> cat <BOS>"] * 5)
        vocab = train_word_vocab(corpus, min_freq=5)
        assert vocab.words == WORD_SPECIALS + ("a", "cat")
        assert vocab.size == 6

    def test_rejects_a_repeated_word(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("\n".join(WORD_SPECIALS + ("cat", "<unk>")) + "\n",
                        encoding="utf-8")
        with pytest.raises(VocabFormatError, match="repeats '<unk>'"):
            load_word_vocab(path)
        with pytest.raises(VocabFormatError, match="repeats 'cat'"):
            WordVocab(WORD_SPECIALS + ("cat", "dog", "cat"))

    def test_rejects_nonpositive_min_freq(self):
        with pytest.raises(ValueError):
            train_word_vocab(Corpus.from_texts(["a"]), 0)

    def test_held_out_words_are_oov_on_desk_corpus(self, desk):
        # rows 900+ hold rare words absent from the first 900 captions
        head = Corpus(desk.captions[:900])
        tail_texts = [cap.text for cap in desk.captions[900:]]
        vocab = train_word_vocab(head, min_freq=1)
        assert oov_rate(tail_texts, vocab) > 0.0

    def test_serialization_roundtrip(self, tmp_path, desk):
        vocab = train_word_vocab(desk, min_freq=5)
        path = tmp_path / "words.txt"
        save_word_vocab(vocab, path)
        loaded = load_word_vocab(path)
        assert loaded.words == vocab.words

    def test_load_requires_specials(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("cat\ndog\n", encoding="utf-8")
        with pytest.raises(VocabFormatError):
            load_word_vocab(path)
