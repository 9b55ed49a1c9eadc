"""Unigram tokenizer: lattice, Viterbi, EM, pruning, serialization.

The heavy checks pit the implementation against brute-force enumeration:
every segmentation of a short word can be listed outright, so the lattice
recursions have an exact oracle. EM and pruning run as array passes over
one lattice table; the scalar walks in conftest are their bit-exact oracle.
"""

import hashlib
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_em_step, reference_prune_vocab, reference_viterbi
from subicap import unigram
from subicap.cli import main
from subicap.corpus import Corpus, bundled_corpus_path, load_corpus, normalize_text
from subicap.errors import (
    OrphanContinuationError,
    OutOfInventoryError,
    UnknownPieceError,
    VocabFormatError,
)
from subicap.unigram import (
    BOS_ID,
    CONTINUATION,
    EOS_ID,
    NUM_CONTROLS,
    LatticeTable,
    PAD_ID,
    SubwordVocab,
    TrainerConfig,
    build_lattice,
    build_seed_vocab,
    coverage_floor,
    detokenize,
    em_step,
    encode,
    is_continuation,
    load_vocab,
    mark_continuations,
    piece_content,
    prune_vocab,
    save_vocab,
    train_unigram,
    viterbi_segment,
)


def _uniform_vocab(pieces):
    score = math.log(1.0 / len(pieces))
    return SubwordVocab([(p, score) for p in pieces])


def _scored_vocab(items):
    return SubwordVocab(list(items.items()))


def _coverage_singles(chars, score=-50.0):
    """Unmarked and marked singles for every char, scored far below any
    multi-character piece so they never influence the best path."""
    out = {}
    for ch in chars:
        out[ch] = score
        out[CONTINUATION + ch] = score
    return out


def brute_force_segment(word, vocab):
    """Enumerate every composition of the word into admissible pieces and
    return the best (pieces, score) under the Viterbi tie-break order:
    max score, then fewest pieces, then lexicographically smallest."""
    results = []

    def walk(pos, pieces, score):
        if pos == len(word):
            results.append((pieces, score))
            return
        for end in range(pos + 1, len(word) + 1):
            content = word[pos:end]
            piece = content if pos == 0 else CONTINUATION + content
            if pos == 0 and len(content) > 1 and content[0] == CONTINUATION:
                continue
            if piece in vocab:
                walk(end, pieces + [piece], score + vocab.score(piece))

    walk(0, [], 0.0)
    if not results:
        return None
    return min(results, key=lambda r: (-r[1], len(r[0]), tuple(r[0])))


class TestMarkerHelpers:
    def test_is_continuation(self):
        assert is_continuation("_ed")
        assert not is_continuation("ed")
        # a bare underscore is the unmarked single-character piece
        assert not is_continuation("_")

    def test_piece_content(self):
        assert piece_content("_ed") == "ed"
        assert piece_content("head") == "head"
        assert piece_content("_") == "_"

    def test_mark_continuations(self):
        assert mark_continuations([["head", "ed"], ["cat"]]) == [
            "head", "_ed", "cat",
        ]

    def test_mark_continuations_empty(self):
        assert mark_continuations([]) == []


class TestTrainerConfig:
    def test_defaults(self, monkeypatch):
        # the seed holds 20x the target; pieces hold at most 16 characters
        seed_sizes = []
        real = unigram.build_seed_vocab

        def spy(corpus, seed_size):
            seed_sizes.append(seed_size)
            return real(corpus, seed_size)

        monkeypatch.setattr(unigram, "build_seed_vocab", spy)
        train_unigram(Corpus.from_texts(["ab ab b"]), TrainerConfig(6))
        assert seed_sizes == [120]
        word = "abcdefghijklmnopq"  # 17 characters
        seed = build_seed_vocab(Corpus.from_texts([f"{word} {word}"]), 1000)
        assert max(len(piece_content(p)) for p, _ in seed.entries) == 16

    @pytest.mark.parametrize("kwargs", [
        {"target_vocab_size": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainerConfig(**kwargs)


class TestSubwordVocab:
    def test_token_id_space_reserves_controls(self):
        v = _uniform_vocab(["a", "b"])
        assert (PAD_ID, BOS_ID, EOS_ID) == (0, 1, 2)
        assert v.token_id("a") == NUM_CONTROLS
        assert v.token_id("b") == NUM_CONTROLS + 1
        assert v.piece_of_token(0) == "<pad>"
        assert v.piece_of_token(NUM_CONTROLS + 1) == "b"
        assert v.num_tokens == v.size + NUM_CONTROLS

    def test_required_chars_tracks_both_marker_forms(self):
        v = _uniform_vocab(["a", "_a", "ab"])
        assert v.required_chars == {"a", "_a"}

    def test_rejects_duplicates(self):
        with pytest.raises(VocabFormatError):
            SubwordVocab([("a", -1.0), ("a", -2.0)])

    def test_rejects_empty_piece(self):
        with pytest.raises(VocabFormatError):
            SubwordVocab([("", -1.0)])

    def test_rejects_positive_or_nonfinite_scores(self):
        with pytest.raises(VocabFormatError):
            SubwordVocab([("a", 0.5)])
        with pytest.raises(VocabFormatError):
            SubwordVocab([("a", float("-inf"))])

    def test_unknown_piece_error(self):
        v = _uniform_vocab(["a"])
        with pytest.raises(UnknownPieceError):
            v.score("zz")
        with pytest.raises(UnknownPieceError):
            v.token_id("zz")


class TestLattice:
    def test_span_enumeration(self):
        v = _uniform_vocab(["a", "b", "_a", "_b", "ab", "_ba"])
        lat = build_lattice("aba", v)
        found = {(s.start, s.end, v.entries[s.piece_id][0]) for s in lat.spans}
        assert found == {
            (0, 1, "a"), (0, 2, "ab"), (1, 2, "_b"), (1, 3, "_ba"), (2, 3, "_a"),
        }

    def test_marked_multichar_never_matches_word_start(self):
        # the piece "_x" is reserved for a continuation "x", so it must not
        # match the literal text "_x" at a word start
        v = _uniform_vocab(["_", "x", "_x", "__x"])
        lat = build_lattice("_x", v)
        starts = {(s.start, v.entries[s.piece_id][0]) for s in lat.spans}
        assert starts == {(0, "_"), (1, "_x")}
        assert all(not (s == 0 and len(p) > 1 and p[0] == "_")
                   for s, p in starts)

    def test_coverage_check_raises_with_position(self):
        for pieces, word, position in [
            (["a", "_a"], "xa", 0),  # the first character
            (["a", "_a"], "ax", 1),  # a later character
            (["a", "_a", "ax"], "ax", 1),  # a position a multi-character piece spans
            (["a", "_a", "_xa"], "axa", 1),  # one a multi-character piece starts at
        ]:
            with pytest.raises(OutOfInventoryError) as err:
                build_lattice(word, _uniform_vocab(pieces))
            assert (err.value.char, err.value.position) == ("x", position)

    def test_internal_position_needs_marked_single(self):
        # "b" exists unmarked only, so position 1 of "ab" is uncoverable
        v = _uniform_vocab(["a", "_a", "b"])
        with pytest.raises(OutOfInventoryError):
            build_lattice("ab", v)


class TestViterbi:
    def test_prefers_high_probability_multichar(self):
        v = _scored_vocab({
            "ab": math.log(0.5), "a": math.log(0.25), "_b": math.log(0.25),
        })
        seq = viterbi_segment("ab", v)
        assert seq.pieces == ("ab",)
        assert seq.total_score == pytest.approx(math.log(0.5))

    def test_single_repeated_char_word(self):
        v = _scored_vocab({
            "a": math.log(0.4), "_a": math.log(0.4), "aa": math.log(0.2),
        })
        # one piece at p=0.2 beats two pieces at p=0.16
        assert viterbi_segment("aa", v).pieces == ("aa",)

    def test_score_tie_prefers_fewer_pieces(self):
        v = _scored_vocab({"ab": -2.0, "a": -1.0, "_b": -1.0})
        assert viterbi_segment("ab", v).pieces == ("ab",)

    def test_full_tie_prefers_lexicographic_sequence(self):
        scored = _coverage_singles("abc")
        scored.update({"a": -1.0, "_bc": -1.0, "ab": -1.0, "_c": -1.0})
        # both paths: score -2.0, two pieces; ("a","_bc") < ("ab","_c")
        assert viterbi_segment("abc", _scored_vocab(scored)).pieces == (
            "a", "_bc",
        )

    def test_multi_word_scores_add(self):
        v = _scored_vocab({
            "cat": math.log(0.5), "dog": math.log(0.25),
            **{k: -60.0 for k in
               ["c", "a", "t", "d", "o", "g", "_a", "_t", "_o", "_g"]},
        })
        seq = viterbi_segment("cat dog", v)
        assert seq.pieces == ("cat", "dog")
        assert seq.total_score == pytest.approx(math.log(0.5) + math.log(0.25))

    def test_ids_match_pieces(self):
        v = _uniform_vocab(["a", "_a", "b", "_b"])
        seq = viterbi_segment("ab", v)
        assert seq.ids == tuple(v.token_id(p) for p in seq.pieces)

    def test_error_position_is_caption_relative(self):
        v = _uniform_vocab(["a", "_a", "b", "_b"])
        with pytest.raises(OutOfInventoryError) as exc:
            viterbi_segment("ab axb", v)
        assert exc.value.char == "x"
        assert exc.value.position == 4  # index into the whole caption

    def test_matches_brute_force_on_random_vocabs(self):
        """Exhaustive enumeration oracle over short words."""
        rng = np.random.default_rng(7)
        alphabet = "abc"
        words = ["a", "ab", "abc", "aab", "cabba", "abcabc", "ccc"]
        for trial in range(20):
            pieces = set()
            for ch in alphabet:
                pieces.add(ch)
                pieces.add(CONTINUATION + ch)
            # random multi-character pieces in both marker forms
            for _ in range(rng.integers(2, 10)):
                n = int(rng.integers(2, 4))
                content = "".join(rng.choice(list(alphabet), size=n))
                pieces.add(content if rng.random() < 0.5
                           else CONTINUATION + content)
            logp = rng.normal(-3.0, 1.0, size=len(pieces))
            vocab = SubwordVocab(
                [(p, float(s)) for p, s in zip(sorted(pieces), logp)]
            )
            for word in words:
                expected = brute_force_segment(word, vocab)
                got = viterbi_segment(word, vocab)
                assert got.pieces == tuple(expected[0]), (trial, word)
                assert got.total_score == pytest.approx(expected[1])


class TestSegmentationMemo:
    @pytest.fixture
    def viterbi_calls(self, monkeypatch):
        """The words _viterbi_word runs on, in call order."""
        words = []
        real = unigram._viterbi_word

        def logging_viterbi(word, vocab):
            words.append(word)
            return real(word, vocab)

        monkeypatch.setattr(unigram, "_viterbi_word", logging_viterbi)
        return words

    def test_repeated_word_runs_viterbi_once(self, viterbi_calls):
        pieces = ["a", "_a", "c", "_c", "t", "_t", "at", "_at"]
        vocab = _uniform_vocab(pieces)
        first = encode("cat a cat at cat", vocab)
        second = encode("at cat", vocab)
        assert viterbi_calls == ["cat", "a", "at"]
        fresh = _uniform_vocab(pieces)
        assert (first, second) == (encode("cat a cat at cat", fresh), encode("at cat", fresh))

    def test_failures_are_not_memoised(self, viterbi_calls):
        v = _uniform_vocab(["a", "_a", "b", "_b"])
        for text, position in [("ab axb", 4), ("axb", 1), ("ab axb", 4)]:
            with pytest.raises(OutOfInventoryError) as exc:
                viterbi_segment(text, v)
            assert (exc.value.char, exc.value.position) == ("x", position)
        assert viterbi_calls == ["ab", "axb", "axb", "axb"]

    def test_rescored_vocabulary_segments_afresh(self):
        v = _scored_vocab({"ab": -0.1, "a": -3.0, "_b": -3.0})
        assert encode("ab", v).pieces == ("ab",)
        assert encode("ab", v._derived([-5.0, -0.1, -0.1])).pieces == ("a", "_b")


class TestRoundtrip:
    def test_encode_normalizes_first(self):
        v = _uniform_vocab(["a", "_a", "c", "_c", "t", "_t", " "])
        seq = encode("  A   cAt ", v)
        assert detokenize(seq) == "a cat"

    def test_roundtrip_random_texts(self):
        rng = np.random.default_rng(3)
        letters = list("abcd")
        texts = []
        for _ in range(50):
            words = []
            for _ in range(rng.integers(1, 6)):
                n = int(rng.integers(1, 7))
                words.append("".join(rng.choice(letters, size=n)))
            texts.append(" ".join(words))
        corpus = Corpus.from_texts(texts)
        vocab = build_seed_vocab(corpus, 40)
        for t in texts:
            assert detokenize(encode(t, vocab)) == t

    def test_detokenize_orphan_continuation(self):
        with pytest.raises(OrphanContinuationError):
            detokenize(["_ed", "head"])

    def test_detokenize_accepts_iterables(self):
        assert detokenize(["head", "_ed", "cat"]) == "headed cat"


class TestSeedVocab:
    def test_single_char_corpus_is_exactly_its_char(self):
        corpus = Corpus.from_texts(["x"])
        vocab = build_seed_vocab(corpus, 10)
        assert [p for p, _ in vocab.entries] == ["x"]
        assert vocab.entries[0][1] == pytest.approx(0.0)

    def test_counts_and_scores_hand_oracle(self):
        # words: ab x2, b x1. counts: a=2, b=1, _b=2, ab=2; total 7
        corpus = Corpus.from_texts(["ab ab b"])
        vocab = build_seed_vocab(corpus, 10)
        got = dict(vocab.entries)
        assert set(got) == {"a", "b", "_b", "ab", " "}
        total = 2 + 1 + 2 + 2 + 1  # space is forced in at count 1
        assert got["ab"] == pytest.approx(math.log(2 / total))
        assert got["b"] == pytest.approx(math.log(1 / total))

    def test_min_piece_count_filters_rare_substrings(self):
        corpus = Corpus.from_texts(["ab cd"])
        vocab = build_seed_vocab(corpus, 10)
        pieces = {p for p, _ in vocab.entries}
        assert "ab" not in pieces and "cd" not in pieces
        assert {"a", "b", "c", "d", "_b", "_d"} <= pieces

    def test_marked_single_only_when_seen_internally(self):
        # "a" begins words only; "b" appears internally
        corpus = Corpus.from_texts(["ab ab"])
        vocab = build_seed_vocab(corpus, 10)
        pieces = {p for p, _ in vocab.entries}
        assert "_b" in pieces
        assert "_a" not in pieces

    def test_seed_size_caps_multichar_pieces(self):
        corpus = Corpus.from_texts(["abcd abcd abcd"])
        small = build_seed_vocab(corpus, 2)
        n_multi = sum(len(piece_content(p)) > 1 for p, _ in small.entries)
        assert n_multi == 2

    def test_scores_form_a_distribution(self):
        corpus = Corpus.from_texts(["the cat sat on the mat", "a cat ran"])
        vocab = build_seed_vocab(corpus, 50)
        assert sum(math.exp(s) for _, s in vocab.entries) == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_seed_vocab(Corpus([]), 5)


class TestEmStep:
    def test_hand_computed_posteriors(self):
        """One word "ab" under uniform {ab, a, _b}.

        Segmentations: [ab] p=1/3 and [a,_b] p=1/9, so the word marginal is
        4/9 and the path posteriors are 3/4 and 1/4. Expected counts
        (ab=3/4, a=1/4, _b=1/4) renormalize to (0.6, 0.2, 0.2).
        """
        corpus = Corpus.from_texts(["ab"])
        vocab = _uniform_vocab(["ab", "a", "_b"])
        new, ll = em_step(corpus, vocab)
        assert ll == pytest.approx(math.log(4 / 9))
        got = dict(new.entries)
        assert got["ab"] == pytest.approx(math.log(0.6))
        assert got["a"] == pytest.approx(math.log(0.2))
        assert got["_b"] == pytest.approx(math.log(0.2))

    def test_word_counts_weight_the_statistics(self):
        # doubling every word count doubles the log-likelihood but leaves
        # the renormalized scores untouched
        v = _uniform_vocab(["ab", "a", "_b"])
        once, ll1 = em_step(Corpus.from_texts(["ab"]), v)
        twice, ll2 = em_step(Corpus.from_texts(["ab", "ab"]), v)
        assert ll2 == pytest.approx(2 * ll1)
        for (_, s0), (_, s1) in zip(once.entries, twice.entries):
            assert s1 == pytest.approx(s0, abs=1e-12)

    def test_likelihood_nondecreasing(self):
        rng = np.random.default_rng(11)
        letters = list("abc")
        texts = []
        for _ in range(30):
            words = ["".join(rng.choice(letters, size=rng.integers(1, 6)))
                     for _ in range(rng.integers(1, 5))]
            texts.append(" ".join(words))
        corpus = Corpus.from_texts(texts)
        vocab = build_seed_vocab(corpus, 60)
        prev = -math.inf
        for _ in range(15):
            vocab, ll = em_step(corpus, vocab)
            assert ll >= prev - 1e-9
            prev = ll

    def test_converges_to_fixed_point(self):
        corpus = Corpus.from_texts(["ab ab ab"])
        vocab = _uniform_vocab(["ab", "a", "_b", " "])
        for _ in range(200):
            vocab, _ = em_step(corpus, vocab)
        settled, ll1 = em_step(corpus, vocab)
        _, ll2 = em_step(corpus, settled)
        assert ll2 - ll1 <= 1e-12
        for (_, s0), (_, s1) in zip(vocab.entries, settled.entries):
            assert s1 == pytest.approx(s0, abs=1e-9)

    def test_unusable_pieces_get_floor_not_crash(self):
        # the space piece sits on no lattice; 50 iterations must stay finite
        corpus = Corpus.from_texts(["ab cd"])
        vocab = build_seed_vocab(corpus, 10)
        for _ in range(50):
            vocab, ll = em_step(corpus, vocab)
            assert math.isfinite(ll)
        assert all(math.isfinite(s) for _, s in vocab.entries)


class TestPrune:
    def test_least_loss_pieces_go_first(self):
        """Hand-ranked removal costs.

        "ab" x10 rides on piece "ab" (cost 10*19), "cd" x1 on "cd" (cost 19),
        "xy" matches nothing (cost 0). keep=1 must keep "ab" alone.
        """
        corpus = Corpus.from_texts(["ab"] * 10 + ["cd"])
        vocab = _scored_vocab({
            **_coverage_singles("abcd", score=-20.0),
            " ": -20.0, "ab": -1.0, "cd": -1.0, "xy": -1.0,
        })
        pruned = prune_vocab(corpus, vocab, 1)
        kept = {p for p, _ in pruned.entries}
        assert "ab" in kept
        assert "cd" not in kept and "xy" not in kept

    def test_unused_pieces_removed_before_used(self):
        corpus = Corpus.from_texts(["ab"] * 3 + ["cd"])
        vocab = _scored_vocab({
            **_coverage_singles("abcd", score=-20.0),
            " ": -20.0, "ab": -1.0, "cd": -1.0, "xy": -1.0,
        })
        pruned = prune_vocab(corpus, vocab, 2)
        kept = {p for p, _ in pruned.entries}
        assert {"ab", "cd"} <= kept
        assert "xy" not in kept

    def test_words_using_a_piece_break_a_loss_tie(self):
        # "cd" is the best path of "cd", but [c, _d] scores the same, so it
        # costs 0 like the unused "ab"; used by one word, "cd" ranks first
        corpus = Corpus.from_texts(["cd"])
        vocab = _scored_vocab({
            **_coverage_singles("abcd", score=-20.0),
            "c": -1.0, "_d": -1.0, "ab": -1.0, "cd": -2.0,
        })
        assert viterbi_segment("cd", vocab).pieces == ("cd",)
        pruned = prune_vocab(corpus, vocab, 1)
        assert "cd" in pruned and "ab" not in pruned

    def test_singles_never_pruned(self):
        corpus = Corpus.from_texts(["ab ab"])
        vocab = build_seed_vocab(corpus, 5)
        pruned = prune_vocab(corpus, vocab, 0)
        assert {p for p, _ in pruned.entries} == vocab.required_chars

    def test_survivors_renormalized(self):
        corpus = Corpus.from_texts(["ab ab abc"])
        vocab = build_seed_vocab(corpus, 8)
        n_multi = vocab.size - len(vocab.required_chars)
        pruned = prune_vocab(corpus, vocab, n_multi // 2)
        assert sum(math.exp(s) for _, s in pruned.entries) == pytest.approx(1.0)


@pytest.fixture(scope="module")
def tiny_corpus():
    rng = np.random.default_rng(5)
    stems = ["walk", "jump", "look", "call", "help"]
    suffixes = ["", "s", "ed", "ing"]
    texts = []
    for _ in range(120):
        n = rng.integers(2, 6)
        words = [str(rng.choice(stems)) + str(rng.choice(suffixes))
                 for _ in range(n)]
        texts.append(" ".join(words))
    return Corpus.from_texts(texts)


def _tok_scaled_corpus(seed):
    """The training corpus of the benchmark's tok-scaled workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import corpus_gen
    finally:
        sys.path.pop(0)
    return Corpus.from_texts(corpus_gen.generate(seed, 0)[0])


class TestTrainUnigram:
    def test_reaches_exact_target(self, tiny_corpus):
        vocab = train_unigram(tiny_corpus, TrainerConfig(target_vocab_size=40))
        assert vocab.size == 40

    def test_deterministic(self, tiny_corpus):
        cfg = TrainerConfig(target_vocab_size=40)
        a = train_unigram(tiny_corpus, cfg)
        b = train_unigram(tiny_corpus, cfg)
        assert a.entries == b.entries

    def test_roundtrip_on_training_corpus(self, tiny_corpus):
        vocab = train_unigram(tiny_corpus, TrainerConfig(target_vocab_size=40))
        for t in tiny_corpus.texts():
            assert detokenize(encode(t, vocab)) == t

    def test_shared_stems_become_pieces(self, tiny_corpus):
        vocab = train_unigram(tiny_corpus, TrainerConfig(target_vocab_size=40))
        pieces = {p for p, _ in vocab.entries}
        assert any(p in pieces for p in ["walk", "jump", "look"])

    def test_entries_sorted_by_score_then_piece(self, tiny_corpus):
        vocab = train_unigram(tiny_corpus, TrainerConfig(target_vocab_size=40))
        keys = [(-s, p) for p, s in vocab.entries]
        assert keys == sorted(keys)

    def test_target_below_coverage_floor_rejected(self, tiny_corpus):
        with pytest.raises(ValueError):
            train_unigram(tiny_corpus, TrainerConfig(target_vocab_size=2))

    def test_coverage_floor_counts_the_protected_singles(self):
        desk = load_corpus(bundled_corpus_path())
        vocab = train_unigram(desk, TrainerConfig(target_vocab_size=300))
        assert coverage_floor(desk) == len(vocab.required_chars) == 51
        # pruning never drops a protected single, so the seed's count is the
        # trained vocabulary's
        tok_scaled = _tok_scaled_corpus(seed=1)
        assert coverage_floor(tok_scaled) == \
            len(build_seed_vocab(tok_scaled, 0).required_chars)

    def test_floor_is_checked_before_seeding(self, monkeypatch):
        def no_seed(corpus, seed_size):
            raise AssertionError("build_seed_vocab called")

        monkeypatch.setattr(unigram, "build_seed_vocab", no_seed)
        with pytest.raises(ValueError, match="vocabulary size 51 .* floor of 52"):
            train_unigram(load_corpus(bundled_corpus_path()), TrainerConfig(51))

    def test_desk_vocabulary_file_is_pinned(self, tmp_path):
        # sha256 of the file this command wrote at commit 531abcf, before EM
        # and pruning became array passes; any changed piece, order or
        # sixth decimal of a score changes it
        out = tmp_path / "vocab.tsv"
        assert main(["train-tokenizer", "--corpus", str(bundled_corpus_path()),
                     "--vocab-size", "300", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "d9397c6451a51f96562c3bd746267902436b9e51f43f4e4c8ab8a9feb4148a4a"

    def test_saturates_when_corpus_is_small(self):
        corpus = Corpus.from_texts(["ab ab"])
        vocab = train_unigram(corpus, TrainerConfig(target_vocab_size=500))
        # only so many substrings exist; pieces cannot be invented
        assert vocab.size < 500


@st.composite
def corpus_and_vocab(draw):
    """A small corpus over "abc_" and its seed vocabulary with random scores
    (ties included)."""
    word = st.text(alphabet="abc_", min_size=1, max_size=7)
    texts = draw(st.lists(st.lists(word, min_size=1, max_size=4).map(" ".join),
                          min_size=1, max_size=6))
    corpus = Corpus.from_texts(texts)
    seed = build_seed_vocab(corpus, draw(st.integers(0, 30)))
    scores = draw(st.lists(st.sampled_from([-0.5, -1.0, -2.5, -4.0])
                           | st.floats(-8.0, -0.01),
                           min_size=seed.size, max_size=seed.size))
    vocab = SubwordVocab([(p, s) for (p, _), s in zip(seed.entries, scores)])
    keep = draw(st.integers(0, vocab.size - len(vocab.required_chars)))
    return corpus, vocab, keep


def _bits(vocab_and_ll):
    vocab, ll = vocab_and_ll
    return [p for p, _ in vocab.entries], [s.hex() for s in vocab.scores], ll.hex()


def _entry_bits(vocab):
    return [(p, s.hex()) for p, s in vocab.entries]


def _no_build(word, vocab):
    raise AssertionError(f"lattice of {word!r} rebuilt")


class TestLatticeTable:
    """One lattice table per piece set: EM shares it, pruning filters it, and
    no reader depends on whether it was already filled."""

    @given(case=corpus_and_vocab())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_pruned_table_equals_fresh_lattices(self, case):
        corpus, vocab, keep = case
        filled, _ = em_step(corpus, vocab)
        pruned = prune_vocab(corpus, filled, keep)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(unigram, "build_lattice", _no_build)
            derived = pruned.table(corpus.word_counts)
        fresh = LatticeTable.build(derived.words, pruned)
        for name in ("word", "start", "end", "piece_id"):
            assert np.array_equal(getattr(derived, name), getattr(fresh, name)), name

    @given(case=corpus_and_vocab())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_filled_table_changes_no_bit(self, case):
        corpus, vocab, keep = case
        em_step(corpus, vocab)  # fills vocab's table
        assert _bits(em_step(corpus, vocab)) == \
            _bits(em_step(corpus, SubwordVocab(vocab.entries)))
        pruned = prune_vocab(corpus, vocab, keep)
        assert pruned.entries == \
            prune_vocab(corpus, SubwordVocab(vocab.entries), keep).entries
        assert _bits(em_step(corpus, pruned)) == \
            _bits(em_step(corpus, SubwordVocab(pruned.entries)))

    @pytest.fixture
    def built(self, monkeypatch):
        """The words build_lattice is called on, in call order."""
        words = []
        real = unigram.build_lattice

        def logging_build(word, vocab):
            words.append(word)
            return real(word, vocab)

        monkeypatch.setattr(unigram, "build_lattice", logging_build)
        return words

    def test_train_unigram_builds_each_word_once(self, built):
        corpus = load_corpus(bundled_corpus_path())
        train_unigram(corpus, TrainerConfig(target_vocab_size=300))
        assert len(corpus.word_counts) == len(built) == 289
        assert set(built) == set(corpus.word_counts)

    def test_encode_builds_a_repeated_word_once(self, built):
        vocab = _uniform_vocab(["a", "_a", "c", "_c", "t", "_t", "at", "_at"])
        encode("cat a cat at cat", vocab)
        assert built == ["cat", "a", "at"]
        encode("at cat", vocab)
        assert built == ["cat", "a", "at"]


class TestDerivedVocab:
    """em_step and prune_vocab index their parent's columns instead of
    validating a rebuilt vocabulary; the result is what the constructor
    builds from its entries."""

    @staticmethod
    def assert_as_constructed(vocab):
        fresh = SubwordVocab(vocab.entries)
        assert vocab.pieces == fresh.pieces
        assert all(type(s) is float for s in vocab.scores)
        assert [s.hex() for s in vocab.scores] == [s.hex() for s in fresh.scores]
        assert vocab.lengths.dtype == fresh.lengths.dtype
        assert np.array_equal(vocab.lengths, fresh.lengths)
        assert vocab.piece_to_id == fresh.piece_to_id
        assert vocab.required_chars == fresh.required_chars
        assert vocab.max_content_length == fresh.max_content_length

    @given(case=corpus_and_vocab())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_em_and_pruning_give_constructed_fields(self, case):
        corpus, vocab, keep = case
        self.assert_as_constructed(em_step(corpus, vocab)[0])
        self.assert_as_constructed(prune_vocab(corpus, vocab, keep))

    def test_training_validates_only_its_seed_and_result(self, monkeypatch):
        calls = []
        real = SubwordVocab.__init__

        def counting_init(self, entries):
            calls.append(len(entries))
            real(self, entries)

        monkeypatch.setattr(SubwordVocab, "__init__", counting_init)
        vocab = train_unigram(load_corpus(bundled_corpus_path()),
                              TrainerConfig(target_vocab_size=300))
        assert len(calls) == 2
        assert calls[-1] == vocab.size == 300


def _has_tied_position(word, vocab):
    """Whether two spans reach some position of `word` with its best score."""
    lattice = build_lattice(word, vocab)
    spans = [(i, j, vocab.scores[pid])
             for i, j, pid in zip(lattice.starts, lattice.ends, lattice.piece_ids)]
    best = [0.0] + [-math.inf] * len(word)
    for i, j, score in spans:  # by start, so best[i] is final
        best[j] = max(best[j], best[i] + score)
    ends = [j for i, j, score in spans if best[i] + score == best[j]]
    return len(ends) > len(set(ends))


class TestScalarOracle:
    """em_step and prune_vocab equal the scalar walks over fresh lattices."""

    @given(case=corpus_and_vocab())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_best_paths_equal_the_scalar_viterbi(self, case):
        corpus, vocab, _ = case
        table = vocab.table(corpus.word_counts)
        scores, used, rows = unigram._best_paths(table, vocab)
        # each (piece, row) once, in (piece, row) order
        assert np.all(np.diff(used * len(table.words) + rows) > 0)
        for row, word in enumerate(table.words):
            pieces, score = reference_viterbi(word, vocab)
            assert scores[row].hex() == score.hex()
            assert sorted(used[rows == row].tolist()) == sorted(
                {vocab.piece_to_id[p] for p in pieces if p not in vocab.required_chars})

    def test_training_runs_the_scalar_viterbi_only_for_tied_words(self, monkeypatch):
        calls = []
        scalar = unigram._viterbi_word

        def counted(word, vocab):
            calls.append((word, vocab))
            return scalar(word, vocab)

        monkeypatch.setattr(unigram, "_viterbi_word", counted)
        corpus = load_corpus(bundled_corpus_path())
        train_unigram(corpus, TrainerConfig(300))
        assert all(_has_tied_position(word, vocab) for word, vocab in calls)
        assert len(calls) < len(corpus.word_counts)
        # "cd" and [c, _d] score the same: the scalar picks "cd"
        calls.clear()
        vocab = _scored_vocab({**_coverage_singles("cd", score=-20.0),
                               "c": -1.0, "_d": -1.0, "cd": -2.0})
        prune_vocab(Corpus.from_texts(["cd"]), vocab, 0)
        assert [word for word, _ in calls] == ["cd"]

    @given(case=corpus_and_vocab())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_em_step_and_prune_equal_the_scalar_walk(self, case):
        corpus, vocab, keep = case
        assert _bits(em_step(corpus, vocab)) == _bits(reference_em_step(corpus, vocab))
        pruned = prune_vocab(corpus, vocab, keep)
        assert _entry_bits(pruned) == _entry_bits(reference_prune_vocab(corpus, vocab, keep))
        # and again on the pruned table, which was filtered, not rebuilt
        assert _bits(em_step(corpus, pruned)) == _bits(reference_em_step(corpus, pruned))

    def test_desk_corpus(self):
        corpus = load_corpus(bundled_corpus_path())
        vocab = build_seed_vocab(corpus, 3000)
        assert _bits(em_step(corpus, vocab)) == _bits(reference_em_step(corpus, vocab))
        vocab, _ = em_step(corpus, vocab)
        keep = (vocab.size - len(vocab.required_chars)) // 2
        assert _entry_bits(prune_vocab(corpus, vocab, keep)) == \
            _entry_bits(reference_prune_vocab(corpus, vocab, keep))


@pytest.fixture(scope="module")
def desk_vocab():
    return train_unigram(load_corpus(bundled_corpus_path()), TrainerConfig(300))


class TestRoundtripProperties:
    ALPHABET = "".join(sorted(load_corpus(bundled_corpus_path()).char_inventory))

    @given(text=st.text(alphabet=ALPHABET + ALPHABET.upper() + "\t\n", max_size=60))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_detokenize_inverts_encode(self, desk_vocab, text):
        assert detokenize(encode(text, desk_vocab)) == normalize_text(text)

    @given(entries=st.lists(
        st.tuples(st.text(alphabet=ALPHABET + CONTINUATION, min_size=1, max_size=6),
                  st.floats(-40.0, 0.0)),
        min_size=1, max_size=20, unique_by=lambda e: e[0]))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, entries):
        d = tmp_path_factory.mktemp("vocab")
        save_vocab(SubwordVocab(entries), d / "one.tsv")
        save_vocab(load_vocab(d / "one.tsv"), d / "two.tsv")
        assert (d / "one.tsv").read_bytes() == (d / "two.tsv").read_bytes()


class TestSerialization:
    def test_roundtrip_preserves_order_and_scores(self, tmp_path):
        corpus = Corpus.from_texts(["ab ab b", "abc"])
        vocab = train_unigram(corpus, TrainerConfig(target_vocab_size=9))
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert [p for p, _ in loaded.entries] == [p for p, _ in vocab.entries]
        for (_, s0), (_, s1) in zip(vocab.entries, loaded.entries):
            assert s1 == pytest.approx(s0, abs=5e-7)  # 6 decimals in the file

    def test_file_layout(self, tmp_path):
        vocab = _scored_vocab({"a": math.log(0.5), "_a": math.log(0.5)})
        path = tmp_path / "vocab.tsv"
        save_vocab(vocab, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "<pad>\t0.000000"
        assert lines[1] == "<bos>\t0.000000"
        assert lines[2] == "<eos>\t0.000000"
        assert lines[3].split("\t")[0] == "a"
        assert len(lines) == 5

    def test_save_is_byte_deterministic(self, tmp_path):
        corpus = Corpus.from_texts(["ab ab b"])
        vocab = train_unigram(corpus, TrainerConfig(target_vocab_size=6))
        p1, p2 = tmp_path / "v1.tsv", tmp_path / "v2.tsv"
        save_vocab(vocab, p1)
        save_vocab(vocab, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("text", [
        "<pad>\t0.000000\n",                                   # too short
        "<bos>\t0.000000\n<pad>\t0.000000\n<eos>\t0.000000\na\t-1.0\n",
        "<pad>\t0.100000\n<bos>\t0.000000\n<eos>\t0.000000\na\t-1.0\n",
        "<pad>\t0.000000\n<bos>\t0.000000\n<eos>\t0.000000\nno-tab-here\n",
        "<pad>\t0.000000\n<bos>\t0.000000\n<eos>\t0.000000\na\tnot-a-number\n",
        "<pad>\t0.000000\n<bos>\t0.000000\n<eos>\t0.000000\na\t-1.0\na\t-1.0\n",
    ])
    def test_rejects_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(VocabFormatError):
            load_vocab(path)
