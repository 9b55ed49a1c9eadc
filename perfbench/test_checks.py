"""The benchmark's own checks: each accepts today's outputs and rejects a
planted wrong one. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import corpus_gen  # noqa: E402
from subicap import bundled_corpus_path, load_corpus, unigram  # noqa: E402
from subicap.model import decoding, synthetic, transformer  # noqa: E402


@pytest.fixture(scope="module")
def vocab_file(tmp_path_factory):
    corpus = load_corpus(bundled_corpus_path())
    vocab = unigram.train_unigram(corpus, unigram.TrainerConfig(target_vocab_size=300))
    path = tmp_path_factory.mktemp("vocab") / "vocab.tsv"
    unigram.save_vocab(vocab, path)
    words = {w for cap in corpus.captions for w in cap.text.split()}
    return path, vocab, words


@pytest.fixture(scope="module")
def encoded(vocab_file):
    _, vocab, _ = vocab_file
    corpus = load_corpus(bundled_corpus_path())
    inputs = [cap.text for cap in corpus.captions[:200]]
    outputs = [" ".join(unigram.encode(t, vocab).pieces) for t in inputs]
    return inputs, outputs


def test_vocab_check_accepts_trained_vocab(vocab_file):
    path, _, words = vocab_file
    pieces, scores = checks.read_vocab(path)
    assert checks.check_vocab(pieces, scores, 300, words) == []


def test_vocab_check_rejects_scores_off_the_simplex(vocab_file):
    path, _, words = vocab_file
    pieces, scores = checks.read_vocab(path)
    scores[3] += 1e-3
    assert any("sum to" in p for p in checks.check_vocab(pieces, scores, 300, words))


def test_vocab_check_rejects_wrong_size_and_lost_coverage(vocab_file):
    path, _, words = vocab_file
    pieces, scores = checks.read_vocab(path)
    assert checks.check_vocab(pieces, scores, 301, words)
    single = next(i for i, p in enumerate(pieces) if len(p) == 1 and i >= 3)
    pieces[single] = "zzzz"
    assert any("uncovered" in p for p in checks.check_vocab(pieces, scores, 300, words))


def test_encode_check_accepts_program_output(vocab_file, encoded):
    path, _, _ = vocab_file
    seg = checks.Segmenter(*checks.read_vocab(path))
    assert checks.check_encoded(*encoded, seg) == []


def _multi_piece_line(outputs):
    return next(k for k, line in enumerate(outputs) if any(checks.is_continuation(p) for p in line.split()))


def test_encode_check_rejects_swapped_pieces(vocab_file, encoded):
    path, _, _ = vocab_file
    seg = checks.Segmenter(*checks.read_vocab(path))
    inputs, outputs = encoded
    k = _multi_piece_line(outputs)
    pieces = outputs[k].split()
    j = next(i for i, p in enumerate(pieces) if checks.is_continuation(p))
    pieces[j - 1], pieces[j] = pieces[j], pieces[j - 1]
    planted = outputs[:k] + [" ".join(pieces)] + outputs[k + 1:]
    assert checks.check_encoded(inputs, planted, seg)


def test_encode_check_rejects_a_worse_segmentation(vocab_file, encoded):
    """Same text, valid pieces, but not the optimum: only the score catches it."""
    path, _, _ = vocab_file
    seg = checks.Segmenter(*checks.read_vocab(path))
    inputs, outputs = encoded
    words = checks.normalize(inputs[0]).split()
    singles = [p for w in words for p in [w[0]] + ["_" + ch for ch in w[1:]]]
    assert checks.detokenize(singles) == checks.normalize(inputs[0])
    problems = checks.check_encoded(inputs[:1], [" ".join(singles)], seg)
    assert problems and "optimum" in problems[0]


@pytest.fixture(scope="module")
def model(vocab_file):
    _, vocab, _ = vocab_file
    cfg = transformer.ModelConfig(vocab_size=vocab.num_tokens, d_model=16, n_enc_layers=1,
                                  n_dec_layers=1, n_heads=2, d_ff=32)
    params = transformer.init_params(cfg, seed=3)
    scenes = synthetic.synthetic_regions(3, 3, d_in=cfg.d_in)
    batch = [(s.regions, list(unigram.encode(s.caption, vocab).ids)) for s in scenes]
    return cfg, params, scenes, batch


def test_hypothesis_check_accepts_and_rejects_perturbed_logprob(vocab_file, model):
    path, _, _ = vocab_file
    pieces, _ = checks.read_vocab(path)
    cfg, params, scenes, _ = model
    q = transformer.encoder_forward(scenes[0].regions, params, cfg)
    for beam in (1, 2):
        hyp = decoding.caption_regions(scenes[0].regions, params, cfg, beam=beam,
                                       max_len=cfg.max_seq_len - 1)
        logp, targets = checks.sequence_logprobs(q, hyp.token_ids, hyp.finished, params, cfg)
        assert checks.check_hypothesis(hyp, logp, targets, False, pieces) == []
        planted = decoding.Hypothesis(hyp.token_ids, hyp.logprob + 1e-6, hyp.finished)
        assert checks.check_hypothesis(planted, logp, targets, False, pieces)


def test_greedy_check_rejects_a_non_best_token(vocab_file, model):
    path, _, _ = vocab_file
    pieces, _ = checks.read_vocab(path)
    cfg, params, scenes, _ = model
    q = transformer.encoder_forward(scenes[0].regions, params, cfg)
    ids = (pieces.index("a"), pieces.index("cat"))
    logp, targets = checks.sequence_logprobs(q, ids, False, params, cfg)
    worst = int(np.argmin(logp[0]))
    ids = (worst,) + ids[1:]
    logp, targets = checks.sequence_logprobs(q, ids, False, params, cfg)
    hyp = decoding.Hypothesis(ids, float(sum(logp[t, x] for t, x in enumerate(targets))), False)
    assert checks.check_hypothesis(hyp, logp, targets, False, pieces) == []
    assert any("greedy" in p for p in checks.check_hypothesis(hyp, logp, targets, True, pieces))


def test_gradient_check_accepts_and_rejects_a_flipped_sign(model):
    cfg, params, _, batch = model
    params = {k: v.copy() for k, v in params.items()}
    _, grads = transformer.loss_and_grads(batch, params, cfg)

    def loss(p):
        return checks.mean_cross_entropy(batch, p, cfg)

    coords = checks.sample_coordinates(params, 12, seed=0)
    assert checks.check_gradient(loss, params, grads, coords) == []
    name, flat = max(coords, key=lambda c: abs(grads[c[0]].reshape(-1)[c[1]]))
    grads[name].reshape(-1)[flat] *= -1.0
    assert len(checks.check_gradient(loss, params, grads, coords)) == 1


def test_gradient_check_retries_a_step_that_straddles_a_kink():
    params = {"w": np.array([5e-6])}  # within the first step of the ReLU kink at 0

    def loss(p):
        return float(np.maximum(p["w"], 0.0).sum() + p["w"].sum())

    coords = [("w", 0)]
    assert checks.check_gradient(loss, params, {"w": np.array([2.0])}, coords) == []
    assert checks.check_gradient(loss, params, {"w": np.array([-2.0])}, coords)


def test_validity_flags_control_tokens_and_leading_continuations(vocab_file):
    path, _, _ = vocab_file
    pieces, _ = checks.read_vocab(path)
    cont = next(i for i, p in enumerate(pieces) if checks.is_continuation(p))
    word = pieces.index("cat")
    assert checks.hypothesis_is_valid((word, cont), pieces)
    assert not checks.hypothesis_is_valid((word, checks.BOS_ID), pieces)
    assert not checks.hypothesis_is_valid((checks.PAD_ID,), pieces)
    assert not checks.hypothesis_is_valid((cont, word), pieces)


def test_logged_losses_reads_step_and_final_lines():
    log = ("INFO subicap.train: step=0 loss=5.700000\n"
           "INFO subicap.train: step=1 loss=nan\n"
           "INFO subicap.cli: final loss 0.500000 after 2 steps -> m.ckpt\n")
    losses = checks.logged_losses(log)
    assert losses[0] == 5.7 and losses[2] == 0.5 and np.isnan(losses[1])


def test_corpus_generator_is_byte_identical_for_one_seed():
    train_a, held_a = corpus_gen.generate(11, 500)
    train_b, held_b = corpus_gen.generate(11, 500)
    assert corpus_gen.corpus_text(train_a).encode() == corpus_gen.corpus_text(train_b).encode()
    assert held_a == held_b
    assert corpus_gen.generate(12, 500)[0] != train_a


def test_corpus_generator_shape():
    train, held = corpus_gen.generate(5, 500)
    words = [w for c in train for w in c.split()]
    assert len(set(words)) == corpus_gen.N_TRAIN_WORDS
    assert all(c.isascii() and c == c.lower() for c in train + held)
    lo, hi = corpus_gen.CAPTION_WORDS
    assert all(len(c.split()) <= hi for c in train + held)
    assert len(held) == 500
    both = {w[0] for w in words} & {ch for w in words for ch in w[1:]}
    unseen = {w for c in held for w in c.split()} - set(words)
    assert unseen and all(set(w) <= both for w in unseen)
