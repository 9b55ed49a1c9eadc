"""Release gate: twelve end-to-end checks over the whole toolkit.

Each check prints one verdict line (straight to the console, past pytest's
capture) so a tee'd run shows the scoreboard at a glance. Tolerances and
runtime budgets are pinned in the assertions themselves.
"""

import functools
import itertools
import json
import math
import time

import conftest
import numpy as np
import pytest
from conftest import greedy_reference, model_step, rows_of

from subicap.analysis import measure_tokenizer, param_count
from subicap.baselines import bpe_tokenize, oov_rate, train_bpe, train_word_vocab
from subicap.cli import main
from subicap.corpus import Corpus, bundled_corpus_path, load_corpus
from subicap.model import decoding, synthetic, training, transformer
from subicap.model.decoding import Hypothesis, beam_rows_decode, beam_search
from subicap.model.geometry import Region, RegionSet, fused_attention
from subicap.model.transformer import (
    EOS_ID,
    ModelConfig,
    decoder_forward,
    encoder_forward,
    init_params,
)
from subicap.unigram import (
    SubwordVocab,
    TrainerConfig,
    build_seed_vocab,
    detokenize,
    em_step,
    encode,
    train_unigram,
    viterbi_segment,
)

DESK = dict(d_model=32, n_enc_layers=2, n_dec_layers=2, n_heads=2, d_ff=64,
            d_in=16, geo_embed_dim=8)


def verdict(number, name):
    """One pass/fail line per check, shown inline and on the end-of-run
    scoreboard (the summary survives pytest's output capture)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"[{number:02d}] {name}: FAIL"
                print(line)
                conftest.record_verdict(line)
                raise
            line = f"[{number:02d}] {name}: PASS"
            print(line)
            conftest.record_verdict(line)

        return wrapper

    return deco


@pytest.fixture(scope="session")
def desk_corpus():
    return load_corpus(bundled_corpus_path())


@pytest.fixture(scope="session")
def swept_vocabs(desk_corpus):
    return {k: train_unigram(desk_corpus, TrainerConfig(target_vocab_size=k))
            for k in (300, 500, 1000, 2000)}


@pytest.fixture(scope="session")
def memorized_model():
    """Ten synthetic scenes trained to convergence at desk scale."""
    scenes = synthetic.synthetic_regions(seed=42, n_images=10, d_in=16)
    corpus = Corpus.from_texts([s.caption for s in scenes])
    vocab = train_unigram(corpus, TrainerConfig(target_vocab_size=80))
    batch = [(s.regions, list(encode(s.caption, vocab).ids)) for s in scenes]
    cfg = ModelConfig(vocab_size=vocab.num_tokens, max_seq_len=32, **DESK)
    params = init_params(cfg, seed=0)
    started = time.monotonic()
    training.fit(batch, params, cfg,
                 training.TrainConfig(lr=3e-3, decay_every=500,
                                      decay_factor=0.8),
                 steps=2000)
    elapsed = time.monotonic() - started
    return scenes, vocab, batch, cfg, params, elapsed


@verdict(1, "parameter arithmetic at published scale")
def test_01_parameter_arithmetic():
    started = time.monotonic()
    dims = dict(d_model=512, n_enc_layers=6, n_dec_layers=6, n_heads=8,
                d_ff=2048, d_in=2048, geo_embed_dim=64, max_seq_len=20)
    big = param_count(9486, **dims)
    small = param_count(1085, **dims)
    delta = big.total_params - small.total_params
    assert delta == 8_602_624
    assert abs(delta - 8_600_000) / 8_600_000 < 0.01
    assert big.total_params == 54_894_080
    assert small.total_params == 46_291_456
    assert time.monotonic() - started < 1.0


def _segmenter_vocab_items(seed, alphabet="abc"):
    rng = np.random.default_rng(seed)
    items = {}
    for ch in alphabet:
        items[ch] = float(rng.uniform(-6.0, -1.0))
        items["_" + ch] = float(rng.uniform(-6.0, -1.0))
    multis = ["".join(p) for length in (2, 3, 4)
              for p in itertools.product(alphabet, repeat=length)]
    for i in rng.choice(len(multis), size=12, replace=False):
        piece = multis[int(i)]
        if rng.random() < 0.8:
            items[piece] = float(rng.uniform(-6.0, -0.5))
        if rng.random() < 0.8:
            items["_" + piece] = float(rng.uniform(-6.0, -0.5))
    return items


def _best_split_score(word, items):
    """Max total score over every split of `word`, continuation-marked past
    position 0. Suffix maxima share subproblems; the maximized set is still
    every split (cross-checked literally below)."""
    n = len(word)
    best = [None] * n + [0.0]
    for i in range(n - 1, -1, -1):
        top = -math.inf
        for j in range(i + 1, n + 1):
            piece = word[i:j] if i == 0 else "_" + word[i:j]
            s = items.get(piece)
            if s is not None and best[j] > -math.inf:
                top = max(top, s + best[j])
        best[i] = top
    return best[0]


def _enumerated_score(word, items):
    n = len(word)
    top = -math.inf
    for mask in range(1 << (n - 1)):
        cuts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1] + [n]
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            piece = word[a:b] if a == 0 else "_" + word[a:b]
            s = items.get(piece)
            if s is None:
                break
            total += s
        else:
            top = max(top, total)
    return top


@verdict(2, "segmenter equals exhaustive enumeration")
def test_02_segmenter_matches_enumeration():
    started = time.monotonic()
    words = ["".join(w) for length in range(1, 9)
             for w in itertools.product("abc", repeat=length)]
    assert len(words) == 9840

    # the shared-suffix maximizer is itself validated against a literal
    # walk of all 2^(n-1) splits on the shorter strings
    short = [w for w in words if len(w) <= 5]
    for seed in range(3):
        items = _segmenter_vocab_items(seed)
        for w in short:
            assert abs(_best_split_score(w, items)
                       - _enumerated_score(w, items)) < 1e-12

    worst = 0.0
    for seed in range(20):
        items = _segmenter_vocab_items(seed)
        vocab = SubwordVocab(list(items.items()))
        for w in words:
            got = viterbi_segment(w, vocab).total_score
            worst = max(worst, abs(got - _best_split_score(w, items)))
    assert worst <= 1e-9
    assert time.monotonic() - started < 60.0


@verdict(3, "EM log-likelihood never decreases")
def test_03_em_monotonic(desk_corpus):
    started = time.monotonic()
    assert len(desk_corpus.captions) >= 1000
    vocab = build_seed_vocab(desk_corpus, 20 * 1000)
    lls = []
    for _ in range(15):
        vocab, ll = em_step(desk_corpus, vocab)
        lls.append(ll)
    assert len(lls) == 15
    for before, after in zip(lls, lls[1:]):
        assert after >= before - 1e-6
    assert time.monotonic() - started < 300.0


@verdict(4, "roundtrip lossless at every size, both tokenizers")
def test_04_roundtrip_lossless(desk_corpus, swept_vocabs):
    texts = desk_corpus.texts()
    for k, vocab in swept_vocabs.items():
        assert all(detokenize(encode(t, vocab)) == t for t in texts), k
    for k in (300, 500, 1000, 2000):
        model = train_bpe(desk_corpus, k)
        assert all(detokenize(bpe_tokenize(t, model)) == t for t in texts), k


@verdict(5, "subword coverage complete; word baseline leaks")
def test_05_coverage_and_word_oov(desk_corpus, swept_vocabs):
    vocab = swept_vocabs[500]
    # Every inventory character, the word separator included, must be a piece.
    for ch in desk_corpus.char_inventory:
        assert ch in vocab, ch
    for text in desk_corpus.texts():
        encode(text, vocab)  # must never raise

    held_in = Corpus(list(desk_corpus.captions[:900]))
    held_out = [cap.text for cap in desk_corpus.captions[900:]]
    words = train_word_vocab(held_in, min_freq=5)
    assert oov_rate(held_out, words) > 0.0


@verdict(6, "bigger vocabularies give shorter captions")
def test_06_compactness(desk_corpus, swept_vocabs):
    means = [
        measure_tokenizer(desk_corpus, swept_vocabs[k], k).mean_tokens_per_caption
        for k in (300, 500, 1000, 2000)
    ]
    for before, after in zip(means, means[1:]):
        assert after <= before + 1e-9


@verdict(7, "attention rows normalized, gates nonnegative")
def test_07_attention_invariants():
    rng = np.random.default_rng(123)
    for i in range(1000):
        n_q = int(rng.integers(1, 7))
        n_k = int(rng.integers(1, 7))
        scores = rng.normal(scale=3.0, size=(n_q, n_k))
        mode = i % 3
        if mode == 0:
            gates = rng.uniform(0.0, 2.0, size=(n_q, n_k))
            gates[rng.random(size=(n_q, n_k)) < 0.2] = 0.0
        elif mode == 1:
            gates = np.zeros((n_q, n_k))  # full fallback rows
        else:
            gates = np.full((n_q, n_k), float(rng.uniform(0.1, 3.0)))
        weights = fused_attention(scores, gates)
        np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-6)
        if mode in (1, 2):
            e = np.exp(scores - scores.max(-1, keepdims=True))
            np.testing.assert_allclose(weights, e / e.sum(-1, keepdims=True),
                                       atol=1e-9)

    # the encoder's own gates and attention weights on padded batches: a
    # geo.W_G of both signs, then an all-negative one over nonnegative
    # geometry, which zeroes every gate and forces the fallback rows
    cfg = ModelConfig(vocab_size=50, max_seq_len=12, **DESK)
    params = init_params(cfg, seed=5)
    w_g = params["geo.W_G"]
    assert (w_g > 0).any() and (w_g < 0).any()
    for case in range(21):
        packed = transformer.pack_batch(_desk_batch(rng, cfg, n_items=3), cfg)
        geometry = packed.geometry
        if case == 20:
            w_g[...] = -np.abs(w_g)
            geometry = np.abs(geometry)
        _, (_, _, gates, layers) = transformer._encoder_fwd(
            packed.appearance, geometry, packed.region_mask, params, cfg)
        assert gates.min() >= 0.0
        for c_att, *_ in layers:
            # _attn_fwd's cache: (xq, xkv, qh, kh, vh, p, ctx, scale, gating)
            weights, (_, _, fallback) = c_att[5], c_att[8]
            assert weights.min() >= 0.0
            np.testing.assert_allclose(weights.sum(-1), 1.0, atol=1e-12)
            assert fallback.all() == (case == 20)


def _desk_batch(rng, cfg, n_items=2):
    batch = []
    for _ in range(n_items):
        regions = RegionSet([
            Region(*rng.uniform(0.2, 2.0, size=4), rng.normal(size=cfg.d_in))
            for _ in range(int(rng.integers(2, 5)))
        ])
        ids = list(rng.integers(3, cfg.vocab_size, size=int(rng.integers(3, 7))))
        batch.append((regions, ids))
    return batch


@verdict(8, "analytic gradients match finite differences")
def test_08_gradient_check():
    started = time.monotonic()
    cfg = ModelConfig(vocab_size=50, max_seq_len=12, **DESK)
    rng = np.random.default_rng(7)
    batch = _desk_batch(rng, cfg)
    params = init_params(cfg, seed=3)
    err = training.grad_check(batch, params, cfg, n_coords=50, seed=1,
                              step=1e-5)
    assert err < 1e-4
    assert time.monotonic() - started < 120.0


@verdict(9, "encoder equivariant, decoder causal")
def test_09_equivariance_and_causality():
    cfg = ModelConfig(vocab_size=30, max_seq_len=12, **DESK)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        (regions, ids), = _desk_batch(rng, cfg, n_items=1)

        base = encoder_forward(regions, params, cfg)
        perm = rng.permutation(len(regions))
        permuted = encoder_forward(
            RegionSet([regions.regions[p] for p in perm]), params, cfg)
        assert np.max(np.abs(permuted - base[perm])) <= 1e-6

        q = encoder_forward(regions, params, cfg)
        prefix = [1] + ids
        logits = decoder_forward(q, prefix, params, cfg)
        t = int(rng.integers(0, len(prefix) - 1))
        altered = list(prefix)
        altered[t + 1] = (altered[t + 1] + 1 - 3) % (cfg.vocab_size - 3) + 3
        relogits = decoder_forward(q, altered, params, cfg)
        assert np.array_equal(logits[: t + 1], relogits[: t + 1])
        assert not np.array_equal(logits[t + 1:], relogits[t + 1:])


@verdict(10, "ten-caption memorization and exact reproduction")
def test_10_memorization(memorized_model):
    scenes, vocab, batch, cfg, params, train_seconds = memorized_model
    assert train_seconds < 600.0
    acc = training.next_token_accuracy(batch, params, cfg)
    assert acc >= 0.99
    hits = 0
    for scene in scenes:
        hyp = decoding.caption_regions(scene.regions, params, cfg, beam=1,
                                       max_len=cfg.max_seq_len - 1)
        pieces = [vocab.piece_of_token(t) for t in hyp.token_ids]
        hits += detokenize(pieces) == scene.caption
    assert hits / len(scenes) >= 0.99


def _toy_table_step(table, vocab_size=5):
    def step(prefix):
        out = np.full(vocab_size, -1e9)
        for tok, p in table.get(prefix, {}).items():
            out[tok] = math.log(p)
        return out

    return step


@verdict(11, "beam width 1 is greedy; width 2 finds the optimum")
def test_11_beam_search():
    cfg = ModelConfig(vocab_size=30, max_seq_len=12, **DESK)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        params = init_params(cfg, seed=seed)
        (regions, _), = _desk_batch(rng, cfg, n_items=1)
        q = encoder_forward(regions, params, cfg)
        g = greedy_reference(model_step(q, params, cfg), max_len=6)
        b = beam_search(q, params, cfg, beam=1, max_len=6)
        assert b.token_ids == g.token_ids, seed
        assert b.finished == g.finished
        assert b.logprob == pytest.approx(g.logprob, abs=1e-12)

    # three meaningful tokens: A(3), B(4), <eos>(2). A is the greedy pick
    # but B's cheap continuation makes [B] the true optimum.
    table = {
        (1,): {3: 0.6, 4: 0.4},
        (1, 3): {2: 0.5, 3: 0.25, 4: 0.25},
        (1, 4): {2: 0.9, 3: 0.05, 4: 0.05},
    }
    complete = []

    def walk(prefix, content, logprob, depth):
        if depth == 0:
            complete.append(Hypothesis(tuple(content), logprob, False))
            return
        logp = _toy_table_step(table)(prefix)
        for tok in range(5):
            lp = logprob + float(logp[tok])
            if tok == EOS_ID:
                complete.append(Hypothesis(tuple(content), lp, True))
            else:
                walk(prefix + (tok,), content + [tok], lp, depth - 1)

    walk((1,), [], 0.0, 5)
    optimum = max(complete,
                  key=lambda h: (h.norm_score, -len(h.token_ids), h.token_ids))
    beam = beam_rows_decode(rows_of(_toy_table_step(table)), beam=2, max_len=5)
    greedy = greedy_reference(_toy_table_step(table), max_len=5)
    assert beam_rows_decode(rows_of(_toy_table_step(table)), beam=1, max_len=5) == greedy
    assert beam.token_ids == optimum.token_ids == (4,)
    assert beam.logprob == pytest.approx(optimum.logprob, abs=1e-12)
    assert beam.logprob == pytest.approx(math.log(0.36))
    assert greedy.logprob == pytest.approx(math.log(0.30))
    assert beam.norm_score > greedy.norm_score


@verdict(12, "reruns are byte-identical")
def test_12_determinism(tmp_path):
    captions = tmp_path / "captions.txt"
    scenes = synthetic.synthetic_regions(seed=0, n_images=30)
    captions.write_text(
        "\n".join(f"{s.image_id}\t{s.caption}" for s in scenes) + "\n",
        encoding="utf-8")

    pairs = []
    for run in ("one", "two"):
        vocab = tmp_path / f"vocab_{run}.tsv"
        ckpt = tmp_path / f"model_{run}.ckpt"
        sweep = tmp_path / f"sweep_{run}.json"
        assert main(["train-tokenizer", "--corpus", str(captions),
                     "--vocab-size", "60", "--out", str(vocab)]) == 0
        assert main(["train-lm", "--tokenizer", str(vocab), "--out", str(ckpt),
                     "--steps", "5", "--images", "4", "--d-model", "16",
                     "--d-ff", "32", "--max-len", "24"]) == 0
        assert main(["sweep", "--corpus", str(captions), "--vocab-size", "45",
                     "--vocab-size", "60", "--out", str(sweep)]) == 0
        pairs.append((vocab.read_bytes(), ckpt.read_bytes(),
                      sweep.read_bytes(),
                      (tmp_path / f"sweep_{run}.txt").read_bytes()))
    assert pairs[0] == pairs[1]

    # manifests may differ only in their timing fields
    for name in ("vocab", "model", "sweep"):
        suffix = {"vocab": ".tsv", "model": ".ckpt", "sweep": ".json"}[name]
        manifests = []
        for run in ("one", "two"):
            raw = (tmp_path / f"{name}_{run}{suffix}.manifest.json").read_text()
            m = json.loads(raw)
            m.pop("timestamp_utc")
            m.pop("duration_s")
            for key in ("out", "tokenizer"):
                m["arguments"].pop(key, None)
            m.pop("outputs")
            m.pop("inputs")
            manifests.append(m)
        assert manifests[0] == manifests[1]
