"""Caption transformer: shapes, forward oracle, causality, checkpoints.

The forward pass is checked against a from-scratch reimplementation that
uses explicit per-row, per-head Python loops instead of batched matmuls.
Both run in float64, so they must agree to near machine precision.
"""

import math

import conftest
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from subicap.errors import CheckpointError
from subicap.model.geometry import Region, RegionSet, displacement, positional_embed
from subicap.model.transformer import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    decoder_forward,
    encoder_forward,
    flatten,
    frame_sequence,
    init_params,
    load_checkpoint,
    loss_and_grads,
    loss_only,
    num_params,
    pack_batch,
    param_shapes,
    save_checkpoint,
    sinusoid_positions,
    target_logits,
    unflatten,
)

CFG = ModelConfig(vocab_size=12, d_model=8, n_enc_layers=2, n_dec_layers=2,
                  n_heads=2, d_ff=16, d_in=5, geo_embed_dim=4, max_seq_len=10)


def _paper_scale(vocab_size):
    """The full-size configuration the desk defaults are scaled down from."""
    return ModelConfig(vocab_size=vocab_size, d_model=512, n_enc_layers=6,
                       n_dec_layers=6, n_heads=8, d_ff=2048, d_in=2048,
                       geo_embed_dim=64, max_seq_len=20)


def _random_regions(rng, n, d_in=5):
    return RegionSet([
        Region(*rng.uniform(0.2, 2.0, size=4), rng.normal(size=d_in))
        for _ in range(n)
    ])


# ---------------------------------------------------------------------------
# loop-based reference implementation


def _ln_rows(x, g, b):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        mu = float(x[i].mean())
        var = float(((x[i] - mu) ** 2).mean())
        out[i] = g * (x[i] - mu) / math.sqrt(var + 1e-5) + b
    return out


def _attn_rows(xq, xkv, params, prefix, n_heads, gates=None, causal=False):
    d = xq.shape[1]
    dh = d // n_heads
    q = xq @ params[f"{prefix}.Wq"] + params[f"{prefix}.bq"]
    k = xkv @ params[f"{prefix}.Wk"]
    v = xkv @ params[f"{prefix}.Wv"] + params[f"{prefix}.bv"]
    ctx = np.zeros((xq.shape[0], d))
    for h in range(n_heads):
        qs = q[:, h * dh:(h + 1) * dh]
        ks = k[:, h * dh:(h + 1) * dh]
        vs = v[:, h * dh:(h + 1) * dh]
        for i in range(xq.shape[0]):
            scores = np.array([
                float(qs[i] @ ks[j]) / math.sqrt(dh)
                for j in range(xkv.shape[0])
            ])
            if causal:
                scores[i + 1:] = -np.inf
            e = np.exp(scores - scores.max())
            if gates is not None:
                ge = gates[h, i] * e
                p = e / e.sum() if ge.sum() == 0.0 else ge / ge.sum()
            else:
                p = e / e.sum()
            ctx[i, h * dh:(h + 1) * dh] = p @ vs
    return ctx @ params[f"{prefix}.Wo"] + params[f"{prefix}.bo"]


def _ffn_rows(x, params, prefix):
    h = np.maximum(x @ params[f"{prefix}.W1"] + params[f"{prefix}.b1"], 0.0)
    return h @ params[f"{prefix}.W2"] + params[f"{prefix}.b2"]


def _positions_rows(t, d):
    out = np.empty((t, d))
    for p in range(t):
        for i in range(d // 2):
            w = 10000.0 ** (-2.0 * i / d)
            out[p, 2 * i] = math.sin(p * w)
            out[p, 2 * i + 1] = math.cos(p * w)
    return out


def oracle_logits(regions, ids, params, cfg):
    """Reference forward, organized around scalar loops."""
    x = regions.appearance @ params["appear.W"] + params["appear.b"]
    n = len(regions)
    gates = np.zeros((cfg.n_heads, n, n))
    for l in range(n):
        for m in range(n):
            lam = displacement(regions.regions[l], regions.regions[m])
            emb = positional_embed(lam, cfg.geo_embed_dim)
            gates[:, l, m] = np.maximum(emb @ params["geo.W_G"], 0.0)
    for i in range(cfg.n_enc_layers):
        att = _attn_rows(x, x, params, f"enc{i}.attn", cfg.n_heads, gates=gates)
        h1 = _ln_rows(x + att, params[f"enc{i}.ln1.g"], params[f"enc{i}.ln1.b"])
        ff = _ffn_rows(h1, params, f"enc{i}.ffn")
        x = _ln_rows(h1 + ff, params[f"enc{i}.ln2.g"], params[f"enc{i}.ln2.b"])
    memory = x

    t = len(ids)
    x = params["embed.W"][list(ids)] * math.sqrt(cfg.d_model) + _positions_rows(
        t, cfg.d_model
    )
    for i in range(cfg.n_dec_layers):
        s = _attn_rows(x, x, params, f"dec{i}.self", cfg.n_heads, causal=True)
        h1 = _ln_rows(x + s, params[f"dec{i}.ln1.g"], params[f"dec{i}.ln1.b"])
        cr = _attn_rows(h1, memory, params, f"dec{i}.cross", cfg.n_heads)
        h2 = _ln_rows(h1 + cr, params[f"dec{i}.ln2.g"], params[f"dec{i}.ln2.b"])
        ff = _ffn_rows(h2, params, f"dec{i}.ffn")
        x = _ln_rows(h2 + ff, params[f"dec{i}.ln3.g"], params[f"dec{i}.ln3.b"])
    return x @ params["out.W"]


class TestModelConfig:
    def test_d_head(self):
        assert CFG.d_head == 4

    @pytest.mark.parametrize("kwargs", [
        {"vocab_size": 3},
        {"vocab_size": 12, "d_model": 10, "n_heads": 4},  # not divisible
        {"vocab_size": 12, "d_model": 9, "n_heads": 3},   # odd d_model
        {"vocab_size": 12, "geo_embed_dim": 3},
        {"vocab_size": 12, "n_enc_layers": 0},
    ])
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)

    def test_paper_scale_dimensions(self):
        cfg = _paper_scale(9486)
        assert (cfg.d_model, cfg.n_heads, cfg.d_ff) == (512, 8, 2048)
        assert cfg.n_enc_layers == cfg.n_dec_layers == 6


class TestParamCounts:
    def test_published_totals(self):
        assert num_params(_paper_scale(9486)) == 54_894_080
        assert num_params(_paper_scale(1085)) == 46_291_456

    def test_vocab_delta_is_embed_plus_head(self):
        big = num_params(_paper_scale(9486))
        small = num_params(_paper_scale(1085))
        assert big - small == 8_602_624
        assert big - small == 2 * (9486 - 1085) * 512

    def test_only_embed_and_head_depend_on_vocab(self):
        a = dict(param_shapes(_paper_scale(9486)))
        b = dict(param_shapes(_paper_scale(1085)))
        assert set(a) == set(b)
        differing = {n for n in a if a[n] != b[n]}
        assert differing == {"embed.W", "out.W"}

    def test_attention_has_no_key_bias(self):
        names = {n for n, _ in param_shapes(CFG)}
        assert "enc0.attn.bq" in names
        assert "enc0.attn.bk" not in names
        assert "dec0.self.bk" not in names

    def test_num_params_matches_shape_sum(self):
        total = sum(int(np.prod(s)) for _, s in param_shapes(CFG))
        assert num_params(CFG) == total


class TestInitParams:
    def test_layer_norm_gains_and_biases(self):
        params = init_params(CFG, seed=0)
        assert np.all(params["enc0.ln1.g"] == 1.0)
        assert np.all(params["dec1.ffn.b1"] == 0.0)
        assert np.all(params["enc0.attn.bq"] == 0.0)

    def test_deterministic_per_seed(self):
        a = init_params(CFG, seed=7)
        b = init_params(CFG, seed=7)
        c = init_params(CFG, seed=8)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_shapes_match_table(self):
        params = init_params(CFG, seed=0)
        for name, shape in param_shapes(CFG):
            assert params[name].shape == shape


class TestSinusoidPositions:
    def test_hand_table(self):
        got = sinusoid_positions(3, 4)
        for p in range(3):
            for i in range(2):
                w = 10000.0 ** (-2.0 * i / 4)
                assert got[p, 2 * i] == pytest.approx(math.sin(p * w))
                assert got[p, 2 * i + 1] == pytest.approx(math.cos(p * w))

    def test_position_zero_is_unit_cosines(self):
        got = sinusoid_positions(1, 8)
        assert_allclose(got[0, 0::2], 0.0)
        assert_allclose(got[0, 1::2], 1.0)


class TestForwardOracle:
    def test_matches_loop_reference(self):
        """Batched implementation vs scalar loops, 10 random instances."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            regions = _random_regions(rng, int(rng.integers(2, 5)))
            ids = [BOS_ID] + list(rng.integers(3, 12, size=5))
            q = encoder_forward(regions, params, CFG)
            got = decoder_forward(q, ids, params, CFG)
            want = oracle_logits(regions, ids, params, CFG)
            assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_logit_shape(self):
        rng = np.random.default_rng(0)
        params = init_params(CFG, seed=0)
        q = encoder_forward(_random_regions(rng, 3), params, CFG)
        assert decoder_forward(q, [BOS_ID, 5], params, CFG).shape == (2, 12)

    def test_rejects_wrong_appearance_width(self):
        rng = np.random.default_rng(0)
        params = init_params(CFG, seed=0)
        with pytest.raises(ValueError):
            encoder_forward(_random_regions(rng, 3, d_in=7), params, CFG)

    def test_rejects_empty_and_overlong_sequences(self):
        rng = np.random.default_rng(0)
        params = init_params(CFG, seed=0)
        q = encoder_forward(_random_regions(rng, 3), params, CFG)
        with pytest.raises(ValueError):
            decoder_forward(q, [], params, CFG)
        with pytest.raises(ValueError):
            decoder_forward(q, [BOS_ID] * (CFG.max_seq_len + 1), params, CFG)


class TestPermutationEquivariance:
    def test_encoder_commutes_with_region_order(self):
        """No positional encoding on regions: reordering the input reorders
        the output rows and changes nothing else."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_params(CFG, seed=seed)
            regions = _random_regions(rng, 4)
            perm = rng.permutation(4)
            permuted = RegionSet([regions.regions[j] for j in perm])
            base = encoder_forward(regions, params, CFG)
            got = encoder_forward(permuted, params, CFG)
            assert_allclose(got, base[perm], rtol=1e-9, atol=1e-9)

    def test_decoder_ignores_region_order(self):
        rng = np.random.default_rng(1)
        params = init_params(CFG, seed=1)
        regions = _random_regions(rng, 4)
        perm = rng.permutation(4)
        permuted = RegionSet([regions.regions[j] for j in perm])
        ids = [BOS_ID, 4, 7, 5]
        a = decoder_forward(encoder_forward(regions, params, CFG), ids, params, CFG)
        b = decoder_forward(encoder_forward(permuted, params, CFG), ids, params, CFG)
        assert_allclose(a, b, rtol=1e-9, atol=1e-9)


class TestCausality:
    def test_later_tokens_leave_earlier_logits_bitwise_unchanged(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            params = init_params(CFG, seed=seed)
            regions = _random_regions(rng, 3)
            q = encoder_forward(regions, params, CFG)
            ids = list(rng.integers(3, 12, size=7))
            base = decoder_forward(q, ids, params, CFG)
            t = int(rng.integers(0, 6))
            alt = list(ids)
            pos = int(rng.integers(t + 1, 7))
            alt[pos] = 3 + (alt[pos] - 3 + 1) % 9
            got = decoder_forward(q, alt, params, CFG)
            assert np.array_equal(got[: t + 1], base[: t + 1])
            assert not np.array_equal(got, base)  # later rows must move


class TestLoss:
    def _batch(self, rng, n_items=2):
        params = init_params(CFG, seed=0)
        batch = [
            (_random_regions(rng, 3), list(rng.integers(3, 12, size=4)))
            for _ in range(n_items)
        ]
        return batch, params

    def test_frame_sequence(self):
        inputs, targets = frame_sequence([5, 6, 7])
        assert inputs == [BOS_ID, 5, 6, 7]
        assert targets == [5, 6, 7, EOS_ID]

    def test_loss_only_matches_loss_and_grads(self):
        rng = np.random.default_rng(3)
        batch, params = self._batch(rng)
        loss, _ = loss_and_grads(batch, params, CFG)
        assert loss_only(batch, params, CFG) == pytest.approx(loss, rel=1e-12)

    def test_rejects_empty_batch(self):
        params = init_params(CFG, seed=0)
        with pytest.raises(ValueError, match="empty batch"):
            loss_and_grads([], params, CFG)

    def test_rejects_empty_sequence_with_item_index(self):
        rng = np.random.default_rng(3)
        batch, params = self._batch(rng)
        batch.append((batch[0][0], []))
        with pytest.raises(ValueError, match="item 2"):
            loss_and_grads(batch, params, CFG)

    def test_grads_cover_every_parameter(self):
        rng = np.random.default_rng(4)
        batch, params = self._batch(rng)
        _, grads = loss_and_grads(batch, params, CFG)
        for name, shape in param_shapes(CFG):
            assert grads[name].shape == shape
        # at init nothing should be exactly dead except by coincidence
        nonzero = sum(np.any(grads[n] != 0.0) for n, _ in param_shapes(CFG))
        assert nonzero == len(param_shapes(CFG))

    def test_loss_is_mean_over_all_targets(self):
        # duplicating the single batch item leaves the mean unchanged
        rng = np.random.default_rng(5)
        (item,), params = self._batch(rng, n_items=1)
        one = loss_only([item], params, CFG)
        two = loss_only([item, item], params, CFG)
        assert two == pytest.approx(one, rel=1e-12)


def _ragged_batch(rng, n_items=4):
    """2-4 regions and 3-7 pieces per item, with at least two region counts."""
    while True:
        batch = [
            (_random_regions(rng, int(rng.integers(2, 5))),
             list(rng.integers(3, 12, size=int(rng.integers(3, 8)))))
            for _ in range(n_items)
        ]
        if len({len(regions) for regions, _ in batch}) > 1:
            return batch


class TestBatchedPath:
    """One padded pass over the batch against one pass per item."""

    def test_loss_and_grads_are_the_target_weighted_item_means(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            batch = _ragged_batch(rng)
            params = init_params(CFG, seed=seed)
            loss, grads = loss_and_grads(batch, params, CFG)
            weights = [len(ids) + 1 for _, ids in batch]
            items = [loss_and_grads([item], params, CFG) for item in batch]
            want = sum(w * l for w, (l, _) in zip(weights, items)) / sum(weights)
            assert loss == pytest.approx(want, rel=1e-12)
            for name, _ in param_shapes(CFG):
                g = sum(w * gs[name] for w, (_, gs) in zip(weights, items)) / sum(weights)
                assert np.max(np.abs(grads[name] - g)) <= 1e-10 * np.max(np.abs(g))

    def test_padding_leaves_real_rows_unchanged_with_zero_gate_fallback(self):
        rng = np.random.default_rng(11)
        batch = _ragged_batch(rng)
        params = init_params(CFG, seed=11)
        # the image with the fewest regions is padded; zero geometry makes
        # every one of its gates zero, so its attention falls back to a
        # plain softmax, which must still ignore the padded regions
        k = min(range(len(batch)), key=lambda j: len(batch[j][0]))
        packed = pack_batch(batch, CFG)
        assert packed.region_mask is not None
        packed.geometry[k] = 0.0
        logits, targets = target_logits(packed, params, CFG)
        start = 0
        for j, item in enumerate(batch):
            single = pack_batch([item], CFG)
            assert single.region_mask is None
            if j == k:
                gated, _ = target_logits(single, params, CFG)
                single.geometry[...] = 0.0
            want, want_targets = target_logits(single, params, CFG)
            got = logits[start : start + len(want)]
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            assert np.array_equal(targets[start : start + len(want)], want_targets)
            if j == k:
                assert not np.allclose(got, gated)  # the fallback really acted
            start += len(want)
        assert start == len(logits)

    def test_decoder_forward_is_the_one_item_case(self):
        rng = np.random.default_rng(2)
        batch = _ragged_batch(rng)
        params = init_params(CFG, seed=2)
        logits, _ = target_logits(batch, params, CFG)
        start = 0
        for regions, ids in batch:
            q = encoder_forward(regions, params, CFG)
            want = decoder_forward(q, frame_sequence(ids)[0], params, CFG)
            assert_allclose(logits[start : start + len(want)], want,
                            rtol=1e-12, atol=1e-12)
            start += len(want)

    def test_rejects_caption_longer_than_max_seq_len_with_item_index(self):
        rng = np.random.default_rng(0)
        batch = [(_random_regions(rng, 2), [3] * 4),
                 (_random_regions(rng, 2), [3] * CFG.max_seq_len)]
        with pytest.raises(ValueError, match="item 1"):
            pack_batch(batch, CFG)


class TestFlatParameters:
    def test_init_and_load_give_views_of_one_vector(self, tmp_path):
        params = init_params(CFG, seed=0)
        flat = flatten(params, CFG)
        assert flat.shape == (num_params(CFG),)
        flat[0] = 42.0
        assert params["appear.W"][0, 0] == 42.0
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        loaded, _ = load_checkpoint(path)
        loaded_flat = flatten(loaded, CFG)
        assert np.array_equal(loaded_flat, flat)
        assert loaded_flat.flags.writeable

    def test_gradients_are_views_of_one_vector(self):
        rng = np.random.default_rng(0)
        batch = [(_random_regions(rng, 2), [3, 4])]
        _, grads = loss_and_grads(batch, init_params(CFG, seed=0), CFG)
        flat = flatten(grads, CFG)
        flat[-1] = 42.0
        assert grads["out.W"][-1, -1] == 42.0

    def test_separate_copies_are_rejected(self):
        params = {k: v.copy() for k, v in init_params(CFG, seed=0).items()}
        with pytest.raises(ValueError, match="views"):
            flatten(params, CFG)


# float64 bit patterns a random draw rarely hits: -0.0, the smallest
# subnormal, both infinities, a quiet nan with a payload, a signalling nan
SPECIAL_BITS = (0x8000000000000000, 0x0000000000000001, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FF8000000000123, 0x7FF0000000000001)


@st.composite
def model_and_params(draw):
    """A small config and parameters of any float64 bits: random patterns
    (nan and inf among them), with some of SPECIAL_BITS put in."""
    heads = draw(st.integers(1, 2))
    cfg = ModelConfig(
        vocab_size=draw(st.integers(4, 9)), d_model=2 * heads * draw(st.integers(1, 2)),
        n_enc_layers=draw(st.integers(1, 2)), n_dec_layers=draw(st.integers(1, 2)),
        n_heads=heads, d_ff=draw(st.integers(1, 4)), d_in=draw(st.integers(1, 4)),
        geo_embed_dim=2 * draw(st.integers(1, 2)), max_seq_len=draw(st.integers(1, 6)))
    n = num_params(cfg)
    bits = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        0, 2**64, n, dtype=np.uint64, endpoint=False)
    for i, special in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                              st.sampled_from(SPECIAL_BITS)), max_size=8)):
        bits[i] = special
    return cfg, unflatten(bits.view(np.float64).copy(), cfg)


class TestCheckpoint:
    @given(case=model_and_params())
    @settings(max_examples=75, deadline=None, derandomize=True)
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, case):
        cfg, params = case
        d = tmp_path_factory.mktemp("ckpt")
        save_checkpoint(d / "one.ckpt", params, cfg)
        loaded, loaded_cfg = load_checkpoint(d / "one.ckpt")
        save_checkpoint(d / "two.ckpt", loaded, loaded_cfg)
        assert (d / "one.ckpt").read_bytes() == (d / "two.ckpt").read_bytes()
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for name, tensor in params.items():
            assert loaded[name].shape == tensor.shape
            assert loaded[name].tobytes() == tensor.tobytes()

    def test_roundtrip_bitwise(self, tmp_path):
        params = init_params(CFG, seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        loaded, cfg = load_checkpoint(path)
        assert cfg == CFG
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], params[name])

    def test_save_is_byte_deterministic(self, tmp_path):
        params = init_params(CFG, seed=3)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, CFG)
        save_checkpoint(p2, params, CFG)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_missing_tensor_on_save(self, tmp_path):
        params = init_params(CFG, seed=0)
        del params["appear.W"]
        with pytest.raises(CheckpointError, match="appear.W"):
            save_checkpoint(tmp_path / "bad.ckpt", params, CFG)
        assert not (tmp_path / "bad.ckpt").exists()

    def test_rejects_wrong_shape_on_save(self, tmp_path):
        params = init_params(CFG, seed=0)
        params["out.W"] = np.zeros((2, 2))
        with pytest.raises(CheckpointError):
            save_checkpoint(tmp_path / "bad.ckpt", params, CFG)

    def test_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x08\x00\x00\x00notjson!")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        params = init_params(CFG, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_rejects_trailing_bytes(self, tmp_path):
        params = init_params(CFG, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, CFG)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_rejects_tiny_file(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        path.write_bytes(b"\x01")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


HEADER_EDITS = {
    "missing config": lambda h: h.pop("config"),
    "unknown config key": lambda h: h["config"].update(dropout=0),
    "string d_model": lambda h: h["config"].update(d_model="8"),
    "unknown version": lambda h: h.update(version=2),
    "tensor table": lambda h: h["tensors"].pop(),
}


@pytest.mark.parametrize("case", sorted(HEADER_EDITS))
def test_load_checkpoint_validates_header(tmp_path, case):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(CFG, seed=0), CFG)
    conftest.edit_checkpoint_header(path, HEADER_EDITS[case])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
