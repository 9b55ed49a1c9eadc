"""Region geometry: displacements, sinusoid embedding, fused attention."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from subicap.model.geometry import (
    DISP_EPS,
    EMBED_BASE,
    Region,
    RegionSet,
    displacement,
    displacement_matrix,
    fused_attention,
    positional_embed,
)
from subicap.model.transformer import ModelConfig, _encoder_fwd, init_params


def _region(cx, cy, w, h, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return Region(cx, cy, w, h, rng.normal(size=dim))


class TestRegion:
    def test_rejects_nonpositive_box(self):
        with pytest.raises(ValueError):
            _region(0, 0, 0.0, 1.0)
        with pytest.raises(ValueError):
            _region(0, 0, 1.0, -2.0)

    def test_rejects_matrix_appearance(self):
        with pytest.raises(ValueError):
            Region(0, 0, 1, 1, np.zeros((2, 2)))

    def test_region_set_requires_uniform_width(self):
        a = Region(0, 0, 1, 1, np.zeros(4))
        b = Region(1, 1, 1, 1, np.zeros(5))
        with pytest.raises(ValueError):
            RegionSet([a, b])

    def test_region_set_rejects_empty(self):
        with pytest.raises(ValueError):
            RegionSet([])


class TestDisplacement:
    def test_hand_values(self):
        l = _region(0.0, 0.0, 2.0, 4.0)
        m = _region(1.0, -2.0, 1.0, 8.0)
        got = displacement(l, m)
        assert_allclose(got, [
            math.log(1.0 / 2.0),   # |dx| / w_l
            math.log(2.0 / 4.0),   # |dy| / h_l
            math.log(1.0 / 2.0),   # w ratio
            math.log(8.0 / 4.0),   # h ratio
        ])

    def test_coincident_centers_use_epsilon(self):
        l = _region(0.5, 0.5, 1.0, 1.0)
        got = displacement(l, l)
        assert_allclose(got[:2], math.log(DISP_EPS))
        assert_allclose(got[2:], 0.0)

    def test_not_symmetric(self):
        # normalization is by the source box, so the relation is directed
        l = _region(0.0, 0.0, 1.0, 1.0)
        m = _region(3.0, 0.0, 2.0, 2.0)
        assert not np.allclose(displacement(l, m), displacement(m, l))

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(2)
        regions = RegionSet([
            Region(*rng.uniform(0.2, 3.0, size=4), rng.normal(size=3))
            for _ in range(5)
        ])
        mat = displacement_matrix(regions)
        assert mat.shape == (5, 5, 4)
        for i, l in enumerate(regions.regions):
            for j, m in enumerate(regions.regions):
                assert_allclose(mat[i, j], displacement(l, m), atol=1e-12)


class TestPositionalEmbed:
    def test_hand_table(self):
        """Each component c fills slots [c*dim, (c+1)*dim) with
        sin/cos(x * EMBED_BASE**(-2i/dim)) interleaved."""
        lam = np.array([0.5, -0.2, 0.1, 0.0])
        dim = 4
        got = positional_embed(lam, dim)
        assert got.shape == (16,)
        w = [EMBED_BASE ** (-2.0 * i / dim) for i in range(dim // 2)]
        expected = []
        for x in lam:
            for wi in w:
                expected.extend([math.sin(x * wi), math.cos(x * wi)])
        # interleaving is per component: sin, cos, sin, cos
        assert_allclose(got, expected, atol=1e-15)

    def test_zero_vector_embeds_to_unit_cosines(self):
        got = positional_embed(np.zeros(4), 6)
        assert_allclose(got[0::2], 0.0)
        assert_allclose(got[1::2], 1.0)

    def test_batched_shapes(self):
        lam = np.zeros((3, 5, 4))
        assert positional_embed(lam, 8).shape == (3, 5, 32)

    def test_rejects_odd_or_tiny_dim(self):
        with pytest.raises(ValueError):
            positional_embed(np.zeros(4), 3)
        with pytest.raises(ValueError):
            positional_embed(np.zeros(4), 0)

    def test_rejects_wrong_trailing_dim(self):
        with pytest.raises(ValueError):
            positional_embed(np.zeros(5), 4)

    def test_values_bounded(self):
        rng = np.random.default_rng(0)
        lam = rng.normal(scale=10.0, size=(100, 4))
        out = positional_embed(lam, 16)
        assert np.all(np.abs(out) <= 1.0 + 1e-12)


def _encoder_gates(lam, w_g):
    """The caption encoder's gates, (H, N, N), for displacements lam
    (N, N, 4) projected through a geo.W_G of shape (4 * dim, H)."""
    dim, n_heads = w_g.shape[0] // 4, w_g.shape[1]
    cfg = ModelConfig(vocab_size=4, d_model=2 * n_heads, n_heads=n_heads,
                      d_in=1, geo_embed_dim=dim)
    params = init_params(cfg)
    params["geo.W_G"][...] = w_g
    appearance = np.zeros((1, lam.shape[0], 1))
    _, (_, _, gates, _) = _encoder_fwd(appearance, positional_embed(lam, dim)[None],
                                       None, params, cfg)
    return gates[0]


class TestGeometricWeights:
    def test_zero_projection_gives_zero_gates(self):
        lam = np.random.default_rng(1).normal(size=(6, 6, 4))
        gates = _encoder_gates(lam, np.zeros((4 * 8, 1)))
        assert gates.shape == (1, 6, 6)
        assert np.all(gates == 0.0)

    def test_relu_clamps_negative(self):
        lam = np.zeros((2, 2, 4))  # embeds to (0,1,0,1,...)
        w = np.zeros((4 * 4, 1))
        w[1] = -3.0  # hits a cosine slot, so the projection is -3
        gates = _encoder_gates(lam, w)
        assert np.all(gates == 0.0)

    def test_positive_projection_passes_through(self):
        lam = np.zeros((2, 2, 4))
        w = np.zeros((4 * 4, 1))
        w[1] = 2.0
        assert_allclose(_encoder_gates(lam, w), 2.0)

    def test_per_head_output_shape(self):
        lam = np.random.default_rng(3).normal(size=(5, 5, 4))
        w = np.random.default_rng(4).normal(size=(4 * 8, 3))
        assert _encoder_gates(lam, w).shape == (3, 5, 5)


class TestFusedAttention:
    def test_hand_example(self):
        scores = np.array([[0.0, math.log(2.0)]])
        gates = np.array([[3.0, 1.0]])
        # weights proportional to (3*1, 1*2)
        assert_allclose(fused_attention(scores, gates), [[0.6, 0.4]])

    def test_rows_sum_to_one_in_both_branches(self):
        """1000 random instances, zero-gate rows included."""
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            scores = rng.normal(scale=3.0, size=(n, n))
            gates = np.maximum(rng.normal(size=(n, n)), 0.0)
            if rng.random() < 0.3:
                gates[rng.integers(n)] = 0.0  # force the fallback branch
            fused = fused_attention(scores, gates)
            assert_allclose(fused.sum(axis=-1), 1.0, atol=1e-12)
            assert np.all(fused >= 0.0)

    def test_zero_gate_rows_fall_back_to_softmax(self):
        scores = np.array([[1.0, 2.0, 3.0]])
        gates = np.zeros((1, 3))
        e = np.exp(scores - scores.max())
        assert_allclose(fused_attention(scores, gates), e / e.sum())

    def test_uniform_gates_reduce_to_softmax(self):
        rng = np.random.default_rng(9)
        scores = rng.normal(size=(4, 4))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        softmax = e / e.sum(axis=-1, keepdims=True)
        assert_allclose(fused_attention(scores, 2.5 * np.ones((4, 4))), softmax,
                        atol=1e-12)

    def test_shift_invariance(self):
        # adding a constant per row changes nothing; large scores stay finite
        rng = np.random.default_rng(10)
        scores = rng.normal(size=(3, 5))
        gates = np.maximum(rng.normal(size=(3, 5)), 0.0) + 0.1
        base = fused_attention(scores, gates)
        assert_allclose(fused_attention(scores + 1000.0, gates), base,
                        atol=1e-12)

    def test_zero_gate_removes_a_key(self):
        scores = np.zeros((1, 3))
        gates = np.array([[1.0, 0.0, 1.0]])
        assert_allclose(fused_attention(scores, gates), [[0.5, 0.0, 0.5]])

    def test_rejects_negative_gates(self):
        with pytest.raises(ValueError):
            fused_attention(np.zeros((2, 2)), -np.ones((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fused_attention(np.zeros((2, 2)), np.ones((2, 3)))

    def test_batched_heads(self):
        rng = np.random.default_rng(11)
        scores = rng.normal(size=(2, 4, 4))
        gates = np.maximum(rng.normal(size=(2, 4, 4)), 0.0)
        fused = fused_attention(scores, gates)
        assert fused.shape == (2, 4, 4)
        assert_allclose(fused.sum(axis=-1), 1.0, atol=1e-12)
