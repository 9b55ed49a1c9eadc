"""Region geometry: boxes, pairwise displacement features, fused attention.

A region is a center-format box (cx, cy, w, h) with an appearance feature
vector. The displacement between regions l and m is the 4-vector

    ( log(max(|cx_m - cx_l|, eps) / w_l),
      log(max(|cy_m - cy_l|, eps) / h_l),
      log(w_m / w_l),
      log(h_m / h_l) )

embedded with interleaved sin/cos at geometrically spaced wavelengths and
projected per attention head through a learned matrix, ReLU-clamped. The
fused attention weight of head scores A and geometric gates G is

    w_k = G_k * exp(A_k) / sum_j G_j * exp(A_j)

with a plain softmax fallback for rows whose gates are all zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DISP_EPS = 1e-3
EMBED_BASE = 1000.0
N_DISP_FEATURES = 4


@dataclass(frozen=True)
class Region:
    cx: float
    cy: float
    w: float
    h: float
    appearance: np.ndarray

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box must have positive size, got w={self.w} h={self.h}")
        appearance = np.asarray(self.appearance, dtype=np.float64)
        if appearance.ndim != 1:
            raise ValueError("appearance must be a 1-D feature vector")
        object.__setattr__(self, "appearance", appearance)


class RegionSet:
    """One image worth of regions; immutable, uniform appearance width."""

    __slots__ = ("regions", "boxes", "appearance")

    def __init__(self, regions: Sequence[Region]):
        regions = tuple(regions)
        if not regions:
            raise ValueError("a region set needs at least one region")
        dims = {r.appearance.shape[0] for r in regions}
        if len(dims) != 1:
            raise ValueError(f"appearance widths differ: {sorted(dims)}")
        self.regions = regions
        self.boxes = np.array(
            [[r.cx, r.cy, r.w, r.h] for r in regions], dtype=np.float64
        )
        self.appearance = np.stack([r.appearance for r in regions])

    def __len__(self) -> int:
        return len(self.regions)


def displacement(l: Region, m: Region) -> np.ndarray:
    """Scale-normalized log displacement of m relative to l."""
    return np.array(
        [
            np.log(max(abs(m.cx - l.cx), DISP_EPS) / l.w),
            np.log(max(abs(m.cy - l.cy), DISP_EPS) / l.h),
            np.log(m.w / l.w),
            np.log(m.h / l.h),
        ]
    )


def displacement_matrix(regions: RegionSet) -> np.ndarray:
    """(N, N, 4) with entry [l, m] = displacement(regions[l], regions[m])."""
    b = regions.boxes
    cx, cy, w, h = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    dx = np.maximum(np.abs(cx[None, :] - cx[:, None]), DISP_EPS)
    dy = np.maximum(np.abs(cy[None, :] - cy[:, None]), DISP_EPS)
    return np.stack(
        [
            np.log(dx / w[:, None]),
            np.log(dy / h[:, None]),
            np.log(w[None, :] / w[:, None]),
            np.log(h[None, :] / h[:, None]),
        ],
        axis=-1,
    )


def positional_embed(lam: np.ndarray, dim: int) -> np.ndarray:
    """Sin/cos features per displacement component.

    Input (..., 4) -> output (..., 4*dim). Component c fills slots
    [c*dim, (c+1)*dim) with interleaved sin(x*w_i), cos(x*w_i) where
    w_i = EMBED_BASE**(-2i/dim). A zero vector therefore embeds to
    (0, 1, 0, 1, ...).
    """
    if dim < 2 or dim % 2:
        raise ValueError(f"embedding dim must be even and >= 2, got {dim}")
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape[-1] != N_DISP_FEATURES:
        raise ValueError(f"expected trailing dim {N_DISP_FEATURES}, got {lam.shape}")
    freqs = EMBED_BASE ** (-2.0 * np.arange(dim // 2) / dim)
    phase = lam[..., :, None] * freqs  # (..., 4, dim/2)
    out = np.empty(lam.shape[:-1] + (N_DISP_FEATURES, dim))
    out[..., 0::2] = np.sin(phase)
    out[..., 1::2] = np.cos(phase)
    return out.reshape(lam.shape[:-1] + (N_DISP_FEATURES * dim,))


def gated_softmax(scores: np.ndarray, gates: np.ndarray):
    """Geometry-gated attention weights along the last axis, unchecked.

    Returns (weights, e, denom, fallback): e is exp(scores - row max), denom
    each row's normalizer, fallback the rows whose gates are all zero and so
    fall back to a plain softmax. The caption model's attention uses this
    and keeps the rest for its backward pass. A score of -inf (a masked
    key) gets weight zero in either branch.
    """
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    weights = gates * e
    denom = weights.sum(axis=-1, keepdims=True)
    fallback = denom == 0.0
    if fallback.any():
        weights = np.where(fallback, e, weights)
        denom = np.where(fallback, e.sum(axis=-1, keepdims=True), denom)
    weights /= denom
    return weights, e, denom, fallback


def fused_attention(omega_a: np.ndarray, omega_g: np.ndarray) -> np.ndarray:
    """Geometry-gated attention rows; every output row sums to one.

    Score rows are max-shifted before exponentiation, which leaves the
    normalized weights unchanged. Rows whose gates are identically zero fall
    back to a plain softmax of the scores.
    """
    omega_a = np.asarray(omega_a, dtype=np.float64)
    omega_g = np.asarray(omega_g, dtype=np.float64)
    if omega_g.shape != omega_a.shape:
        raise ValueError(f"shape mismatch: {omega_a.shape} vs {omega_g.shape}")
    if np.any(omega_g < 0):
        raise ValueError("geometric gates must be nonnegative")
    return gated_softmax(omega_a, omega_g)[0]
