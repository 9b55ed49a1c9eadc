"""Region-conditioned caption transformer in plain numpy, float64.

Encoder: per-image region features, no positional encoding (region order
carries no information; the geometry gates carry the spatial structure).
Each layer is geometry-gated multi-head attention followed by a two-layer
ReLU feed-forward, both with residual adds and post-layer-norm. The gate
tensor is computed once per image from pairwise box displacements and shared
by every encoder layer.

Decoder: token embedding (scaled by sqrt(d_model)) plus sinusoidal
positions, then per layer: causally masked self-attention, cross-attention
over the encoded regions, feed-forward, each with residual + layer norm.
The output head is a bias-free projection to the token-id space, so the
only vocab-size-dependent parameters are the embedding and the head.

A batch runs as one padded pass: regions (B, N, d) and captions (B, T, d),
each row of activations one (image, position) pair. Padding sits at the end
of every row. Padded regions are masked out of every attention as keys;
padded caption positions need no mask, since causality already hides every
later position from a real one. The loss reads only the positions that have
a target, so no gradient reaches a padded row. One image or one prefix
(encoder_forward, decoder_forward) is the B=1 case of the same forward.

Decoding runs the same decoder forward with a DecoderCache: the first pass
projects the memory to cross-attention keys and values once, shared by
every live row, and each later pass runs only each row's newest position
against the self-attention keys and values cached for that row. Positions
come from one table per config, built once (_positions).

Every forward has a hand-written backward that writes each parameter's
gradient once, in a fixed order, so training is bitwise reproducible.
Parameters, gradients and optimizer moments are views into one float64
vector in param_shapes order (see unflatten). Token ids follow the
vocabulary file convention: 0=<pad>, 1=<bos>, 2=<eos>, pieces from 3.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import CheckpointError
from .geometry import (
    N_DISP_FEATURES,
    RegionSet,
    displacement_matrix,
    gated_softmax,
    positional_embed,
)

PAD_ID, BOS_ID, EOS_ID = 0, 1, 2

_LN_EPS = 1e-5
_POS_BASE = 10000.0


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale defaults; vocab_size counts the full token-id space
    (the three controls included)."""

    vocab_size: int
    d_model: int = 32
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_heads: int = 2
    d_ff: int = 64
    d_in: int = 16
    geo_embed_dim: int = 8
    max_seq_len: int = 32

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover the controls plus one piece")
        for field in ("d_model", "n_enc_layers", "n_dec_layers", "n_heads",
                      "d_ff", "d_in", "max_seq_len"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be >= 1")
        if self.d_model % self.n_heads:
            raise ValueError("d_model must be divisible by n_heads")
        if self.d_model % 2:
            raise ValueError("d_model must be even for sinusoidal positions")
        if self.geo_embed_dim < 2 or self.geo_embed_dim % 2:
            raise ValueError("geo_embed_dim must be even and >= 2")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads


def param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Every tensor, in the order checkpoints store them."""
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    shapes: list[tuple[str, tuple[int, ...]]] = [
        ("appear.W", (cfg.d_in, d)),
        ("appear.b", (d,)),
        ("geo.W_G", (N_DISP_FEATURES * cfg.geo_embed_dim, cfg.n_heads)),
    ]

    def attn(prefix: str) -> None:
        for w in ("Wq", "Wk", "Wv", "Wo"):
            shapes.append((f"{prefix}.{w}", (d, d)))
        # no key bias: both attention normalizations are invariant to a
        # per-query constant, so its gradient is identically zero
        for b in ("bq", "bv", "bo"):
            shapes.append((f"{prefix}.{b}", (d,)))

    def ln(prefix: str) -> None:
        shapes.append((f"{prefix}.g", (d,)))
        shapes.append((f"{prefix}.b", (d,)))

    def ffn(prefix: str) -> None:
        shapes.append((f"{prefix}.W1", (d, ff)))
        shapes.append((f"{prefix}.b1", (ff,)))
        shapes.append((f"{prefix}.W2", (ff, d)))
        shapes.append((f"{prefix}.b2", (d,)))

    for i in range(cfg.n_enc_layers):
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln1")
        ffn(f"enc{i}.ffn")
        ln(f"enc{i}.ln2")
    for i in range(cfg.n_dec_layers):
        attn(f"dec{i}.self")
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.cross")
        ln(f"dec{i}.ln2")
        ffn(f"dec{i}.ffn")
        ln(f"dec{i}.ln3")
    shapes.append(("embed.W", (v, d)))
    shapes.append(("out.W", (d, v)))  # bias-free on purpose: the vocab-size
    # parameter delta must be exactly 2 * dv * d_model
    return shapes


@functools.lru_cache(maxsize=16)
def _layout(cfg: ModelConfig) -> tuple[tuple[tuple[str, tuple[int, ...], int, int], ...], int]:
    """((name, shape, start, stop), ...) over the flat vector, and its length."""
    spans, start = [], 0
    for name, shape in param_shapes(cfg):
        stop = start + math.prod(shape)
        spans.append((name, shape, start, stop))
        start = stop
    return tuple(spans), start


def num_params(cfg: ModelConfig) -> int:
    return _layout(cfg)[1]


def unflatten(flat: np.ndarray, cfg: ModelConfig) -> dict[str, np.ndarray]:
    """Name -> view of `flat` (num_params(cfg) float64s) in param_shapes order."""
    return {name: flat[start:stop].reshape(shape)
            for name, shape, start, stop in _layout(cfg)[0]}


def flatten(tensors, cfg: ModelConfig) -> np.ndarray:
    """The one float64 vector whose views (as unflatten made them) are
    `tensors`, as init_params, load_checkpoint and loss_and_grads return
    them; writing to it writes to the tensors. Raises ValueError for any
    other dict of tensors."""
    spans, size = _layout(cfg)
    missing = [name for name, _, _, _ in spans if name not in tensors]
    if missing:
        raise ValueError(f"missing tensors: {', '.join(missing)}")
    flat = tensors[spans[0][0]].base
    if (isinstance(flat, np.ndarray) and flat.dtype == np.float64
            and flat.shape == (size,)
            and all(tensors[name].base is flat and tensors[name].shape == shape
                    for name, shape, _, _ in spans)):
        return flat
    raise ValueError("tensors are not views of one flat float64 vector in "
                     "param_shapes order")


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, np.ndarray]:
    """Seeded initial parameters, as views of one flat vector."""
    rng = np.random.default_rng(seed)
    params = unflatten(np.empty(num_params(cfg)), cfg)
    for name, arr in params.items():
        leaf = name.rsplit(".", 1)[1]
        if leaf == "g":
            arr.fill(1.0)
        elif leaf.startswith("b"):
            arr.fill(0.0)
        elif name == "embed.W":
            arr[...] = rng.normal(0.0, 1.0 / math.sqrt(cfg.d_model), arr.shape)
        elif name == "out.W":
            # cool head: initial logits near zero, so the starting cross
            # entropy sits at ln(vocab_size)
            arr[...] = rng.normal(0.0, 0.1 / math.sqrt(arr.shape[0]), arr.shape)
        else:
            arr[...] = rng.normal(0.0, 1.0 / math.sqrt(arr.shape[0]), arr.shape)
    return params


# ---------------------------------------------------------------------------
# primitive layers; x is always (rows, d), one row per (item, position)


def _ln_fwd(x, params, prefix):
    # sum / d is np.mean's own arithmetic, so the same bits, without its
    # Python-level dispatch (as in _ln_bwd)
    d = x.shape[-1]
    xhat = x - x.sum(-1, keepdims=True) / d
    var = (xhat * xhat).sum(-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    xhat *= inv
    g = params[f"{prefix}.g"]
    out = xhat * g
    out += params[f"{prefix}.b"]
    return out, (xhat, inv, g)


def _ln_bwd(dy, cache, prefix, grads):
    xhat, inv, g = cache
    np.sum(dy * xhat, axis=0, out=grads[f"{prefix}.g"])
    np.sum(dy, axis=0, out=grads[f"{prefix}.b"])
    dxhat = dy * g
    d = dxhat.shape[-1]
    m1 = dxhat.sum(-1, keepdims=True) / d
    m2 = (dxhat * xhat).sum(-1, keepdims=True) / d
    return inv * (dxhat - m1 - xhat * m2)


def _ffn_fwd(x, params, prefix):
    pre = x @ params[f"{prefix}.W1"]
    pre += params[f"{prefix}.b1"]
    out = np.maximum(pre, 0.0) @ params[f"{prefix}.W2"]
    out += params[f"{prefix}.b2"]
    return out, (x, pre)


def _ffn_bwd(dout, params, prefix, cache, grads):
    x, pre = cache
    np.matmul(np.maximum(pre, 0.0).T, dout, out=grads[f"{prefix}.W2"])
    np.sum(dout, axis=0, out=grads[f"{prefix}.b2"])
    dpre = dout @ params[f"{prefix}.W2"].T
    dpre *= pre > 0.0
    np.matmul(x.T, dpre, out=grads[f"{prefix}.W1"])
    np.sum(dpre, axis=0, out=grads[f"{prefix}.b1"])
    return dpre @ params[f"{prefix}.W1"].T


def _split_heads(x, b, n_heads):
    rows, d = x.shape
    return x.reshape(b, rows // b, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, t, dk = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b * t, h * dk)


def _kv(xkv, b, params, prefix, n_heads):
    """The keys and values (kh, vh) of xkv (b*Tk, d), each (b, H, Tk, dk)."""
    v = xkv @ params[f"{prefix}.Wv"]
    v += params[f"{prefix}.bv"]
    return (_split_heads(xkv @ params[f"{prefix}.Wk"], b, n_heads),
            _split_heads(v, b, n_heads))


def _attn_fwd(xq, xkv, b, params, prefix, n_heads, mask=None, gates=None,
              kv=None):
    """Multi-head attention over b sequences at once.

    xq (b*Tq, d) and xkv (b*Tk, d) hold each sequence's rows in turn.
    mask is additive and broadcasts to (b, H, Tq, Tk): 0 where a query may
    attend, -inf where it may not. gates (b, H, Tq, Tk), nonnegative,
    reweight the softmax as in geometry.gated_softmax. kv, when given, is
    the (kh, vh) to attend over in place of _kv(xkv, ...), and xkv is not
    read; its leading axis may be 1, to broadcast over the b sequences.
    """
    q = xq @ params[f"{prefix}.Wq"]
    q += params[f"{prefix}.bq"]
    qh = _split_heads(q, b, n_heads)
    kh, vh = _kv(xkv, b, params, prefix, n_heads) if kv is None else kv
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ kh.swapaxes(-1, -2)
    scores *= scale
    if mask is not None:
        scores += mask
    if gates is None:
        p = scores
        p -= p.max(-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(-1, keepdims=True)
        gating = None
    else:
        p, e, denom, fallback = gated_softmax(scores, gates)
        gating = (e, denom, fallback)
    ctx = _merge_heads(p @ vh)
    out = ctx @ params[f"{prefix}.Wo"]
    out += params[f"{prefix}.bo"]
    return out, (xq, xkv, qh, kh, vh, p, ctx, scale, gating)


def _attn_bwd(dout, params, prefix, cache, grads):
    """Returns (dxq, dxkv, dgates); dgates is None without gates."""
    xq, xkv, qh, kh, vh, p, ctx, scale, gating = cache
    b, n_heads = p.shape[:2]
    np.matmul(ctx.T, dout, out=grads[f"{prefix}.Wo"])
    np.sum(dout, axis=0, out=grads[f"{prefix}.bo"])
    dctx = _split_heads(dout @ params[f"{prefix}.Wo"].T, b, n_heads)
    dp = dctx @ vh.swapaxes(-1, -2)
    dvh = p.swapaxes(-1, -2) @ dctx
    # w.r.t. scores the gated, fallback and plain softmax share one formula;
    # masked cells have p == 0, so no gradient leaks past the mask
    common = dp - (dp * p).sum(-1, keepdims=True)
    ds = p * common
    dgates = None
    if gating is not None:
        # gates get gradient only where they actually acted
        e, denom, fallback = gating
        dgates = common * e / denom
        if fallback.any():
            dgates = np.where(fallback, 0.0, dgates)
    dq = _merge_heads(ds @ kh * scale)
    dk = _merge_heads(ds.swapaxes(-1, -2) @ qh * scale)
    dv = _merge_heads(dvh)
    np.matmul(xq.T, dq, out=grads[f"{prefix}.Wq"])
    np.sum(dq, axis=0, out=grads[f"{prefix}.bq"])
    np.matmul(xkv.T, dk, out=grads[f"{prefix}.Wk"])
    np.matmul(xkv.T, dv, out=grads[f"{prefix}.Wv"])
    np.sum(dv, axis=0, out=grads[f"{prefix}.bv"])
    dxq = dq @ params[f"{prefix}.Wq"].T
    dxkv = dk @ params[f"{prefix}.Wk"].T
    dxkv += dv @ params[f"{prefix}.Wv"].T
    return dxq, dxkv, dgates


# ---------------------------------------------------------------------------
# encoder


def _check_width(regions: RegionSet, cfg: ModelConfig) -> None:
    if regions.appearance.shape[1] != cfg.d_in:
        raise ValueError(
            f"appearance width {regions.appearance.shape[1]} != d_in {cfg.d_in}"
        )


def _geometry(regions: RegionSet, cfg: ModelConfig) -> np.ndarray:
    """(N, N, 4 * geo_embed_dim) embedded pairwise displacements."""
    return positional_embed(displacement_matrix(regions), cfg.geo_embed_dim)


def _encoder_fwd(appearance, geometry, mask, params, cfg: ModelConfig):
    """appearance (B, N, d_in), geometry (B, N, N, G) -> memory (B*N, d)."""
    b, n, d_in = appearance.shape
    x = appearance.reshape(b * n, d_in) @ params["appear.W"]
    x += params["appear.b"]
    pre = (geometry.reshape(-1, geometry.shape[-1]) @ params["geo.W_G"]).reshape(
        b, n, n, cfg.n_heads)
    gates = np.maximum(pre, 0.0).transpose(0, 3, 1, 2)  # (B, H, N, N)
    layers = []
    for i in range(cfg.n_enc_layers):
        att, c_att = _attn_fwd(x, x, b, params, f"enc{i}.attn", cfg.n_heads,
                               mask, gates)
        h1, c_ln1 = _ln_fwd(x + att, params, f"enc{i}.ln1")
        ff, c_ffn = _ffn_fwd(h1, params, f"enc{i}.ffn")
        x, c_ln2 = _ln_fwd(h1 + ff, params, f"enc{i}.ln2")
        layers.append((c_att, c_ln1, c_ffn, c_ln2))
    return x, (appearance, geometry, gates, layers)


def _encoder_bwd(dx, cache, params, cfg: ModelConfig, grads):
    appearance, geometry, gates, layers = cache
    dgates = None
    for i in range(cfg.n_enc_layers - 1, -1, -1):
        c_att, c_ln1, c_ffn, c_ln2 = layers.pop()  # frees each layer once done
        dsum2 = _ln_bwd(dx, c_ln2, f"enc{i}.ln2", grads)
        dh1 = dsum2 + _ffn_bwd(dsum2, params, f"enc{i}.ffn", c_ffn, grads)
        dsum1 = _ln_bwd(dh1, c_ln1, f"enc{i}.ln1", grads)
        dxq, dxkv, dg = _attn_bwd(dsum1, params, f"enc{i}.attn", c_att, grads)
        dx = dsum1 + dxq
        dx += dxkv
        dgates = dg if dgates is None else dgates + dg
    dpre = (dgates * (gates > 0.0)).transpose(0, 2, 3, 1)
    np.matmul(geometry.reshape(-1, geometry.shape[-1]).T,
              dpre.reshape(-1, cfg.n_heads), out=grads["geo.W_G"])
    np.matmul(appearance.reshape(-1, appearance.shape[-1]).T, dx,
              out=grads["appear.W"])
    np.sum(dx, axis=0, out=grads["appear.b"])


def encoder_forward(regions: RegionSet, params, cfg: ModelConfig) -> np.ndarray:
    """Encoded region memory q, shape (N, d_model)."""
    _check_width(regions, cfg)
    q, _ = _encoder_fwd(regions.appearance[None], _geometry(regions, cfg)[None],
                        None, params, cfg)
    return q


# ---------------------------------------------------------------------------
# decoder


def sinusoid_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n)[:, None]
    freqs = _POS_BASE ** (-2.0 * np.arange(d // 2) / d)
    phase = pos * freqs
    out = np.empty((n, d))
    out[:, 0::2] = np.sin(phase)
    out[:, 1::2] = np.cos(phase)
    return out


@functools.lru_cache(maxsize=16)
def _positions(cfg: ModelConfig) -> np.ndarray:
    """Read-only; its first t rows are sinusoid_positions(t, d) to the bit."""
    table = sinusoid_positions(cfg.max_seq_len, cfg.d_model)
    table.flags.writeable = False
    return table


class DecoderCache:
    """Per decoder layer, the (kh, vh) one pass leaves for the next: cross,
    one image's memory, (1, H, N, dk), which broadcasts over the rows; past,
    each row's self-attention positions so far, (rows, H, t, dk)."""

    def __init__(self):
        self.cross: list = []
        self.past: list = []

    def reorder(self, parents: np.ndarray) -> None:
        """Row j of the next pass continues row parents[j] of the last one."""
        self.past = [(kh[parents], vh[parents]) for kh, vh in self.past]


def _decoder_fwd(q, inputs, region_mask, params, cfg: ModelConfig,
                 cache: DecoderCache | None = None, start: int = 0):
    """inputs (B, T) ids over memory q (B*N, d) -> final hidden rows (B*T, d).

    With a cache, q is one image's memory and the inputs sit at positions
    start.. of each row, after the positions the cache holds: a pass at
    start 0 fills the cache, each later one reads and extends it.
    """
    b, t = inputs.shape
    d = cfg.d_model
    scale = math.sqrt(d)
    x = params["embed.W"][inputs]
    x *= scale
    x += _positions(cfg)[start:start + t]
    x = x.reshape(b * t, d)
    # a single newest position may attend to every position
    causal = np.triu(np.full((t, start + t), -np.inf), start + 1) if t > 1 else None
    if cache is not None and start == 0:
        cache.cross = [_kv(q, 1, params, f"dec{i}.cross", cfg.n_heads)
                       for i in range(cfg.n_dec_layers)]
        cache.past = [None] * cfg.n_dec_layers
    layers = []
    for i in range(cfg.n_dec_layers):
        self_kv, cross_kv = _kv(x, b, params, f"dec{i}.self", cfg.n_heads), None
        if cache is not None:
            if start:
                self_kv = tuple(np.concatenate(pair, axis=2)
                                for pair in zip(cache.past[i], self_kv))
            cache.past[i], cross_kv = self_kv, cache.cross[i]
        s, c_s = _attn_fwd(x, x, b, params, f"dec{i}.self", cfg.n_heads, causal,
                           kv=self_kv)
        h1, c1 = _ln_fwd(x + s, params, f"dec{i}.ln1")
        cr, c_c = _attn_fwd(h1, q, b, params, f"dec{i}.cross", cfg.n_heads,
                            region_mask, kv=cross_kv)
        h2, c2 = _ln_fwd(h1 + cr, params, f"dec{i}.ln2")
        ff, c_f = _ffn_fwd(h2, params, f"dec{i}.ffn")
        x, c3 = _ln_fwd(h2 + ff, params, f"dec{i}.ln3")
        layers.append((c_s, c1, c_c, c2, c_f, c3))
    return x, (inputs, scale, layers)


def _decoder_bwd(dx, cache, params, cfg: ModelConfig, grads):
    """dx is the gradient at the final hidden rows; returns dq summed over
    the cross-attention of every layer."""
    inputs, scale, layers = cache
    dq = None
    for i in range(cfg.n_dec_layers - 1, -1, -1):
        c_s, c1, c_c, c2, c_f, c3 = layers.pop()  # frees each layer once done
        dsum3 = _ln_bwd(dx, c3, f"dec{i}.ln3", grads)
        dh2 = dsum3 + _ffn_bwd(dsum3, params, f"dec{i}.ffn", c_f, grads)
        dsum2 = _ln_bwd(dh2, c2, f"dec{i}.ln2", grads)
        dh1_c, dq_i, _ = _attn_bwd(dsum2, params, f"dec{i}.cross", c_c, grads)
        dh1 = dsum2 + dh1_c
        dq = dq_i if dq is None else dq + dq_i
        dsum1 = _ln_bwd(dh1, c1, f"dec{i}.ln1", grads)
        dxq, dxkv, _ = _attn_bwd(dsum1, params, f"dec{i}.self", c_s, grads)
        dx = dsum1 + dxq
        dx += dxkv
    g_embed = grads["embed.W"]
    g_embed.fill(0.0)
    dx *= scale
    np.add.at(g_embed, inputs.reshape(-1), dx)
    return dq


def _check_length(t: int, cfg: ModelConfig) -> None:
    if t == 0:
        raise ValueError("decoder needs at least one input token")
    if t > cfg.max_seq_len:
        raise ValueError(f"sequence length {t} exceeds max_seq_len {cfg.max_seq_len}")


def decoder_forward(q, prefix_ids, params, cfg: ModelConfig) -> np.ndarray:
    """Next-token logits for every prefix position, shape (T, vocab_size)."""
    ids = np.asarray(prefix_ids, dtype=np.int64)
    _check_length(ids.shape[0], cfg)
    h, _ = _decoder_fwd(q, ids[None], None, params, cfg)
    return h @ params["out.W"]


# ---------------------------------------------------------------------------
# batches and the loss


def frame_sequence(content_ids: Sequence[int]) -> tuple[list[int], list[int]]:
    """(decoder inputs, shifted targets) for one caption's piece ids."""
    full = [BOS_ID] + list(content_ids) + [EOS_ID]
    return full[:-1], full[1:]


@dataclass(frozen=True)
class PackedBatch:
    """A batch as padded arrays. It depends on the batch and on the config's
    shapes only, so it can be built once and reused for every step."""

    appearance: np.ndarray  # (B, N, d_in), zero rows past an image's regions
    geometry: np.ndarray  # (B, N, N, 4 * geo_embed_dim), zero past them
    # (B, 1, 1, N): 0 for a region, -inf for padding; None if nothing is padded
    region_mask: np.ndarray | None
    inputs: np.ndarray  # (B, T) decoder inputs, PAD_ID past each caption
    rows: np.ndarray  # (R,) indices into the B*T positions that have a target
    targets: np.ndarray  # (R,) the next-token target at each of those rows


Batch = Sequence[tuple[RegionSet, Sequence[int]]]


def pack_batch(batch: Batch, cfg: ModelConfig) -> PackedBatch:
    """Pad a batch of (regions, caption piece ids) for one forward pass."""
    if not batch:
        raise ValueError("empty batch")
    for k, (regions, ids) in enumerate(batch):
        if len(ids) == 0:
            raise ValueError(f"batch item {k} has an empty token sequence; "
                             "nothing to predict")
        if len(ids) + 1 > cfg.max_seq_len:
            raise ValueError(f"batch item {k} has {len(ids)} pieces; max_seq_len "
                             f"{cfg.max_seq_len} fits at most {cfg.max_seq_len - 1}")
        _check_width(regions, cfg)
    counts = np.array([len(regions) for regions, _ in batch])
    b, n = len(batch), int(counts.max())
    t = max(len(ids) for _, ids in batch) + 1
    appearance = np.zeros((b, n, cfg.d_in))
    geometry = np.zeros((b, n, n, N_DISP_FEATURES * cfg.geo_embed_dim))
    inputs = np.full((b, t), PAD_ID, dtype=np.int64)
    rows: list[int] = []
    targets: list[int] = []
    for k, (regions, ids) in enumerate(batch):
        m = len(regions)
        appearance[k, :m] = regions.appearance
        geometry[k, :m, :m] = _geometry(regions, cfg)
        framed_in, framed_out = frame_sequence(ids)
        inputs[k, : len(framed_in)] = framed_in
        rows.extend(range(k * t, k * t + len(framed_out)))
        targets.extend(framed_out)
    region_mask = None
    if counts.min() < n:
        region_mask = np.where(np.arange(n) < counts[:, None], 0.0, -np.inf)
        region_mask = region_mask[:, None, None, :]
    return PackedBatch(appearance, geometry, region_mask, inputs,
                       np.array(rows, dtype=np.int64),
                       np.array(targets, dtype=np.int64))


def _packed(batch, cfg: ModelConfig) -> PackedBatch:
    return batch if isinstance(batch, PackedBatch) else pack_batch(batch, cfg)


def _forward(packed: PackedBatch, params, cfg: ModelConfig):
    """The model on a packed batch: logits at the target rows only, (R, V)."""
    q, enc = _encoder_fwd(packed.appearance, packed.geometry, packed.region_mask,
                          params, cfg)
    h, dec = _decoder_fwd(q, packed.inputs, packed.region_mask, params, cfg)
    hidden = h[packed.rows]
    return hidden @ params["out.W"], (hidden, h.shape, enc, dec)


def target_logits(batch: Batch | PackedBatch, params,
                  cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """(logits, targets) at every position that has a target, in batch
    order: logits (R, vocab_size), targets (R,)."""
    packed = _packed(batch, cfg)
    logits, _ = _forward(packed, params, cfg)
    return logits, packed.targets


def _cross_entropy(logits, targets) -> float:
    """Summed cross entropy; turns logits into softmax rows in place."""
    logits -= logits.max(-1, keepdims=True)
    picked = logits[np.arange(len(targets)), targets]
    np.exp(logits, out=logits)
    z = logits.sum(-1, keepdims=True)
    logits /= z
    return float((np.log(z[:, 0]) - picked).sum())


def loss_and_grads(batch: Batch | PackedBatch, params, cfg: ModelConfig):
    """Mean next-token cross entropy over the batch, with gradients.

    Gradients come back as views of one fresh flat vector. Every sum runs
    in a fixed order, so results are bitwise reproducible.
    """
    packed = _packed(batch, cfg)
    dlogits, (hidden, h_shape, enc, dec) = _forward(packed, params, cfg)
    n = len(packed.targets)
    loss = _cross_entropy(dlogits, packed.targets)
    dlogits[np.arange(n), packed.targets] -= 1.0
    dlogits /= n
    grads = unflatten(np.empty(num_params(cfg)), cfg)
    np.matmul(hidden.T, dlogits, out=grads["out.W"])
    dh = np.zeros(h_shape)
    dh[packed.rows] = dlogits @ params["out.W"].T
    del dlogits, hidden
    dq = _decoder_bwd(dh, dec, params, cfg, grads)
    _encoder_bwd(dq, enc, params, cfg, grads)
    return loss / n, grads


def loss_only(batch: Batch | PackedBatch, params, cfg: ModelConfig) -> float:
    logits, targets = target_logits(batch, params, cfg)
    return _cross_entropy(logits, targets) / len(targets)


# ---------------------------------------------------------------------------
# checkpoints: 4-byte header length, JSON header, raw little-endian float64


_CKPT_FORMAT = "subicap-checkpoint"
_CKPT_VERSION = 1
_CONFIG_FIELDS = frozenset(f.name for f in fields(ModelConfig))


def _tensor_table(cfg: ModelConfig) -> list[dict]:
    return [{"name": name, "shape": list(shape), "dtype": "<f8"}
            for name, shape in param_shapes(cfg)]


def save_checkpoint(path: str | Path, params, cfg: ModelConfig) -> None:
    try:
        flat = flatten(params, cfg)
    except ValueError as err:
        raise CheckpointError(str(err)) from None
    header = {
        "format": _CKPT_FORMAT,
        "version": _CKPT_VERSION,
        "config": asdict(cfg),
        "tensors": _tensor_table(cfg),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(flat.astype("<f8", copy=False).tobytes())


def _header_config(header, path) -> ModelConfig:
    """The config of a parsed header, after checking the header's schema."""
    if not isinstance(header, dict) or header.get("format") != _CKPT_FORMAT:
        raise CheckpointError(f"{path}: not a checkpoint file")
    version = header.get("version")
    if type(version) is not int or version != _CKPT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise CheckpointError(f"{path}: header has no config object")
    if set(config) != _CONFIG_FIELDS:
        raise CheckpointError(
            f"{path}: config keys differ from the model's: unknown "
            f"{sorted(set(config) - _CONFIG_FIELDS)}, missing "
            f"{sorted(_CONFIG_FIELDS - set(config))}")
    for key, value in sorted(config.items()):
        if type(value) is not int:
            raise CheckpointError(f"{path}: config {key} must be an integer, "
                                  f"got {value!r}")
    try:
        cfg = ModelConfig(**config)
    except ValueError as err:
        raise CheckpointError(f"{path}: bad config: {err}") from None
    if header.get("tensors") != _tensor_table(cfg):
        raise CheckpointError(f"{path}: tensor table does not match its config")
    return cfg


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], ModelConfig]:
    """Parameters, as views of one flat vector, and their config."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise CheckpointError(f"{path}: truncated header")
    (hlen,) = struct.unpack("<I", raw[:4])
    if len(raw) < 4 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[4 : 4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: bad header: {err}") from None
    cfg = _header_config(header, path)
    offset, size = 4 + hlen, 8 * num_params(cfg)
    if len(raw) - offset < size:
        raise CheckpointError(f"{path}: truncated payload: {len(raw) - offset} "
                              f"bytes for {size}")
    if len(raw) - offset > size:
        raise CheckpointError(f"{path}: {len(raw) - offset - size} trailing bytes")
    flat = np.frombuffer(raw, dtype="<f8", count=size // 8, offset=offset)
    return unflatten(flat.astype(np.float64), cfg), cfg
