"""Adam training loop and the finite-difference gradient check."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ..errors import TrainingDivergedError
from .transformer import (
    Batch,
    ModelConfig,
    PackedBatch,
    flatten,
    loss_and_grads,
    loss_only,
    num_params,
    pack_batch,
    param_shapes,
    target_logits,
    unflatten,
)

log = logging.getLogger("subicap.train")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # step-schedule stand-in for per-epoch decay; 0 disables
    decay_factor: float = 0.8
    decay_every: int = 500

    def lr_at(self, step: int) -> float:
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_factor ** (step // self.decay_every)


@dataclass
class AdamState:
    """Step count and moments. `m` and `v` map each tensor name to a view
    of `flat`, whose rows are the first moment, the second moment and the
    update's scratch space."""

    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    flat: np.ndarray

    @classmethod
    def init(cls, cfg: ModelConfig) -> "AdamState":
        flat = np.zeros((3, num_params(cfg)))
        return cls(0, unflatten(flat[0], cfg), unflatten(flat[1], cfg), flat)


def train_step(
    batch: Batch | PackedBatch,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    state: AdamState,
    train_cfg: TrainConfig,
) -> float:
    """One Adam update of the caller's tensors, in place, as vector ops over
    the flat parameter vector, so repeated runs are bitwise identical."""
    loss, grads = loss_and_grads(batch, params, cfg)
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss} at step {state.step}")
    lr = train_cfg.lr_at(state.step)
    state.step += 1
    t = state.step
    b1, b2 = train_cfg.beta1, train_cfg.beta2
    correction = math.sqrt(1.0 - b2**t) / (1.0 - b1**t)
    g, _ = flatten(grads, cfg)
    p, shared = flatten(params, cfg)
    m, v, tmp = state.flat
    m *= b1
    np.multiply(g, 1.0 - b1, out=tmp)
    m += tmp
    v *= b2
    np.multiply(g, 1.0 - b2, out=tmp)
    tmp *= g
    v += tmp
    # the gradient is spent: its vector holds the step
    np.multiply(m, lr * correction, out=g)
    np.sqrt(v, out=tmp)
    tmp += train_cfg.eps
    g /= tmp
    p -= g
    if not shared:
        for name, updated in unflatten(p, cfg).items():
            params[name][...] = updated
    return loss


def fit(
    batch: Batch,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    steps: int,
    log_every: int = 100,
) -> list[float]:
    """Full-batch training; returns the per-step loss history. The batch is
    padded once, up front."""
    packed = pack_batch(batch, cfg)
    state = AdamState.init(cfg)
    history = []
    for step in range(steps):
        loss = train_step(packed, params, cfg, state, train_cfg)
        history.append(loss)
        if log_every and (step % log_every == 0 or step == steps - 1):
            log.info("step=%d loss=%.6f", step, loss)
    return history


def next_token_accuracy(batch: Batch, params, cfg: ModelConfig) -> float:
    """Teacher-forced argmax accuracy over every target position."""
    logits, targets = target_logits(batch, params, cfg)
    return int(np.count_nonzero(logits.argmax(-1) == targets)) / len(targets)


def grad_check(
    batch: Batch,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    n_coords: int = 50,
    seed: int = 0,
    step: float = 1e-5,
) -> float:
    """Central finite differences on randomly sampled coordinates.

    Returns max over coordinates of |analytic - numeric| divided by
    max(|analytic|, |numeric|, 1e-8). Everything runs in float64; the probe
    step 1e-5 balances truncation against roundoff.
    """
    packed = pack_batch(batch, cfg)
    _, grads = loss_and_grads(packed, params, cfg)
    rng = np.random.default_rng(seed)
    names = [name for name, _ in param_shapes(cfg)]
    worst = 0.0
    for _ in range(n_coords):
        name = names[rng.integers(len(names))]
        arr = params[name]
        idx = np.unravel_index(int(rng.integers(arr.size)), arr.shape)
        keep = arr[idx]
        arr[idx] = keep + step
        up = loss_only(packed, params, cfg)
        arr[idx] = keep - step
        down = loss_only(packed, params, cfg)
        arr[idx] = keep
        numeric = (up - down) / (2.0 * step)
        analytic = grads[name][idx]
        err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, err)
    return worst
