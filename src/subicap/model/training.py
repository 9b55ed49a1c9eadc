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
)

log = logging.getLogger("subicap.train")

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_LOG_EVERY = 100


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    # step-schedule stand-in for per-epoch decay; 0 disables
    decay_factor: float = 0.8
    decay_every: int = 500

    def lr_at(self, step: int) -> float:
        if self.decay_every <= 0:
            return self.lr
        return self.lr * self.decay_factor ** (step // self.decay_every)


@dataclass
class AdamState:
    """Step count and moments. The rows of `flat` are the first moment, the
    second moment and the update's scratch space, each in the flat
    parameter vector's order."""

    step: int
    flat: np.ndarray

    @classmethod
    def init(cls, cfg: ModelConfig) -> "AdamState":
        return cls(0, np.zeros((3, num_params(cfg))))


def train_step(
    batch: Batch | PackedBatch,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    state: AdamState,
    train_cfg: TrainConfig,
) -> float:
    """One Adam update, in place, as vector ops over the flat vector the
    tensors are views of (see flatten), so repeated runs are bitwise
    identical."""
    loss, grads = loss_and_grads(batch, params, cfg)
    if not math.isfinite(loss):
        raise TrainingDivergedError(f"non-finite loss {loss} at step {state.step}")
    lr = train_cfg.lr_at(state.step)
    state.step += 1
    t = state.step
    correction = math.sqrt(1.0 - _BETA2**t) / (1.0 - _BETA1**t)
    g = flatten(grads, cfg)
    p = flatten(params, cfg)
    m, v, tmp = state.flat
    m *= _BETA1
    np.multiply(g, 1.0 - _BETA1, out=tmp)
    m += tmp
    v *= _BETA2
    np.multiply(g, 1.0 - _BETA2, out=tmp)
    tmp *= g
    v += tmp
    # the gradient is spent: its vector holds the step
    np.multiply(m, lr * correction, out=g)
    np.sqrt(v, out=tmp)
    tmp += _EPS
    g /= tmp
    p -= g
    return loss


def fit(
    batch: Batch,
    params: dict[str, np.ndarray],
    cfg: ModelConfig,
    train_cfg: TrainConfig,
    steps: int,
) -> list[float]:
    """Full-batch training; returns the per-step loss history and logs the
    loss every 100th step and at the last. The batch is padded once, up
    front."""
    packed = pack_batch(batch, cfg)
    state = AdamState.init(cfg)
    history = []
    for step in range(steps):
        loss = train_step(packed, params, cfg, state, train_cfg)
        history.append(loss)
        if step % _LOG_EVERY == 0 or step == steps - 1:
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
