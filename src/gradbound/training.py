"""Plain SGD with classical (heavy-ball) momentum.

The update is u <- momentum * u - lr * grad, w <- w + u.  Batches come
from a seed-deterministic shuffle per epoch using a reserved Philox
stream, the last partial batch is used rather than dropped, and weights
are initialized from N(0, init_stddev^2) via the same deterministic
sampler used for priors: given a config, training is bitwise reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .gaussians import RESERVED_STREAM_BASE, prior_family, sample, stream_rng
from .nets import MlpArchitecture, ParamVector, batch_forward, logit_loss, loss_and_grad

log = logging.getLogger(__name__)

_SHUFFLE_STREAM = RESERVED_STREAM_BASE + 0x7E


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch and batch index."""

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 15
    batch_size: int = 128
    seed: int = 0
    init_stddev: float = 0.1

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.init_stddev <= 0:
            raise ValueError("init_stddev must be positive")


def train(arch: MlpArchitecture, data: LabeledDataset, kind: str,
          cfg: TrainConfig) -> ParamVector:
    """Train and return the final iterate (which reports use as-is)."""
    params = sample(prior_family(arch, cfg.init_stddev), cfg.seed, 1)[0]
    # The loop owns this fresh draw and updates its weights in place; the
    # one finiteness scan per step keeps them a valid ParamVector.
    w = params.values
    u = np.zeros_like(w)

    for epoch in range(cfg.epochs):
        perm = stream_rng(cfg.seed, _SHUFFLE_STREAM + epoch).permutation(data.m)
        epoch_loss = 0.0
        for bi, start in enumerate(range(0, data.m, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            losses, grad = loss_and_grad(params, data.inputs[idx], data.labels[idx],
                                         kind, want_params=True)
            batch_loss = float(losses.mean())
            if not math.isfinite(batch_loss):
                raise TrainingDiverged(epoch, bi)
            epoch_loss += batch_loss * idx.size
            u = cfg.momentum * u - cfg.learning_rate * grad
            w += u
            if not np.all(np.isfinite(w)):
                raise TrainingDiverged(epoch, bi)
        log.info("epoch %d: train loss %.6f", epoch, epoch_loss / data.m)

    return params


def evaluate(params: ParamVector, data: LabeledDataset, kind: str) -> tuple[float, float]:
    """(mean loss, accuracy); argmax ties resolve to the lowest class index."""
    if data.m < 1:
        raise ValueError("dataset is empty")
    logits = batch_forward(params, data.inputs)
    losses = logit_loss(logits, data.labels, kind)
    pred = logits.argmax(axis=1) + 1
    return float(losses.mean()), float(np.mean(pred == data.labels))
