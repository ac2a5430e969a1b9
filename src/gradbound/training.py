"""Plain SGD with classical (heavy-ball) momentum.

The update is u <- momentum * u - lr * grad, w <- w + u.  Batches come
from a seed-deterministic shuffle per epoch using a reserved Philox
stream, the last partial batch is used rather than dropped, and weights
are initialized from N(0, s^2), s an initial scale, via the same
deterministic sampler used for priors: given a config and a scale,
training is bitwise reproducible.

Lockstep training
-----------------
:func:`train` takes one config and a list of initial scales (the square
roots of a depth's prior-variance grid, say).  Every scale sees the same
batches in the same order, and its initial weights are one stream of
standard normals times that scale, so they train together: their weights
and momenta are the rows of (F, P) arrays, and each step is one stacked
forward+backward pass (:func:`gradbound.nets.loss_and_param_grads`) on
one gathered batch, followed by the same elementwise update and per-row
finiteness checks.  Each row's BLAS products are those of a one-vector
pass (see :mod:`gradbound.nets`), so by construction each row gets the
bits that training its scale alone gives.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .gaussians import (MAX_EPOCHS, SHUFFLE_STREAM, is_seed, prior_family, standard_normal,
                        stream_rng)
from .nets import MlpArchitecture, ParamVector, batch_forward, logit_loss, loss_and_param_grads

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the epoch, batch index and initial scale."""

    def __init__(self, epoch: int, batch: int, scale: float):
        self.epoch, self.batch, self.scale = epoch, batch, float(scale)
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}, "
                         f"initial scale {self.scale!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    momentum: float = 0.9
    epochs: int = 15
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        # A bool compares as 0 or 1, but it is not a real.
        if isinstance(self.learning_rate, bool) or not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and nonnegative")
        if isinstance(self.momentum, bool) or not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        # type(), not isinstance(): a bool is an int, and not a count.
        if not all(type(n) is int and n >= 1 for n in (self.epochs, self.batch_size)):
            raise ValueError("epochs and batch_size must be integers >= 1")
        if self.epochs > MAX_EPOCHS:
            raise ValueError(f"epochs must be <= {MAX_EPOCHS}, where the per-epoch "
                             "shuffle streams reach the next reserved stream")
        if not is_seed(self.seed):
            raise ValueError("seed must be an integer in [0, 2**64)")


def train(arch: MlpArchitecture, data: LabeledDataset, cfg: TrainConfig,
          init_scales: list[float]) -> list[ParamVector]:
    """Train from N(0, s^2) for every initial scale s, together.

    Returns one final iterate per scale, in order (reports use them
    as-is).  Raises ValueError if a scale is not positive, and the
    TrainingDiverged that training the scales one after another would
    raise: that of the first scale, in order, that diverges, at its own
    step.
    """
    z = standard_normal(cfg.seed, 0, arch.param_count())
    # The loop owns these rows and updates weights and momenta in place;
    # the one finiteness scan per step keeps every row a valid weight vector.
    w = np.stack([prior_family(arch, s).draw(z).values for s in init_scales])
    u = np.zeros_like(w)
    diverged = None

    for epoch in range(cfg.epochs):
        perm = stream_rng(cfg.seed, SHUFFLE_STREAM + epoch).permutation(data.m)
        epoch_loss = np.zeros(len(w))
        for bi, start in enumerate(range(0, data.m, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            losses, grad = loss_and_param_grads(arch, w, data.inputs[idx], data.labels[idx])
            batch_loss = losses.mean(axis=1)
            u *= cfg.momentum
            u -= cfg.learning_rate * grad
            w += u
            bad = ~(np.isfinite(batch_loss) & np.isfinite(w).all(axis=1))
            if bad.any():
                # Rows after the first diverging one can no longer decide
                # which divergence is raised; earlier rows still can.
                first = int(bad.argmax())
                diverged = TrainingDiverged(epoch, bi, init_scales[first])
                if first == 0:
                    raise diverged
                w, u = w[:first], u[:first]
                batch_loss = batch_loss[:first]
                epoch_loss = epoch_loss[:first]
            epoch_loss += batch_loss * idx.size
        for s, total in zip(init_scales, epoch_loss):
            log.info("epoch %d (init scale %g): train loss %.6f", epoch, s, total / data.m)

    if diverged is not None:
        raise diverged
    return [ParamVector(row, arch) for row in w]


def evaluate(params: ParamVector, data: LabeledDataset) -> tuple[float, float]:
    """(mean loss, accuracy); argmax ties resolve to the lowest class index."""
    if data.m < 1:
        raise ValueError("dataset is empty")
    logits = batch_forward(params, data.inputs)
    losses = logit_loss(logits, data.labels)
    pred = logits.argmax(axis=1) + 1
    return float(losses.mean()), float(np.mean(pred == data.labels))
