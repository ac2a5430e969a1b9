"""Plain SGD with classical (heavy-ball) momentum.

The update is u <- momentum * u - lr * grad, w <- w + u.  Batches come
from a seed-deterministic shuffle per epoch using a reserved Philox
stream, the last partial batch is used rather than dropped, and weights
are initialized from N(0, init_stddev^2) via the same deterministic
sampler used for priors: given a config, training is bitwise reproducible.

Lockstep training
-----------------
Configs that differ only in ``init_stddev`` (a depth's prior-variance
grid, say) see the same batches in the same order, and their initial
weights are one stream of standard normals scaled by each
``init_stddev``.  :func:`train_lockstep` therefore trains them together:
their weights and momenta are the rows of (F, P) arrays, and each step is
one stacked forward+backward pass
(:func:`gradbound.nets.loss_and_param_grads`) on one gathered batch,
followed by the same elementwise update and per-row finiteness checks,
so each row gets the bits that training its config alone gives (with
OpenBLAS on x86-64; see :mod:`gradbound.nets`).  :func:`train` is
lockstep training of one config.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .gaussians import RESERVED_STREAM_BASE, prior_family, shared_draws, stream_rng
from .nets import MlpArchitecture, ParamVector, batch_forward, logit_loss, loss_and_param_grads

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
    return train_lockstep(arch, data, kind, [cfg])[0]


def train_lockstep(arch: MlpArchitecture, data: LabeledDataset, kind: str,
                   cfgs: list[TrainConfig]) -> list[ParamVector]:
    """Train configs that differ only in ``init_stddev`` together.

    Returns one final iterate per config, in order.  Raises ValueError if
    the configs differ in anything else, and the TrainingDiverged that
    training them one after another would raise: that of the first
    config, in order, that diverges, at its own step.
    """
    cfg = cfgs[0]
    if any(dataclasses.replace(c, init_stddev=cfg.init_stddev) != cfg for c in cfgs):
        raise ValueError("lockstep training needs configs that differ only in init_stddev")
    inits = next(shared_draws([prior_family(arch, c.init_stddev) for c in cfgs],
                              cfg.seed, 1))
    # The loop owns these rows and updates weights and momenta in place;
    # the one finiteness scan per step keeps every row a valid weight vector.
    w = np.stack([p.values for p in inits])
    u = np.zeros_like(w)
    diverged = None

    for epoch in range(cfg.epochs):
        perm = stream_rng(cfg.seed, _SHUFFLE_STREAM + epoch).permutation(data.m)
        epoch_loss = np.zeros(len(w))
        for bi, start in enumerate(range(0, data.m, cfg.batch_size)):
            idx = perm[start : start + cfg.batch_size]
            losses, grad = loss_and_param_grads(arch, w, data.inputs[idx],
                                                data.labels[idx], kind)
            batch_loss = losses.mean(axis=1)
            u *= cfg.momentum
            u -= cfg.learning_rate * grad
            w += u
            bad = ~(np.isfinite(batch_loss) & np.isfinite(w).all(axis=1))
            if bad.any():
                # Rows after the first diverging one can no longer decide
                # which divergence is raised; earlier rows still can.
                first = int(bad.argmax())
                diverged = TrainingDiverged(epoch, bi)
                if first == 0:
                    raise diverged
                w, u = w[:first], u[:first]
                batch_loss = batch_loss[:first]
                epoch_loss = epoch_loss[:first]
            epoch_loss += batch_loss * idx.size
        for c, total in zip(cfgs, epoch_loss):
            log.info("epoch %d (init_stddev %g): train loss %.6f", epoch, c.init_stddev,
                     total / data.m)

    if diverged is not None:
        raise diverged
    return [ParamVector(row, arch) for row in w]


def evaluate(params: ParamVector, data: LabeledDataset, kind: str) -> tuple[float, float]:
    """(mean loss, accuracy); argmax ties resolve to the lowest class index."""
    if data.m < 1:
        raise ValueError("dataset is empty")
    logits = batch_forward(params, data.inputs)
    losses = logit_loss(logits, data.labels, kind)
    pred = logits.argmax(axis=1) + 1
    return float(losses.mean()), float(np.mean(pred == data.labels))
