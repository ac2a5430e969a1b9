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

Training on every core
----------------------
:func:`train_depths` trains several architectures (a report's depths) on
the same grid of scales.  Each depth's scales are cut into contiguous
slices, ``ceil(cores / depths)`` of them but no more than there are
scales, and each (depth, slice) is one :func:`train` call in a pool of
one thread per usable core.  By the lockstep rule each slice's rows have
the bits the whole grid's call gives them.  While the pool runs, numpy's
bundled OpenBLAS is pinned to one thread: threads sharing BLAS's own pool
would be slower, and SGD's products would round with whatever thread
count the host set.  So SGD's bits depend on neither the pool size nor
``OPENBLAS_NUM_THREADS``.  Where that library's thread functions cannot be
found (another BLAS), the pool has one thread, so each depth is one
:func:`train` call on its whole grid, and the thread count is left alone.
"""

from __future__ import annotations

import contextvars
import ctypes
import math
import os
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .gaussians import (MAX_EPOCHS, SHUFFLE_STREAM, is_seed, prior_family, standard_normal,
                        stream_rng)
from .nets import MlpArchitecture, ParamVector, batch_forward, logit_loss, loss_and_param_grads


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
    as-is).  Raises ValueError if ``init_scales`` is empty or a scale is
    not positive, and the TrainingDiverged that training the scales one
    after another would raise: that of the first scale, in order, that
    diverges, at its own step.
    """
    if not init_scales:
        raise ValueError("init_scales is empty: there is no scale to train")
    z = standard_normal(cfg.seed, 0, arch.param_count())
    # The loop owns these rows and updates weights and momenta in place;
    # the one finiteness scan per step keeps every row a valid weight vector.
    w = np.stack([prior_family(arch, s).draw(z).values for s in init_scales])
    u = np.zeros_like(w)
    diverged = None

    for epoch in range(cfg.epochs):
        perm = stream_rng(cfg.seed, SHUFFLE_STREAM + epoch).permutation(data.m)
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

    if diverged is not None:
        raise diverged
    return [ParamVector(row, arch) for row in w]


def _openblas_threads():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None."""
    folder = os.path.dirname(np.__file__) + ".libs"
    try:
        [name] = [f for f in os.listdir(folder)
                  if f.startswith("libscipy_openblas64_") and f.endswith(".so")]
        lib = ctypes.CDLL(os.path.join(folder, name))
        get_threads = lib.scipy_openblas_get_num_threads64_
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (OSError, ValueError, AttributeError):
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


def train_depths(archs: list[MlpArchitecture], data: LabeledDataset, cfg: TrainConfig,
                 init_scales: list[float]):
    """Train every architecture from N(0, s^2) for every initial scale s.

    Yields, arch by arch, what ``train(arch, data, cfg, init_scales)``
    returns, or raises the ValueError or TrainingDiverged it raises, so a
    caller that works through the results in order sees what training the
    archs one after another gives.  Every arch has trained before the
    first yield, in the pool the module docstring describes, and the BLAS
    thread count is restored however the pool ends.
    """
    from concurrent.futures import ThreadPoolExecutor

    blas = _openblas_threads()
    workers = len(os.sched_getaffinity(0)) if blas else 1
    # ceil(workers / depths) slices per depth, at most one per scale; no
    # scales still make one call, so that train raises its own error.
    cuts = min(-(-workers // (len(archs) or 1)), len(init_scales) or 1)
    ends = [len(init_scales) * i // cuts for i in range(cuts + 1)]
    get_threads, set_threads = blas or (lambda: None, lambda n: None)
    saved = get_threads()
    set_threads(1)
    try:
        with ThreadPoolExecutor(workers) as pool:
            # A thread starts in an empty context, so each slice runs in a
            # copy of this one: numpy's errstate is a context variable.
            groups = [[pool.submit(contextvars.copy_context().run, train, arch, data, cfg,
                                   init_scales[lo:hi]) for lo, hi in zip(ends, ends[1:])]
                      for arch in archs]
    finally:
        set_threads(saved)
    # result() raises the slice's own error, here in grid order
    for group in groups:
        yield [params for future in group for params in future.result()]


def evaluate(params: ParamVector, data: LabeledDataset) -> tuple[float, float]:
    """(mean loss, accuracy); argmax ties resolve to the lowest class index."""
    logits = batch_forward(params, data.inputs)
    losses = logit_loss(logits, data.labels)
    pred = logits.argmax(axis=1) + 1
    return float(losses.mean()), float(np.mean(pred == data.labels))
