"""Dense ReLU networks with exact backpropagation to parameters and inputs.

Weights live in a single flat vector so they can be treated as a point in
parameter space by the Gaussian machinery.  The flat layout is, per layer,
the weight matrix in row-major order followed by the bias vector (when the
architecture uses biases).  Labels are 1-based: y ranges over {1..k}.
The loss is the negative log-likelihood (NLL) of the softmax of the logits.

All public operations are pure functions of their arguments; inputs and
weights are treated as read-only.  A pass writes only arrays it owns: each
hidden ReLU overwrites its own pre-activation, and the backward pass masks
its gradient in place, so no layer allocates a second (n, h) array.

Weight stacks
-------------
The forward/backward kernel (``_forward_cached``, ``_backward``) takes
flat weights of shape (P,) or a stack (F, P) of one layout, and every
array past the input then carries the stack's leading axis.  A stack's
layers and weight gradients run as batched matmuls over (F, n, h), one
BLAS product per row with the shapes and operands of the one-vector
pass, so each row gets the bits of its one-vector pass by construction,
whatever the BLAS kernel or thread count.  SGD passes a stack
(:func:`loss_and_param_grads`); the ParamVector functions pass one
vector.  The forward pass caches one array per layer, the activation
entering it; the backward pass takes the loss and its logit gradient
from one :func:`logit_loss_and_gradient` call and reads each ReLU mask
off the cached activations.

Loss kernel
-----------
:func:`logit_loss_and_gradient` is the one loss kernel: a gradient pass
takes the losses and the softmax gradient from it, and a forward-only
pass (:func:`logit_loss`) takes the losses alone, the same bits, without
forming the gradient.  It takes the class max one class column at a
time (:func:`_class_max`), which is exact in any order, and the class
sum as numpy's pairwise ``sum``, whose order sets the loss's bits.

First-layer block
-----------------
Many weight draws on one input batch share the batch's first GEMM:
:func:`first_layer_block` computes ``x @ [W1_1; W1_2; ...]^T`` for
first-layer matrices of one width, once, into a buffer its caller owns
and reuses, and hands back one equal-width (n, c) column view per
matrix; the caller adds any bias.  :func:`batch_losses` and
:func:`loss_and_sq_grad_norms` take a first-layer pre-activation as
``z1`` and continue the pass from it; ``z1`` is the pass's scratch,
overwritten by the first ReLU, so a caller hands each column to one pass
or copies it first.  Without ``z1`` the kernel computes it for their one
draw, so there is one forward/backward kernel either way.
:func:`gradbound.bounds.draw_stats` describes how it builds and shares
the columns, and when a column keeps the bits of a one-draw product.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

# Uniform bound L on the logit-space gradient norm ||softmax(t) - e_y||:
# it is < sqrt(2), approached as the softmax concentrates on a wrong class.
LIPSCHITZ_BOUND = math.sqrt(2.0)


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer shape of a dense feed-forward classifier.

    An empty ``hidden_widths`` means a plain linear model W in R^{k x d}.
    """

    input_dim: int
    class_count: int
    hidden_widths: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.class_count < 1:
            raise ValueError("input_dim and class_count must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")

    @property
    def bias(self) -> bool:
        """No bias on the linear model (exactly k*d parameters), biases on an MLP."""
        return bool(self.hidden_widths)

    @property
    def depth(self) -> int:
        """Number of weight matrices (1 for the linear model)."""
        return len(self.hidden_widths) + 1

    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_widths, self.class_count]
        return list(zip(dims[:-1], dims[1:]))

    def param_count(self) -> int:
        extra = 1 if self.bias else 0
        return sum((fan_in + extra) * fan_out for fan_in, fan_out in self.layer_dims())


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Flat float64 weight vector tied to an architecture."""

    values: np.ndarray
    layout: MlpArchitecture

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        object.__setattr__(self, "values", values)
        expected = self.layout.param_count()
        if values.shape != (expected,):
            raise ValueError(f"expected {expected} parameters, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter vector contains non-finite entries")


def _layers(layout: MlpArchitecture, weights: np.ndarray):
    """Views (W, b) per layer of flat weights of shape (..., P).

    W is (..., fan_out, fan_in) and b is (..., fan_out), or None without
    biases: one vector gives the plain matrices, an (F, P) stack gives F
    of each along a leading axis.  Weights may run past ``layout``'s P
    entries; the rest are not read.
    """
    lead = weights.shape[:-1]
    out = []
    offset = 0
    for fan_in, fan_out in layout.layer_dims():
        w = weights[..., offset : offset + fan_in * fan_out].reshape(*lead, fan_out, fan_in)
        offset += fan_in * fan_out
        b = None
        if layout.bias:
            b = weights[..., offset : offset + fan_out]
            offset += fan_out
        out.append((w, b))
    return out


def arch_for_depth(depth: int, input_dim: int, class_count: int,
                   target_params: int) -> MlpArchitecture:
    """The architecture of depth ``depth`` (its count of weight matrices).

    Depth 1 is the bias-free linear model.  Depth d >= 2 has d-1 hidden
    layers of one width, the width whose parameter count is nearest
    ``target_params`` (the narrower on a tie), so that the depths of a
    sweep are comparable in size.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth == 1:
        return MlpArchitecture(input_dim, class_count)

    def count(h: int) -> int:
        arch = MlpArchitecture(input_dim, class_count, (h,) * (depth - 1))
        return arch.param_count()

    # The smallest h whose count reaches the target: count rises strictly
    # with h and count(h) > h, so h lies in [1, max(target_params, 1)].
    h = 1 + bisect.bisect_left(range(1, target_params + 1), target_params, key=count)
    if h > 1 and abs(count(h - 1) - target_params) <= abs(count(h) - target_params):
        h -= 1
    return MlpArchitecture(input_dim, class_count, (h,) * (depth - 1))


def _check_input(arch: MlpArchitecture, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (arch.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({arch.input_dim},)")
    return x


def _check_label(arch: MlpArchitecture, y: int) -> int:
    y = int(y)
    if not 1 <= y <= arch.class_count:
        raise ValueError(f"label {y} out of range 1..{arch.class_count}")
    return y


def first_layer_block(w1s: list[np.ndarray], x_batch: np.ndarray,
                      out: np.ndarray) -> list[np.ndarray]:
    """First-layer products of several weight matrices from one GEMM.

    ``w1s`` holds first-layer matrices W1_k (c, d) of one width c.
    Computes x @ [W1_1; W1_2; ...]^T as one (n, len(w1s) * c) block
    written into the front of ``out``, a flat float64 buffer the caller
    owns and reuses across blocks, and returns the (n, c) column views,
    in order.  No bias is added.
    """
    w1 = np.concatenate(w1s)
    n, cols = x_batch.shape[0], w1.shape[0]
    block = np.matmul(x_batch, w1.T, out=out[:n * cols].reshape(n, cols))
    return np.split(block, len(w1s), axis=1)


def _forward_cached(layout: MlpArchitecture, weights: np.ndarray, x_batch: np.ndarray,
                    z1: np.ndarray | None = None):
    """Batch forward pass of flat weights (P,) or a stack (F, P).

    Returns (activations entering each layer, logits), the one array per
    layer kept for backprop: the input batch, then each hidden ReLU
    output, which past the input carry the stack's leading axis.  A
    stack's layers run as batched matmuls over (F, n, h), so each row
    gets the bits of its one-vector pass.  ``z1`` is the first layer's
    pre-activation from :func:`first_layer_block` (computed here when
    omitted); it is the pass's scratch, overwritten by the first ReLU.
    Each hidden ReLU is written into the pre-activation array the pass
    owns (its own GEMM's result, or ``z1``), so no layer allocates a
    second (n, h) array; ``x_batch`` is never written.  The batch is taken
    as float64 here, for every pass.
    """
    acts = []
    a = np.asarray(x_batch, dtype=np.float64)
    for i, (w, b) in enumerate(_layers(layout, weights)):
        if i:
            a = np.maximum(z, 0.0, out=z)
        acts.append(a)
        if i == 0 and z1 is not None:
            z = z1
        else:
            z = a @ np.swapaxes(w, -1, -2)
            if b is not None:
                z += b[..., None, :]
    return acts, z


def batch_forward(params: ParamVector, x_batch: np.ndarray) -> np.ndarray:
    return _forward_cached(params.layout, params.values, x_batch)[1]


def _class_max(logits: np.ndarray) -> np.ndarray:
    """``logits.max(axis=-1)``, bit for bit, taken one class column at a
    time: max is exact in any order, and numpy's reduction over a short
    last axis costs several times the k elementwise maxima."""
    tmax = logits[..., 0].copy()
    for j in range(1, logits.shape[-1]):
        np.maximum(tmax, logits[..., j], out=tmax)
    return tmax


def logit_loss_and_gradient(logits: np.ndarray, y_batch: np.ndarray, grad: bool = True
                            ) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-example NLL and, with ``grad``, its gradient with respect to the
    logits (..., n, k); y_batch holds n 1-based labels.  Without ``grad``
    the gradient is None and never formed.

    The loss is (max - t_y) + log sum exp(t - max), whose shift cancels
    before any large intermediate forms, so adding a constant to all
    logits leaves it unchanged to the last bit; the gradient
    softmax(t) - e_y comes from the same shifted exponentials.  The class
    sum stays numpy's pairwise ``sum``, whose order sets the loss's bits.
    A row whose largest logit is not finite (a logit is nan or +inf, or
    all are -inf) has overflowed: its loss is +inf and its gradient row nan.
    """
    y0 = np.asarray(y_batch, dtype=np.int64) - 1
    rows = np.arange(logits.shape[-2])
    tmax = _class_max(logits)
    e = np.subtract(logits, tmax[..., None])
    np.exp(e, out=e)
    spread = e.sum(axis=-1)
    losses = (tmax - logits[..., rows, y0]) + np.log(spread)
    overflowed = ~np.isfinite(tmax)
    if overflowed.any():
        losses[overflowed] = np.inf  # inf - inf would give nan
    if not grad:
        return losses, None
    e /= spread[..., None]
    e[..., rows, y0] -= 1.0
    return losses, e


def logit_loss(logits: np.ndarray, y_batch: np.ndarray) -> np.ndarray:
    """Per-example loss from logits, as in :func:`logit_loss_and_gradient`."""
    return logit_loss_and_gradient(logits, y_batch, grad=False)[0]


def batch_losses(params: ParamVector, x_batch, y_batch,
                 z1: np.ndarray | None = None) -> np.ndarray:
    """Per-example losses; ``z1`` as in :func:`_forward_cached` (overwritten)."""
    logits = _forward_cached(params.layout, params.values, x_batch, z1)[1]
    return logit_loss(logits, y_batch)


def loss(params: ParamVector, x, y: int) -> float:
    """Loss of a single example; nonnegative."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return float(batch_losses(params, x[None, :], np.array([y]))[0])


def _backward(layout: MlpArchitecture, weights: np.ndarray, x_batch, y_batch,
              want_params: bool, z1: np.ndarray | None = None):
    """One forward+backward pass down to the first layer's pre-activation.

    ``weights`` is one flat vector (P,) or a stack (F, P).  Returns
    (per-example losses (n,), first-layer weights W1 (fan_out, d), the
    loss gradient g1 at W1's output (n, fan_out), and with ``want_params``
    the flat gradient of the mean batch loss (P,), else None); a stack
    adds its leading axis F to each.  The input gradient is g1 @ W1;
    callers form it only when they need it.  ``z1`` as in :func:`_forward_cached`,
    whose cached activations give the weight gradients and ReLU masks.
    """
    layers = _layers(layout, weights)
    acts, logits = _forward_cached(layout, weights, x_batch, z1)
    losses, g = logit_loss_and_gradient(logits, y_batch)

    n = acts[0].shape[0]
    grads = np.empty_like(weights) if want_params else None
    grad_layers = _layers(layout, grads) if want_params else None
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if want_params:
            gw, gb = grad_layers[i]
            gw[...] = np.swapaxes(g, -1, -2) @ acts[i] / n
            if gb is not None:
                gb[...] = g.mean(axis=-2)
        if i == 0:
            return losses, w, g, grads
        # ReLU subgradient, 0 at the kink: acts[i] = max(z, 0) > 0 iff z > 0.
        g = g @ w
        g *= acts[i] > 0.0


def loss_and_param_grads(layout: MlpArchitecture, weights: np.ndarray, x_batch, y_batch
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and the gradient of the mean batch loss with
    respect to the flat weights, from one forward+backward pass.

    ``weights`` is one flat vector (P,) of ``layout``, giving (n,) and
    (P,), or a stack (F, P), giving (F, n) and (F, P) from one stacked
    pass whose row f is the one-vector result for ``weights[f]``.
    """
    losses, _, _, grads = _backward(layout, weights, x_batch, y_batch, True)
    return losses, grads


def loss_and_sq_grad_norms(params: ParamVector, x_batch, y_batch,
                           z1: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and squared input-gradient norms, from one pass.

    When the first layer narrows (fan_out < fan_in), ||g1 W1||^2 is taken
    in Gram form as rowsum((g1 @ (W1 W1^T)) * g1), so the (n, d) input
    gradient is never formed; otherwise the gradient is formed and its
    rows are squared and summed.  The choice depends only on the layout,
    except that huge finite weights whose Gram matrix overflows take the
    formed gradient, where a zero of g1 times inf would give nan.  A
    squared norm is never negative, so a nan one can only come from
    overflow (a row whose logits overflowed has a nan gradient): it is
    +inf, as that row's loss is.
    ``z1`` as in :func:`_forward_cached`: the pass's scratch, overwritten.
    """
    losses, w1, g, _ = _backward(params.layout, params.values, x_batch, y_batch, False, z1)
    if w1.shape[0] < w1.shape[1] and np.isfinite(gram := w1 @ w1.T).all():
        sq = np.einsum("ij,ij->i", g @ gram, g)
    else:
        g = g @ w1
        sq = np.einsum("ij,ij->i", g, g)
    return losses, np.where(np.isnan(sq), np.inf, sq)


def batch_input_grads(params: ParamVector, x_batch, y_batch) -> np.ndarray:
    """Per-example gradient of the loss with respect to the input, (n, d)."""
    _, w1, g, _ = _backward(params.layout, params.values, x_batch, y_batch, False)
    return g @ w1


def batch_param_grad(params: ParamVector, x_batch, y_batch) -> np.ndarray:
    """Gradient of the mean batch loss with respect to the flat weights."""
    return loss_and_param_grads(params.layout, params.values, x_batch, y_batch)[1]


def grad_input(params: ParamVector, x, y: int) -> np.ndarray:
    """Gradient of the loss with respect to the input vector x."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return batch_input_grads(params, x[None, :], np.array([y]))[0]


def grad_params(params: ParamVector, x, y: int) -> np.ndarray:
    """Gradient with respect to the weights, in the flat ParamVector layout."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return batch_param_grad(params, x[None, :], np.array([y]))

