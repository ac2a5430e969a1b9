"""Dense ReLU networks with exact backpropagation to parameters and inputs.

Weights live in a single flat vector so they can be treated as a point in
parameter space by the Gaussian machinery.  The flat layout is, per layer,
the weight matrix in row-major order followed by the bias vector (when the
architecture uses biases).  Labels are 1-based: y ranges over {1..k}.

All public operations are pure functions of their arguments; arrays are
treated as read-only.

Weight stacks
-------------
The forward/backward kernel (``_forward_cached``, ``_backward``) takes
flat weights of shape (P,) or a stack (F, P) of one layout, and every
array past the input then carries the stack's leading axis.  A stack's
layers run as batched matmuls over (F, n, h), one BLAS product per row
with the shapes of the one-vector pass, and its first-layer weight
gradient is one ``[g1_1 ... g1_F]^T @ x`` GEMM; with OpenBLAS on x86-64
each row gets the bits of its one-vector pass.  SGD passes a stack
(:func:`loss_and_param_grads`); the ParamVector functions pass one
vector.

First-layer block
-----------------
Many weight draws of one layout on one input batch share the batch's
first GEMM: :func:`first_layer_block` computes ``x @ [W1_1; W1_2; ...]^T``
once, adds every draw's first-layer bias in place, and hands back one
(n, fan_out) column slice per draw.  :func:`batch_losses` and
:func:`loss_and_sq_grad_norms` take such a slice as ``z1`` and continue
the pass from it; without ``z1`` the kernel computes the same slice for
their one draw, so there is one forward/backward kernel either way.  A
column of the block can differ from the per-draw product in its last
bits, because the BLAS may block the wider GEMM differently; on the
desk shapes with OpenBLAS on x86-64 they agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import softmax

NLL = "nll"
MULTICLASS_HINGE = "hinge"
LOSS_KINDS = (NLL, MULTICLASS_HINGE)


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer shape of a dense feed-forward classifier.

    An empty ``hidden_widths`` means a plain linear model W in R^{k x d}.
    ``bias=None`` resolves to the convention: no bias for the linear model
    (parameter count exactly k*d), biases on for proper MLPs.
    """

    input_dim: int
    class_count: int
    hidden_widths: tuple[int, ...] = ()
    bias: bool | None = None

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.class_count < 1:
            raise ValueError("input_dim and class_count must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.bias is None:
            object.__setattr__(self, "bias", bool(self.hidden_widths))

    @property
    def is_linear(self) -> bool:
        return not self.hidden_widths

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
    of each along a leading axis.
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


def unpack_layers(params: ParamVector) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Views (W, b) per layer; W has shape (fan_out, fan_in)."""
    return _layers(params.layout, params.values)


def equal_param_hidden_widths(depth: int, input_dim: int, class_count: int,
                              target_params: int, bias: bool = True) -> tuple[int, ...]:
    """Uniform hidden width giving roughly ``target_params`` parameters.

    ``depth`` counts weight matrices, so depth d uses d-1 hidden layers.
    Used by variance/depth sweeps so that models of different depth are
    comparable in size.
    """
    if depth < 2:
        raise ValueError("equal-parameter widths only apply to depth >= 2")

    def count(h: int) -> int:
        arch = MlpArchitecture(input_dim, class_count, (h,) * (depth - 1), bias=bias)
        return arch.param_count()

    h = 1
    while count(h) < target_params:
        h += 1
    if h > 1 and abs(count(h - 1) - target_params) <= abs(count(h) - target_params):
        h -= 1
    return (h,) * (depth - 1)


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


def first_layer_block(params_list: list[ParamVector], x_batch: np.ndarray) -> list[np.ndarray]:
    """First-layer pre-activations of several draws from one GEMM.

    ``params_list`` shares one layout.  Computes x @ [W1_1; W1_2; ...]^T
    as one (n, len(params_list) * fan_out) block, adds each draw's
    first-layer bias into its columns in place, and returns the per-draw
    (n, fan_out) column views, in order.
    """
    firsts = [unpack_layers(p)[0] for p in params_list]
    # One draw multiplies its own W1 view without a copy.
    w1 = firsts[0][0] if len(firsts) == 1 else np.concatenate([w for w, _ in firsts])
    block = x_batch @ w1.T
    fan_out = firsts[0][0].shape[0]
    views = [block[:, k * fan_out:(k + 1) * fan_out] for k in range(len(firsts))]
    for z1, (_, b) in zip(views, firsts):
        if b is not None:
            z1 += b
    return views


def _forward_cached(layout: MlpArchitecture, weights: np.ndarray, x_batch: np.ndarray,
                    z1: np.ndarray | None = None):
    """Batch forward pass of flat weights (P,) or a stack (F, P), keeping
    pre-activations for backprop.

    Returns (activations entering each layer, pre-activations per layer,
    logits); past the input, each carries the stack's leading axis.  ReLU
    is applied after every layer except the last, and a stack's layers
    run as batched matmuls over (F, n, h), so each row gets the bits of
    its one-vector pass.  ``z1`` is the first layer's pre-activation
    from :func:`first_layer_block` (computed here when omitted); it is
    read, never written.
    """
    acts, pres = [], []
    a = x_batch
    for i, (w, b) in enumerate(_layers(layout, weights)):
        if i:
            a = np.maximum(pres[-1], 0.0)
        acts.append(a)
        if i == 0 and z1 is not None:
            z = z1
        else:
            z = a @ np.swapaxes(w, -1, -2)
            if b is not None:
                z += b[..., None, :]
        pres.append(z)
    return acts, pres, pres[-1]


def batch_forward(params: ParamVector, x_batch: np.ndarray) -> np.ndarray:
    x_batch = np.asarray(x_batch, dtype=np.float64)
    return _forward_cached(params.layout, params.values, x_batch)[2]


def forward(params: ParamVector, x) -> np.ndarray:
    """Logits for a single input vector."""
    x = _check_input(params.layout, x)
    return batch_forward(params, x[None, :])[0]


def logit_loss(logits: np.ndarray, y_batch: np.ndarray, kind: str) -> np.ndarray:
    """Per-example loss from logits (..., n, k); y_batch holds n 1-based labels."""
    y0 = np.asarray(y_batch, dtype=np.int64) - 1
    rows = np.arange(logits.shape[-2])
    if kind == NLL:
        # (max - t_y) + log sum exp(t - max): the shift cancels before any
        # large intermediate forms, so adding a constant to all logits
        # leaves the result unchanged to the last bit.
        tmax = logits.max(axis=-1)
        spread = np.exp(logits - tmax[..., None]).sum(axis=-1)
        return (tmax - logits[..., rows, y0]) + np.log(spread)
    if kind == MULTICLASS_HINGE:
        margins = logits - logits[..., rows, y0][..., None] + 1.0
        margins[..., rows, y0] = 0.0
        return margins.max(axis=-1)
    raise ValueError(f"unknown loss kind: {kind!r}")


def logit_gradient(logits: np.ndarray, y_batch: np.ndarray, kind: str) -> np.ndarray:
    """Gradient of the loss with respect to the logits (..., n, k), per example.

    For NLL this is softmax(t) - e_y.  For the hinge loss it is
    e_{y*} - e_y for the attaining class y* (ties resolved to the smallest
    index, matching np.argmax), or zero when the margin term y* = y wins.
    """
    y0 = np.asarray(y_batch, dtype=np.int64) - 1
    rows = np.arange(logits.shape[-2])
    if kind == NLL:
        g = softmax(logits, axis=-1)
        g[..., rows, y0] -= 1.0
        return g
    if kind == MULTICLASS_HINGE:
        margins = logits - logits[..., rows, y0][..., None] + 1.0
        margins[..., rows, y0] = 0.0
        ystar = margins.argmax(axis=-1)
        g = np.zeros_like(logits)
        hit = np.nonzero(ystar != y0)
        g[(*hit, ystar[hit])] = 1.0
        g[(*hit, y0[hit[-1]])] = -1.0
        return g
    raise ValueError(f"unknown loss kind: {kind!r}")


def batch_losses(params: ParamVector, x_batch, y_batch, kind: str,
                 z1: np.ndarray | None = None) -> np.ndarray:
    """Per-example losses; ``z1`` as in :func:`_forward_cached`."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    logits = _forward_cached(params.layout, params.values, x_batch, z1)[2]
    return logit_loss(logits, y_batch, kind)


def loss(params: ParamVector, x, y: int, kind: str) -> float:
    """Loss of a single example; nonnegative for both kinds."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return float(batch_losses(params, x[None, :], np.array([y]), kind)[0])


def _backward(layout: MlpArchitecture, weights: np.ndarray, x_batch, y_batch, kind: str,
              want_params: bool, z1: np.ndarray | None = None):
    """One forward+backward pass down to the first layer's pre-activation.

    ``weights`` is one flat vector (P,) or a stack (F, P).  Returns
    (per-example losses (n,), first-layer weights W1 (fan_out, d), the
    loss gradient g1 at W1's output (n, fan_out), and with ``want_params``
    the flat gradient of the mean batch loss (P,), else None); a stack
    adds its leading axis F to each.  The input gradient is g1 @ W1;
    callers form it only when they need it.  ``z1`` as in
    :func:`_forward_cached`.
    """
    x_batch = np.asarray(x_batch, dtype=np.float64)
    layers = _layers(layout, weights)
    acts, pres, logits = _forward_cached(layout, weights, x_batch, z1)
    losses = logit_loss(logits, y_batch, kind)
    g = logit_gradient(logits, y_batch, kind)

    n = x_batch.shape[0]
    grads = np.empty_like(weights) if want_params else None
    grad_layers = _layers(layout, grads) if want_params else None
    for i in range(len(layers) - 1, -1, -1):
        w, b = layers[i]
        if want_params:
            gw, gb = grad_layers[i]
            if i == 0:
                # [g1_1 ... g1_F] as (n, F * fan_out), so the stack's
                # first-layer weight gradients are one GEMM (g1 itself
                # for one vector).
                g_cols = np.moveaxis(g, -2, 0).reshape(n, -1)
                gw[...] = (g_cols.T @ x_batch / n).reshape(gw.shape)
            else:
                gw[...] = np.swapaxes(g, -1, -2) @ acts[i] / n
            if gb is not None:
                gb[...] = g.mean(axis=-2)
        if i == 0:
            return losses, w, g, grads
        # ReLU subgradient: derivative 0 at the kink.
        g = (g @ w) * (pres[i - 1] > 0.0)


def loss_and_grad(params: ParamVector, x_batch, y_batch, kind: str,
                  want_params: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and one gradient, from one forward+backward pass.

    The gradient is the per-example input gradient, (n, d), or with
    ``want_params`` the gradient of the mean batch loss with respect to the
    flat weights (the input gradient is then not formed).
    """
    losses, w1, g, grads = _backward(params.layout, params.values, x_batch, y_batch,
                                     kind, want_params)
    if want_params:
        return losses, grads
    return losses, g @ w1


def loss_and_param_grads(layout: MlpArchitecture, weights: np.ndarray, x_batch, y_batch,
                         kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Losses (F, n) and mean-batch-loss gradients (F, P) of a weight stack.

    ``weights`` is an (F, P) stack of flat vectors of ``layout``; one
    stacked forward+backward pass serves them all.  Row f is what
    :func:`loss_and_grad` with ``want_params`` gives for ``weights[f]``.
    """
    losses, _, _, grads = _backward(layout, weights, x_batch, y_batch, kind, True)
    return losses, grads


def loss_and_sq_grad_norms(params: ParamVector, x_batch, y_batch, kind: str,
                           z1: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per-example losses and squared input-gradient norms, from one pass.

    When the first layer narrows (fan_out < fan_in), ||g1 W1||^2 is taken
    in Gram form as rowsum((g1 @ (W1 W1^T)) * g1), so the (n, d) input
    gradient is never formed; otherwise the gradient is formed and its
    rows are squared and summed.  The choice depends only on the layout.
    ``z1`` as in :func:`_forward_cached`.
    """
    losses, w1, g, _ = _backward(params.layout, params.values, x_batch, y_batch, kind,
                                 False, z1)
    if w1.shape[0] < w1.shape[1]:
        return losses, np.einsum("ij,ij->i", g @ (w1 @ w1.T), g)
    g = g @ w1
    return losses, np.einsum("ij,ij->i", g, g)


def batch_input_grads(params: ParamVector, x_batch, y_batch, kind: str) -> np.ndarray:
    """Per-example gradient of the loss with respect to the input, (n, d)."""
    return loss_and_grad(params, x_batch, y_batch, kind)[1]


def batch_param_grad(params: ParamVector, x_batch, y_batch, kind: str) -> np.ndarray:
    """Gradient of the mean batch loss with respect to the flat weights."""
    return loss_and_grad(params, x_batch, y_batch, kind, want_params=True)[1]


def grad_input(params: ParamVector, x, y: int, kind: str) -> np.ndarray:
    """Gradient of the loss with respect to the input vector x."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return batch_input_grads(params, x[None, :], np.array([y]), kind)[0]


def grad_params(params: ParamVector, x, y: int, kind: str) -> np.ndarray:
    """Gradient with respect to the weights, in the flat ParamVector layout."""
    x = _check_input(params.layout, x)
    y = _check_label(params.layout, y)
    return batch_param_grad(params, x[None, :], np.array([y]), kind)


def lipschitz_bound(kind: str) -> float:
    """Uniform bound L on the logit-space gradient norm ||grad_t l(t, y)||.

    NLL: ||softmax(t) - e_y|| < sqrt(2) (approached as the softmax
    concentrates on a wrong class).  Hinge: the subgradient is either zero
    or +-1 at exactly two coordinates, so the norm is at most sqrt(2).
    """
    if kind not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind: {kind!r}")
    return math.sqrt(2.0)
