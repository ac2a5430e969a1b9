"""Complexity-term and generalization-bound estimators.

Estimator conventions
---------------------
* Everything is computed in float64, and every exponential moment is also
  carried in log space.  The direct (non-log-space) evaluation additionally
  reports overflow: whenever an intermediate exponent exceeds
  ``OVERFLOW_LOG_LIMIT`` (the largest exponent representable in single
  precision, ~88.7), the estimate's ``value`` saturates to +inf with
  ``overflowed=True`` while ``log_space_value`` stays finite.  Single
  precision is the reference because that is where naive pipelines die;
  the saturation is a reported result, not an error.
* Every Monte-Carlo estimator is a reduction over two per-draw matrices
  from :func:`draw_stats`: the losses and the squared input-gradient
  norms of each weight draw on a dataset.  ``draw_stats`` maps standard
  normals its caller supplies to weights; the sweep in
  :mod:`gradbound.cli` is the one place that samples them, once per run
  for all its depths (:func:`gradbound.gaussians.normal_rows`).  Callers
  compute the matrices once per family and hand them to every estimator
  that needs them.  How ``draw_stats`` shares draws and first-layer GEMMs
  between families is described there.
* The m in a bound is the training-sample size of the certificate being
  priced; the dataset the matrices were computed on serves as the proxy
  for the unknown data distribution (callers typically pass a held-out
  split, and reports record that choice).  ``naive_complexity_curve`` is
  the exception: it uses one dataset for both roles and takes m = its
  size, matching how the unstable direct estimate is formed in practice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .datasets import LabeledDataset
from .gaussians import GaussianFamily
from .nets import (ParamVector, _layers, batch_losses, first_layer_block,
                   loss_and_sq_grad_norms)
from .settings import COUNT, NONNEGATIVE, SEED, check_settings, setting

OVERFLOW_LOG_LIMIT = float(np.log(np.finfo(np.float32).max))

# Byte budget of one draw_stats chunk's stacked first-layer pre-activations.
FIRST_LAYER_BLOCK_BYTES = 4 << 20
HERBST_NODES = 10_001  # quadrature nodes of herbst_identity_check


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by the Monte-Carlo estimators."""

    n_weight_samples: int = setting(COUNT, 64)
    seed: int = setting(SEED, 0)
    loss_bound_slack: float = setting(NONNEGATIVE, 0.5)

    def __post_init__(self):
        check_settings(self, "estimator.")


@dataclass(frozen=True)
class BoundEstimate:
    """One bound (a log of an exponential moment) computed two ways.

    ``log_space_value`` carries the computation entirely in log space and
    stays finite whenever representable.  ``value`` follows the direct
    route through actual exponentials; it equals ``log_space_value`` up to
    rounding until an intermediate exponent saturates, at which point it
    is +inf with ``overflowed=True``.  ``std_error`` is the Monte-Carlo
    standard error of the log-space value (0 for deterministic results).
    """

    value: float
    log_space_value: float
    std_error: float
    n_weight_samples: int
    n_data_points: int
    overflowed: bool

    def __post_init__(self):
        if self.overflowed != math.isinf(self.value):
            raise ValueError("overflowed flag must match value == +inf")
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def logmeanexp(a, axis=None):
    """log(mean(exp(a))), as log(sum(exp(a - max))) + max - log(n).

    Exact 0.0 for an all-zeros input, and -inf for an all -inf input
    instead of NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    return out - np.log(a.size if axis is None else a.shape[axis])


def _std_error(x: np.ndarray) -> float:
    """Standard error of the mean of ``x``: 0 for one value, inf when any
    value is non-finite (whose spread is undefined)."""
    n = x.size
    if n < 2:
        return 0.0
    if not np.all(np.isfinite(x)):
        return float("inf")
    return float(x.std(ddof=1) / math.sqrt(n))


def _log_mc_std_error(exponents: np.ndarray) -> float:
    """Delta-method standard error of log-mean-exp over MC exponents."""
    n = exponents.size
    if n < 2:
        return 0.0
    if not np.all(np.isfinite(exponents)):
        return float("inf")
    y = np.exp(exponents - exponents.max())
    return float(np.std(y, ddof=1) / (y.mean() * math.sqrt(n)))


def _finalize(exponents: np.ndarray, n_data: int,
              direct_values: np.ndarray | None = None,
              intermediate_exponents: np.ndarray | None = None) -> BoundEstimate:
    """Assemble a BoundEstimate from per-weight-sample exponents.

    ``intermediate_exponents`` lists any additional exponents the direct
    (non-log-space) evaluation passes through exp(); they participate in
    the overflow decision but not in the value.
    """
    exponents = np.asarray(exponents, dtype=np.float64)
    all_exps = exponents
    if intermediate_exponents is not None:
        all_exps = np.concatenate([exponents.ravel(),
                                   np.asarray(intermediate_exponents).ravel()])
    overflowed = bool(np.any(~np.isfinite(all_exps))
                      or all_exps.max() > OVERFLOW_LOG_LIMIT)
    log_space = logmeanexp(exponents)
    if overflowed:
        value = float("inf")
    else:
        # Same log-of-mean-of-exponentials, but through the literal direct
        # chain; agrees with log_space whenever nothing saturated.
        if direct_values is None:
            direct_values = np.exp(exponents)
        value = float(np.log(np.mean(direct_values)))
    return BoundEstimate(
        value=value, log_space_value=float(log_space),
        std_error=_log_mc_std_error(exponents),
        n_weight_samples=exponents.size, n_data_points=n_data,
        overflowed=overflowed)


def draw_stats(families: list[GaussianFamily], data: LabeledDataset, normals: np.ndarray,
               grads: bool, scale: bool) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per family and weight draw: losses[S, n] and sq_grad_norms[S, n].

    ``families`` share one input dimension d; their layouts may differ
    (the depths of a sweep).  ``normals`` holds one row of standard
    normals per weight draw, S rows in all, at least as long as the
    largest layout's P; draw i's normals z_i for a layout of P parameters
    are the first P entries of row i, shared by every family.  Returns one
    (losses, sq_grad_norms) pair per family, in order; sq_grad_norms is
    None without ``grads``.  Row i of each belongs to draw i, a function
    of (seed, i) alone when ``normals`` comes from
    :func:`gradbound.gaussians.normal_rows`.  ``scale`` puts the zero-mean
    families on the scale path (below); each experiment states its choice
    in :data:`gradbound.cli._SWEEPS`.

    The first layer is taken in columns, each the product of the data
    with one first-layer matrix (:func:`gradbound.nets.first_layer_block`).
    A layout's flat vector starts with W1 (fan_out, d), so draw i's W1 at
    every layout is the first fan_out rows of one wider W1 read from row
    i, and one column can serve several layouts.  Each family reads the
    column of its (stream, source) key, computed in one place:

    * stream: one shared stream for the zero-mean families whose first
      layer narrows (fan_out < d); otherwise the family's layout.
    * source: for a zero-mean family with ``scale``, the raw normals.  Its
      draw is sigma * z_i, so its first-layer pre-activation is
      sigma * (x @ Z1_i^T + b_i) (the scale path).  For a zero-mean family
      without ``scale``, its sigma, x @ (sigma Z1_i)^T.  Otherwise the
      family itself.

    A stream has one column per draw and source: the scale path's first,
    then the others in order of first use.  Every column of a stream is
    as wide as the stream's widest first layer, and its W1 is built from
    its source alone: the raw z_i on the scale path, sigma * z_i for a
    sigma, mean + sigma * z_i for a family.  Each (draw, family) pass then
    draws the family's weights once, and no column draws a weight vector.
    The scale path's readers are grouped by layout; every other reader is
    a group of its own.  Each group takes the column's first fan_out
    entries and adds its own first-layer bias; on the scale path each
    family then scales them by its sigma into one reused pass buffer.  A
    group that is not the column's last copies the column before it adds
    its bias, so the column survives for the next.

    Only narrowing layouts share a stream.  There the first GEMM, over d
    inputs, is a pass's largest cost (d = 784 on desk digits), and one
    product serves every depth.  Where the first layer widens (d = 16
    under 1053-wide layers) the product is cheap, a column padded to the
    widest layer would cost memory and time, and a block's width can
    change a column's last bits, so widening layouts keep their own
    blocks and bits.  Whether a shared column gives a family the bits of
    a call over its own depth depends on the GEMM's shape.  Under
    OpenBLAS 0.3.31 (SkylakeX kernel, 1 or 2 threads) at d = 784, over
    the depths 1-5 of a 20 000-parameter sweep, the 23-25 wide first
    layers kept their bits at every n from 8 to 600.  The linear model's
    k-wide column, which a lone depth-1 call computes on its own, kept
    its bits for n * k > 150 (from n = 51 at k = 3, 76 at k = 2 and 16 at
    k = 10), and its losses and squared norms moved by up to 2e-13
    relative for n * k <= 150.  The desk and bench sweeps run on 1024 or
    more inputs.

    Each stream's columns, draw-outer, are taken in chunks of as many as
    fit one (n, total width) float64 block in ``FIRST_LAYER_BLOCK_BYTES``
    (at least one).  Each chunk is one GEMM into one block buffer
    allocated per stream and sized for its largest chunk.  ``normals`` is
    only read, so a sweep holds one (S, P_max) float64 matrix, S x P_max x
    8 bytes, for all its depths.  Each (draw, family) pair continues from
    its column with one pass over ``data``: a forward pass, or with
    ``grads`` one forward+backward pass that yields the squared norms
    without forming the input gradient where the first layer narrows
    (:func:`gradbound.nets.loss_and_sq_grad_norms`); layers 2+ and the
    norms use the family's own weights.  Which path a family takes depends
    only on the family and ``scale``; chunk boundaries depend only on the
    column index, so fewer draws (a prefix of the rows of ``normals``) give
    a prefix of the rows.

    A scaled row can differ from a one-draw pass in its last bits, since
    sigma * (x @ Z1^T + b) rounds differently from x @ (sigma Z1)^T +
    sigma b.  Only the naive estimator's sweep keeps one column per sigma
    (``scale`` false): its exponent amplifies last-bit loss changes
    1e5-1e6 times, so its rows stay those of a one-draw pass.  The other
    sweeps take the scale path with or without ``grads``, so a draw's one
    product serves every sigma, and a forward-only family's losses are
    the bits of its gradient pass's losses: the same scaled first layer,
    the same forward pass and the same loss kernel.
    """
    d = families[0].layout.input_dim
    if any(f.layout.input_dim != d for f in families):
        raise ValueError("families have different input dimensions")
    p = max(f.layout.param_count() for f in families)
    if normals.ndim != 2 or normals.shape[1] < p:
        raise ValueError(f"normals must be an (S, >= {p}) matrix, got {normals.shape}")
    n_draws, m = normals.shape[0], data.m
    losses = [np.empty((n_draws, m)) for _ in families]
    sq_norms = [np.empty((n_draws, m)) if grads else None for _ in families]

    # stream -> source -> group -> indices of the families that read the
    # source's columns; the shared stream and the scale path's source are None.
    streams = {}
    for j, f in enumerate(families):
        zero_mean = not f.mean.any()
        stream = None if zero_mean and _fan_out(f.layout) < d else f.layout
        source = f if not zero_mean else None if scale else f.stddev
        group = f.layout if source is None else j
        streams.setdefault(stream, {}).setdefault(source, {}).setdefault(group, []).append(j)

    def run(sources):
        # Every group reads one layout; the stream's columns are as wide as
        # its widest first layer.
        top = max((families[js[0]].layout for _, groups in sources for js in groups.values()),
                  key=_fan_out)
        width = _fan_out(top)
        # Scratch for a pass's scaled first layer and for a column copied
        # before a bias is added, each the front of one flat buffer.
        scaled_buf = np.empty(m * width) if sources[0][0] is None else None
        copy_buf = np.empty(m * width) if any(len(g) > 1 for _, g in sources) else None

        def columns():
            """(draw index, W1, scaled, groups) per draw and source"""
            for i, row in enumerate(normals):
                z = _layers(top, row)[0][0]
                for s, groups in sources:
                    w1 = (z if s is None else s * z if isinstance(s, float)
                          else _layers(top, s.mean)[0][0] + s.stddev * z)
                    yield i, w1, s is None, list(groups.values())

        for (i, _, scaled, groups), column in _in_blocks(
                columns(), n_draws * len(sources), width, data.inputs):
            row = normals[i]
            for g, js in enumerate(groups):
                layout = families[js[0]].layout
                z1 = column[:, :_fan_out(layout)]
                if g < len(groups) - 1:  # a later group reads the column too
                    copy = _front(copy_buf, z1.shape)
                    copy[...] = z1
                    z1 = copy
                for j in js:
                    w = families[j].draw(row[:layout.param_count()])
                    if j == js[0]:  # the group's one bias add
                        b = _layers(layout, row if scaled else w.values)[0][1]
                        if b is not None:
                            z1 += b
                    z = z1
                    if scaled:
                        z = np.multiply(z1, families[j].stddev, out=_front(scaled_buf, z1.shape))
                    if grads:
                        losses[j][i], sq_norms[j][i] = loss_and_sq_grad_norms(
                            w, data.inputs, data.labels, z)
                    else:
                        losses[j][i] = batch_losses(w, data.inputs, data.labels, z)

    # The shared stream first, and in each stream the scale path's column
    # first.  Each stream runs in a call of its own, so its buffers go
    # before the next's come.
    for _, sources in sorted(streams.items(), key=lambda s: s[0] is not None):
        run(sorted(sources.items(), key=lambda s: s[0] is not None))
    return list(zip(losses, sq_norms))


def _fan_out(layout) -> int:
    return layout.layer_dims()[0][1]


def _front(buf: np.ndarray, shape) -> np.ndarray:
    """The front of a flat buffer as a contiguous array of ``shape``."""
    return buf[:math.prod(shape)].reshape(shape)


def _in_blocks(columns, count, width, x):
    """Each of ``count`` (draw index, W1, ...) columns, W1 ``width`` rows,
    with its (n, width) view of a first-layer block: as many columns per
    block as fit ``FIRST_LAYER_BLOCK_BYTES`` (at least one), one GEMM each
    into one buffer sized for the largest block."""
    n = x.shape[0]
    per_block = min(count, max(1, FIRST_LAYER_BLOCK_BYTES // (8 * n * width)))
    block = np.empty(n * width * per_block)
    while chunk := list(itertools.islice(columns, per_block)):
        yield from zip(chunk, first_layer_block([c[1] for c in chunk], x, block))


def naive_complexity_curve(losses: np.ndarray, lambdas) -> list[BoundEstimate]:
    """Naive complexity-term estimates from a loss matrix, one per lambda.

    For each weight draw (row of ``losses``) the exponent is
    lam * mean-loss(w) + m * log M(lam/m), the factorized form of the
    exponentiated generalization gap with the dataset standing in for the
    distribution (m = number of columns).  The direct-space value
    multiplies exp(lam * mean-loss) by M(lam/m)^m literally, which is
    exactly the numerically fragile product the log-space form avoids.
    """
    m = losses.shape[1]
    mean_losses = losses.mean(axis=1)
    out = []
    for lam in lambdas:
        lam = float(lam)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        log_m_hat = logmeanexp(-(lam / m) * losses, axis=1)
        exponents = lam * mean_losses + m * log_m_hat
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            m_hat = np.mean(np.exp(-(lam / m) * losses), axis=1)
            direct = np.exp(lam * mean_losses) * m_hat**m
        # The direct chain exponentiates lam * mean-loss before the
        # cancelling MGF power, so that factor drives the overflow flag.
        out.append(_finalize(exponents, n_data=m, direct_values=direct,
                             intermediate_exponents=lam * mean_losses))
    return out


def gradnorm_integral_bound(losses: np.ndarray, sq_grad_norms: np.ndarray, lam: float,
                            m: int, n_nodes: int) -> BoundEstimate:
    """Gradient-norm complexity bound with the inner alpha integral.

    Per weight draw (row of the matrices) the exponent is

        2 lam * E_data[ ||grad_x loss||^2 * I ],
        I = integral over [0, lam/m] of exp(-alpha loss) / M(alpha) d alpha,

    with M(alpha) the empirical MGF of the loss and the integral evaluated
    by composite trapezoid quadrature on ``n_nodes`` >= 2 uniform nodes.
    """
    if lam <= 0 or m < 1:
        raise ValueError("lambda must be positive and m >= 1")
    if n_nodes < 2:
        raise ValueError("trapezoid quadrature needs at least 2 nodes")
    nodes = np.linspace(0.0, lam / m, n_nodes)
    exponents = np.empty(losses.shape[0])
    for i, (lo, gg) in enumerate(zip(losses, sq_grad_norms)):
        log_m = logmeanexp(-nodes[:, None] * lo[None, :], axis=1)
        integrand = np.exp(-nodes[:, None] * lo[None, :] - log_m[:, None])
        integral = np.trapezoid(integrand, nodes, axis=0)
        exponents[i] = 2.0 * lam * float(np.mean(gg * integral))
    return _finalize(exponents, n_data=losses.shape[1])


def linear_gradnorm_bound(k: int, d: int, m: int, lip: float, sigma_p: float,
                          lam: float) -> float:
    """Closed-form complexity bound for linear models with a Lipschitz loss.

    Equals k*d*log(m / (m - 8 L^2 lam^2 sigma_p^2)); +inf at and beyond the
    pole 8 L^2 lam^2 sigma_p^2 >= m.
    """
    # Squares by multiplication: a float's ** raises OverflowError where
    # the product rounds to +inf.
    q = 8.0 * (lip * lip) * (lam * lam) * (sigma_p * sigma_p)
    if q >= m:
        return float("inf")
    return k * d * math.log(m / (m - q))


def expected_grad_norm_mc(sq_grad_norms: np.ndarray) -> tuple[float, float]:
    """MC mean and standard error of the per-draw mean squared input-gradient
    norm; the error is inf when a draw's mean is."""
    vals = sq_grad_norms.mean(axis=1)
    return float(vals.mean()), _std_error(vals)


def estimate_loss_bound(losses: np.ndarray, slack: float) -> float:
    """On-average loss bound: MC estimate of the expected loss + slack."""
    return float(np.mean(losses.mean(axis=1))) + slack


def gradnorm_bound_curve(sq_grad_norms: np.ndarray, lambdas, m: int,
                         loss_bound: float) -> list[BoundEstimate]:
    """Expected-gradient-norm bounds from one norm matrix, one per lambda.

    Per weight draw the exponent is (2 lam^2 e^b / m) * E||grad_x loss||^2,
    valid for 0 < lam <= m given the on-average loss bound b.  e^b
    saturates to inf for b >= 700; a draw whose norms are all 0 still
    has exponent 0.
    """
    lambdas = [float(l) for l in lambdas]
    for lam in lambdas:
        if not 0.0 < lam <= m:
            raise ValueError(f"lambda must lie in (0, m]; got {lam} with m={m}")
    mean_sq = sq_grad_norms.mean(axis=1)
    out = []
    with np.errstate(over="ignore"):
        scale_b = math.exp(loss_bound) if loss_bound < 700 else float("inf")
        for lam in lambdas:
            exponents = np.multiply(2.0 * lam**2 * scale_b / m, mean_sq, where=mean_sq > 0,
                                    out=np.zeros_like(mean_sq))
            out.append(_finalize(exponents, n_data=sq_grad_norms.shape[1]))
    return out


@dataclass(frozen=True)
class EntropyCheck:
    """Both sides of the Gaussian log-Sobolev inequality, with MC errors."""

    lhs: float
    rhs: float
    lhs_std_error: float
    rhs_std_error: float

    @property
    def margin(self) -> float:
        """rhs + 3 * combined std error - lhs; nonnegative when satisfied."""
        return self.rhs + 3.0 * (self.lhs_std_error + self.rhs_std_error) - self.lhs


def log_sobolev_check(params: ParamVector, gaussian_data: LabeledDataset, alpha: float,
                      n: int | None = None) -> EntropyCheck:
    """MC estimate of the entropy inequality on class-conditional Gaussian data.

    lhs = alpha M'(alpha) - M(alpha) log M(alpha) (the entropy of
    exp(-alpha loss)); rhs = 2 E[exp(-alpha loss) alpha^2 ||grad_x loss||^2].
    Uses the first n examples of ``gaussian_data`` (all by default).  The
    lhs standard error comes from the delta method for f(u, v) =
    alpha*u - v log v over the sample means of u = -loss * exp(-alpha loss)
    and v = exp(-alpha loss): with (du, dv) the gradient of f there, it is
    the standard error of the mean of du*u + dv*v, whose variance is the
    quadratic form du^2 Var u + dv^2 Var v + 2 du dv Cov(u, v).
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = gaussian_data.m if n is None else int(n)
    if not 1 <= n <= gaussian_data.m:
        raise ValueError("n out of range")
    losses, sq = loss_and_sq_grad_norms(params, gaussian_data.inputs[:n],
                                        gaussian_data.labels[:n])

    v = np.exp(-alpha * losses)
    u = -losses * v
    w = v * alpha**2 * sq
    m_hat = float(v.mean())
    mprime_hat = float(u.mean())
    lhs = alpha * mprime_hat - m_hat * math.log(m_hat)
    rhs = 2.0 * float(w.mean())

    du = alpha
    dv = -(1.0 + math.log(m_hat))
    return EntropyCheck(lhs=lhs, rhs=rhs, lhs_std_error=_std_error(du * u + dv * v),
                        rhs_std_error=2.0 * _std_error(w))


def mgf_decomposition_check(losses, lam: float, m: int) -> tuple[float, float]:
    """Exact check that E_S exp(lam (L_D - L_S)) factorizes into
    exp(lam L_D) M(lam/m)^m on a finite uniform loss distribution.

    lhs enumerates all |support|^m equally likely samples S; rhs is the
    closed form.  Both are exact expectations, so they agree to rounding.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    s = losses.size
    if s < 1 or m < 1:
        raise ValueError("need a nonempty support and m >= 1")
    if s**m > 10**6:
        raise ValueError(f"enumeration of {s}^{m} samples is too large")
    l_d = float(losses.mean())
    tuples = np.indices((s,) * m).reshape(m, -1)
    sample_means = losses[tuples].mean(axis=0)
    lhs = float(np.mean(np.exp(lam * (l_d - sample_means))))
    rhs = float(np.exp(lam * l_d) * np.mean(np.exp(-(lam / m) * losses)) ** m)
    return lhs, rhs


def herbst_identity_check(losses, lam: float, m: int) -> tuple[float, float]:
    """Reconstruct M(lam/m) from the cumulant derivative on a finite support.

    lhs is the exact MGF mean(exp(-(lam/m) loss)).  rhs integrates
    K'(alpha) = (alpha M'(alpha) - M log M) / (alpha^2 M) by dense
    trapezoid quadrature on ``HERBST_NODES`` nodes from K(0) = -mean(loss):

        rhs = exp(-(lam/m) L_D + (lam/m) * integral of K' over [0, lam/m]).

    The alpha -> 0 limit of K' is Var(loss)/2, used at the first node.
    """
    losses = np.asarray(losses, dtype=np.float64).ravel()
    if losses.size < 1 or m < 1:
        raise ValueError("need a nonempty support and m >= 1")
    upper = lam / m
    l_d = float(losses.mean())
    lhs = float(np.mean(np.exp(-upper * losses)))
    if upper == 0.0:
        return lhs, 1.0

    nodes = np.linspace(0.0, upper, HERBST_NODES)
    e = np.exp(-nodes[1:, None] * losses[None, :])
    m_a = e.mean(axis=1)
    mprime_a = (-losses[None, :] * e).mean(axis=1)
    kprime = np.empty(HERBST_NODES)
    kprime[0] = float(losses.var()) / 2.0
    kprime[1:] = (nodes[1:] * mprime_a - m_a * np.log(m_a)) / (nodes[1:] ** 2 * m_a)
    integral = float(np.trapezoid(kprime, nodes))
    rhs = math.exp(-upper * l_d + upper * integral)
    return lhs, rhs
