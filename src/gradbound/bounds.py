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
  from :func:`draw_stats`, the one place that samples weights: the losses
  and the squared input-gradient norms of each weight draw on a dataset.
  Callers compute them once per family and hand them to every estimator
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
from .gaussians import GaussianFamily, common_layout, is_seed, standard_normal
from .nets import ParamVector, batch_losses, first_layer_block, loss_and_sq_grad_norms

OVERFLOW_LOG_LIMIT = float(np.log(np.finfo(np.float32).max))

# Byte budget of one draw_stats chunk's stacked first-layer pre-activations.
FIRST_LAYER_BLOCK_BYTES = 4 << 20
HERBST_NODES = 10_001  # quadrature nodes of herbst_identity_check


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs shared by the Monte-Carlo estimators."""

    n_weight_samples: int = 64
    seed: int = 0
    loss_bound_slack: float = 0.5

    def __post_init__(self):
        # type(), not isinstance(): a bool is an int, and not a count.
        if type(self.n_weight_samples) is not int or self.n_weight_samples < 1:
            raise ValueError("n_weight_samples must be an integer >= 1")
        if not is_seed(self.seed):
            raise ValueError("seed must be an integer in [0, 2**64)")
        # A bool compares as 0 or 1, but it is not a real.
        if (isinstance(self.loss_bound_slack, bool)
                or not 0.0 <= self.loss_bound_slack < math.inf):
            raise ValueError("loss_bound_slack must be finite and nonnegative")


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


def logsumexp(a, axis=None):
    """log(sum(exp(a))) computed with the usual max-shift trick.

    Returns -inf for an all -inf input instead of producing NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    amax = np.max(a, axis=axis, keepdims=True)
    amax = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - amax), axis=axis)) + np.squeeze(amax, axis=axis)
    if axis is None:
        return float(out)
    return out


def logmeanexp(a, axis=None):
    """log(mean(exp(a))); exact 0.0 for an all-zeros input."""
    a = np.asarray(a, dtype=np.float64)
    n = a.size if axis is None else a.shape[axis]
    return logsumexp(a, axis=axis) - np.log(n)


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


def draw_stats(families: list[GaussianFamily], data: LabeledDataset, cfg: EstimatorConfig,
               grads: bool) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Per family and weight draw: losses[S, n] and sq_grad_norms[S, n].

    ``families`` share one layout.  Returns one (losses, sq_grad_norms)
    pair per family, in order; sq_grad_norms is None without ``grads``.
    Row i belongs to draw i, a function of (cfg.seed, i) alone.  Draw i's
    normals z_i are generated once and shared by every family.

    The first layer is taken in columns.  With ``grads``, a zero-mean
    family's draw is sigma * z_i, so its first-layer pre-activation is
    sigma * base_i, base_i = x @ Z1_i^T + b_i from the normals z_i: all
    of draw i's zero-mean families share that one column, each scaling it
    into one reused (n, fan_out) buffer (the scale path).  Every other
    (draw, family) pair is a column of its own.  The path depends only on
    the family and ``grads``, never on the other families in the call.
    The columns, draw-outer, are taken in chunks of as many as fit one
    (n, columns * fan_out) float64 block in ``FIRST_LAYER_BLOCK_BYTES``
    (at least one).  Each chunk's first layer is one GEMM
    (:func:`gradbound.nets.first_layer_block`) into one block buffer
    allocated per call and sized for the largest chunk (never more than
    the call's columns).  Each pair continues from its column,
    which its pass overwrites as scratch, with one pass over ``data``: a
    forward pass, or with ``grads`` one forward+backward pass that yields
    the squared norms without forming the input gradient where the first
    layer narrows (:func:`gradbound.nets.loss_and_sq_grad_norms`); layers
    2+ and the norms use the family's own weights.  Chunk boundaries
    depend only on the column index, so fewer draws
    (S = ``cfg.n_weight_samples``) give a prefix of the rows.

    A scaled row can differ from a one-draw pass in its last bits, since
    sigma * (x @ Z1^T + b) rounds differently from x @ (sigma Z1)^T +
    sigma b.  Forward-only passes stay one column per (draw, family) pair
    because the naive estimator's exponent amplifies last-bit loss changes
    1e5-1e6 times.
    """
    shape = (cfg.n_weight_samples, data.m)
    losses = [np.empty(shape) for _ in families]
    sq_norms = [np.empty(shape) if grads else None for _ in families]
    layout = common_layout(families)
    fan_out = layout.layer_dims()[0][1]
    per_chunk = max(1, FIRST_LAYER_BLOCK_BYTES // (8 * data.m * fan_out))
    scaled = [j for j, f in enumerate(families) if grads and not f.mean.any()]
    own = [j for j in range(len(families)) if j not in scaled]
    buf = np.empty((data.m, fan_out)) if scaled else None
    # One block buffer for every chunk, capped at the call's columns so a
    # large budget never asks for more than the call can use.
    total = cfg.n_weight_samples * (bool(scaled) + len(own))
    block = np.empty(min(per_chunk, total) * data.m * fan_out)

    def columns():
        """(draw index, first-layer weights, indices of the families using them)"""
        for i in range(cfg.n_weight_samples):
            z = standard_normal(cfg.seed, i, layout.param_count())
            if scaled:
                yield i, ParamVector(z, layout), scaled
            yield from ((i, families[j].draw(z), [j]) for j in own)

    cols = columns()
    while chunk := list(itertools.islice(cols, per_chunk)):
        bases = first_layer_block([first for _, first, _ in chunk], data.inputs, block)
        for (i, first, users), base in zip(chunk, bases):
            for j in users:
                w, z1 = first, base
                if j in scaled:
                    # Formed here, not sampled, so a chunk holds one weight
                    # vector per column rather than one per scaled family.
                    w = families[j].draw(first.values)
                    z1 = np.multiply(base, families[j].stddev, out=buf)
                if grads:
                    losses[j][i], sq_norms[j][i] = loss_and_sq_grad_norms(
                        w, data.inputs, data.labels, z1)
                else:
                    losses[j][i] = batch_losses(w, data.inputs, data.labels, z1)
    return list(zip(losses, sq_norms))


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
    q = 8.0 * lip**2 * lam**2 * sigma_p**2
    if q >= m:
        return float("inf")
    return k * d * math.log(m / (m - q))


def expected_grad_norm_mc(sq_grad_norms: np.ndarray) -> tuple[float, float]:
    """MC mean and standard error of the per-draw mean squared input-gradient norm."""
    vals = sq_grad_norms.mean(axis=1)
    se = float(vals.std(ddof=1) / math.sqrt(vals.size)) if vals.size > 1 else 0.0
    return float(vals.mean()), se


def estimate_loss_bound(losses: np.ndarray, slack: float) -> float:
    """On-average loss bound: MC estimate of the expected loss + slack."""
    return float(np.mean(losses.mean(axis=1))) + slack


def gradnorm_bound_curve(sq_grad_norms: np.ndarray, lambdas, m: int,
                         loss_bound: float) -> list[BoundEstimate]:
    """Expected-gradient-norm bounds from one norm matrix, one per lambda.

    Per weight draw the exponent is (2 lam^2 e^b / m) * E||grad_x loss||^2,
    valid for 0 < lam <= m given the on-average loss bound b.
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
            exponents = (2.0 * lam**2 * scale_b / m) * mean_sq
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
    lhs_se = float((du * u + dv * v).std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    rhs_se = 2.0 * float(w.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return EntropyCheck(lhs=lhs, rhs=rhs, lhs_std_error=lhs_se, rhs_std_error=rhs_se)


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
