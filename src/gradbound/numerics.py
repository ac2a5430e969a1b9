"""Small shift-stabilized log-space primitives used throughout the package."""

from __future__ import annotations

import numpy as np


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


def trapezoid_weights(nodes):
    """Composite-trapezoid quadrature weights for sorted 1-D nodes."""
    nodes = np.asarray(nodes, dtype=np.float64)
    if nodes.size < 2:
        raise ValueError("trapezoid rule needs at least 2 nodes")
    w = np.zeros_like(nodes)
    gaps = np.diff(nodes)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    return w
