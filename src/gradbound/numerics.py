"""Small shift-stabilized log-space primitives used throughout the package.

Quadrature is ``np.trapezoid``, which sums in numpy rather than in a BLAS
dot product, so its bits do not depend on the BLAS thread count or kernel.
"""

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

