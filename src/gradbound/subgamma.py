"""Sub-gamma envelope fitting over measured complexity curves.

A measured curve C(lambda) is certified sub-gamma by exhibiting (v, c)
with C(lambda) <= lambda^2 v / (2 (1 - lambda c)) on every grid point for
0 < lambda < 1/c.  Because the definition is a one-sided inequality, the
fit is envelope-dominating (residual exactly zero) rather than least
squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C_CANDIDATES = 50
C_MIN = 1e-8
# Multiplicative pad on the fitted v so the envelope weakly dominates the
# binding grid point under floating-point rounding.
_V_PAD = 1.0 + 1e-12
_V_FLOOR = float(np.finfo(float).smallest_subnormal)


@dataclass(frozen=True)
class SubGammaFit:
    """Envelope parameters: valid when residual == 0 on the fitted grid."""

    v: float
    c: float
    lambda_max: float
    residual: float


def _envelope(v, c, lam):
    """lambda^2 v / (2 (1 - lambda c)), elementwise over arrays; unchecked."""
    return lam**2 * v / (2.0 * (1.0 - lam * c))


def envelope(v: float, c: float, lam: float) -> float:
    """lambda^2 v / (2 (1 - lambda c)); defined for 0 < lambda < 1/c."""
    if c <= 0 or v < 0:
        raise ValueError("v must be nonnegative and c positive")
    if not 0.0 < lam < 1.0 / c:
        raise ValueError(f"lambda must lie in (0, {1.0 / c}); got {lam}")
    return _envelope(v, c, lam)


def _validated_grid(grid) -> tuple[np.ndarray, np.ndarray]:
    pts = [(float(l), float(cv)) for l, cv in grid]
    if not pts:
        raise ValueError("grid is empty")
    lams = np.array([p[0] for p in pts])
    cs = np.array([p[1] for p in pts])
    if np.any(lams <= 0):
        raise ValueError("grid lambdas must be positive")
    if not np.all(np.isfinite(cs)):
        raise ValueError("grid contains non-finite values; restrict to the finite region")
    return lams, cs


def fit(grid, c_max: float | None = None) -> SubGammaFit:
    """Dominating (v, c) with minimal envelope area over the grid's range.

    For each c of ``C_CANDIDATES`` log-spaced candidates over
    [``C_MIN``, 1/max(lambda)) (the upper endpoint excluded so every grid
    point stays inside the validity interval; ``c_max`` caps it further,
    e.g. to certify a fit with a prescribed scale ceiling), the minimal
    dominating v is max over points of 2 C (1 - lambda c) / lambda^2,
    floored at zero.  Among candidates the pair with the smallest integral
    of the envelope over [min lambda, max lambda] wins.
    """
    lams, cs = _validated_grid(grid)
    lam_max = float(lams.max())
    upper = 1.0 / lam_max if c_max is None else min(c_max, 1.0 / lam_max)
    if upper <= C_MIN:
        raise ValueError("c candidate range is empty")
    candidates = np.geomspace(C_MIN, upper, C_CANDIDATES + 1)[:-1]

    mesh = np.linspace(float(lams.min()), lam_max, 512)
    best = None
    for c in candidates:
        v = float(np.max(2.0 * cs * (1.0 - lams * c) / lams**2))
        v = max(v, 0.0) * _V_PAD
        area = float(np.trapezoid(_envelope(v, c, mesh), mesh))
        if best is None or area < best[0]:
            best = (area, v, float(c))
    _, v, c = best

    env = _envelope(v, c, lams)
    # Near the subnormal range the quotients above lose their relative
    # precision (or flush to zero), which the pad cannot absorb: raise v
    # until the envelope dominates as computed.
    while np.any(cs > env):
        v = max(2.0 * v, _V_FLOOR)
        env = _envelope(v, c, lams)
    residual = float(max(0.0, np.max(cs - env)))
    return SubGammaFit(v=v, c=c, lambda_max=1.0 / c, residual=residual)


def check(fitted: SubGammaFit, grid, tol: float = 1e-12) -> bool:
    """True iff every grid point is dominated by the envelope within tol."""
    lams, cs = _validated_grid(grid)
    if np.any(lams >= 1.0 / fitted.c):
        return False
    env = _envelope(fitted.v, fitted.c, lams)
    return bool(np.all(cs <= env + tol))

