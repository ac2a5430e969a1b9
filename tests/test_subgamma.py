import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradbound.subgamma import SubGammaFit, check, envelope, fit


def test_envelope_values_and_domain():
    assert envelope(1.0, 0.5, 1.0) == pytest.approx(1.0)
    assert envelope(2.0, 1e-4, 1e-9) < 1e-17  # -> 0 as lambda -> 0
    with pytest.raises(ValueError):
        envelope(1.0, 0.5, 2.0)  # at the pole
    with pytest.raises(ValueError):
        envelope(1.0, 0.5, -1.0)
    with pytest.raises(ValueError):
        envelope(1.0, 0.0, 0.5)


def test_envelope_reference_shape():
    # v = 1, c = 1e-5: essentially quadratic over moderate lambda
    for lam in (1.0, 10.0, 100.0):
        expected = lam**2 / (2.0 * (1.0 - lam * 1e-5))
        assert envelope(1.0, 1e-5, lam) == pytest.approx(expected, rel=1e-15)
    assert envelope(1.0, 1e-5, 100.0) == pytest.approx(10_000.0 / 1.998, rel=1e-12)


def test_envelope_increasing_and_convex_by_finite_differences():
    v, c = 0.7, 0.02
    lams = np.linspace(0.5, 0.9 / c, 200)
    vals = np.array([envelope(v, c, l) for l in lams])
    d1 = np.diff(vals)
    d2 = np.diff(d1)
    assert np.all(d1 > 0)
    assert np.all(d2 > -1e-12)


def test_fit_round_trip_recovers_v():
    v0, c0 = 2.0, 1e-4
    grid = [(l, envelope(v0, c0, l)) for l in np.geomspace(0.5, 50, 25)]
    fitted = fit(grid)
    assert abs(fitted.v - v0) <= 0.01 * v0
    assert fitted.c <= c0 * 1.0001
    assert fitted.residual == 0.0
    assert check(fitted, grid)


def test_fit_single_point_algebra():
    fitted = fit([(1.0, 0.5)])
    # v = 2 * 0.5 * (1 - c) minimized over the c grid: ~1 at c -> 0
    assert fitted.v == pytest.approx(1.0, rel=1e-6)
    assert fitted.c == pytest.approx(1e-8)
    assert fitted.residual == 0.0


def test_fit_rejects_bad_grids():
    with pytest.raises(ValueError):
        fit([])
    with pytest.raises(ValueError):
        fit([(1.0, math.inf)])
    with pytest.raises(ValueError):
        fit([(-1.0, 0.5)])
    with pytest.raises(ValueError):
        fit([(1.0, 0.5)], c_max=1e-9)  # empty candidate range


def test_check_detects_violations():
    fitted = fit([(1.0, 0.5), (2.0, 2.0)])
    assert check(fitted, [(1.0, 0.5), (2.0, 2.0)])
    assert not check(fitted, [(1.0, 1e9)])
    assert not check(SubGammaFit(v=1.0, c=0.5, lambda_max=2.0, residual=0.0),
                     [(3.0, 0.1)])  # grid point beyond 1/c


def test_fit_c_max_cap():
    grid = [(l, 0.01 * l**2 * (1 + 0.001 * l)) for l in np.geomspace(1, 100, 15)]
    fitted = fit(grid, c_max=1e-3)
    assert fitted.c < 1e-3
    assert fitted.residual == 0.0
    assert check(fitted, grid)


def test_fit_dominates_subnormal_values():
    # The dominating v underflows to zero here unless fit raises it.
    for grid in ([(2.0, 5e-324)], [(0.1, 5e-324)], [(0.1, 1e-310), (50.0, 0.0)]):
        fitted = fit(grid)
        assert fitted.residual == 0.0
        assert check(fitted, grid, tol=0.0)


grids = st.lists(
    st.tuples(st.floats(0.1, 100.0), st.floats(0.0, 50.0)),
    min_size=1, max_size=12,
)


@settings(deadline=None)
@given(grids)
def test_fit_then_check_always_true(grid):
    fitted = fit(grid)
    assert fitted.residual == 0.0
    assert check(fitted, grid)
    assert all(l < fitted.lambda_max for l, _ in grid)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**31 - 1), st.integers(3, 12))
def test_shrinking_grid_never_increases_dominating_v(seed, n_points):
    # Removing grid points can only loosen the domination constraint: at any
    # fixed c the minimal dominating v shrinks, and so does the best v over
    # the whole candidate range.  (The area-minimizing *selection* may still
    # return a larger v on the subgrid, since it optimizes area, not v.)
    rng = np.random.default_rng(seed)
    lams = np.sort(rng.uniform(0.5, 60.0, size=n_points))
    base = 0.02 * lams**2 / (1 - lams / 200.0)
    cs = base * rng.uniform(0.5, 1.0, size=n_points)
    grid = np.column_stack([lams, cs])
    keep = sorted(set([0, n_points - 1]) | set(rng.choice(n_points, size=2).tolist()))
    sub = grid[keep]

    def dominating_v(pts, c):
        return max(0.0, float(np.max(2 * pts[:, 1] * (1 - pts[:, 0] * c) / pts[:, 0] ** 2)))

    candidates = np.geomspace(1e-8, 0.999 / lams[-1], 50)
    for c in candidates:
        assert dominating_v(sub, c) <= dominating_v(grid, c) + 1e-15
    best_full = min(dominating_v(grid, c) for c in candidates)
    best_sub = min(dominating_v(sub, c) for c in candidates)
    assert best_sub <= best_full + 1e-15

