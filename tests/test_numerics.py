import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradbound.bounds import logmeanexp, logsumexp

finite_floats = st.floats(min_value=-50, max_value=50)


def test_logsumexp_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-700, 700, size=rng.integers(1, 30))
        with mp.workprec(200):
            expected = float(mp.log(mp.fsum(mp.e**mp.mpf(v) for v in x)))
        assert logsumexp(x) == pytest.approx(expected, rel=1e-13)


def test_logsumexp_extreme_values():
    assert logsumexp(np.array([1000.0, 0.0])) == pytest.approx(1000.0)
    assert logsumexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logsumexp(np.array([-np.inf, 3.0])) == pytest.approx(3.0)


def test_logmeanexp_of_zeros_is_exactly_zero():
    assert logmeanexp(np.zeros(7)) == 0.0
    assert logmeanexp(np.zeros((3, 5)), axis=1).tolist() == [0.0, 0.0, 0.0]


@given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
def test_logsumexp_shift_identity(xs, c):
    x = np.array(xs)
    assert logsumexp(x + c) == pytest.approx(logsumexp(x) + c, abs=1e-9)


def test_axis_handling():
    x = np.arange(12.0).reshape(3, 4)
    row = logsumexp(x, axis=1)
    assert row.shape == (3,)
    for i in range(3):
        assert row[i] == pytest.approx(logsumexp(x[i]))
    assert logmeanexp(x, axis=1)[0] == pytest.approx(logsumexp(x[0]) - math.log(4))

