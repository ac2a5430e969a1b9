import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradbound.bounds import logmeanexp

finite_floats = st.floats(min_value=-50, max_value=50)


def test_logmeanexp_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-700, 700, size=rng.integers(1, 30))
        with mp.workprec(200):
            expected = float(mp.log(mp.fsum(mp.e**mp.mpf(v) for v in x) / len(x)))
        assert logmeanexp(x) == pytest.approx(expected, rel=1e-13)


def test_logmeanexp_extreme_values():
    assert logmeanexp(np.array([1000.0, 0.0])) == pytest.approx(1000.0 - math.log(2))
    assert logmeanexp(np.array([-np.inf, -np.inf])) == -np.inf
    assert logmeanexp(np.array([-np.inf, 3.0])) == pytest.approx(3.0 - math.log(2))


def test_logmeanexp_of_zeros_is_exactly_zero():
    assert logmeanexp(np.zeros(7)) == 0.0
    assert logmeanexp(np.zeros((3, 5)), axis=1).tolist() == [0.0, 0.0, 0.0]


@given(st.lists(finite_floats, min_size=1, max_size=20), finite_floats)
def test_logmeanexp_shift_identity(xs, c):
    x = np.array(xs)
    assert logmeanexp(x + c) == pytest.approx(logmeanexp(x) + c, abs=1e-9)


def test_axis_handling():
    x = np.arange(12.0).reshape(3, 4)
    row = logmeanexp(x, axis=1)
    assert row.shape == (3,)
    for i in range(3):
        assert row[i] == pytest.approx(logmeanexp(x[i]))
    assert logmeanexp(x, axis=0)[0] == pytest.approx(
        math.log(sum(math.exp(v) for v in x[:, 0]) / 3))
