import itertools
import math

import numpy as np
import pytest

from gradbound import bounds as bd
from gradbound.datasets import LabeledDataset, synth_gaussian
from gradbound.gaussians import prior_family, sample
from gradbound.nets import MlpArchitecture, ParamVector


# -------------------------------------------------------- MGF factorization


def test_mgf_decomposition_constant_support():
    lhs, rhs = bd.mgf_decomposition_check([1.3], 2.0, 3)
    assert lhs == pytest.approx(1.0, rel=1e-12)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_mgf_decomposition_two_point_hand_enumeration():
    # losses {0, 1}, m = 2, lam = 1: four equally likely samples
    losses, lam, m = [0.0, 1.0], 1.0, 2
    l_d = 0.5
    by_hand = math.fsum(
        math.exp(lam * (l_d - (a + b) / 2)) for a, b in itertools.product(losses, repeat=2)
    ) / 4
    lhs, rhs = bd.mgf_decomposition_check(losses, lam, m)
    assert lhs == pytest.approx(by_hand, rel=1e-14)
    assert rhs == pytest.approx(by_hand, rel=1e-12)


def test_mgf_decomposition_lambda_zero():
    lhs, rhs = bd.mgf_decomposition_check([0.2, 1.4, 2.2], 0.0, 3)
    assert lhs == 1.0 and rhs == 1.0


def test_mgf_decomposition_50_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(50):
        losses = rng.uniform(0.0, 3.0, size=rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.0, 3.0))
        lhs, rhs = bd.mgf_decomposition_check(losses, lam, m)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_mgf_decomposition_enumeration_guard():
    with pytest.raises(ValueError):
        bd.mgf_decomposition_check(list(range(40)), 1.0, 4)  # 40^4 > 1e6


# --------------------------------------------------- Herbst reconstruction


def test_herbst_constant_support():
    c, lam, m = 1.1, 2.0, 2
    lhs, rhs = bd.herbst_identity_check([c], lam, m)
    assert lhs == pytest.approx(math.exp(-(lam / m) * c), rel=1e-12)
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_herbst_three_point_support():
    lhs, rhs = bd.herbst_identity_check([0.0, 1.0, 2.0], 1.0, 2)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_herbst_lambda_to_zero():
    lhs, rhs = bd.herbst_identity_check([0.3, 0.8], 1e-9, 2)
    assert lhs == pytest.approx(1.0, abs=1e-9)
    assert rhs == pytest.approx(1.0, abs=1e-9)
    lhs0, rhs0 = bd.herbst_identity_check([0.3, 0.8], 0.0, 2)
    assert lhs0 == 1.0 and rhs0 == 1.0


def test_herbst_50_random_instances():
    rng = np.random.default_rng(23)
    for _ in range(50):
        losses = rng.uniform(0.0, 3.0, size=rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.0, 2.0))
        lhs, rhs = bd.herbst_identity_check(losses, lam, m)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


# ----------------------------------------------------- entropy inequality


def test_log_sobolev_constant_loss_degenerates_to_zero():
    # zero weights + identical labels: loss = log k on every point, grads 0
    inputs = np.random.default_rng(1).normal(size=(256, 4))
    data = LabeledDataset(inputs, np.ones(256, dtype=np.int64), 3)
    arch = MlpArchitecture(4, 3)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    res = bd.log_sobolev_check(zero, data, 0.5)
    assert abs(res.lhs) < 1e-12
    assert res.rhs >= 0.0


def test_log_sobolev_alpha_to_zero():
    means = np.zeros((2, 4))
    data = synth_gaussian(2, 4, means, 1.0, 500, seed=2)
    arch = MlpArchitecture(4, 2)
    w = sample(prior_family(arch, 0.2), 3, 1)[0]
    res = bd.log_sobolev_check(w, data, 1e-6)
    assert abs(res.lhs) < 1e-4 and abs(res.rhs) < 1e-4


def test_log_sobolev_random_linear_model_margin():
    # standardized synthetic data, alpha = 0.5, n = 1e5
    rng = np.random.default_rng(4)
    means = rng.normal(0, 0.7, size=(2, 8))
    data = synth_gaussian(2, 8, means, 1.0, 50_000, seed=5)
    arch = MlpArchitecture(8, 2)
    w = sample(prior_family(arch, 0.2), 6, 1)[0]
    res = bd.log_sobolev_check(w, data, 0.5)
    assert res.lhs <= res.rhs - 3.0 * (res.lhs_std_error + res.rhs_std_error)


def test_log_sobolev_subsample_argument():
    means = np.zeros((2, 4))
    data = synth_gaussian(2, 4, means, 1.0, 100, seed=7)
    arch = MlpArchitecture(4, 2)
    w = sample(prior_family(arch, 0.2), 8, 1)[0]
    full = bd.log_sobolev_check(w, data, 0.3)
    head = bd.log_sobolev_check(w, data, 0.3, n=50)
    assert head.lhs != full.lhs  # different sample sizes
    with pytest.raises(ValueError):
        bd.log_sobolev_check(w, data, 0.3, n=0)
    with pytest.raises(ValueError):
        bd.log_sobolev_check(w, data, -0.1)
