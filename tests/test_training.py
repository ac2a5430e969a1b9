import math
import os
import sys
import threading

import numpy as np
import pytest

from gradbound import training
from gradbound.datasets import LabeledDataset, synth_gaussian
from gradbound.gaussians import prior_family, sample
from gradbound.gaussians import MAX_EPOCHS
from gradbound.nets import MlpArchitecture, ParamVector, batch_param_grad, loss
from gradbound.training import TrainConfig, TrainingDiverged, evaluate, train, train_depths


def separable_data(n=256, seed=12):
    means = np.array([[3.0, 0.0, 0.0, 0.0], [-3.0, 0.0, 0.0, 0.0]])
    return synth_gaussian(2, 4, means, 0.3, n, seed=seed)


def test_zero_learning_rate_returns_initialization():
    data = separable_data(n=32)
    arch = MlpArchitecture(4, 2)
    cfg = TrainConfig(learning_rate=0.0, epochs=3, seed=5)
    [got] = train(arch, data, cfg, [0.2])
    init = sample(prior_family(arch, 0.2), 5, 1)[0]
    assert np.array_equal(got.values, init.values)


def test_training_fits_separable_data():
    data = separable_data()
    arch = MlpArchitecture(4, 2)
    cfg = TrainConfig(learning_rate=0.01, momentum=0.9, epochs=40, batch_size=32, seed=9)
    [w] = train(arch, data, cfg, [0.3])
    final_loss, acc = evaluate(w, data)
    assert final_loss < 0.05
    assert acc == 1.0


def test_training_is_bitwise_deterministic():
    data = separable_data(n=64)
    arch = MlpArchitecture(4, 2, (5,))
    cfg = TrainConfig(epochs=4, batch_size=16, seed=3)
    [a] = train(arch, data, cfg, [0.2])
    [b] = train(arch, data, cfg, [0.2])
    assert np.array_equal(a.values, b.values)


def test_single_full_batch_step_decreases_loss():
    data = separable_data(n=64)
    arch = MlpArchitecture(4, 2)
    rng = np.random.default_rng(31)
    for _ in range(20):
        w0 = ParamVector(rng.normal(0, 0.5, arch.param_count()), arch)
        lr = 1e-4
        grad = batch_param_grad(w0, data.inputs, data.labels)
        w1 = ParamVector(w0.values - lr * grad, arch)
        before = evaluate(w0, data)[0]
        after = evaluate(w1, data)[0]
        assert after < before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises_with_location():
    data = separable_data(n=64)
    arch = MlpArchitecture(4, 2)
    cfg = TrainConfig(learning_rate=1e307, epochs=3, batch_size=16, seed=2)
    with pytest.raises(TrainingDiverged) as exc:
        train(arch, data, cfg, [0.5])
    assert exc.value.epoch >= 0
    assert exc.value.batch >= 0
    assert exc.value.scale == 0.5 and "initial scale 0.5" in str(exc.value)


LAYOUTS = {
    "linear": MlpArchitecture(4, 2),
    "narrowing": MlpArchitecture(4, 2, (3,)),
    "widening": MlpArchitecture(4, 2, (12, 7)),
}


# Case ids end in the loss's name, "nll".
@pytest.mark.parametrize("layout", sorted(LAYOUTS), ids=lambda layout: f"{layout}-nll")
def test_lockstep_matches_training_each_config_alone(layout):
    data = separable_data(n=40)
    arch = LAYOUTS[layout]
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=4)
    scales = [0.05, 0.3, 1.0]
    together = train(arch, data, cfg, scales)
    assert len(together) == len(scales)
    for scale, got in zip(scales, together):
        [alone] = train(arch, data, cfg, [scale])
        assert np.array_equal(got.values, alone.values)
    assert not np.array_equal(together[0].values, together[1].values)


# initial scale -> where training that scale alone diverges (None: it does
# not), with learning rate 1e200 on a one-hidden-layer net.
_DIVERGES = {1e100: None, 0.1: (0, 1), 1e300: (0, 0)}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("stddevs,expected", [
    ((1e100, 1e300), (0, 0, 1e300)),  # the second config diverges at batch 0
    ((1e300, 1e100), (0, 0, 1e300)),  # the first does
    ((0.1, 1e300), (0, 1, 0.1)),      # the second diverges sooner, the first wins
])
def test_lockstep_raises_the_first_configs_divergence(stddevs, expected):
    data = separable_data(n=32)
    arch = MlpArchitecture(4, 2, (5,))
    cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=16, seed=2)
    for scale in stddevs:  # each scale trained alone
        try:
            train(arch, data, cfg, [scale])
            where = None
        except TrainingDiverged as exc:
            where = (exc.epoch, exc.batch)
            assert exc.scale == scale
        assert where == _DIVERGES[scale]
    with pytest.raises(TrainingDiverged) as exc:
        train(arch, data, cfg, stddevs)
    assert (exc.value.epoch, exc.value.batch, exc.value.scale) == expected
    assert f"initial scale {expected[2]!r}" in str(exc.value)


# ------------------------------------------------- every depth on every core

DEPTH_ARCHS = [MlpArchitecture(4, 2), MlpArchitecture(4, 2, (5,)), MlpArchitecture(4, 2, (3, 3))]


def spy_on_train(monkeypatch):
    """Record (arch, scales, BLAS threads, on the main thread) per train call."""
    calls, lock, original = [], threading.Lock(), training.train
    blas = training._openblas_threads()

    def spy(arch, data, cfg, scales):
        with lock:
            calls.append((arch, tuple(scales), blas[0]() if blas else None,
                          threading.current_thread() is threading.main_thread()))
        return original(arch, data, cfg, scales)

    monkeypatch.setattr(training, "train", spy)
    return calls


def test_train_depths_gives_each_depths_own_call_bit_for_bit():
    data = separable_data(n=40)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=4)
    scales = [0.05, 0.3, 1.0]
    for archs in (DEPTH_ARCHS[1:2], DEPTH_ARCHS):  # one depth is cut into slices
        got = list(train_depths(archs, data, cfg, scales))
        assert len(got) == len(archs)
        for arch, trained in zip(archs, got):
            alone = train(arch, data, cfg, scales)
            assert len(trained) == len(scales)
            assert all(np.array_equal(a.values, b.values) for a, b in zip(trained, alone))


def test_train_depths_on_more_threads_than_cores(monkeypatch):
    # eight "cores" over two depths of three scales: six one-scale tasks on
    # six threads, switching often; each row must keep its lockstep bits
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    calls = spy_on_train(monkeypatch)
    data = separable_data(n=40)
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=16, seed=4)
    scales = [0.05, 0.3, 1.0]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(train_depths(DEPTH_ARCHS[1:], data, cfg, scales))
    finally:
        sys.setswitchinterval(interval)
    if training._openblas_threads() is not None:
        assert sorted((str(arch), s) for arch, s, *_ in calls) == sorted(
            (str(arch), (scale,)) for arch in DEPTH_ARCHS[1:] for scale in scales)
    for arch, trained in zip(DEPTH_ARCHS[1:], got):
        alone = train(arch, data, cfg, scales)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(trained, alone))


def blas_threads_at(count):
    """(getter, restore) of the real BLAS thread count after setting it to
    ``count``, captured before any patch; (None, no-op) without the pin."""
    blas = training._openblas_threads()
    if blas is None:
        return lambda: None, lambda: None
    get_threads, set_threads = blas
    original = get_threads()
    set_threads(count)
    return get_threads, lambda: set_threads(original)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_depths_pins_one_blas_thread_and_restores_the_count(monkeypatch):
    if training._openblas_threads() is None:
        pytest.skip("needs numpy's bundled OpenBLAS")
    get_threads, restore = blas_threads_at(2)  # a count the pin does not set
    try:
        calls = spy_on_train(monkeypatch)
        data = separable_data(n=32)
        list(train_depths(DEPTH_ARCHS, data, TrainConfig(epochs=2, batch_size=16, seed=2),
                          [0.1, 0.5]))
        assert get_threads() == 2
        assert [threads for _, _, threads, _ in calls] == [1] * len(calls)
        assert {arch for arch, *_ in calls} == set(DEPTH_ARCHS)
        with pytest.raises(TrainingDiverged):
            list(train_depths(DEPTH_ARCHS, data, TrainConfig(learning_rate=1e200, seed=2),
                              [1.0, 1e100]))
        assert get_threads() == 2
    finally:
        restore()


def test_train_depths_without_the_blas_pin_trains_one_depth_at_a_time(monkeypatch):
    # another BLAS on a host without sched_getaffinity (macOS): one worker
    # trains each depth's whole grid in one call and sets no thread count
    get_threads, restore = blas_threads_at(2)  # a count the pin does not set
    try:
        calls = spy_on_train(monkeypatch)
        monkeypatch.setattr(training, "_openblas_threads", lambda: None)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        data = separable_data(n=32)
        cfg = TrainConfig(epochs=2, batch_size=16, seed=2)
        scales = [0.1, 0.5, 0.9]
        got = list(train_depths(DEPTH_ARCHS, data, cfg, scales))
        threads = get_threads()
    finally:
        restore()
    assert calls == [(arch, tuple(scales), threads, False) for arch in DEPTH_ARCHS]
    assert threads in (2, None)
    for arch, trained in zip(DEPTH_ARCHS, got):
        alone = train(arch, data, cfg, scales)  # this module's binding: no spy
        assert all(np.array_equal(a.values, b.values) for a, b in zip(trained, alone))


@pytest.mark.parametrize("pinned", [True, False])
def test_train_depths_of_no_depths_or_no_scales(monkeypatch, pinned):
    get_threads, restore = blas_threads_at(2)
    try:
        if not pinned:
            monkeypatch.setattr(training, "_openblas_threads", lambda: None)
        data = separable_data(n=32)
        cfg = TrainConfig(epochs=1, batch_size=16, seed=2)
        assert list(train_depths([], data, cfg, [0.1, 0.5])) == []
        with pytest.raises(ValueError, match="init_scales is empty") as alone:
            train(DEPTH_ARCHS[1], data, cfg, [])
        with pytest.raises(ValueError) as exc:
            list(train_depths(DEPTH_ARCHS, data, cfg, []))
        assert str(exc.value) == str(alone.value)
        threads = get_threads()
    finally:
        restore()
    assert threads in (2, None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("order", [(2, 1), (1, 2)])
def test_train_depths_raises_the_first_depths_divergence(order):
    # learning rate 1e200, scales (1.0, 1e100): the (3, 3) net diverges only
    # at scale 1e100, at batch 0; the (5,) net only at scale 1.0, at batch 1
    archs = [DEPTH_ARCHS[i] for i in order]
    data = separable_data(n=32)
    cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=16, seed=2)
    scales = [1.0, 1e100]
    alone = []
    for arch in archs:
        with pytest.raises(TrainingDiverged) as exc:
            train(arch, data, cfg, scales)
        alone.append((exc.value.epoch, exc.value.batch, exc.value.scale))
    assert alone[0] != alone[1]
    with pytest.raises(TrainingDiverged) as exc:
        list(train_depths(archs, data, cfg, scales))
    assert (exc.value.epoch, exc.value.batch, exc.value.scale) == alone[0]


def test_evaluate_zero_weights_balanced_data():
    data = separable_data(n=100)  # 100 per class, balanced
    arch = MlpArchitecture(4, 2)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    mean_loss, acc = evaluate(zero, data)
    assert mean_loss == pytest.approx(math.log(2), abs=1e-12)
    assert acc == 0.5  # argmax ties go to class 1 on all-zero logits


def test_evaluate_perfect_margin_fixture():
    data = separable_data()
    arch = MlpArchitecture(4, 2)
    w = np.zeros((2, 4))
    w[0, 0], w[1, 0] = 5.0, -5.0  # class 1 on x1 > 0, class 2 on x1 < 0
    p = ParamVector(w.ravel(), arch)
    _, acc = evaluate(p, data)
    assert acc == 1.0


def test_evaluate_single_example_and_oracle():
    single = LabeledDataset(np.array([[0.2, -0.4, 1.0, 0.3]]), np.array([2]), 2)
    arch = MlpArchitecture(single.dim, single.class_count)
    rng = np.random.default_rng(0)
    p = ParamVector(rng.normal(0, 1, arch.param_count()), arch)
    only = loss(p, single.inputs[0], int(single.labels[0]))
    assert evaluate(p, single)[0] == pytest.approx(only, rel=1e-15)

    data = separable_data(n=32)
    total = math.fsum(loss(p, data.inputs[i], int(data.labels[i]))
                      for i in range(data.m))
    assert evaluate(p, data)[0] == pytest.approx(total / data.m, rel=1e-12)


def test_evaluate_matches_loop_oracle():
    data = separable_data(n=16)
    arch = MlpArchitecture(4, 2, (3,))
    p = sample(prior_family(arch, 0.4), 77, 1)[0]
    losses = [loss(p, data.inputs[i], int(data.labels[i])) for i in range(data.m)]
    mean_loss, _ = evaluate(p, data)
    assert mean_loss == pytest.approx(math.fsum(losses) / data.m, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(epochs=2.5)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=True)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=math.nan)
    # a bool compares as 0 or 1, but it is not a real
    for flag in ({"learning_rate": True}, {"momentum": False}):
        with pytest.raises(ValueError):
            TrainConfig(**flag)
    assert TrainConfig(learning_rate=1, momentum=np.float64(0.5)).learning_rate == 1
    # a seed keys Philox as one uint64, so it must lie in [0, 2**64)
    for bad_seed in (-1, 2**64):
        with pytest.raises(ValueError):
            TrainConfig(seed=bad_seed)
    assert TrainConfig(seed=2**64 - 1).seed == 2**64 - 1
    # epoch e shuffles on its own reserved stream, short of the next one
    assert TrainConfig(epochs=MAX_EPOCHS).epochs == 66
    with pytest.raises(ValueError):
        TrainConfig(epochs=MAX_EPOCHS + 1)
    with pytest.raises(ValueError):
        train(MlpArchitecture(4, 2), separable_data(n=16), TrainConfig(), [0.0])
