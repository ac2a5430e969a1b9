import math

import numpy as np
import pytest

from gradbound.datasets import LabeledDataset, synth_gaussian
from gradbound.gaussians import prior_family, sample
from gradbound.gaussians import MAX_EPOCHS
from gradbound.nets import MlpArchitecture, ParamVector, batch_param_grad, loss
from gradbound.training import TrainConfig, TrainingDiverged, evaluate, train


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
    # epoch e shuffles on its own reserved stream, short of the next one
    assert TrainConfig(epochs=MAX_EPOCHS).epochs == 66
    with pytest.raises(ValueError):
        TrainConfig(epochs=MAX_EPOCHS + 1)
    with pytest.raises(ValueError):
        train(MlpArchitecture(4, 2), separable_data(n=16), TrainConfig(), [0.0])
