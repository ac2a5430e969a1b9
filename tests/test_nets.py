import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradbound.datasets import synth_gaussian
from gradbound.nets import (
    LIPSCHITZ_BOUND,
    MlpArchitecture,
    ParamVector,
    _layers,
    batch_input_grads,
    arch_for_depth,
    batch_losses,
    forward,
    grad_input,
    grad_params,
    logit_loss_and_gradient,
    loss,
    loss_and_param_grads,
    loss_and_sq_grad_norms,
)

RNG = np.random.default_rng(1234)

ARCHS = [
    MlpArchitecture(6, 3),  # linear, no bias
    MlpArchitecture(6, 3, (5,)),
    MlpArchitecture(6, 3, (5, 5)),
    MlpArchitecture(6, 3, (5, 5, 5)),
    MlpArchitecture(6, 3, (5, 5, 5, 5)),
]


def random_params(arch, rng, scale=0.5):
    return ParamVector(rng.normal(0.0, scale, arch.param_count()), arch)


# ---------------------------------------------------------------- structure


def test_param_counts():
    assert MlpArchitecture(784, 10).param_count() == 7840  # linear: k*d, no bias
    assert MlpArchitecture(784, 10).bias is False
    arch = MlpArchitecture(4, 3, (5,))
    assert arch.param_count() == (4 + 1) * 5 + (5 + 1) * 3
    assert MlpArchitecture(4, 3, (5,)).bias is True  # MLP default


def test_equal_param_widths_land_near_target():
    for depth in (2, 3, 4, 5):
        arch = arch_for_depth(depth, 784, 10, 20_000)
        widths = arch.hidden_widths
        assert abs(arch.param_count() - 20_000) < 2_000
        assert len(set(widths)) == 1 and len(widths) == depth - 1


def test_forward_identity_linear():
    arch = MlpArchitecture(2, 2)
    p = ParamVector(np.eye(2).ravel(), arch)
    assert np.allclose(forward(p, np.array([1.0, 2.0])), [1.0, 2.0])


def test_forward_zero_weights_two_layer():
    arch = MlpArchitecture(3, 2, (4,))
    p = ParamVector(np.zeros(arch.param_count()), arch)
    for _ in range(5):
        x = RNG.normal(size=3)
        assert np.all(forward(p, x) == 0.0)


def test_forward_matches_loop_oracle():
    """Layer-by-layer per-neuron reference, independent of the batch code."""
    arch = MlpArchitecture(4, 3, (5, 6))
    p = random_params(arch, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=4)

    a = list(x)
    for li, (w, b) in enumerate(_layers(arch, p.values)):
        out = []
        for row in range(w.shape[0]):
            s = b[row]
            for col in range(w.shape[1]):
                s += w[row, col] * a[col]
            out.append(s)
        if li < arch.depth - 1:
            out = [max(v, 0.0) for v in out]
        a = out
    assert np.allclose(forward(p, x), a, rtol=1e-12, atol=1e-12)


def test_dimension_and_label_errors():
    arch = MlpArchitecture(3, 2)
    p = ParamVector(np.zeros(6), arch)
    with pytest.raises(ValueError):
        forward(p, np.zeros(4))
    with pytest.raises(ValueError):
        loss(p, np.zeros(3), 0)
    with pytest.raises(ValueError):
        loss(p, np.zeros(3), 3)
    with pytest.raises(ValueError):
        ParamVector(np.zeros(5), arch)
    with pytest.raises(ValueError):
        ParamVector(np.array([np.nan] + [0.0] * 5), arch)


# ------------------------------------------------------------------- losses


def test_nll_uniform_logits_is_log_k():
    for k in (2, 3, 10):
        arch = MlpArchitecture(4, k)
        p = ParamVector(np.zeros(4 * k), arch)
        assert loss(p, np.ones(4), 1) == pytest.approx(math.log(k), abs=1e-12)


def test_nll_logsumexp_stability_limit():
    # logits (1000, 0), y=1: true value log(1 + e^-1000) ~ e^-1000
    arch = MlpArchitecture(2, 2)
    p = ParamVector(np.array([1000.0, 0.0, 0.0, 0.0]), arch)
    val = loss(p, np.array([1.0, 0.0]), 1)
    assert 0.0 <= val < 1e-300


def test_nll_matches_extended_precision_oracle():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(42)
    arch = MlpArchitecture(5, 4)
    for _ in range(20):
        p = random_params(arch, rng, scale=2.0)
        x = rng.normal(size=5)
        y = int(rng.integers(1, 5))
        got = loss(p, x, y)
        w = p.values.reshape(4, 5)
        with mp.workprec(200):
            t = [mp.fsum(mp.mpf(w[r, c]) * mp.mpf(x[c]) for c in range(5)) for r in range(4)]
            expected = float(-t[y - 1] + mp.log(mp.fsum(mp.e**v for v in t)))
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)


dyadic = st.integers(min_value=-5000, max_value=5000).map(lambda n: n / 1024.0)


@given(st.lists(dyadic, min_size=2, max_size=6),
       st.sampled_from([-1e6, -12345.5, -1.0, 0.0, 0.5, 12345.5, 1e6]))
def test_nll_shift_invariance(logit_list, c):
    # Dyadic logits and shifts keep the additions exact in float64, so this
    # isolates the stability of the loss itself from caller rounding.
    logits = np.array([logit_list])
    y = np.array([1])
    base = float(batch_losses_from_logits(logits, y))
    shifted = float(batch_losses_from_logits(logits + c, y))
    assert abs(shifted - base) <= 1e-12


def batch_losses_from_logits(logits, y):
    from gradbound.nets import logit_loss

    return logit_loss(np.array(logits, dtype=np.float64), y)[0]


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=6))
def test_loss_nonnegative(logit_list, y):
    from gradbound.nets import logit_loss

    k = len(logit_list)
    y = min(y, k)
    val = float(logit_loss(np.array([logit_list]), np.array([y]))[0])
    assert val >= 0.0


# ---------------------------------------------------------------- gradients


def _hidden_preactivations(params, x):
    """Hidden pre-activations of one input, with the kernel's arithmetic."""
    a, pres = x[None, :], []
    for w, b in _layers(params.layout, params.values)[:-1]:
        pres.append(a @ w.T + b)
        a = np.maximum(pres[-1], 0.0)
    return [z[0] for z in pres]


def _draw_clear_case(arch, rng, kink_margin=1e-3):
    """Random (params, x, y) resampled away from ReLU kinks."""
    while True:
        p = random_params(arch, rng)
        x = rng.normal(size=arch.input_dim)
        y = int(rng.integers(1, arch.class_count + 1))
        pres = _hidden_preactivations(p, x)
        if pres and min(np.abs(z).min() for z in pres) < kink_margin:
            continue
        return p, x, y


def central_diff(f, v, h=1e-5):
    g = np.zeros_like(v)
    for i in range(v.size):
        up, down = v.copy(), v.copy()
        up[i] += h
        down[i] -= h
        g[i] = (f(up) - f(down)) / (2 * h)
    return g


def rel_err(approx, exact):
    return np.linalg.norm(approx - exact) / max(np.linalg.norm(exact), 1e-8)


# Case ids end in the loss's name, "nll".
@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"depth{a.depth}-nll")
def test_grad_input_finite_differences(arch):
    rng = np.random.default_rng(arch.depth * 101 + 1)
    for _ in range(100):
        p, x, y = _draw_clear_case(arch, rng)
        analytic = grad_input(p, x, y)
        fd = central_diff(lambda v: loss(p, v, y), x)
        assert rel_err(fd, analytic) <= 1e-4


@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"depth{a.depth}-nll")
def test_grad_params_finite_differences(arch):
    rng = np.random.default_rng(arch.depth * 307 + 1)
    for _ in range(100):
        p, x, y = _draw_clear_case(arch, rng)
        analytic = grad_params(p, x, y)
        fd = central_diff(lambda v: loss(ParamVector(v, arch), x, y), p.values)
        assert rel_err(fd, analytic) <= 1e-4


def test_grad_input_zero_weights_is_zero():
    arch = MlpArchitecture(4, 3)
    p = ParamVector(np.zeros(12), arch)
    assert np.all(grad_input(p, np.ones(4), 2) == 0.0)


def test_grad_input_linear_analytic_formula():
    rng = np.random.default_rng(5)
    arch = MlpArchitecture(6, 4)
    for _ in range(20):
        p = random_params(arch, rng)
        x = rng.normal(size=6)
        y = int(rng.integers(1, 5))
        w = p.values.reshape(4, 6)
        t = w @ x
        e = np.exp(t - t.max())
        probs = e / e.sum()
        probs[y - 1] -= 1.0
        expected = w.T @ probs
        assert np.allclose(grad_input(p, x, y), expected, rtol=1e-12, atol=1e-14)


def test_grad_params_linear_analytic_formula():
    # d loss / d W[r, j] = (p_r - 1[r = y]) * x_j for the linear NLL model
    rng = np.random.default_rng(6)
    arch = MlpArchitecture(5, 3)
    p = random_params(arch, rng)
    x = rng.normal(size=5)
    y = 2
    t = p.values.reshape(3, 5) @ x
    e = np.exp(t - t.max())
    probs = e / e.sum()
    probs[y - 1] -= 1.0
    expected = np.outer(probs, x).ravel()
    assert np.allclose(grad_params(p, x, y), expected, rtol=1e-12, atol=1e-14)


def test_grad_params_zero_input():
    arch = MlpArchitecture(4, 3, (5,))
    rng = np.random.default_rng(9)
    p = random_params(arch, rng)
    g = grad_params(p, np.zeros(4), 1)
    layers = _layers(arch, g)
    assert np.all(layers[0][0] == 0.0)  # first-layer weights see x = 0
    assert np.any(layers[0][1] != 0.0) or np.any(layers[1][1] != 0.0)


def test_linear_grad_norm_bound():
    # ||grad_x loss||^2 <= L^2 * sum w^2 on 10^4 random draws
    rng = np.random.default_rng(11)
    arch = MlpArchitecture(6, 3)
    for _ in range(100):
        p = random_params(arch, rng)
        x = rng.normal(size=(100, 6))
        y = rng.integers(1, 4, size=100)
        g = batch_input_grads(p, x, y)
        cap = LIPSCHITZ_BOUND**2 * np.sum(p.values**2)
        assert np.all((g**2).sum(axis=1) <= cap + 1e-12)


# --------------------------------------------- squared input-gradient norms

# The first layer narrows (Gram form) or widens (formed gradient).
SQ_NORM_ARCHS = {
    "linear-narrowing": MlpArchitecture(6, 3),
    "mlp-narrowing": MlpArchitecture(6, 3, (4, 5)),
    "linear-widening": MlpArchitecture(2, 3),
    "mlp-widening": MlpArchitecture(3, 2, (8, 4)),
}


@pytest.mark.parametrize("name", SQ_NORM_ARCHS, ids=lambda name: f"{name}-nll")
def test_sq_grad_norms_match_formed_gradients(name):
    arch = SQ_NORM_ARCHS[name]
    rng = np.random.default_rng(len(name) * 7 + 1)
    x = rng.normal(size=(50, arch.input_dim))
    y = rng.integers(1, arch.class_count + 1, size=50)
    for _ in range(20):
        p = random_params(arch, rng)
        losses, sq = loss_and_sq_grad_norms(p, x, y)
        g = batch_input_grads(p, x, y)
        assert np.array_equal(losses, batch_losses(p, x, y))
        np.testing.assert_allclose(sq, np.einsum("ij,ij->i", g, g), rtol=1e-12, atol=0)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    assert np.all(loss_and_sq_grad_norms(zero, x, y)[1] == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sq_grad_norms_of_weights_whose_gram_matrix_overflows():
    # W1 W1^T overflows to inf, and a row of g1 holding a 0 would turn the
    # Gram form into nan; the formed gradient gives 0 or inf instead.
    arch = SQ_NORM_ARCHS["linear-narrowing"]
    rng = np.random.default_rng(7)
    p = ParamVector(rng.normal(size=arch.param_count()) * 1e305, arch)
    x = rng.normal(size=(40, arch.input_dim))
    y = rng.integers(1, arch.class_count + 1, size=40)
    g = batch_input_grads(p, x, y)
    sq = loss_and_sq_grad_norms(p, x, y)[1]
    assert np.array_equal(sq, np.einsum("ij,ij->i", g, g))
    assert set(sq.tolist()) == {0.0, math.inf}


# plus a width where one wide first-layer GEMM over the stack would round
# some columns differently from the per-vector product; the stack's weight
# gradients are per-row products, so they match it anyway
STACK_ARCHS = {**SQ_NORM_ARCHS, "mlp-wide": MlpArchitecture(4, 2, (78,))}


@pytest.mark.parametrize("name", STACK_ARCHS, ids=lambda name: f"{name}-nll")
def test_stacked_pass_matches_one_vector_passes(name):
    from gradbound.nets import _backward, _forward_cached

    arch = STACK_ARCHS[name]
    rng = np.random.default_rng(len(name) * 5 + 1)
    x = rng.normal(size=(40, arch.input_dim))
    y = rng.integers(1, arch.class_count + 1, size=40)
    stack = np.stack([random_params(arch, rng, s).values for s in (0.1, 0.5, 2.0)])
    losses, grads = loss_and_param_grads(arch, stack, x, y)
    stacked = _backward(arch, stack, x, y, True)
    stacked_acts, stacked_logits = _forward_cached(arch, stack, x)
    assert losses.shape == (3, 40) and grads.shape == stack.shape
    for f, values in enumerate(stack):
        acts, logits = _forward_cached(arch, values, x)
        # the input batch, then each hidden activation
        assert stacked_acts[0] is x and acts[0] is x
        for got, want in zip(stacked_acts[1:], acts[1:]):
            assert np.array_equal(got[f], want)
        assert np.array_equal(stacked_logits[f], logits)
        p = ParamVector(values, arch)
        one_loss, one_grad = loss_and_param_grads(arch, values, x, y)
        assert np.array_equal(losses[f], one_loss)
        assert np.array_equal(grads[f], one_grad)
        # losses, W1, g1 and the parameter gradient: the squared
        # input-gradient norms are a function of W1 and g1 alone
        for got, want in zip(stacked, _backward(arch, values, x, y, True)):
            assert np.array_equal(got[f], want)
        w1, g1 = stacked[1][f], stacked[2][f]
        assert np.array_equal(g1 @ w1, batch_input_grads(p, x, y))


def _gaussian_data(n=32):
    means = np.zeros((2, 4))
    means[[0, 1], [0, 1]] = 1.5
    return synth_gaussian(2, 4, means, 1.0, n, seed=5)


def test_sq_grad_norms_zero_weights():
    data = _gaussian_data()
    arch = MlpArchitecture(data.dim, data.class_count)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    _, sq = loss_and_sq_grad_norms(zero, data.inputs, data.labels)
    assert np.mean(sq) == 0.0


def test_sq_grad_norms_loop_oracle_and_linear_cap():
    data = _gaussian_data()
    arch = MlpArchitecture(data.dim, data.class_count)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = ParamVector(rng.normal(0, 0.5, arch.param_count()), arch)
        per_example = [
            float(np.sum(grad_input(p, data.inputs[i], int(data.labels[i])) ** 2))
            for i in range(data.m)]
        got = float(np.mean(loss_and_sq_grad_norms(p, data.inputs, data.labels)[1]))
        assert got == pytest.approx(math.fsum(per_example) / data.m, rel=1e-12)
        assert got <= LIPSCHITZ_BOUND**2 * np.sum(p.values**2) + 1e-12


# ---------------------------------------------------------------- Lipschitz


def test_lipschitz_nll_by_simplex_search():
    # Maximize ||p - e_y|| over the probability simplex (vertices included):
    # the supremum sqrt(2) is attained at p = e_j, j != y.
    for k in range(2, 6):
        rng = np.random.default_rng(k)
        pts = np.vstack([np.eye(k), rng.dirichlet(np.ones(k), size=10_000)])
        best = 0.0
        for y in range(k):
            e_y = np.zeros(k)
            e_y[y] = 1.0
            best = max(best, np.linalg.norm(pts - e_y, axis=1).max())
        assert best == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert LIPSCHITZ_BOUND == pytest.approx(best)


@pytest.mark.parametrize("loss_and_gradient",
                         [pytest.param(logit_loss_and_gradient, id="nll")])
def test_lipschitz_bound_on_random_logits(loss_and_gradient):
    rng = np.random.default_rng(13)
    logits = rng.uniform(-30, 30, size=(100_000, 5))
    y = rng.integers(1, 6, size=100_000)
    g = loss_and_gradient(logits, y)[1]
    assert np.all(np.linalg.norm(g, axis=1) <= LIPSCHITZ_BOUND + 1e-12)


def test_nll_logit_gradient_rows_sum_to_zero_and_survive_shift():
    x = np.array([[1000.0, 0.0, -5.0], [0.3, 0.2, 0.1]])
    y = np.array([1, 3])
    g = logit_loss_and_gradient(x, y)[1]
    assert np.allclose(g.sum(axis=1), 0.0)
    # softmax - e_y: the label's entry in [-1, 0], every other one >= 0
    off = np.ones_like(g, dtype=bool)
    off[[0, 1], y - 1] = False
    assert np.all(g[off] >= 0) and np.all((-1 <= g[~off]) & (g[~off] <= 0))
    assert np.allclose(logit_loss_and_gradient(x + 123.0, y)[1], g)
