import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradbound.datasets import synth_gaussian
from gradbound.nets import (
    MULTICLASS_HINGE,
    NLL,
    MlpArchitecture,
    ParamVector,
    batch_input_grads,
    batch_losses,
    equal_param_hidden_widths,
    forward,
    grad_input,
    grad_params,
    lipschitz_bound,
    logit_gradient,
    loss,
    loss_and_grad,
    loss_and_param_grads,
    loss_and_sq_grad_norms,
    unpack_layers,
)

RNG = np.random.default_rng(1234)

ARCHS = [
    MlpArchitecture(6, 3),  # linear, no bias
    MlpArchitecture(6, 3, (5,), bias=True),
    MlpArchitecture(6, 3, (5, 5), bias=True),
    MlpArchitecture(6, 3, (5, 5, 5), bias=True),
    MlpArchitecture(6, 3, (5, 5, 5, 5), bias=True),
]


def random_params(arch, rng, scale=0.5):
    return ParamVector(rng.normal(0.0, scale, arch.param_count()), arch)


# ---------------------------------------------------------------- structure


def test_param_counts():
    assert MlpArchitecture(784, 10).param_count() == 7840  # linear: k*d, no bias
    assert MlpArchitecture(784, 10).bias is False
    arch = MlpArchitecture(4, 3, (5,), bias=True)
    assert arch.param_count() == (4 + 1) * 5 + (5 + 1) * 3
    assert MlpArchitecture(4, 3, (5,)).bias is True  # MLP default


def test_equal_param_widths_land_near_target():
    for depth in (2, 3, 4, 5):
        widths = equal_param_hidden_widths(depth, 784, 10, 20_000)
        arch = MlpArchitecture(784, 10, widths, bias=True)
        assert abs(arch.param_count() - 20_000) < 2_000
        assert len(set(widths)) == 1 and len(widths) == depth - 1


def test_forward_identity_linear():
    arch = MlpArchitecture(2, 2)
    p = ParamVector(np.eye(2).ravel(), arch)
    assert np.allclose(forward(p, np.array([1.0, 2.0])), [1.0, 2.0])


def test_forward_zero_weights_two_layer():
    arch = MlpArchitecture(3, 2, (4,), bias=True)
    p = ParamVector(np.zeros(arch.param_count()), arch)
    for _ in range(5):
        x = RNG.normal(size=3)
        assert np.all(forward(p, x) == 0.0)


def test_forward_matches_loop_oracle():
    """Layer-by-layer per-neuron reference, independent of the batch code."""
    arch = MlpArchitecture(4, 3, (5, 6), bias=True)
    p = random_params(arch, np.random.default_rng(7))
    x = np.random.default_rng(8).normal(size=4)

    a = list(x)
    for li, (w, b) in enumerate(unpack_layers(p)):
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
        loss(p, np.zeros(3), 0, NLL)
    with pytest.raises(ValueError):
        loss(p, np.zeros(3), 3, NLL)
    with pytest.raises(ValueError):
        ParamVector(np.zeros(5), arch)
    with pytest.raises(ValueError):
        ParamVector(np.array([np.nan] + [0.0] * 5), arch)


# ------------------------------------------------------------------- losses


def test_nll_uniform_logits_is_log_k():
    for k in (2, 3, 10):
        arch = MlpArchitecture(4, k)
        p = ParamVector(np.zeros(4 * k), arch)
        assert loss(p, np.ones(4), 1, NLL) == pytest.approx(math.log(k), abs=1e-12)


def test_nll_logsumexp_stability_limit():
    # logits (1000, 0), y=1: true value log(1 + e^-1000) ~ e^-1000
    arch = MlpArchitecture(2, 2)
    p = ParamVector(np.array([1000.0, 0.0, 0.0, 0.0]), arch)
    val = loss(p, np.array([1.0, 0.0]), 1, NLL)
    assert 0.0 <= val < 1e-300


def test_nll_matches_extended_precision_oracle():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(42)
    arch = MlpArchitecture(5, 4)
    for _ in range(20):
        p = random_params(arch, rng, scale=2.0)
        x = rng.normal(size=5)
        y = int(rng.integers(1, 5))
        got = loss(p, x, y, NLL)
        w = p.values.reshape(4, 5)
        with mp.workprec(200):
            t = [mp.fsum(mp.mpf(w[r, c]) * mp.mpf(x[c]) for c in range(5)) for r in range(4)]
            expected = float(-t[y - 1] + mp.log(mp.fsum(mp.e**v for v in t)))
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-15)


def test_hinge_values():
    arch = MlpArchitecture(2, 2)
    p = ParamVector(np.eye(2).ravel(), arch)
    # logits (2, 1), y=1: max(0, 1-2+1) = 0;  y=2: max(0, 2-1+1) = 2
    assert loss(p, np.array([2.0, 1.0]), 1, MULTICLASS_HINGE) == 0.0
    assert loss(p, np.array([2.0, 1.0]), 2, MULTICLASS_HINGE) == 2.0


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

    return logit_loss(np.array(logits, dtype=np.float64), y, NLL)[0]


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=6), st.sampled_from([NLL, MULTICLASS_HINGE]))
def test_loss_nonnegative(logit_list, y, kind):
    from gradbound.nets import logit_loss

    k = len(logit_list)
    y = min(y, k)
    val = float(logit_loss(np.array([logit_list]), np.array([y]), kind)[0])
    assert val >= 0.0


# ---------------------------------------------------------------- gradients


def _hidden_preactivations(params, x):
    from gradbound.nets import _forward_cached

    _, pres, _ = _forward_cached(params.layout, params.values, x[None, :])
    return [z[0] for z in pres[:-1]]


def _hinge_margin_gap(params, x, y):
    logits = forward(params, x)
    margins = logits - logits[y - 1] + 1.0
    margins[y - 1] = 0.0
    top2 = np.sort(margins)[-2:]
    return top2[1] - top2[0]


def _draw_clear_case(arch, rng, kind, kink_margin=1e-3):
    """Random (params, x, y) resampled away from ReLU kinks and hinge ties."""
    while True:
        p = random_params(arch, rng)
        x = rng.normal(size=arch.input_dim)
        y = int(rng.integers(1, arch.class_count + 1))
        pres = _hidden_preactivations(p, x)
        if pres and min(np.abs(z).min() for z in pres) < kink_margin:
            continue
        if kind == MULTICLASS_HINGE and _hinge_margin_gap(p, x, y) < kink_margin:
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


@pytest.mark.parametrize("kind", [NLL, MULTICLASS_HINGE])
@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"depth{a.depth}")
def test_grad_input_finite_differences(arch, kind):
    rng = np.random.default_rng(arch.depth * 101 + (kind == NLL))
    for _ in range(100):
        p, x, y = _draw_clear_case(arch, rng, kind)
        analytic = grad_input(p, x, y, kind)
        fd = central_diff(lambda v: loss(p, v, y, kind), x)
        assert rel_err(fd, analytic) <= 1e-4


@pytest.mark.parametrize("kind", [NLL, MULTICLASS_HINGE])
@pytest.mark.parametrize("arch", ARCHS, ids=lambda a: f"depth{a.depth}")
def test_grad_params_finite_differences(arch, kind):
    rng = np.random.default_rng(arch.depth * 307 + (kind == NLL))
    for _ in range(100):
        p, x, y = _draw_clear_case(arch, rng, kind)
        analytic = grad_params(p, x, y, kind)
        fd = central_diff(lambda v: loss(ParamVector(v, arch), x, y, kind), p.values)
        assert rel_err(fd, analytic) <= 1e-4


def test_grad_input_zero_weights_is_zero():
    arch = MlpArchitecture(4, 3)
    p = ParamVector(np.zeros(12), arch)
    assert np.all(grad_input(p, np.ones(4), 2, NLL) == 0.0)


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
        assert np.allclose(grad_input(p, x, y, NLL), expected, rtol=1e-12, atol=1e-14)


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
    assert np.allclose(grad_params(p, x, y, NLL), expected, rtol=1e-12, atol=1e-14)


def test_grad_params_zero_input():
    arch = MlpArchitecture(4, 3, (5,), bias=True)
    rng = np.random.default_rng(9)
    p = random_params(arch, rng)
    g = grad_params(p, np.zeros(4), 1, NLL)
    layers = unpack_layers(ParamVector(g, arch))
    assert np.all(layers[0][0] == 0.0)  # first-layer weights see x = 0
    assert np.any(layers[0][1] != 0.0) or np.any(layers[1][1] != 0.0)


def test_linear_grad_norm_bound():
    # ||grad_x loss||^2 <= L^2 * sum w^2 on 10^4 random draws
    rng = np.random.default_rng(11)
    arch = MlpArchitecture(6, 3)
    lip = lipschitz_bound(NLL)
    for _ in range(100):
        p = random_params(arch, rng)
        x = rng.normal(size=(100, 6))
        y = rng.integers(1, 4, size=100)
        g = batch_input_grads(p, x, y, NLL)
        cap = lip**2 * np.sum(p.values**2)
        assert np.all((g**2).sum(axis=1) <= cap + 1e-12)


# --------------------------------------------- squared input-gradient norms

# The first layer narrows (Gram form) or widens (formed gradient).
SQ_NORM_ARCHS = {
    "linear-narrowing": MlpArchitecture(6, 3),
    "mlp-narrowing": MlpArchitecture(6, 3, (4, 5), bias=True),
    "linear-widening": MlpArchitecture(2, 3),
    "mlp-widening": MlpArchitecture(3, 2, (8, 4), bias=True),
}


@pytest.mark.parametrize("kind", [NLL, MULTICLASS_HINGE])
@pytest.mark.parametrize("name", SQ_NORM_ARCHS)
def test_sq_grad_norms_match_formed_gradients(name, kind):
    arch = SQ_NORM_ARCHS[name]
    rng = np.random.default_rng(len(name) * 7 + (kind == NLL))
    x = rng.normal(size=(50, arch.input_dim))
    y = rng.integers(1, arch.class_count + 1, size=50)
    for _ in range(20):
        p = random_params(arch, rng)
        losses, sq = loss_and_sq_grad_norms(p, x, y, kind)
        g = batch_input_grads(p, x, y, kind)
        assert np.array_equal(losses, batch_losses(p, x, y, kind))
        np.testing.assert_allclose(sq, np.einsum("ij,ij->i", g, g), rtol=1e-12, atol=0)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    assert np.all(loss_and_sq_grad_norms(zero, x, y, kind)[1] == 0.0)


# plus a width where one wide first-layer GEMM over the stack rounds some
# columns differently from the per-vector product
STACK_ARCHS = {**SQ_NORM_ARCHS, "mlp-wide": MlpArchitecture(4, 2, (78,), bias=True)}


@pytest.mark.parametrize("kind", [NLL, MULTICLASS_HINGE])
@pytest.mark.parametrize("name", STACK_ARCHS)
def test_stacked_pass_matches_one_vector_passes(name, kind):
    from gradbound.nets import _backward, _forward_cached

    arch = STACK_ARCHS[name]
    rng = np.random.default_rng(len(name) * 5 + (kind == NLL))
    x = rng.normal(size=(40, arch.input_dim))
    y = rng.integers(1, arch.class_count + 1, size=40)
    stack = np.stack([random_params(arch, rng, s).values for s in (0.1, 0.5, 2.0)])
    losses, grads = loss_and_param_grads(arch, stack, x, y, kind)
    stacked = _backward(arch, stack, x, y, kind, True)
    stacked_pres = _forward_cached(arch, stack, x)[1]
    assert losses.shape == (3, 40) and grads.shape == stack.shape
    for f, values in enumerate(stack):
        for got, want in zip(stacked_pres, _forward_cached(arch, values, x)[1]):
            assert np.array_equal(got[f], want)
        p = ParamVector(values, arch)
        one_loss, one_grad = loss_and_grad(p, x, y, kind, want_params=True)
        assert np.array_equal(losses[f], one_loss)
        assert np.array_equal(grads[f], one_grad)
        # losses, W1, g1 and the parameter gradient: the squared
        # input-gradient norms are a function of W1 and g1 alone
        for got, want in zip(stacked, _backward(arch, values, x, y, kind, True)):
            assert np.array_equal(got[f], want)
        w1, g1 = stacked[1][f], stacked[2][f]
        assert np.array_equal(g1 @ w1, batch_input_grads(p, x, y, kind))


def _gaussian_data(n=32):
    means = np.zeros((2, 4))
    means[[0, 1], [0, 1]] = 1.5
    return synth_gaussian(2, 4, means, 1.0, n, seed=5)


def test_sq_grad_norms_zero_weights():
    data = _gaussian_data()
    arch = MlpArchitecture(data.dim, data.class_count)
    zero = ParamVector(np.zeros(arch.param_count()), arch)
    _, sq = loss_and_sq_grad_norms(zero, data.inputs, data.labels, NLL)
    assert np.mean(sq) == 0.0


def test_sq_grad_norms_loop_oracle_and_linear_cap():
    data = _gaussian_data()
    arch = MlpArchitecture(data.dim, data.class_count)
    rng = np.random.default_rng(2)
    lip = lipschitz_bound(NLL)
    for _ in range(10):
        p = ParamVector(rng.normal(0, 0.5, arch.param_count()), arch)
        per_example = [
            float(np.sum(grad_input(p, data.inputs[i], int(data.labels[i]), NLL) ** 2))
            for i in range(data.m)]
        got = float(np.mean(loss_and_sq_grad_norms(p, data.inputs, data.labels, NLL)[1]))
        assert got == pytest.approx(math.fsum(per_example) / data.m, rel=1e-12)
        assert got <= lip**2 * np.sum(p.values**2) + 1e-12


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
        assert lipschitz_bound(NLL) == pytest.approx(best)


def test_lipschitz_hinge_by_pattern_enumeration():
    # Hinge subgradients are 0 or e_a - e_b with a != b; max norm sqrt(2).
    k = 5
    norms = [0.0]
    for a in range(k):
        for b in range(k):
            if a != b:
                g = np.zeros(k)
                g[a], g[b] = 1.0, -1.0
                norms.append(np.linalg.norm(g))
    assert max(norms) == pytest.approx(lipschitz_bound(MULTICLASS_HINGE))


@pytest.mark.parametrize("kind", [NLL, MULTICLASS_HINGE])
def test_lipschitz_bound_on_random_logits(kind):
    rng = np.random.default_rng(13)
    lip = lipschitz_bound(kind)
    logits = rng.uniform(-30, 30, size=(100_000, 5))
    y = rng.integers(1, 6, size=100_000)
    g = logit_gradient(logits, y, kind)
    assert np.all(np.linalg.norm(g, axis=1) <= lip + 1e-12)
