import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gradbound import bounds as bd
from gradbound.bounds import logmeanexp
from gradbound.datasets import LabeledDataset, synth_gaussian
from gradbound.gaussians import GaussianFamily, LayoutMismatchError, prior_family, sample
from gradbound.nets import (
    LIPSCHITZ_BOUND,
    MlpArchitecture,
    ParamVector,
    batch_input_grads,
    batch_losses,
    first_layer_block,
    loss_and_sq_grad_norms,
)
from gradbound.training import TrainConfig, evaluate, train

CFG = bd.EstimatorConfig(n_weight_samples=8, seed=11)


def losses_of(family, data, cfg=CFG):
    return bd.draw_stats([family], data, cfg, grads=False)[0][0]


def stats_of(family, data, cfg=CFG):
    return bd.draw_stats([family], data, cfg, grads=True)[0]


def small_synth(seed=5, n=32, d=4, k=2, sigma=1.0):
    means = np.zeros((k, d))
    means[np.arange(k), np.arange(k)] = 1.5
    return synth_gaussian(k, d, means, sigma, n, seed=seed)


def constant_dataset(k=3, d=4, n=16):
    """Identical inputs with one label: the loss is constant per weight draw."""
    inputs = np.tile(np.linspace(0.1, 0.4, d), (n, 1))
    return LabeledDataset(inputs, np.ones(n, dtype=np.int64), k)


# ------------------------------------------------------------------ log MGF
# log M(alpha), M(alpha) the mean of exp(-alpha * loss), is logmeanexp(-alpha * losses).


def test_log_mgf_at_zero_is_exactly_zero():
    data = small_synth()
    arch = MlpArchitecture(data.dim, data.class_count)
    p = ParamVector(np.ones(arch.param_count()), arch)
    losses = batch_losses(p, data.inputs, data.labels)
    assert logmeanexp(-0.0 * losses) == 0.0


def test_log_mgf_constant_loss():
    for alpha in (0.25, 1.0, 2.0):
        assert logmeanexp(-alpha * np.full(9, 1.7)) == pytest.approx(
            -alpha * 1.7, rel=1e-12)


def test_log_mgf_three_point_support_oracle():
    mp = pytest.importorskip("mpmath")
    with mp.workprec(200):
        expected = float(mp.log((1 + mp.e**-1 + mp.e**-2) / 3))
    got = logmeanexp(-1.0 * np.array([0.0, 1.0, 2.0]))
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx(-0.6910063242237294, abs=1e-12)  # from the oracle


@given(st.lists(st.floats(0, 20), min_size=1, max_size=10),
       st.floats(0, 1), st.floats(0, 1))
def test_log_mgf_monotone_in_alpha(losses, a1, a2):
    lo, hi = sorted([a1, a2])
    l = np.array(losses)
    assert logmeanexp(-lo * l) >= logmeanexp(-hi * l) - 1e-12


def test_log_mgf_monotone_on_model_draws():
    data = small_synth(n=64)
    arch = MlpArchitecture(data.dim, data.class_count, (6,))
    alphas = np.linspace(0.0, 1.0, 9)
    for w in sample(prior_family(arch, 0.3), 31, 8):
        losses = batch_losses(w, data.inputs, data.labels)
        vals = [logmeanexp(-a * losses) for a in alphas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


# ------------------------------------------------------ per-draw kernel


def test_draw_stats_matches_per_draw_passes():
    """Forward-only rows and a non-zero-mean family's rows are a one-draw
    pass bit for bit.  A zero-mean family's gradient rows take their first
    layer as sigma times the product of the raw normals z_i, so they match
    the one-draw pass to rounding."""
    data = small_synth(n=24)
    arch = MlpArchitecture(data.dim, data.class_count, (5,))
    posterior = GaussianFamily(np.random.default_rng(3).normal(size=arch.param_count()),
                               0.2, arch)
    for family, scaled in ((prior_family(arch, 0.4), True), (posterior, False)):
        losses, sq_norms = stats_of(family, data)
        assert losses.shape == sq_norms.shape == (CFG.n_weight_samples, data.m)
        [(forward_only, none)] = bd.draw_stats([family], data, CFG, grads=False)
        assert none is None
        for i, w in enumerate(sample(family, CFG.seed, CFG.n_weight_samples)):
            assert np.array_equal(forward_only[i], batch_losses(w, data.inputs, data.labels))
            g = batch_input_grads(w, data.inputs, data.labels)
            np.testing.assert_allclose(sq_norms[i], np.einsum("ij,ij->i", g, g), rtol=1e-12)
            kernel = loss_and_sq_grad_norms(w, data.inputs, data.labels)
            if scaled:
                np.testing.assert_allclose(losses[i], kernel[0], rtol=1e-13)
                np.testing.assert_allclose(sq_norms[i], kernel[1], rtol=1e-13)
            else:
                assert np.array_equal(losses[i], kernel[0])
                assert np.array_equal(sq_norms[i], kernel[1])


def test_draw_stats_shares_draws_between_families():
    data = small_synth(n=24)
    arch = MlpArchitecture(data.dim, data.class_count, (5,))
    rng = np.random.default_rng(3)
    families = [prior_family(arch, 0.4), prior_family(arch, 0.05),
                GaussianFamily(rng.normal(size=arch.param_count()), 0.2, arch)]
    for grads in (False, True):
        together = bd.draw_stats(families, data, CFG, grads)
        for family, (losses, sq_norms) in zip(families, together):
            alone = bd.draw_stats([family], data, CFG, grads)[0]
            assert np.array_equal(losses, alone[0])
            assert np.array_equal(sq_norms, alone[1]) if grads else sq_norms is None


def test_draw_stats_refuses_families_of_different_layouts():
    data = small_synth(n=8)
    narrow = MlpArchitecture(data.dim, data.class_count)
    wide = MlpArchitecture(data.dim, data.class_count, (3,))
    for grads in (False, True):
        with pytest.raises(LayoutMismatchError):
            bd.draw_stats([prior_family(narrow, 1.0), prior_family(wide, 1.0)], data, CFG, grads)


def test_draw_stats_is_prefix_stable():
    data = small_synth(n=16)
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 0.7)
    three = stats_of(prior, data, bd.EstimatorConfig(n_weight_samples=3, seed=4))
    five = stats_of(prior, data, bd.EstimatorConfig(n_weight_samples=5, seed=4))
    for small, big in zip(three, five):
        assert np.array_equal(small, big[:3])


@pytest.mark.parametrize("arch", [
    MlpArchitecture(12, 3, (5, 4)),  # narrowing first layer: Gram form
    MlpArchitecture(4, 3, (9,)),  # widening first layer
    MlpArchitecture(12, 3),  # linear, no bias
], ids=["narrowing", "widening", "linear"])
def test_draw_stats_chunk_size_does_not_change_results(arch, monkeypatch):
    data = small_synth(n=24, d=arch.input_dim, k=arch.class_count)
    families = [prior_family(arch, 0.4), prior_family(arch, 0.05)]
    for grads in (False, True):
        runs = []
        for budget in (1, 1 << 40):  # one pair per chunk, every pair in one
            monkeypatch.setattr(bd, "FIRST_LAYER_BLOCK_BYTES", budget)
            runs.append(bd.draw_stats(families, data, CFG, grads))
        for one, everything in zip(*runs):
            np.testing.assert_allclose(one[0], everything[0], rtol=1e-12)
            if grads:
                np.testing.assert_allclose(one[1], everything[1], rtol=1e-12)


def _record_chunks(monkeypatch):
    """(columns, block bytes) of every first-layer block draw_stats makes,
    and the buffer each block was written into."""
    chunks, buffers = [], []

    def recording(params_list, x, out):
        views = first_layer_block(params_list, x, out)
        rows, fan_out = views[0].shape
        chunks.append((len(params_list), 8 * rows * len(views) * fan_out))
        assert all(np.shares_memory(v, out) for v in views)
        buffers.append(out)
        return views

    monkeypatch.setattr(bd, "first_layer_block", recording)
    return chunks, buffers


def test_draw_stats_chunks_stay_within_budget(monkeypatch):
    """The budget counts first-layer columns: with gradients, one per draw
    for the zero-mean families, plus one per (draw, family) pair of the
    others; without, one per pair.  Every block of a call is written into
    one buffer, sized for the call's largest chunk."""
    data = small_synth(n=24)
    arch = MlpArchitecture(data.dim, data.class_count, (6,))
    posterior = GaussianFamily(np.random.default_rng(3).normal(size=arch.param_count()),
                               0.2, arch)
    families = [prior_family(arch, s) for s in (0.1, 0.3, 0.5)] + [posterior]
    column_bytes = 8 * data.m * 6
    chunks, buffers = _record_chunks(monkeypatch)
    for grads, columns in ((True, 8 * 2), (False, 8 * 4)):
        for budget, per_chunk in [(3 * column_bytes + 100, 3), (column_bytes - 1, 1),
                                  (1 << 40, columns)]:
            chunks.clear()
            buffers.clear()
            monkeypatch.setattr(bd, "FIRST_LAYER_BLOCK_BYTES", budget)
            bd.draw_stats(families, data, CFG, grads)
            full, rest = divmod(columns, per_chunk)
            assert [cols for cols, _ in chunks] == [per_chunk] * full + [rest] * (rest > 0)
            assert all(nbytes <= budget or cols == 1 for cols, nbytes in chunks)
            assert all(nbytes == cols * column_bytes for cols, nbytes in chunks)
            assert all(b is buffers[0] for b in buffers)
            assert buffers[0].nbytes <= min(max(column_bytes, budget), columns * column_bytes)


def test_draw_stats_takes_one_column_per_chunk_past_the_budget(monkeypatch):
    """A widening first layer whose one column outgrows the budget, as on
    d = 16 data with 1053-wide hidden layers, gets a block per column:
    the zero-mean families of a draw share one column, never one block."""
    data = small_synth(n=24)
    arch = MlpArchitecture(data.dim, data.class_count, (40, 40))
    column_bytes = 8 * data.m * 40
    chunks, buffers = _record_chunks(monkeypatch)
    monkeypatch.setattr(bd, "FIRST_LAYER_BLOCK_BYTES", column_bytes // 2)
    bd.draw_stats([prior_family(arch, s) for s in (0.01, 0.1, 0.5)], data, CFG, True)
    assert chunks == [(1, column_bytes)] * CFG.n_weight_samples
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].nbytes == column_bytes


def _read_only(a):
    a = a.copy()
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("hidden", [(), (3, 4), (9,)], ids=["linear", "narrowing", "widening"])
def test_kernel_never_writes_caller_data(hidden):
    """The passes overwrite their own scratch (each hidden ReLU goes into
    its pre-activation), never the dataset or the weights: on read-only
    inputs, labels and family means every result is the writeable run's."""
    data = small_synth(n=24, d=6, k=3)
    frozen = LabeledDataset(_read_only(data.inputs), _read_only(data.labels), 3)
    assert not (frozen.inputs.flags.writeable or frozen.labels.flags.writeable)
    arch = MlpArchitecture(6, 3, hidden)
    mean = np.random.default_rng(3).normal(size=arch.param_count())

    def results(d, mean):
        families = [prior_family(arch, 0.4), GaussianFamily(mean, 0.2, arch)]
        trained = train(arch, d, TrainConfig(epochs=2, batch_size=8, seed=1), [0.3, 0.5])
        return (bd.draw_stats(families, d, CFG, False), bd.draw_stats(families, d, CFG, True),
                [p.values for p in trained], [evaluate(p, d) for p in trained],
                bd.log_sobolev_check(trained[0], d, 0.5))

    expected = results(data, mean)
    got = results(frozen, _read_only(mean))
    assert np.array_equal(frozen.inputs, data.inputs)
    for (e_losses, e_sq), (g_losses, g_sq) in zip(expected[0] + expected[1], got[0] + got[1]):
        assert np.array_equal(e_losses, g_losses)
        assert (e_sq is None and g_sq is None) or np.array_equal(e_sq, g_sq)
    assert all(np.array_equal(e, g) for e, g in zip(expected[2], got[2]))
    assert expected[3:] == got[3:]


def test_draw_stats_wide_layer_peak_memory():
    """Past the chunk budget each first-layer column is its own block, all
    written into one buffer, and each hidden ReLU overwrites its own
    pre-activation: a forward pass holds about one column of (n, h)
    float64 arrays, and a gradient pass adds the scaled buffer and the
    backward pass's gradient (the gauss-wide depth-2 shape, scaled down)."""
    n, h = 512, 2000
    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.normal(size=(n, 8)), 1 + np.arange(n) % 3, 3)
    arch = MlpArchitecture(8, 3, (h,))
    assert 8 * n * h > bd.FIRST_LAYER_BLOCK_BYTES
    families = [prior_family(arch, s) for s in (0.1, 0.5)]
    cfg = bd.EstimatorConfig(n_weight_samples=4, seed=1)
    for grads, columns in ((False, 1.5), (True, 3.5)):
        bd.draw_stats(families, data, cfg, grads)  # warm call
        tracemalloc.start()
        try:
            bd.draw_stats(families, data, cfg, grads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= columns * 8 * n * h, (grads, peak / (8 * n * h))


# --------------------------------------------------------- naive complexity


def test_naive_complexity_vanishes_as_lambda_to_zero():
    data = small_synth()
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 0.3)
    est = bd.naive_complexity_curve(losses_of(prior, data), [1e-8])[0]
    assert abs(est.log_space_value) < 1e-6
    assert abs(est.value) < 1e-6 and not est.overflowed


def test_naive_complexity_degenerate_gap_is_zero():
    # identical inputs + one label: mean loss equals each loss, so the
    # factorized exponent cancels per weight draw
    data = constant_dataset()
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 0.5)
    est = bd.naive_complexity_curve(losses_of(prior, data), [3.0])[0]
    assert abs(est.log_space_value) < 1e-9
    assert est.std_error < 1e-9


def test_naive_complexity_overflow_policy():
    data = small_synth(sigma=2.0)
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 4.0)
    curve = bd.naive_complexity_curve(losses_of(prior, data), [0.5, 500.0])
    small, big = curve
    assert not small.overflowed and math.isfinite(small.value)
    assert big.overflowed and big.value == math.inf
    assert math.isfinite(big.log_space_value)
    with pytest.raises(ValueError):
        bd.naive_complexity_curve(losses_of(prior, data), [0.0])


def test_naive_log_space_consistency_when_finite():
    # value (direct chain) and log_space_value are the same number when
    # nothing saturated; no exp is needed to compare them
    data = small_synth(n=64, sigma=2.0)
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 1.0)
    for lam in (4.0, 8.0, 16.0):
        est = bd.naive_complexity_curve(losses_of(prior, data), [lam])[0]
        assert not est.overflowed
        assert abs(est.value - est.log_space_value) <= 1e-9 * abs(est.value)


# ------------------------------------------------- integral gradient bound


def test_integral_bound_empty_interval():
    data = small_synth()
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 0.3)
    est = bd.gradnorm_integral_bound(*stats_of(prior, data), 1e-9, 1, 64)
    assert abs(est.log_space_value) < 1e-6


def test_integral_bound_zero_gradient_prior():
    data = small_synth()
    prior = prior_family(MlpArchitecture(data.dim, data.class_count), 1e-30)
    est = bd.gradnorm_integral_bound(*stats_of(prior, data), 8.0, data.m, 64)
    assert abs(est.log_space_value) < 1e-9


@pytest.mark.parametrize("n_nodes", [0, 1])
def test_integral_bound_refuses_fewer_than_two_nodes(n_nodes):
    # the trapezoid rule on 0 or 1 nodes integrates to 0, which would read
    # as a bound of 0
    losses, sq_norms = np.ones((2, 3)), np.ones((2, 3))
    with pytest.raises(ValueError, match="at least 2 nodes"):
        bd.gradnorm_integral_bound(losses, sq_norms, 1.0, 3, n_nodes)


def dense_quadrature_oracle(prior, data, lam, m, seed, n_weight, nodes_n):
    """Straight-loop reimplementation with its own dense trapezoid rule."""
    exps = []
    for w in sample(prior, seed, n_weight):
        lo = batch_losses(w, data.inputs, data.labels)
        g = batch_input_grads(w, data.inputs, data.labels)
        sq = (g**2).sum(axis=1)
        nodes = np.linspace(0.0, lam / m, nodes_n)
        log_m = np.array([logmeanexp(-a * lo) for a in nodes])
        integrals = []
        for li in lo:
            f = np.exp(-nodes * li - log_m)
            integrals.append(float(np.sum((f[1:] + f[:-1]) / 2 * np.diff(nodes))))
        exps.append(2 * lam * float(np.mean(sq * np.array(integrals))))
    return logmeanexp(np.array(exps))


def test_integral_bound_matches_dense_quadrature_oracle():
    data = small_synth(n=8, d=2, k=2)
    prior = prior_family(MlpArchitecture(2, 2), 0.5)
    lam, m = 6.0, 8
    cfg = bd.EstimatorConfig(n_weight_samples=4, seed=11)
    losses, sq_norms = stats_of(prior, data, cfg)
    est = bd.gradnorm_integral_bound(losses, sq_norms, lam, m, 64)
    oracle = dense_quadrature_oracle(prior, data, lam, m, 11, 4, 10_001)
    assert est.log_space_value == pytest.approx(oracle, rel=1e-4)
    # node-doubling convergence
    prev = est.log_space_value
    for nodes in (128, 256):
        cur = bd.gradnorm_integral_bound(losses, sq_norms, lam, m, nodes).log_space_value
        assert abs(cur - prev) <= 1e-4 * abs(prev)
        prev = cur


# ------------------------------------------------------- linear closed form


def test_linear_bound_exact_log2_point():
    for (k, d, m, sigma) in [(10, 784, 60_000, 0.1), (3, 7, 128, 0.5), (2, 2, 16, 1.0)]:
        lip = LIPSCHITZ_BOUND
        lam = math.sqrt(m) / (4 * lip * sigma)
        got = bd.linear_gradnorm_bound(k, d, m, lip, sigma, lam)
        assert abs(got - k * d * math.log(2.0)) <= 1e-12 * k * d


def test_linear_bound_limits_and_pole():
    assert bd.linear_gradnorm_bound(2, 3, 100, 1.0, 1.0, 1e-12) < 1e-12
    assert bd.linear_gradnorm_bound(2, 3, 100, 1.0, 1.0, 10.0) == math.inf
    # m = 100, L = sigma_p = 1: log-2 point sqrt(m)/(4 L sigma_p), pole sqrt(m/8)/(L sigma_p)
    lam_log2 = math.sqrt(100) / (4.0 * 1.0 * 1.0)
    lam_pole = math.sqrt(100 / 8.0) / (1.0 * 1.0)
    assert lam_pole == pytest.approx(math.sqrt(2) * lam_log2)
    assert bd.linear_gradnorm_bound(2, 3, 100, 1.0, 1.0, lam_pole * 0.999) < math.inf
    assert bd.linear_gradnorm_bound(2, 3, 100, 1.0, 1.0, lam_pole) == math.inf


@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.01, 2.0),
       st.floats(1.01, 1.5))
def test_linear_bound_strictly_increasing(lam, sigma, lip, factor):
    m, k, d = 1000, 3, 5
    base = bd.linear_gradnorm_bound(k, d, m, lip, sigma, lam)
    if not math.isfinite(base):
        return
    for bumped in [
        bd.linear_gradnorm_bound(k, d, m, lip, sigma, lam * factor),
        bd.linear_gradnorm_bound(k, d, m, lip, sigma * factor, lam),
        bd.linear_gradnorm_bound(k, d, m, lip * factor, sigma, lam),
    ]:
        assert bumped > base


# ------------------------------------------------------- loss bound and b


def test_estimate_loss_bound_degenerate_prior(synth2):
    arch = MlpArchitecture(synth2.dim, synth2.class_count)
    prior = prior_family(arch, 1e-30)
    b = bd.estimate_loss_bound(losses_of(prior, synth2), CFG.loss_bound_slack)
    assert b == pytest.approx(math.log(2) + CFG.loss_bound_slack, abs=1e-9)


def test_estimate_loss_bound_monotone_in_sigma(synth2):
    arch = MlpArchitecture(synth2.dim, synth2.class_count, (8,))
    lo = bd.estimate_loss_bound(losses_of(prior_family(arch, 0.05), synth2),
                                CFG.loss_bound_slack)
    hi = bd.estimate_loss_bound(losses_of(prior_family(arch, 0.5), synth2),
                                CFG.loss_bound_slack)
    assert hi >= lo


# --------------------------------------------------- expected-norm bound


def test_gradnorm_bound_degenerate_prior(synth2):
    arch = MlpArchitecture(synth2.dim, synth2.class_count)
    prior = prior_family(arch, 1e-30)
    est = bd.gradnorm_bound_curve(stats_of(prior, synth2)[1], [4.0], synth2.m, 1.0)[0]
    assert abs(est.log_space_value) < 1e-9


def test_gradnorm_bound_rejects_lambda_above_m(synth2):
    arch = MlpArchitecture(synth2.dim, synth2.class_count)
    prior = prior_family(arch, 0.1)
    with pytest.raises(ValueError):
        bd.gradnorm_bound_curve(stats_of(prior, synth2)[1], [synth2.m + 1.0], synth2.m, 1.0)


def test_integral_bound_dominated_by_expected_norm_bound(synth2):
    # shared weight draws: the alpha integral is at most e^b * lam / m
    cfg = bd.EstimatorConfig(n_weight_samples=16, seed=3)
    arch = MlpArchitecture(synth2.dim, synth2.class_count, (6,))
    prior = prior_family(arch, 0.1)
    losses, sq_norms = stats_of(prior, synth2, cfg)
    b = bd.estimate_loss_bound(losses, cfg.loss_bound_slack)
    m = synth2.m
    for lam in (1.0, 16.0, 128.0, float(m)):
        tight = bd.gradnorm_integral_bound(losses, sq_norms, lam, m, 128)
        loose = bd.gradnorm_bound_curve(sq_norms, [lam], m, b)[0]
        slack = 3.0 * (tight.std_error + loose.std_error)
        assert tight.log_space_value <= loose.log_space_value + slack


def test_bound_estimate_invariant_enforced():
    with pytest.raises(ValueError):
        bd.BoundEstimate(value=1.0, log_space_value=0.0, std_error=0.0,
                         n_weight_samples=1, n_data_points=1, overflowed=True)
    with pytest.raises(ValueError):
        bd.BoundEstimate(value=math.inf, log_space_value=0.0, std_error=0.0,
                         n_weight_samples=1, n_data_points=1, overflowed=False)
