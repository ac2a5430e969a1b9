"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Everything runs at desk scale on the 4096/1024 surrogate digit split (or on
synthetic class-conditional Gaussians where the statement calls for them).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the status lines.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from gradbound import bounds as bd
from gradbound.cli import SweepSpec, arch_for_depth, run
from gradbound.datasets import synth_gaussian
from gradbound.gaussians import (GaussianFamily, kl_divergence, prior_family,
                                 sample, stream_rng)
from gradbound.nets import (NLL, MlpArchitecture, ParamVector, grad_input,
                            grad_params, lipschitz_bound, logit_loss, loss)
from gradbound.subgamma import check as subgamma_check
from gradbound.subgamma import envelope, fit
from gradbound.training import TrainConfig

TARGET_PARAMS = 20_000
SIGMA_GRID = (0.0004, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def heldout(desk_splits):
    return desk_splits[1]


@pytest.fixture(scope="module")
def train_set(desk_splits):
    return desk_splits[0]


def test_criterion_1_closed_form_exactness():
    lip = lipschitz_bound(NLL)
    worst = 0.0
    for (k, d, m, sigma) in [(10, 784, 60_000, 0.1), (10, 784, 4096, 0.3162),
                             (3, 7, 128, 0.5), (2, 2, 16, 1.0)]:
        lam = math.sqrt(m) / (4.0 * lip * sigma)
        got = bd.linear_gradnorm_bound(k, d, m, lip, sigma, lam)
        worst = max(worst, abs(got - k * d * math.log(2.0)))
    report(1, worst <= 1e-12 * 10 * 784,
           f"closed form hits kd*log2 at lam=sqrt(m)/(4 L sigma); max dev {worst:.3g}")


def test_criterion_2_proof_identity_suite():
    rng = np.random.default_rng(2026)
    worst_mgf = worst_herbst = 0.0
    for _ in range(50):
        losses = rng.uniform(0.0, 3.0, size=rng.integers(2, 7))
        m = int(rng.integers(1, 5))
        lhs, rhs = bd.mgf_decomposition_check(losses, float(rng.uniform(0, 3)), m)
        worst_mgf = max(worst_mgf, abs(lhs - rhs) / abs(lhs))
        lhs, rhs = bd.herbst_identity_check(losses, float(rng.uniform(0, 2)), m)
        worst_herbst = max(worst_herbst, abs(lhs - rhs) / abs(lhs))
    report(2, worst_mgf <= 1e-12 and worst_herbst <= 1e-6,
           f"50 instances: factorization rel err {worst_mgf:.2e} (<=1e-12), "
           f"cumulant reconstruction {worst_herbst:.2e} (<=1e-6)")


def test_criterion_3_log_sobolev_property():
    rng = stream_rng(2026, 3)
    margins = []
    for _ in range(20):
        d = int(rng.integers(4, 17))
        k = int(rng.integers(2, 4))
        means = rng.normal(0.0, 0.7, size=(k, d))
        n_per = int(math.ceil(100_000 / k))
        data = synth_gaussian(k, d, means, 1.0, n_per, seed=int(rng.integers(0, 2**31)))
        w = sample(prior_family(MlpArchitecture(d, k), float(rng.uniform(0.05, 0.3))),
                   int(rng.integers(0, 2**31)), 1)[0]
        res = bd.log_sobolev_check(w, data, NLL, float(rng.uniform(0.05, 0.8)),
                                   n=100_000)
        margins.append(res.margin)
    ok = all(m >= 0.0 for m in margins)
    report(3, ok, f"entropy inequality holds in {sum(m >= 0 for m in margins)}/20 "
                  f"configs at n=1e5 (min margin {min(margins):.3g})")


def test_criterion_4_naive_estimator_instability(train_set):
    cfg = bd.EstimatorConfig(n_weight_samples=64, seed=7)
    lambdas = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 200.0)
    ok = True
    details = []
    for depth in (1, 2, 3, 4, 5):
        arch = arch_for_depth(depth, train_set.dim, train_set.class_count, TARGET_PARAMS)
        losses, _ = bd.draw_stats([prior_family(arch, 0.1)], train_set, NLL, cfg, grads=False)[0]
        ests = bd.naive_complexity_curve(losses, lambdas)
        for lam, est in zip(lambdas, ests):
            if lam >= 50.0 and not est.overflowed:
                ok = False
            if not math.isfinite(est.log_space_value):
                ok = False
        first_inf = next(lam for lam, e in zip(lambdas, ests) if e.overflowed)
        details.append(f"depth {depth} overflows from lam={first_inf:g}")
    report(4, ok, "direct evaluation overflows for all lam>=50 while log-space "
                  "stays finite (" + "; ".join(details) + ")")


def test_criterion_5_depth_monotonicity(heldout):
    cfg = bd.EstimatorConfig(n_weight_samples=64, seed=7)
    means = {}
    for depth in (2, 3, 4, 5):
        arch = arch_for_depth(depth, heldout.dim, heldout.class_count, TARGET_PARAMS)
        _, sq_norms = bd.draw_stats([prior_family(arch, 0.1)], heldout, NLL, cfg, grads=True)[0]
        means[depth], _ = bd.expected_grad_norm_mc(sq_norms)
    decreasing = all(means[d] > means[d + 1] for d in (2, 3, 4))
    lin = arch_for_depth(1, heldout.dim, heldout.class_count, TARGET_PARAMS)
    worst_case = lipschitz_bound(NLL) ** 2 * 0.1**2 * lin.param_count()
    dominates = all(worst_case > v for v in means.values())
    seq = ", ".join(f"{d}:{means[d]:.4g}" for d in (2, 3, 4, 5))
    report(5, decreasing and dominates,
           f"E||grad_x||^2 strictly decreasing over depths ({seq}); linear "
           f"worst case {worst_case:.4g} exceeds all")


def test_criterion_6_variance_monotonicity_and_explosion(train_set, heldout, synth2):
    cfg = bd.EstimatorConfig(n_weight_samples=32, seed=7)
    m = train_set.m
    lam = math.sqrt(m)
    ok = True
    notes = []
    for depth in (2, 3, 4, 5):
        arch = arch_for_depth(depth, heldout.dim, heldout.class_count, TARGET_PARAMS)
        values = []
        for sigma in SIGMA_GRID:
            prior = prior_family(arch, sigma)
            losses, sq_norms = bd.draw_stats([prior], heldout, NLL, cfg, grads=True)[0]
            b = bd.estimate_loss_bound(losses, cfg.loss_bound_slack)
            est = bd.gradnorm_bound_curve(sq_norms, [lam], m, b)[0]
            values.append(math.inf if est.overflowed else est.log_space_value)
            if sigma >= 0.5 and not est.overflowed:
                ok = False
        if any(a > b_ for a, b_ in zip(values, values[1:])):
            ok = False
        notes.append(f"depth {depth} flags from sigma="
                     f"{SIGMA_GRID[values.index(math.inf)]:g}")

    # the on-average loss bound stays small on class-conditional Gaussian data
    bs = []
    for depth in (2, 3, 4, 5):
        arch = arch_for_depth(depth, synth2.dim, synth2.class_count, 2_000)
        for sigma in (0.0004, 0.01, 0.05, 0.1):
            losses, _ = bd.draw_stats([prior_family(arch, sigma)], synth2, NLL, cfg,
                                      grads=False)[0]
            bs.append(bd.estimate_loss_bound(losses, cfg.loss_bound_slack))
    if max(bs) > 2.0:
        ok = False
    report(6, ok, "bound nondecreasing in sigma_p with overflow at sigma>=0.5 "
                  f"({'; '.join(notes)}); loss bound b<=2 at sigma<=0.1 "
                  f"(max {max(bs):.3f})")


def test_criterion_7_subgamma_certification(heldout, train_set):
    cfg = bd.EstimatorConfig(n_weight_samples=64, seed=7)
    m = train_set.m
    lambdas = np.geomspace(1.0, m, 12)
    ok = True
    notes = []
    for depth in (1, 2, 3, 4, 5):
        arch = arch_for_depth(depth, heldout.dim, heldout.class_count, TARGET_PARAMS)
        prior = prior_family(arch, 0.1)
        losses, sq_norms = bd.draw_stats([prior], heldout, NLL, cfg, grads=True)[0]
        b = bd.estimate_loss_bound(losses, cfg.loss_bound_slack)
        ests = bd.gradnorm_bound_curve(sq_norms, lambdas, m, b)
        grid = [(float(l), e.log_space_value) for l, e in zip(lambdas, ests)
                if not e.overflowed]
        fitted = fit(grid, c_max=1e-3)
        good = (fitted.residual == 0.0 and fitted.c <= 1e-3
                and subgamma_check(fitted, grid))
        ok = ok and good
        notes.append(f"depth {depth}: v={fitted.v:.3g} c={fitted.c:.2g} "
                     f"({len(grid)} finite pts)")

    # synthetic round trip: the fitted v matches the generating envelope
    v0, c0 = 2.0, 1e-4
    round_grid = [(l, envelope(v0, c0, l)) for l in np.geomspace(0.5, 50, 25)]
    recovered = fit(round_grid)
    if abs(recovered.v - v0) > 0.01 * v0:
        ok = False
    report(7, ok, "dominating envelopes with residual 0 and c<=1e-3 "
                  f"({'; '.join(notes)}); round-trip v={recovered.v:.4f}")


def test_criterion_8_train_report_direction(desk_data, tmp_path):
    images = desk_data.source["images"]
    labels = desk_data.source["labels"]
    out = tmp_path / "train-report.csv"
    spec = SweepSpec(
        experiment="train-report",
        images_path=images, labels_path=labels,
        variance_grid=(0.1,), depth_grid=(1,),
        estimator=bd.EstimatorConfig(n_weight_samples=64, seed=7),
        train=TrainConfig(epochs=15, seed=1),
        out=str(out), format="csv",
    )
    assert run(spec) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    train_loss = float(row["train_loss"])
    test_loss = float(row["test_loss"])
    sqrt_m_finite = row["bound_sqrt_m"] != "inf"
    m_infinite = row["bound_m"] == "inf"
    ok = train_loss < 0.5 and test_loss < 0.6 and sqrt_m_finite and m_infinite
    report(8, ok, f"one-layer at variance 0.1: train {train_loss:.3f} (<0.5), "
                  f"test {test_loss:.3f} (<0.6), C-bound finite at sqrt(m) "
                  f"({row['bound_sqrt_m']}) and inf at m")


def test_criterion_9_numerical_foundations():
    # gradient finite differences (both gradients, both model shapes)
    rng = np.random.default_rng(99)
    worst_fd = 0.0
    for arch in (MlpArchitecture(6, 3), MlpArchitecture(6, 3, (5, 5), bias=True)):
        for _ in range(20):
            while True:
                p = ParamVector(rng.normal(0, 0.5, arch.param_count()), arch)
                x = rng.normal(size=6)
                y = int(rng.integers(1, 4))
                from gradbound.nets import _forward_cached
                pres = _forward_cached(p.layout, p.values, x[None, :])[1][:-1]
                if not pres or min(np.abs(z).min() for z in pres) > 1e-3:
                    break
            gx = grad_input(p, x, y, NLL)
            fdx = np.array([
                (loss(p, x + h, y, NLL) - loss(p, x - h, y, NLL)) / 2e-5
                for h in (1e-5 * np.eye(6))])
            worst_fd = max(worst_fd, np.linalg.norm(fdx - gx) /
                           max(np.linalg.norm(gx), 1e-8))
            gw = grad_params(p, x, y, NLL)
            fdw = np.zeros_like(gw)
            for i in range(gw.size):
                up, down = p.values.copy(), p.values.copy()
                up[i] += 1e-5
                down[i] -= 1e-5
                fdw[i] = (loss(ParamVector(up, arch), x, y, NLL)
                          - loss(ParamVector(down, arch), x, y, NLL)) / 2e-5
            worst_fd = max(worst_fd, np.linalg.norm(fdw - gw) /
                           max(np.linalg.norm(gw), 1e-8))

    # KL closed form vs adaptive integration
    worst_kl = 0.0
    arch1 = MlpArchitecture(1, 1)
    for _ in range(20):
        mq, mp_ = rng.uniform(-3, 3, size=2)
        sq, sp = rng.uniform(0.3, 3.0, size=2)
        closed = kl_divergence(GaussianFamily(np.array([mq]), sq, arch1),
                               GaussianFamily(np.array([mp_]), sp, arch1))
        oracle = quad(lambda w: norm.pdf(w, mq, sq)
                      * (norm.logpdf(w, mq, sq) - norm.logpdf(w, mp_, sp)),
                      -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
        worst_kl = max(worst_kl, abs(closed - oracle) / abs(oracle))

    # log-sum-exp shift invariance on exactly-representable shifts
    worst_shift = 0.0
    for _ in range(200):
        logits = rng.integers(-5000, 5000, size=5) / 1024.0
        for c in (-1e6, -12345.5, 1.0, 12345.5, 1e6):
            a = float(logit_loss(np.array([logits]), np.array([2]), NLL)[0])
            b = float(logit_loss(np.array([logits + c]), np.array([2]), NLL)[0])
            worst_shift = max(worst_shift, abs(a - b))

    ok = worst_fd <= 1e-4 and worst_kl <= 1e-8 and worst_shift <= 1e-12
    report(9, ok, f"finite differences {worst_fd:.2e} (<=1e-4), KL vs quadrature "
                  f"{worst_kl:.2e} (<=1e-8), shift invariance {worst_shift:.2e} "
                  f"(<=1e-12)")
