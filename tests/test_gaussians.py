import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from gradbound import gaussians
from gradbound.gaussians import (
    GaussianFamily,
    kl_divergence,
    normal_rows,
    posterior_family,
    prior_family,
    sample,
    standard_normal,
)
from gradbound.nets import MlpArchitecture, ParamVector

ARCH1 = MlpArchitecture(1, 1)   # single weight
ARCH2 = MlpArchitecture(2, 1)   # two weights
ARCH4 = MlpArchitecture(2, 2)   # four weights


def kl_quad_oracle(mq, sq, mp_, sp):
    """Adaptive numerical integration of q log(q/p) on the real line."""

    def integrand(w):
        return norm.pdf(w, mq, sq) * (norm.logpdf(w, mq, sq) - norm.logpdf(w, mp_, sp))

    val, err = quad(integrand, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert err < 1e-9
    return val


def test_reserved_stream_ranges_are_disjoint():
    # synthetic class y draws from SYNTH_STREAM + y, epoch e shuffles on
    # SHUFFLE_STREAM + e; every other reserved stream is used alone
    singles = (gaussians.SUBSET_STREAM, gaussians.SPLIT_STREAM, gaussians.CHECK_STREAM,
               gaussians.NOISE_STREAM, gaussians.JITTER_STREAM)
    synth, shuffle = gaussians.SYNTH_STREAM, gaussians.SHUFFLE_STREAM
    ranges = [range(synth + 1, synth + gaussians.MAX_SYNTH_CLASSES + 1),
              range(shuffle, shuffle + gaussians.MAX_EPOCHS),
              *(range(s, s + 1) for s in singles)]
    assert (gaussians.MAX_SYNTH_CLASSES, gaussians.MAX_EPOCHS) == (12, 66)
    assert all(r.start >= gaussians.RESERVED_STREAM_BASE for r in ranges)
    for a, b in itertools.combinations(ranges, 2):
        assert not set(a) & set(b), (a, b)


def test_sample_degenerate_stddev_sticks_to_mean():
    fam = GaussianFamily(np.array([1.0, -2.0, 0.5, 3.0]), 1e-30, ARCH4)
    for draw in sample(fam, 99, 10):
        assert np.max(np.abs(draw.values - fam.mean)) < 1e-20


def test_sample_determinism_and_prefix_stability():
    fam = prior_family(ARCH4, 0.3)
    a = sample(fam, 1234, 4)
    b = sample(fam, 1234, 4)
    longer = sample(fam, 1234, 9)
    for i in range(4):
        assert np.array_equal(a[i].values, b[i].values)
        assert np.array_equal(a[i].values, longer[i].values)
    other = sample(fam, 1235, 4)
    assert not np.array_equal(a[0].values, other[0].values)


def test_sample_variance_law_of_large_numbers():
    fam = prior_family(ARCH4, 0.1)
    draws = np.stack([w.values for w in sample(fam, 7, 100_000)])
    var = draws.var(axis=0)
    assert np.all(np.abs(var - 0.01) < 0.05 * 0.01)
    assert np.all(np.abs(draws.mean(axis=0)) < 0.002)


def test_standard_normal_draws_are_finite_and_symmetricish():
    z = standard_normal(5, 0, 200_000)
    assert np.all(np.isfinite(z))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_stream_prefixes_are_the_shorter_streams(seed):
    """The first k normals of a stream are the stream of length k, because
    its 52-bit integers come from a power-of-two range, which never
    rejects.  So one matrix of normals at a sweep's largest parameter
    count serves every depth with the bits of its own streams."""
    n = 20_290
    rows = normal_rows(seed, 3, n)
    for i, row in enumerate(rows):
        full = standard_normal(seed, i, n)
        assert np.array_equal(row, full)
        # one entry, all but one, and the desk linear model's 784 x 10
        for k in (1, n - 1, 7_840):
            assert np.array_equal(full[:k], standard_normal(seed, i, k)), k
        # a stream that runs past 2**16 normals starts with the shorter one
        assert np.array_equal(standard_normal(seed, i, 2**16 + 3)[:n], full)


@pytest.mark.parametrize("seed,stream,digest", [
    (0, 0, "2c9a4d2681ee3538288e78222f5110f6af26573f4d68c809e33264546512998c"),
    (2**64 - 1, 3, "5b56c0ebd7b0ab2f5a4d67e94bef7d69ce381695b87d0998aa07edc10ef94421"),
], ids=["zero-seed", "top-seed"])
def test_standard_normal_bits(seed, stream, digest):
    """The bytes of a stream three and a bit times 2**16 normals long, so
    a change in how a long stream is drawn or mapped shows."""
    z = standard_normal(seed, stream, 3 * 2**16 + 5)
    assert hashlib.sha256(z.astype("<f8").tobytes()).hexdigest() == digest


def test_standard_normal_peak_memory():
    """A draw holds its float64 result and one piece of integers, not a
    uint64 and a float64 copy of every value (16 MB at a million)."""
    tracemalloc.start()
    try:
        standard_normal(1, 0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 10**6 + 2 * 2**20, peak


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, True, 3.0])
def test_seeds_outside_the_key_range_are_refused(seed):
    """A seed keys Philox as one uint64, so -1 or 2**64 would alias a seed
    inside [0, 2**64) rather than draw its own numbers."""
    with pytest.raises(ValueError, match="seed"):
        standard_normal(seed, 0, 5)
    with pytest.raises(ValueError, match="seed"):
        sample(prior_family(ARCH2, 1.0), seed, 1)


def test_seeds_at_the_ends_of_the_key_range_draw():
    top, zero = standard_normal(2**64 - 1, 0, 5), standard_normal(0, 0, 5)
    assert np.all(np.isfinite(top)) and np.all(np.isfinite(zero))
    assert not np.array_equal(top, zero)
    [w] = sample(prior_family(ARCH2, 1.0), 2**64 - 1, 1)
    assert np.array_equal(w.values, top[:2])


def test_kl_self_is_zero():
    fam = GaussianFamily(np.array([0.3, -1.0, 2.0, 0.0]), 2.5, ARCH4)
    assert kl_divergence(fam, fam) == 0.0


def test_kl_one_dimensional_frozen_case():
    # q = N(0, 1), p = N(0, 4): log 2 + 1/8 - 1/2, cross-checked by quadrature
    q = GaussianFamily(np.zeros(1), 1.0, ARCH1)
    p = GaussianFamily(np.zeros(1), 2.0, ARCH1)
    expected = math.log(2.0) + 1.0 / 8.0 - 0.5
    assert expected == pytest.approx(0.3181471805599453, abs=1e-15)
    assert kl_divergence(q, p) == pytest.approx(expected, abs=1e-12)
    assert kl_divergence(q, p) == pytest.approx(kl_quad_oracle(0, 1, 0, 2), rel=1e-8)


def test_kl_closed_form_matches_integration_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        mq, mp_ = rng.uniform(-3, 3, size=2)
        sq, sp = rng.uniform(0.3, 3.0, size=2)
        q = GaussianFamily(np.array([mq]), sq, ARCH1)
        p = GaussianFamily(np.array([mp_]), sp, ARCH1)
        assert kl_divergence(q, p) == pytest.approx(kl_quad_oracle(mq, sq, mp_, sp), rel=1e-8)


def test_kl_additivity_over_coordinates():
    q2 = GaussianFamily(np.array([0.5, -1.0]), 1.2, ARCH2)
    p2 = GaussianFamily(np.array([0.0, 0.3]), 0.9, ARCH2)
    parts = 0.0
    for i in range(2):
        parts += kl_divergence(
            GaussianFamily(q2.mean[i : i + 1], q2.stddev, ARCH1),
            GaussianFamily(p2.mean[i : i + 1], p2.stddev, ARCH1))
    assert kl_divergence(q2, p2) == pytest.approx(parts, rel=1e-12)


params_1d = st.tuples(st.floats(-5, 5), st.floats(0.05, 5),
                      st.floats(-5, 5), st.floats(0.05, 5))


@given(params_1d)
def test_kl_nonnegative_and_zero_iff_equal(args):
    mq, sq, mp_, sp = args
    q = GaussianFamily(np.array([mq]), sq, ARCH1)
    p = GaussianFamily(np.array([mp_]), sp, ARCH1)
    kl = kl_divergence(q, p)
    assert kl >= -1e-14
    if abs(mq - mp_) < 1e-12 and abs(sq - sp) < 1e-12:
        assert kl < 1e-12
    if kl < 1e-13:
        assert abs(mq - mp_) < 1e-5 and abs(sq - sp) < 1e-5


def test_layout_mismatch_rejected():
    q = prior_family(ARCH2, 1.0)
    p = prior_family(ARCH4, 1.0)
    with pytest.raises(ValueError, match="different layouts"):
        kl_divergence(q, p)


def test_family_validation():
    with pytest.raises(ValueError):
        GaussianFamily(np.zeros(3), 1.0, ARCH4)  # wrong length
    with pytest.raises(ValueError):
        GaussianFamily(np.zeros(4), 0.0, ARCH4)  # stddev must be positive
    with pytest.raises(ValueError):
        GaussianFamily(np.zeros(4), math.nan, ARCH4)
    with pytest.raises(TypeError):  # one scale per family, not one per coordinate
        GaussianFamily(np.zeros(4), np.array([1.0, 1.0, 2.0, 1.0]), ARCH4)
    with pytest.raises(ValueError):
        sample(prior_family(ARCH4, 1.0), 0, 0)


def test_posterior_family_centers_on_weights():
    w = ParamVector(np.array([1.0, 2.0, 3.0, 4.0]), ARCH4)
    fam = posterior_family(w, 0.05)
    assert np.array_equal(fam.mean, w.values)
    assert fam.stddev == 0.05
