"""Isotropic Gaussian families over flat weight vectors.

Randomness policy
-----------------
Every draw in the package comes from the counter-based Philox generator
keyed by a (seed, stream) pair of 64-bit integers, mapped to normals by the
inverse Gaussian CDF applied to 52-bit uniforms.  Weight sample ``i`` of a
family is ``mean + stddev * z_i`` with z_i the standard normals of stream
``i``, so draw i is a pure function of (seed, i): sample streams are
prefix-stable (the i-th draw does not depend on how many draws are
requested) and may be generated in parallel.  Streams are prefix-stable
in their length too: the first P normals of a stream are the stream of
length P, because the 52-bit integers behind them are drawn on a
power-of-two range, which never rejects and takes one 64-bit word per
integer.  So :func:`standard_normal` draws a stream in consecutive
pieces, each the stream's next integers, and holds only its float64
result and one piece: 8 bytes per normal.  :meth:`GaussianFamily.draw`
is the one place that maps z_i to weights.  Families share z_i: a caller
that needs draw i of several families, of one layout or of layouts with
different parameter counts (the depths of a sweep), generates stream i
once, at the largest count, with :func:`normal_rows`, and maps the
first P entries of row i through each family's ``draw``, which gives
each family the bits of :func:`sample`.
Streams at and above ``RESERVED_STREAM_BASE`` are reserved for
non-sampling uses (batch shuffling, synthetic data) so they never collide
with weight draws; the constants below list them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .nets import MlpArchitecture, ParamVector
from .settings import SEED

RESERVED_STREAM_BASE = 1 << 48
# The reserved streams.  Two are runs that count up from their base:
# synthetic class y draws from SYNTH_STREAM + y and training epoch e
# shuffles on SHUFFLE_STREAM + e; the caps below keep each run short of
# the next stream.
SYNTH_STREAM = RESERVED_STREAM_BASE + 0x51
SUBSET_STREAM = RESERVED_STREAM_BASE + 0x5E
SPLIT_STREAM = RESERVED_STREAM_BASE + 0x5F
SHUFFLE_STREAM = RESERVED_STREAM_BASE + 0x7E
CHECK_STREAM = RESERVED_STREAM_BASE + 0xC0
NOISE_STREAM = RESERVED_STREAM_BASE + 0xD0
JITTER_STREAM = RESERVED_STREAM_BASE + 0xD1
MAX_SYNTH_CLASSES = SUBSET_STREAM - SYNTH_STREAM - 1
MAX_EPOCHS = CHECK_STREAM - SHUFFLE_STREAM

_U52 = np.uint64(1) << np.uint64(52)
# standard_normal maps its stream in consecutive pieces of this many values.
_CHUNK = 1 << 16
# The largest |z| that standard_normal returns: |ndtri(0.5 / 2**52)| = 8.2095...
MAX_ABS_NORMAL = float(-ndtri(0.5 / float(_U52)))


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, stream); ValueError unless
    ``seed`` is of the ``settings.SEED`` kind."""
    if not SEED.holds(seed):
        raise ValueError(f"seed must be {SEED.text}, got {seed!r}")
    key = np.array([seed, stream & (2**64 - 1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal(seed: int, stream: int, n: int) -> np.ndarray:
    """n deterministic N(0,1) draws from the (seed, stream) Philox stream.

    Uses u = (r + 1/2) / 2^52 with r a 52-bit integer, so u lies strictly
    inside (0, 1) and ndtri(u) is always finite: |z| <= ``MAX_ABS_NORMAL``
    (8.2095, at r = 0 and r = 2^52 - 1).  The integers are drawn and mapped
    in consecutive pieces of ``_CHUNK``, written straight into the result,
    so a draw peaks at 8n bytes plus one piece's integers; the values are
    those of one draw of n (see the randomness policy).
    """
    rng = stream_rng(seed, stream)
    z = np.empty(n)
    for lo in range(0, n, _CHUNK):
        u = z[lo : lo + _CHUNK]
        u[:] = rng.integers(0, _U52, size=u.size, dtype=np.uint64)
        u += 0.5
        u /= float(_U52)
        ndtri(u, out=u)
    return z


def normal_rows(seed: int, count: int, n: int) -> np.ndarray:
    """(count, n) standard normals whose row i is the (seed, i) stream.

    The first P entries of row i are ``standard_normal(seed, i, P)`` for
    any P <= n, so one matrix serves every layout of at most n parameters.
    """
    rows = np.empty((count, n))
    for i, row in enumerate(rows):
        row[:] = standard_normal(seed, i, n)
    return rows


@dataclass(frozen=True, eq=False)
class GaussianFamily:
    """Isotropic Gaussian N(mean, stddev^2 I) over the flat parameter
    vector of ``layout``; ``stddev`` is one strictly positive float.
    """

    mean: np.ndarray
    stddev: float
    layout: MlpArchitecture

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        object.__setattr__(self, "mean", mean)
        n = self.layout.param_count()
        if mean.shape != (n,):
            raise ValueError(f"mean has length {mean.shape[0]}, expected {n}")
        object.__setattr__(self, "stddev", float(self.stddev))
        if not self.stddev > 0.0:
            raise ValueError("stddev must be strictly positive")

    def draw(self, z: np.ndarray) -> ParamVector:
        """The weights mean + stddev * z for one vector z of standard normals."""
        return ParamVector(self.mean + self.stddev * z, self.layout)


def prior_family(arch: MlpArchitecture, sigma: float) -> GaussianFamily:
    """Zero-mean isotropic family N(0, sigma^2 I) over the architecture."""
    return GaussianFamily(np.zeros(arch.param_count()), float(sigma), arch)


def posterior_family(params: ParamVector, sigma: float) -> GaussianFamily:
    """Isotropic family centered on given weights, N(w, sigma^2 I)."""
    return GaussianFamily(params.values, float(sigma), params.layout)


def sample(family: GaussianFamily, seed: int, count: int) -> list[ParamVector]:
    """``count`` deterministic draws; draw i depends only on (seed, i)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [family.draw(z) for z in normal_rows(seed, count, family.layout.param_count())]


def kl_divergence(q: GaussianFamily, p: GaussianFamily) -> float:
    """KL(q || p) for isotropic Gaussians, summed over coordinates.

    Per coordinate: log(sp/sq) + (sq^2 + (mq - mp)^2) / (2 sp^2) - 1/2.
    Each scale is one number, but the terms stay elementwise arrays: a
    scalar closed form would round differently from the per-coordinate sum.
    ValueError unless q and p share a layout.
    """
    if q.layout != p.layout:
        raise ValueError("families have different layouts")
    sq = np.full(q.mean.shape, q.stddev)
    sp = np.full(p.mean.shape, p.stddev)
    terms = np.log(sp / sq) + (sq**2 + (q.mean - p.mean) ** 2) / (2.0 * sp**2) - 0.5
    return float(np.sum(terms))
