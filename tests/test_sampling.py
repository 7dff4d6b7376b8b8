"""Distributional checks for the innovation samplers.

All Monte-Carlo tolerances are 4 standard errors or wider, so a correct
implementation fails any single check with probability < 1e-4.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stableem.drift import builtin_ou
from stableem.em import EnsembleRun
from stableem.rng import derive_stream
from stableem.sampling import (
    CMS,
    PARETO,
    NoiseConstants,
    _PIECE,
    Innovations,
    _cms_symmetric,
    _kanter,
    _pareto_signed,
    noise_constants,
    sample_pareto_vec,
    sample_stable_1d,
    sample_stable_vec,
)
from stableem.schedule import StepSchedule

M = 200_000
LAMS = np.array([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0])


def _ensemble_run(alpha, dim):
    return EnsembleRun(
        scheme="stable-em",
        alpha=alpha,
        drift=builtin_ou(dim),
        schedule=StepSchedule(gamma1=0.5),
        m_chains=1,
        x0=0.0,
        checkpoints=(1,),
        master_seed=0,
    )


def test_spec_validation():
    # Every entry point that takes (alpha, dim) refuses a bad one by its value.
    for entry in (
        noise_constants,
        lambda alpha, dim: sample_stable_vec(alpha, dim, derive_stream(0, 0), 1),
        lambda alpha, dim: sample_pareto_vec(alpha, dim, derive_stream(0, 0), 1),
        _ensemble_run,
    ):
        with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\), got 2.5"):
            entry(2.5, 1)
        with pytest.raises(ValueError, match="dim must be at least 1, got 0"):
            entry(1.5, 0)


def test_noise_constants_identity():
    # beta^alpha * sigma_{d-1} * d_alpha == alpha by construction
    for alpha in (1.2, 1.5, 1.8):
        for d in (1, 2, 5):
            nc = noise_constants(alpha, d)
            assert abs(nc.beta**alpha * nc.sigma_dm1 * nc.d_alpha - alpha) < 1e-12


def test_noise_constants_match_scipy_gamma_to_the_last_bits():
    # Gamma comes from math.lgamma; scipy.special is only the reference here.
    special = pytest.importorskip("scipy.special")
    for alpha in np.linspace(1.05, 1.95, 19):
        for d in (1, 2, 3, 5, 10):
            nc = noise_constants(alpha, d)
            sigma = 2.0 * math.pi ** (d / 2.0) / special.gamma(d / 2.0)
            d_alpha = (
                alpha * 2.0 ** (alpha - 1.0) * math.pi ** (-d / 2.0)
                * special.gamma((d + alpha) / 2.0) / special.gamma(1.0 - alpha / 2.0)
            )
            assert nc.sigma_dm1 == pytest.approx(sigma, rel=1e-14, abs=0.0)
            assert nc.d_alpha == pytest.approx(d_alpha, rel=1e-14, abs=0.0)


def test_beta_frozen_value():
    nc = noise_constants(1.5, 1)
    assert nc.sigma_dm1 == pytest.approx(2.0, abs=1e-14)
    assert nc.beta == pytest.approx(1.845270148644028, abs=1e-12)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_stable_1d_cf(alpha):
    z = sample_stable_1d(alpha, derive_stream(7, 0), M)
    emp = np.cos(np.outer(LAMS, z)).mean(axis=1)
    assert np.max(np.abs(emp - np.exp(-LAMS**alpha))) < 4.0 / math.sqrt(M)


def test_stable_1d_tail_frozen():
    alpha = 1.5
    z = sample_stable_1d(alpha, derive_stream(8, 0), M)
    # P(|Z| > 10) for the exp(-|l|^1.5) normalization
    p = np.mean(np.abs(z) > 10.0)
    assert abs(p - 0.0132796183954) < 4.0 * math.sqrt(0.0133 / M)


def test_one_sided_laplace_transform():
    # Kanter's transform, the positive (alpha/2)-stable factor of the subordinated sampler
    rho = 0.75
    gen = derive_stream(9, 0)
    u, w = gen.random(M), gen.standard_exponential(M)
    s = _kanter(rho, u, w)
    assert np.all(s > 0)
    for u in (0.5, 1.0, 2.0):
        emp = np.exp(-u * s).mean()
        assert abs(emp - math.exp(-(u**rho))) < 4.0 / math.sqrt(M)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_stable_vec_cf(d):
    alpha = 1.5
    z = sample_stable_vec(alpha, d, derive_stream(10, 0), M)
    assert z.shape == (M, d)
    # isotropy: check along a coordinate axis and along a diagonal direction
    for u in (np.eye(d)[0], np.ones(d) / math.sqrt(d)):
        proj = z @ u
        emp = np.cos(np.outer(LAMS, proj)).mean(axis=1)
        assert np.max(np.abs(emp - np.exp(-LAMS**alpha))) < 4.0 / math.sqrt(M)


def test_stable_convolution_stability():
    # Z1 + Z2 =d 2^{1/alpha} Z: compare CFs of the two-fold sum
    alpha = 1.5
    gen = derive_stream(11, 0)
    z = sample_stable_1d(alpha, gen, 2 * M)
    s = z[:M] + z[M:]
    emp = np.cos(np.outer(LAMS, s)).mean(axis=1)
    assert np.max(np.abs(emp - np.exp(-2.0 * LAMS**alpha))) < 4.0 / math.sqrt(M)


@pytest.mark.parametrize("d", [1, 3])
def test_pareto_radial_survival(d):
    alpha = 1.5
    z = sample_pareto_vec(alpha, d, derive_stream(12, 0), M)
    r = np.linalg.norm(z, axis=1)
    assert np.all(r >= 1.0)
    for rr in (2.0, 4.0, 8.0):
        emp = np.mean(r > rr)
        want = rr**-alpha
        assert abs(emp - want) < 4.0 * math.sqrt(want / M)


def test_pareto_1d_sign_symmetric():
    alpha = 1.5
    z = sample_pareto_vec(alpha, 1, derive_stream(13, 0), M)[:, 0]
    assert abs(np.mean(z > 0) - 0.5) < 4.0 * 0.5 / math.sqrt(M)
    # The radius has the Pareto tail on each sign alone: it is independent of the sign.
    for r in (-z[z < 0], z[z > 0]):
        assert np.all(r >= 1.0)
        for rr in (1.25, 2.0, 4.0, 8.0):
            want = rr**-alpha
            assert abs(np.mean(r > rr) - want) < 4.0 * math.sqrt(want / r.size)


def _transform(kind, alpha, *variates):
    """A 1-D transform of copies of ``variates`` (it overwrites them), with scratch of their shape."""
    spent = [np.array(a, dtype=float) for a in variates]
    out = np.empty(spent[0].shape)
    if kind == CMS:
        return _cms_symmetric(alpha, *spent, out, tuple(np.empty(out.shape) for _ in range(3)))
    return _pareto_signed(alpha, *spent, out, ())


# Dyadic uniforms around the ends and the middle of [0, 1), all of the form
# k 2^-53 that the generator returns; 2u - 1 is exact at each.
_PARETO_U = np.array([0.0, 2.0**-53, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 1.0 - 2.0**-53])


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
def test_pareto_1d_from_one_uniform_at_dyadic_points(alpha):
    # Negative exactly where u < 1/2, radius |2u - 1|^{-1/alpha}; u = 1/2 reads
    # 2u - 1 = 0 as 2^-53 and gives a finite draw.
    z = _transform(PARETO, alpha, _PARETO_U)
    np.testing.assert_array_equal(np.signbit(z), _PARETO_U < 0.5)
    assert np.all(np.isfinite(z))
    want = [max(2.0 * abs(x - 0.5), 2.0**-53) ** (-1.0 / alpha) for x in _PARETO_U]
    np.testing.assert_allclose(np.abs(z), want, rtol=1e-15, atol=0.0)


def test_sampler_shapes():
    gen = derive_stream(14, 0)
    assert sample_stable_1d(1.5, gen, 5).shape == (5,)
    assert sample_stable_vec(1.5, 3, gen, 5).shape == (5, 3)
    assert sample_pareto_vec(1.5, 1, gen, 5).shape == (5, 1)
    assert sample_pareto_vec(1.5, 3, gen, 1).shape == (1, 3)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_stable_vec_at_dim_one_is_the_cms_sampler(alpha):
    size = _PIECE + 7
    vec = sample_stable_vec(alpha, 1, derive_stream(15, 3), size)
    assert vec.shape == (size, 1)
    np.testing.assert_array_equal(vec[:, 0], sample_stable_1d(alpha, derive_stream(15, 3), size))


def test_sampler_determinism():
    a = sample_stable_vec(1.3, 2, derive_stream(1, 5), 50)
    b = sample_stable_vec(1.3, 2, derive_stream(1, 5), 50)
    np.testing.assert_array_equal(a, b)


def _cms_sin_cos(alpha, u, w):
    """CMS in sines and cosines: the reference whose error bounds the transform's near u = 0, 1."""
    phi = np.pi * (u - 0.5)
    a_phi = alpha * phi
    return np.sin(a_phi) / np.cos(phi) ** (1.0 / alpha) * (np.cos(phi - a_phi) / w) ** (
        (1.0 - alpha) / alpha
    )


def _cms_exact(mp, alpha, u, w):
    """CMS at 50 digits at the exact u and w, by the sin/cos formula."""
    with mp.workdps(50):
        a = mp.mpf(alpha)
        phi = mp.pi * (mp.mpf(u) - mp.mpf(0.5))
        z = mp.sin(a * phi) / mp.cos(phi) ** (1 / a)
        return float(z * (mp.cos((1 - a) * phi) / mp.mpf(w)) ** ((1 - a) / a))


_TAILS = 2.0 ** -np.arange(2, 54)  # 2^-2 .. 2^-53, the generator's resolution
_GEOM = np.geomspace(2.0**-53, 0.25, 60)
_U_GRID = np.unique(
    np.concatenate([_TAILS, 1.0 - _TAILS, _GEOM, 1.0 - _GEOM, np.arange(1, 128) / 128])
)


@pytest.mark.parametrize("alpha", [1.05, 1.2, 1.5, 1.9, 1.99])
def test_cms_matches_fifty_digit_reference(alpha):
    # Relative error <= 1e-12 in the bulk, and nowhere more than 10x that of
    # the sin/cos form, whose rounded phi loses cos(phi) near u = 0 and 1.  An
    # error under 4 ulps counts as 4 ulps: the sin/cos error is 0 at some u
    # by luck of rounding.
    mp = pytest.importorskip("mpmath").mp
    u, w = np.meshgrid(_U_GRID, [0.1, 1.0, 5.0], indexing="ij")
    exact = np.vectorize(lambda x, y: _cms_exact(mp, alpha, x, y))(u, w)
    got = _transform(CMS, alpha, u, w)
    half = exact == 0.0  # u = 1/2
    np.testing.assert_array_equal(got[half], 0.0)
    err = np.abs(got[~half] / exact[~half] - 1.0)
    old = np.abs(_cms_sin_cos(alpha, u, w)[~half] / exact[~half] - 1.0)
    bulk = (u[~half] >= 1e-3) & (u[~half] <= 1.0 - 1e-3)
    assert err[bulk].max() <= 1e-12
    assert np.all(err <= 10.0 * np.maximum(old, 2.0**-50))
    # u = 0, which the generator can return, gives a finite draw as the sin/cos form does
    at_zero = _transform(CMS, alpha, [0.0], [1.0])
    assert np.isfinite(at_zero).all() and np.isfinite(_cms_sin_cos(alpha, 0.0, 1.0))


# The d > 1 samplers, by name, for ``_expression``.
STABLE_VEC, PARETO_VEC = "stable-vec", "pareto-vec"


def _expression(kind, alpha, rows):
    """The innovations as plain NumPy expressions of their variates, which the samplers must match.

    ``rows`` are the variates in the documented draw order: u, w for CMS;
    u for the 1-D Pareto; u, w, g for STABLE_VEC; v, g for PARETO_VEC.
    """
    if kind == CMS:  # in tangent half-angles, as sampling._cms_symmetric
        u, w = rows
        a = np.tan(alpha * (np.pi / 2 * (u - 0.5)))
        c = np.tan(np.pi / 2 * np.maximum(np.minimum(u, 1.0 - u), 2.0**-54))
        n = (1.0 - a * a) * c + np.abs(a) * (1.0 - c * c)
        z = a / (1.0 + a * a) * np.exp(
            1.0 / alpha * np.log((1.0 + c * c) / c)
            + (1.0 - alpha) / alpha * np.log(n / ((1.0 + a * a) * w * (1.0 + c * c)))
        )
        return z
    if kind == STABLE_VEC:
        u, w, g = rows
        rho, theta = alpha / 2.0, np.pi * u
        s = (
            np.sin(rho * theta)
            * np.sin((1.0 - rho) * theta) ** ((1.0 - rho) / rho)
            / np.sin(theta) ** (1.0 / rho)
        ) * w ** (-(1.0 - rho) / rho)
        return np.sqrt(2.0 * s)[..., None] * g
    if kind == PARETO:  # one uniform, as sampling._pareto_signed
        (u,) = rows
        t = 2.0 * u - 1.0
        return np.copysign(np.maximum(np.abs(t), 2.0**-53) ** (-1.0 / alpha), t)
    v, g = rows
    return (v ** (-1.0 / alpha))[..., None] * (g / np.linalg.norm(g, axis=-1, keepdims=True))


def _variates(kind, seed, size, d=1):
    """The variates of ``size`` innovations of ``kind`` from stream (seed, 0), one call per array."""
    gen = derive_stream(seed, 0)
    u = gen.random(size)
    if kind == PARETO:
        return [u]
    if kind == PARETO_VEC:
        return [u, gen.standard_normal((size, d))]
    w = gen.standard_exponential(size)
    return [u, w] if kind == CMS else [u, w, gen.standard_normal((size, d))]


_SCALAR_KINDS = [(CMS, 1), (PARETO, 1)]  # the ids keep the dimension they once named


@pytest.mark.parametrize("alpha", [1.2, 1.7])
@pytest.mark.parametrize("kind, d", _SCALAR_KINDS)
def test_transforms_with_scratch_are_bitwise_the_expressions(kind, d, alpha):
    # Two full pieces and a short third, then a shorter call of one short
    # piece in the same arrays and scratch, as an engine worker reuses its buffer.
    size = 2 * _PIECE + 123
    buffer = Innovations(kind, size)
    for n, seed in ((size, 15), (500, 16)):
        got = buffer.draw(derive_stream(seed, 0), alpha, n)
        np.testing.assert_array_equal(got, _expression(kind, alpha, _variates(kind, seed, n)))


@pytest.mark.parametrize("kind, d", _SCALAR_KINDS)
def test_transforms_with_scratch_allocate_under_one_percent_of_a_tile(kind, d):
    size = 2 * _PIECE + 123
    buffer = Innovations(kind, size)
    gen = derive_stream(16, 0)
    buffer.draw(gen, 1.5, size)
    tracemalloc.start()
    try:
        buffer.draw(gen, 1.5, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * buffer.out.nbytes


@pytest.mark.parametrize(
    "kind, d, sample",
    [
        (CMS, 1, lambda gen, size: sample_stable_1d(1.5, gen, size)),
        (PARETO, 1, lambda gen, size: sample_pareto_vec(1.5, 1, gen, size)),
        (STABLE_VEC, 2, lambda gen, size: sample_stable_vec(1.5, 2, gen, size)),
        (PARETO_VEC, 3, lambda gen, size: sample_pareto_vec(1.5, 3, gen, size)),
    ],
    ids=["cms-1", "pareto-1", "subordinated-2", "pareto-3"],
)
def test_samplers_transform_in_pieces_bitwise_as_one_row(kind, d, sample):
    # Each sampler is the expression of its variates, drawn in the documented
    # order.  The 1-D ones transform in pieces (two full and a short third),
    # whose seams change no bit; the d > 1 ones are one expression.
    size = 2 * _PIECE + 123
    got = sample(derive_stream(17, 0), size)
    want = _expression(kind, 1.5, _variates(kind, 17, size, d))
    np.testing.assert_array_equal(got, want.reshape(got.shape))
