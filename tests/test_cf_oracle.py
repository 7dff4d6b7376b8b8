import math

import numpy as np
import pytest

from stableem.cf_oracle import (
    _SERIES_CUTOFF,
    _chain_weights,
    _gap_nodes,
    _log_chain_cf,
    _log_series,
    _pareto_cf_m1_fraction,
    _pareto_cf_m1_series,
    exact_ou_scale_pow,
    first_order_cf_coefficient,
    pareto_cf,
    pareto_em_chain_cf,
    stable_em_chain_scale_pow,
    stable_mean_abs,
    stable_ou_invariant_cf,
    w1_exact_ou_vs_invariant,
    w1_pareto_chain_vs_invariant,
    w1_stable_chain_vs_invariant,
)
from stableem.config import parse_schedule
from stableem.sampling import noise_constants
from stableem.schedule import StepSchedule

HALF_N = StepSchedule(gamma1=0.5)  # gamma_n = 1/(2n)


def _pareto_coeffs(alpha, schedule, n):
    """The Pareto-EM chain's innovation coefficients c_j = w_j / beta, and P_1."""
    w, p1 = _chain_weights(alpha, schedule, n)
    return w / noise_constants(alpha, 1).beta, p1


def _direct_log_chain_cf(alpha, coef, lam):
    """Reference: log|prod_j phi(c_j l)| and its sign, one (step, l) pair at a time.

    Step chunks of about 2^16 pairs stay in cache.  Arguments up to the
    series cutoff take log1p of the series value of phi - 1; beyond it,
    log|phi| of the continued fraction.
    """
    lam = np.abs(np.asarray(lam, dtype=float))
    log_mag = np.zeros(lam.size)
    sign = np.ones(lam.size)
    chunk = max(1, (1 << 16) // lam.size)
    for j0 in range(0, coef.size, chunk):
        x = coef[j0 : j0 + chunk, None] * lam[None, :]
        m1 = _pareto_cf_m1_series(alpha, np.minimum(x, _SERIES_CUTOFF))
        phi = np.where(x <= _SERIES_CUTOFF, 1.0 + m1, 0.0)
        for i, j in zip(*np.nonzero(x > _SERIES_CUTOFF)):
            phi[i, j] = pareto_cf(alpha, float(x[i, j]))
            m1[i, j] = phi[i, j] - 1.0
        sign *= np.prod(np.sign(phi), axis=0)
        with np.errstate(divide="ignore"):
            log_mag += np.sum(np.log1p(np.where(phi > 0.0, m1, np.abs(phi) - 1.0)), axis=0)
    return log_mag, sign


def _direct_w1_pareto(alpha, schedule, n):
    """Reference W1 oracle: the same CF-gap quadrature over the direct product."""
    nodes, weights = _gap_nodes(alpha)
    coef, _ = _pareto_coeffs(alpha, schedule, n)
    log_phi_n, sign = _direct_log_chain_cf(alpha, coef, nodes)
    log_phi_inv = -(nodes**alpha) / alpha
    gap = np.where(
        sign > 0.0,
        np.exp(log_phi_inv) * np.expm1(log_phi_n - log_phi_inv),
        -np.exp(log_phi_n) - np.exp(log_phi_inv),
    ) / nodes**2
    return abs(float(np.dot(weights, gap))) * 2.0 / math.pi


def test_pareto_cf_at_zero_and_bounds():
    for alpha in (1.2, 1.5, 1.8):
        assert pareto_cf(alpha, 0.0) == 1.0
        vals = pareto_cf(alpha, np.linspace(0.0, 30.0, 200))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert np.all(vals[np.linspace(0.0, 30.0, 200) < 1.0] > 0.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\), got 2.0"):
        pareto_cf(2.0, 0.5)


def test_pareto_cf_even():
    assert pareto_cf(1.5, -2.3) == pytest.approx(pareto_cf(1.5, 2.3), abs=1e-14)


def test_pareto_cf_series_quad_agree_near_crossover():
    # the series and the continued fraction must agree at the same point,
    # the cutoff included (measured: within 1.4e-12)
    for alpha in (1.2, 1.5, 1.8):
        lams = np.array([6.0, 9.5, _SERIES_CUTOFF])
        series, fraction = _pareto_cf_m1_series(alpha, lams), _pareto_cf_m1_fraction(alpha, lams)
        np.testing.assert_allclose(series, fraction, rtol=0.0, atol=5e-12)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_pareto_cf_fraction_matches_incomplete_gamma(alpha):
    # phi(l) = alpha Re[(-i l)^alpha Gamma(-alpha, -i l)], at 40 digits; at
    # l = 10 pareto_cf itself reads the series.
    mpmath = pytest.importorskip("mpmath")
    lams = [10.0, 10.5, 20.0, 100.0, 1e4, 1e6]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        want = [float(mpmath.re(a * (-1j * x) ** a * mpmath.gammainc(-a, -1j * x))) for x in lams]
    got = 1.0 + _pareto_cf_m1_fraction(alpha, np.array(lams))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def test_pareto_cf_against_direct_quadrature():
    from scipy.integrate import quad

    # QUADPACK's Fourier-weighted form integrates the cos(lam r) factor cycle
    # by cycle; its reported errors are near 1e-8 at these points.
    for alpha, lam in [(1.5, 0.7), (1.2, 3.0), (1.8, 14.0)]:
        want, err = quad(lambda r: alpha * r ** (-alpha - 1.0), 1.0, np.inf, weight="cos", wvar=lam)
        assert pareto_cf(alpha, lam) == pytest.approx(want, abs=max(1e-8, 10 * err))


def test_first_order_coefficient_matches_beta():
    # The Gamma/sin closed form of beta^alpha in 1-D is the reference of the
    # log-Gamma route through noise_constants that the oracles read.
    for alpha in (1.2, 1.5, 1.8):
        closed = alpha * math.pi / (2.0 * math.gamma(1.0 + alpha) * math.sin(math.pi * alpha / 2.0))
        assert first_order_cf_coefficient(alpha) == pytest.approx(closed, rel=1e-12)


def test_beta_consistency_limit():
    # (1 - phi(l)) / l^alpha -> beta^alpha as l -> 0; the leading correction
    # is -alpha l^{2-alpha} / (2 (2 - alpha)), so tolerate slightly more
    for alpha in (1.2, 1.5, 1.8):
        beta_a = noise_constants(alpha, 1).beta ** alpha
        for lam in (1e-2, 1e-3):
            ratio = (1.0 - pareto_cf(alpha, lam)) / lam**alpha
            correction = alpha * lam ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
            assert abs(ratio - beta_a) <= 1.1 * correction
    # the 5%-relative form holds at lam = 1e-3 for the central index
    assert (1.0 - pareto_cf(1.5, 1e-3)) / 1e-3**1.5 == pytest.approx(
        noise_constants(1.5, 1).beta ** 1.5, rel=0.05
    )


def test_chain_cf_zero_steps_is_point_mass():
    val = pareto_em_chain_cf(1.5, HALF_N, 2.0, 0, 0.7)
    assert val == pytest.approx(np.exp(1j * 0.7 * 2.0))


def test_chain_cf_one_step_brute_force():
    s = StepSchedule(gamma1=0.25)  # gamma_1 = 0.25
    alpha, x0, lam = 1.5, 1.0, 1.3
    beta = noise_constants(alpha, 1).beta
    # one step: Y1 = (1-g) x0 + (g^{1/a}/beta) Z
    want = np.exp(1j * lam * 0.75 * x0) * pareto_cf(alpha, 0.25 ** (1 / alpha) / beta * lam)
    assert pareto_em_chain_cf(alpha, s, x0, 1, lam) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("n, lam_max", [(16, 300.0), (512, 30.0)])
def test_chain_cf_matches_direct_product(alpha, n, lam_max):
    # The grid has nodes whose steps split between the power sums and the
    # one-by-one path; at n = 16 the largest c_j l also pass the series
    # cutoff, so the continued-fraction branch runs.
    x0 = 0.5
    grid = np.geomspace(1e-3, lam_max, 120)
    lams = np.concatenate([-grid[::-1], [0.0], grid])
    coef, p1 = _pareto_coeffs(alpha, HALF_N, n)
    r = _log_series(alpha)[1]
    assert np.any((coef.min() * np.abs(lams) <= r) & (coef.max() * np.abs(lams) > r))
    assert (float(coef.max()) * lam_max > _SERIES_CUTOFF) is (n == 16)
    log_mag, sign = _direct_log_chain_cf(alpha, coef, lams)
    want = np.exp(1j * lams * p1 * x0) * sign * np.exp(log_mag)
    got = pareto_em_chain_cf(alpha, HALF_N, x0, n, lams)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_chain_cf_matches_direct_product_at_depth(alpha):
    # At n = 2^17 every step of every gap node enters through the power
    # sums, over 2^17 steps and up to 202 terms; every 50th node of the W1
    # oracle's joined rules keeps the direct product to a few seconds.
    n = 1 << 17
    nodes = np.concatenate([_gap_nodes(alpha, stride)[0] for stride in (1, 2)])[::50]
    coef, _ = _pareto_coeffs(alpha, HALF_N, n)
    assert float(coef.max()) * nodes.max() <= _log_series(alpha)[1]
    want_log_mag, want_sign = _direct_log_chain_cf(alpha, coef, nodes)
    log_mag, sign = _log_chain_cf(alpha, coef, nodes)
    np.testing.assert_allclose(log_mag, want_log_mag, rtol=1e-12)
    np.testing.assert_array_equal(sign, want_sign)


@pytest.mark.parametrize("alpha, n", [(1.2, 16), (1.5, 512), (1.8, 8192)])
def test_chain_cf_node_bits_do_not_depend_on_the_call(alpha, n):
    # A node's power sums depend on its own split only, and the rest is
    # element-wise, so each node alone gets the bits it gets in a joined call:
    # the cf-check oracle column is the same in one call as in one per lambda.
    nodes = np.concatenate([_gap_nodes(alpha, stride)[0] for stride in (1, 2)])
    nodes = np.concatenate([nodes[::97], [0.0, 1e13]])
    coef, _ = _pareto_coeffs(alpha, HALF_N, n)
    joined = _log_chain_cf(alpha, coef, nodes)
    alone = [_log_chain_cf(alpha, coef, nodes[i : i + 1]) for i in range(nodes.size)]
    np.testing.assert_array_equal(joined[0], [log_mag[0] for log_mag, _ in alone])
    np.testing.assert_array_equal(joined[1], [sign[0] for _, sign in alone])


def test_chain_cf_far_nodes_take_direct_path():
    # The coefficients of twelve 0.99 steps then four 0.001 steps span 22
    # decades: at l = 1e13 the scaled powers (l max c)^e overflow, so that
    # node must skip the power sums.
    alpha = 1.5
    g = np.array([0.99] * 12 + [0.001] * 4)
    suffix = np.concatenate([np.cumsum(np.log1p(-g)[::-1])[::-1][1:], [0.0]])
    coef = g ** (1.0 / alpha) / noise_constants(alpha, 1).beta * np.exp(suffix)
    assert coef.max() / coef.min() > 1e22
    lams = np.array([1e3, 1e9, 1e13])
    want_log_mag, want_sign = _direct_log_chain_cf(alpha, coef, lams)
    log_mag, sign = _log_chain_cf(alpha, coef, lams)
    assert np.all(np.isfinite(log_mag))
    np.testing.assert_allclose(log_mag, want_log_mag, rtol=1e-12)
    np.testing.assert_array_equal(sign, want_sign)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_log_series_matches_log1p_at_split_radius(alpha):
    g, r = _log_series(alpha)
    p, k = np.nonzero(g)
    a, e = g[p, k], p * alpha + 2.0 * k
    assert r == 0.1  # the split radius is not halved below alpha ~ 1.96
    for x in (r, r / 3.0, r / 100.0):
        want = math.log1p(float(_pareto_cf_m1_series(alpha, np.array([x]))[0]))
        assert math.fsum(a * x**e) == pytest.approx(want, rel=1e-15, abs=0.0)


def test_log_series_radius_shrinks_near_two():
    # The majorant of m passes 1/2 at r = 0.1 once alpha nears 2; the halved
    # radius keeps the series exact there.  The reference loses digits of its
    # own as alpha -> 2, where C x^alpha and alpha c_1 x^2 in m nearly cancel.
    for alpha in (1.97, 1.995):
        g, r = _log_series(alpha)
        p, k = np.nonzero(g)
        a, e = g[p, k], p * alpha + 2.0 * k
        assert r < 0.1
        want = math.log1p(float(_pareto_cf_m1_series(alpha, np.array([r]))[0]))
        assert math.fsum(a * r**e) == pytest.approx(want, rel=1e-13, abs=0.0)
    coef, _ = _pareto_coeffs(1.97, HALF_N, 256)
    lams = np.linspace(0.0, 20.0, 41)
    got = pareto_em_chain_cf(1.97, HALF_N, 0.0, 256, lams)
    log_mag, sign = _direct_log_chain_cf(1.97, coef, lams)
    np.testing.assert_allclose(got, sign * np.exp(log_mag), rtol=0.0, atol=1e-12)


def test_chain_cf_modulus_bounded():
    lams = np.linspace(0.01, 12.0, 60)
    vals = pareto_em_chain_cf(1.5, HALF_N, 0.0, 256, lams)
    assert np.all(np.abs(vals) <= 1.0 + 1e-12)


def test_chain_cf_rejects_unit_steps():
    s = StepSchedule(gamma1=1.0)  # gamma_1 = 1
    with pytest.raises(ValueError):
        pareto_em_chain_cf(1.5, s, 0.0, 2, 1.0)


def test_stable_scale_recurrence():
    assert stable_em_chain_scale_pow(1.5, HALF_N, 1) == pytest.approx(0.5)
    # deep in the schedule the scale approaches the invariant one
    s_big = stable_em_chain_scale_pow(1.5, HALF_N, 200_000)
    assert s_big == pytest.approx(1.0 / 1.5, rel=1e-3)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("spec", ["c-over-n:0.5", "c-over-n:0.9", "poly:0.5,0.7"])
def test_stable_scale_is_the_sum_of_the_chain_weights(alpha, spec):
    # The reference is the one-step recurrence s' = (1 - gamma)^alpha s + gamma
    # of Y' = (1 - gamma) Y + gamma^{1/alpha} Z; s_n = sum_j w_j^alpha unrolls it.
    schedule = parse_schedule(spec)
    ns = (1, 7, 256, 8192, 1 << 16)
    want, s = {}, 0.0
    for k, g in enumerate(schedule.gammas(ns[-1]).tolist(), start=1):
        s = (1.0 - g) ** alpha * s + g
        if k in ns:
            want[k] = s
    for n in ns:
        assert stable_em_chain_scale_pow(alpha, schedule, n) == pytest.approx(
            want[n], rel=5e-14, abs=0.0
        ), n


def test_exact_ou_scale():
    assert exact_ou_scale_pow(1.5, 0.0) == 0.0
    assert exact_ou_scale_pow(1.5, 50.0) == pytest.approx(1.0 / 1.5)
    ts = np.array([0.0, 0.25, 50.0])
    want = [exact_ou_scale_pow(1.5, t) for t in ts]
    np.testing.assert_array_equal(exact_ou_scale_pow(1.5, ts), want)


def test_exact_ou_scale_keeps_its_relative_accuracy_at_small_t():
    # (1 - e^{-alpha t}) / alpha = t - alpha t^2 / 2 + O(t^3); at t = 2^-30 the
    # cubic term is 3e-19 relative, and 1 - e^{-alpha t} would lose 7e-10.
    t = 2.0**-30
    assert exact_ou_scale_pow(1.5, t) == pytest.approx(t - 1.5 * t * t / 2.0, rel=1e-15, abs=0.0)


def test_stable_mean_abs_frozen():
    assert stable_mean_abs(1.5) == pytest.approx(1.705465240152388, abs=1e-12)


def test_w1_exact_ou_limits():
    alpha = 1.5
    # at t = 0 the chain is a point mass at 0, so W1 = E|invariant draw|
    assert w1_exact_ou_vs_invariant(alpha, 0.0).w1 == pytest.approx(1.301513567054718, abs=1e-12)
    assert w1_exact_ou_vs_invariant(alpha, 60.0).w1 < 1e-12


def test_gap_quadrature_matches_stable_closed_form():
    # run the generic CF-gap quadrature on a *stable* chain, where the
    # answer has a closed form, to validate the quadrature machinery
    alpha, n = 1.5, 512
    nodes, weights = _gap_nodes(alpha)
    s_n = stable_em_chain_scale_pow(alpha, HALF_N, n)
    gap = (np.exp(-s_n * nodes**alpha) - stable_ou_invariant_cf(alpha, nodes)) / nodes**2
    via_quad = abs(float(weights @ gap)) * 2.0 / math.pi
    closed = w1_stable_chain_vs_invariant(alpha, HALF_N, n).w1
    # the naive subtraction above loses digits once the CF gap is tiny, so
    # only expect agreement to ~1e-4 relative
    assert via_quad == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_w1_pareto_power_sums_match_direct_product(alpha):
    # the 21 checkpoints of acceptance criterion 1
    for n in (128, 256, 512, 1024, 2048, 4096, 8192):
        want = _direct_w1_pareto(alpha, HALF_N, n)
        assert w1_pareto_chain_vs_invariant(alpha, HALF_N, n).w1 == pytest.approx(want, rel=1e-10)


def test_w1_oracles_report_sign_and_error():
    res = w1_pareto_chain_vs_invariant(1.5, HALF_N, 512)
    assert res.signed_error == -res.w1  # the chain's E|Y_n| is below the invariant E|X|
    assert 0.0 < res.oracle_err < 1e-6 * res.w1
    closed = w1_stable_chain_vs_invariant(1.5, HALF_N, 512)
    assert closed.w1 == abs(closed.signed_error) > 0.0
    assert closed.oracle_err == 0.0
    exact = w1_exact_ou_vs_invariant(1.5, 0.0)
    assert exact.signed_error == pytest.approx(-1.301513567054718, abs=1e-12)


@pytest.mark.parametrize("alpha, n", [(1.2, 128), (1.2, 8192), (1.5, 512)])
def test_pareto_oracle_err_covers_mass_below_quadrature(alpha, n):
    # Integrate the CF gap over [1e-24, 1e-14], below the oracle's rule; the
    # rest of (0, 1e-24] is ~1e-2 of that at alpha = 1.2.  oracle_err must
    # cover this dropped mass and, where it dominates, measure it.
    res = w1_pareto_chain_vs_invariant(alpha, HALF_N, n)
    edges = np.geomspace(1e-24, 1e-14, 41)
    xg, wg = np.polynomial.legendre.leggauss(12)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg).ravel()
    weights = (half[:, None] * wg).ravel()
    coef, _ = _pareto_coeffs(alpha, HALF_N, n)
    log_phi_n, _ = _direct_log_chain_cf(alpha, coef, nodes)
    log_phi_inv = -(nodes**alpha) / alpha
    gap = np.exp(log_phi_inv) * np.expm1(log_phi_n - log_phi_inv) / nodes**2
    dropped = abs(float(weights @ gap)) * 2.0 / math.pi
    assert res.oracle_err >= dropped
    if dropped > 1e-4 * res.w1:
        assert res.oracle_err == pytest.approx(dropped, rel=0.05)


def test_w1_pareto_chain_decreases():
    vals = [w1_pareto_chain_vs_invariant(1.5, HALF_N, n).w1 for n in (64, 256, 1024)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def pareto_chain_cdf_gap(alpha, schedule, n, xs):
    """F_chain(x) - F_invariant(x) by Gil-Pelaez inversion, for crossing checks.

    Dense trapezoid in lambda; adequate for |x| up to ~10.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    lam_max = (40.0 * alpha) ** (1.0 / alpha) + 10.0
    lam = np.linspace(1e-8, lam_max, 6000)
    gap_cf = pareto_em_chain_cf(alpha, schedule, 0.0, n, lam).real - stable_ou_invariant_cf(alpha, lam)
    integrand = np.sin(np.outer(xs, lam)) * (gap_cf / lam)[None, :]
    return np.trapezoid(integrand, lam, axis=1) / math.pi


def test_pareto_chain_cdf_single_crossing():
    # the E|Y| identity for W1 needs the CDF gap to keep one sign off origin
    xs = np.linspace(0.05, 10.0, 80)
    gap = pareto_chain_cdf_gap(1.5, HALF_N, 512, xs)
    assert np.all(gap <= 1e-10) or np.all(gap >= -1e-10)


def test_invariant_cf():
    lam = np.array([0.0, 1.0])
    np.testing.assert_allclose(
        stable_ou_invariant_cf(1.5, lam), [1.0, math.exp(-1.0 / 1.5)]
    )
    with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\), got 1.0"):
        stable_ou_invariant_cf(1.0, lam)
