import numpy as np
import pytest

from stableem.metrics import (
    ECF_SLICE,
    W1_BATCHES,
    ecf,
    rate_fit,
    w1_gap_stderr,
    w1_sorted_1d,
)
from stableem.rng import derive_stream
from stableem.sampling import sample_stable_1d
from test_acceptance import w1_exact_lp  # criterion 5's assignment-solver reference


def test_sorted_1d_trivial():
    assert w1_sorted_1d([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert w1_sorted_1d([0.0, 0.0], [1.0, 1.0]) == 1.0
    # optimal coupling is the monotone one, not the identity pairing
    assert w1_sorted_1d([2.0, 1.0], [1.0, 2.0]) == 0.0


def test_sorted_1d_size_mismatch():
    with pytest.raises(ValueError):
        w1_sorted_1d([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        w1_sorted_1d([], [])


def test_sorted_matches_assignment_solver():
    gen = derive_stream(100, 0)
    for _ in range(200):
        m = int(gen.integers(1, 17))
        x = gen.standard_cauchy(m)  # heavy tails on purpose
        y = gen.standard_cauchy(m)
        assert abs(w1_sorted_1d(x, y) - w1_exact_lp(x, y)) < 1e-12


def test_metric_axioms():
    gen = derive_stream(101, 0)
    for _ in range(100):
        m = int(gen.integers(2, 33))
        x, y, z = gen.standard_normal((3, m))
        d_xy = w1_sorted_1d(x, y)
        assert d_xy >= 0.0
        assert w1_sorted_1d(x, x) == 0.0
        assert abs(d_xy - w1_sorted_1d(y, x)) < 1e-12
        # triangle inequality
        assert d_xy <= w1_sorted_1d(x, z) + w1_sorted_1d(z, y) + 1e-12
        # translation equivariance and positive homogeneity
        c, a = float(gen.normal()), float(gen.uniform(0.1, 3.0))
        assert abs(w1_sorted_1d(x + c, y + c) - d_xy) < 1e-12
        assert abs(w1_sorted_1d(a * x, a * y) - a * d_xy) < 1e-9 * max(1.0, a)


def test_exact_lp_size_cap():
    x = np.zeros(300)
    with pytest.raises(ValueError):
        w1_exact_lp(x, x)


def _invariant(alpha, m, seed, stream):
    return alpha ** (-1.0 / alpha) * sample_stable_1d(alpha, derive_stream(seed, stream), m)


def _slice_gaps(alpha, m, seed):
    """The full-size gap W1(x, y) - W1(a, b), and the same gap on each of the W1_BATCHES slices."""
    x, y, a, b = (_invariant(alpha, m, seed, i) for i in range(4))
    gap = w1_sorted_1d(x, y) - w1_sorted_1d(a, b)
    k = m // W1_BATCHES
    cuts = [np.sort(s[: W1_BATCHES * k].reshape(W1_BATCHES, k), axis=1) for s in (x, y, a, b)]
    d = np.abs(cuts[0] - cuts[1]).mean(axis=1) - np.abs(cuts[2] - cuts[3]).mean(axis=1)
    return gap, d, w1_gap_stderr(alpha, x, y, a, b)


def test_w1_gap_stderr_is_calibrated_for_heavy_tails():
    # Four i.i.d. invariant samples per seed, so every gap is pure noise.  The
    # gap has tail index alpha: its across-seed sd is set by the largest seed
    # (over disjoint sets of 30 seeds the ratio of the median se to it ranged
    # 0.23..1.61), so the spread is compared by interquartile range over 200
    # seeds, where the ratio stayed within 0.84..1.10 on ten disjoint sets.
    # The rescale a slice difference gets, se / sd(d), must carry the slices'
    # spread (size m / K) to the gap's (size m): K^{1/alpha - 1}, not 1/sqrt(K),
    # which would give 0.61x.
    alpha, m, seeds = 1.5, 20_000, range(200)
    gaps, pooled, ses = [], [], []
    for seed in seeds:
        gap, d, se = _slice_gaps(alpha, m, seed)
        gaps.append(gap)
        ses.append(se)
        pooled.extend(d * se / d.std(ddof=1))
    gaps, ses = np.array(gaps), np.array(ses)
    assert np.all(np.abs(gaps) <= 3.0 * ses)

    def iqr(v):
        return np.subtract(*np.percentile(v, [75, 25]))

    assert 0.75 <= iqr(pooled) / iqr(gaps) <= 1.33


def test_w1_gap_stderr_rejects_a_shifted_sample():
    # The power of the 3-se test against a shift of 1, over the seeds of the
    # calibration test above: the gap is itself heavy-tailed, so one seed can
    # miss (seed 7 gives 0.726 against 3 se = 1.381).  89 % of seeds 0..199
    # clear 3 se; without the W1_BATCHES^{1/alpha - 1} rescale, 53 %.
    alpha, m, seeds = 1.5, 20_000, range(200)
    rejected = 0
    for seed in seeds:
        x, y, a, b = (_invariant(alpha, m, seed, i) for i in range(4))
        se = w1_gap_stderr(alpha, x + 1.0, y, a, b)
        gap = w1_sorted_1d(x + 1.0, y) - w1_sorted_1d(a, b)
        rejected += gap > 3.0 * se
    assert rejected >= 0.8 * len(seeds)


def test_w1_gap_stderr_of_one_pair_and_too_few_points():
    gen = derive_stream(103, 0)
    x, y = gen.standard_normal((2, 2 * W1_BATCHES))
    assert w1_gap_stderr(1.5, x, y) > 0.0
    # the pair alone is the gap against a floor pair of equal samples
    assert w1_gap_stderr(1.5, x, y, x, x) == w1_gap_stderr(1.5, x, y)
    with pytest.raises(ValueError, match="2 points in each"):
        w1_gap_stderr(1.5, x[:-1], y[:-1])
    with pytest.raises(ValueError, match="2 points in each"):
        w1_gap_stderr(1.5, x, y, x[:-1], y[:-1])


def test_ecf_basics():
    x = np.zeros(100)
    lams = np.array([0.5, 1.0])
    np.testing.assert_allclose(ecf(x, lams), np.ones(2))
    # point mass at 1: ecf(l) = exp(i l)
    np.testing.assert_allclose(ecf(np.ones(10), lams), np.exp(1j * lams))


@pytest.mark.parametrize("m", [1, ECF_SLICE - 1, ECF_SLICE, ECF_SLICE + 1, 3 * ECF_SLICE + 5])
def test_ecf_is_the_matrix_mean_bit_for_bit(m):
    x = np.random.default_rng(m).standard_cauchy(m)
    lams = np.array([0.0, -0.7, 0.5, 2.0, 13.0])
    want = np.exp(1j * np.multiply.outer(x, lams)).mean(axis=0)
    assert np.array_equal(ecf(x, lams), want)


@pytest.mark.parametrize(
    "samples, lambdas, shape",
    [
        (np.zeros(0), [1.0], r"\(0,\)"),
        (np.zeros((3, 2)), [1.0], r"\(3, 2\)"),
        (1.0, [1.0], r"\(\)"),
        (np.zeros(3), 1.0, r"\(\)"),
        (np.zeros(3), np.ones((2, 2)), r"\(2, 2\)"),
    ],
)
def test_ecf_rejects_a_sample_or_lambdas_of_the_wrong_shape(samples, lambdas, shape):
    with pytest.raises(ValueError, match=f"got shape {shape}"):
        ecf(samples, lambdas)


def test_ecf_holds_one_slice_not_the_sample_by_lambda_matrix(traced_peak):
    # The (m, L) complex matrix of m = 1e6 samples at 4 lambdas is 64 MB, and
    # the expression that builds it peaks at about 1.3e8 bytes; a slice of
    # ECF_SLICE samples is about 0.9 MB with its real scratch.
    x = np.random.default_rng(3).standard_cauchy(1_000_000)
    assert traced_peak(ecf, x, [0.25, 0.5, 1.0, 2.0]) <= 2e6


def test_rate_fit_exact_power_law():
    gammas = [2.0**-k for k in range(3, 10)]
    pts = [(g, 3.0 * g**0.75) for g in gammas]
    fit = rate_fit(pts)
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert np.exp(fit.intercept) == pytest.approx(3.0)


def test_rate_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        rate_fit([(0.5, 1.0), (0.25, 0.5)])  # too few points
    with pytest.raises(ValueError):
        rate_fit([(-0.5, 1.0)] * 5)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            rate_fit([(0.5, 0.0), (0.25, 0.1), (0.125, 0.1), (0.0625, 0.1)])
