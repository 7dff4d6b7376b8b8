import math

import numpy as np
import pytest

from stableem.config import parse_schedule
from stableem.schedule import (
    StepSchedule,
    decay_diagnostics,
    omega_of,
    rho_theory,
)


def test_c_over_rho_n_values():
    s = StepSchedule(gamma1=0.5)
    assert s.gamma_at(1) == 0.5
    assert s.gamma_at(10) == pytest.approx(0.05)
    np.testing.assert_allclose(s.gammas(4), [0.5, 0.25, 0.5 / 3, 0.125])


def test_polynomial_values():
    s = StepSchedule(gamma1=0.1, a=0.5)
    assert s.gamma_at(4) == pytest.approx(0.05)
    t = s.t_grid(2)
    assert t[0] == 0.0
    assert t[2] == pytest.approx(0.1 * (1 + 2**-0.5))


def test_t_grid_matches_exact_sum():
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)
    t = s.t_grid(1000)
    assert t[0] == 0.0
    for n in (1, 10, 1000):
        assert t[n] == math.fsum(s.gammas(n))


def _kahan_t_grid(s, n):
    """[t_0, ..., t_n] by Kahan's compensated loop, one step at a time: t_grid's reference."""
    g = s.gammas(n)
    t = np.empty(n + 1)
    t[0] = 0.0
    total, comp = 0.0, 0.0
    for i, gi in enumerate(g):
        y = gi - comp
        x = total + y
        comp = (x - total) - y
        total = x
        t[i + 1] = total
    return t


@pytest.mark.parametrize("spec", [
    "c-over-n:0.5", "c-over-n:0.9", "c-over-n:1", "c-over-rho-n:2,0.5", "poly:0.5,0.7", "poly:0.1,0.5",
])
def test_t_grid_is_the_kahan_loop_bit_for_bit(spec):
    # The cascade (sequential sum plus the sum of each addition's exact
    # error) must give Kahan's t_n at every n <= 2^20: a moved bit is a
    # change of definition.  A shorter grid is a prefix of the longer one.
    s = parse_schedule(spec, 1.0 / 1.5)
    n = 2**20
    t = s.t_grid(n)
    assert np.array_equal(t, _kahan_t_grid(s, n))
    assert np.array_equal(s.t_grid(1000), t[:1001])
    for k in (0, 1, 2):
        short = s.t_grid(k)
        assert short.shape == (k + 1,) and np.array_equal(short, _kahan_t_grid(s, k))


@pytest.mark.parametrize("s, n", [
    (StepSchedule(gamma1=4.0), 20000),
    (StepSchedule(gamma1=0.5, a=0.7), 20000),
    (StepSchedule(gamma1=0.1, a=0.5), 20000),
], ids=["c-over-rho-n", "poly:0.5,0.7", "poly:0.1,0.5"])
def test_gamma_at_is_the_step_gammas_takes(s, n):
    # One formula on an index array: a reported gamma_k is the step the
    # chains took.  A scalar power differs from the array power in the last
    # bit at some k on poly:0.5,0.7.
    g = s.gammas(n)
    assert [s.gamma_at(k) for k in range(1, n + 1)] == g.tolist()


def test_omega_closed_forms():
    # 2/(0.5 n) = 4/n: omega = theta / gamma1 = theta * rho / c
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)
    assert omega_of(s) == pytest.approx(1.0 / 6.0, abs=1e-15)
    # polynomial with a < 1: steps decay sub-harmonically, omega = 0
    assert omega_of(StepSchedule(0.1, 0.5, theta=0.5)) == 0.0
    # polynomial with a = 1: omega = theta / gamma1
    assert omega_of(StepSchedule(0.25, 1.0, theta=0.5)) == pytest.approx(2.0)


def test_rho_theory_values():
    assert rho_theory(1.5, 1) == pytest.approx(0.5 * math.exp(-2.0), rel=1e-14)
    assert rho_theory(1.5, 2) == pytest.approx(4.19328284878e-5, rel=1e-9)
    with pytest.warns(RuntimeWarning):
        assert rho_theory(1.5, 12) == 0.0
    with pytest.raises(ValueError):
        rho_theory(2.5, 1)


def _v_direct(diag, n):
    """v_n = sum_{i=1}^n gamma_i^{1+theta} e^{-rho (t_n - t_i)}, summed directly."""
    g, t = np.diff(diag.t[: n + 1]), diag.t
    return float(np.sum(g ** (1.0 + diag.theta) * np.exp(-diag.rho * (t[n] - t[1 : n + 1]))))


def test_diagnostics_recurrence_matches_direct_sum():
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)
    diag = decay_diagnostics(s, rho=0.5, n_max=500, alpha=1.5)
    for n in (1, 5, 50, 500):
        assert diag.v[n] == pytest.approx(_v_direct(diag, n), abs=1e-12)


def test_diagnostics_requires_rho_above_omega():
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)  # omega = 1/6
    with pytest.raises(ValueError):
        decay_diagnostics(s, rho=0.1, n_max=10, alpha=1.5)


def test_n_star_definition():
    s = StepSchedule(gamma1=0.5, theta=0.5)  # gamma_n = 1/(2n), omega = 1
    diag = decay_diagnostics(s, rho=1.5, n_max=200, alpha=1.5)
    # n*[n] = max{i : t_n - t_i > 1}, and -1 when t_n <= 1
    for n in range(1, 201):
        past = [i for i in range(n) if diag.t[n] - diag.t[i] > 1.0]
        assert diag.n_star[n - 1] == (past[-1] if past else -1), n
    assert diag.n_star[2] == -1  # t_3 = 11/12
    assert diag.n_star[3] == 0   # t_4 = 25/24 > 1 + t_0
    assert diag.n_star[199] > 0


def test_v_ratio_respects_bound():
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)
    diag = decay_diagnostics(s, rho=0.5, n_max=5000, alpha=1.5)
    assert np.all(diag.v_over_gamma_theta <= diag.bound)
    assert all(math.isfinite(diag.windowed_sum_ratio(n)) for n in range(2, 5001))


def test_windowed_sum_equals_whole_array_loop():
    # The loop that once filled a windowed-sum array for every n, kept as the
    # reference: the accessor does the same arithmetic, so it must agree bit
    # for bit (at theta = 2/3 a scalar power of gamma_n differs from the
    # array power in the last bit at some n).
    s = StepSchedule(gamma1=4.0, theta=2.0 / 3.0)
    alpha, n_max = 1.5, 500
    diag = decay_diagnostics(s, rho=0.5, n_max=n_max, alpha=alpha)
    g, t, th = s.gammas(n_max), s.t_grid(n_max), s.theta
    gth = g**th
    for n in range(2, n_max + 1):
        i = np.arange(max(diag.n_star[n - 1] + 1, 1), n)
        expected = np.sum((t[n] - t[i]) ** (-1.0 / alpha) * g[i - 1] ** (1.0 + th)) / gth[n - 1] if i.size else 0.0
        assert diag.windowed_sum_ratio(n) == expected, n


def _windowed_sum_by_definition(s, alpha, n):
    """sum_{i=n*+1}^{n-1} (t_n - t_i)^{-1/alpha} gamma_i^{1+theta} / gamma_n^theta, term by term."""
    g = [float(v) for v in s.gammas(n)]
    t = [math.fsum(g[:i]) for i in range(n + 1)]
    n_star = -1
    for i in range(n + 1):
        if t[n] - t[i] > 1.0:
            n_star = i
    th = s.theta
    terms = [(t[n] - t[i]) ** (-1.0 / alpha) * g[i - 1] ** (1.0 + th) for i in range(max(n_star + 1, 1), n)]
    return math.fsum(terms) / g[n - 1] ** th


_WINDOW_SCHEDULES = {
    "c-over-rho-n": (StepSchedule(gamma1=4.0, theta=2.0 / 3.0), 0.5),
    "c-over-rho-n-small": (StepSchedule(gamma1=0.5, theta=0.5), 1.5),
    "poly": (StepSchedule(gamma1=0.3, a=0.5, theta=0.5), 0.5),
}


@pytest.mark.parametrize("name", sorted(_WINDOW_SCHEDULES))
def test_windowed_sum_matches_definition(name):
    s, rho = _WINDOW_SCHEDULES[name]
    n_max, alpha = 1500, 1.5
    diag = decay_diagnostics(s, rho=rho, n_max=n_max, alpha=alpha)
    first_past_one = int(np.argmax(diag.t > 1.0))
    empty = [n for n in range(2, n_max + 1) if s.gamma_at(n) > 1.0]  # t_n - t_{n-1} > 1
    for n in sorted({2, first_past_one, n_max, *empty}):
        assert diag.windowed_sum_ratio(n) == pytest.approx(
            _windowed_sum_by_definition(s, alpha, n), rel=1e-12, abs=0.0
        ), n
    for n in empty:
        assert diag.windowed_sum_ratio(n) == 0.0
    assert bool(empty) == (name == "c-over-rho-n")  # gamma_1..gamma_3 = 4, 2, 4/3
    for n in (0, -1, n_max + 1):
        with pytest.raises(ValueError):
            diag.windowed_sum_ratio(n)


def test_theta_validation():
    with pytest.raises(ValueError):
        StepSchedule(gamma1=1.0, theta=1.5)
    with pytest.raises(ValueError):
        StepSchedule(gamma1=-1.0)
    for bad in ({"gamma1": math.inf}, {"gamma1": 0.5, "a": 0.0}, {"gamma1": 0.5, "a": 1.5}):
        with pytest.raises(ValueError):
            StepSchedule(**bad)


@pytest.mark.parametrize("spec, c, rho", [
    ("c-over-n:0.5", 0.5, 1.0),
    ("c-over-n:0.9", 0.9, 1.0),
    ("c-over-rho-n:2,0.5", 2.0, 0.5),
])
def test_c_over_rho_n_spellings_are_the_harmonic_steps_bit_for_bit(spec, c, rho):
    # gamma1 / k with gamma1 = c / rho rounds each step once, as c / (rho k) does.
    theta = 1.0 / 1.5
    s = parse_schedule(spec, theta)
    assert (s.gamma1, s.a) == (c / rho, 1.0)
    k = np.arange(1, 2_000_001, dtype=float)
    np.testing.assert_array_equal(s.gammas(k.size), c / (rho * k))
    assert omega_of(s) == theta * rho / c
