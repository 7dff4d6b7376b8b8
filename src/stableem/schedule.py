"""Decreasing step-size schedules and their ergodicity diagnostics.

A schedule is the infinite decreasing sequence gamma_k = gamma1 / k^a with
a in (0, 1].  The config spells a = 1 also as ``c-over-n:c`` (gamma1 = c)
and ``c-over-rho-n:c,rho`` (gamma1 = c / rho).

Alongside the steps themselves the module computes the partial sums t_n
(the sequential sum plus the sequential sum of each addition's exact
error, equal to Kahan's compensated sum on every verified schedule), the
limsup quantity omega (closed-form), the theoretical ergodicity constant
rho, and the v_n / n* sequences used to sanity-check the step-size decay
recurrence numerically.  The windowed sum over the last unit of time before
t_n is evaluated on demand, only at the n a caller asks for
(``ScheduleDiagnostics.windowed_sum_ratio``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .sampling import check_noise


@dataclass(frozen=True)
class StepSchedule:
    """gamma_k = gamma1 / k^a, with weight exponent theta for the diagnostics."""

    gamma1: float
    a: float = 1.0
    theta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must lie in (0, 1], got {self.theta}")
        if not 0.0 < self.gamma1 < math.inf:
            raise ValueError(f"gamma1 must be positive and finite, got {self.gamma1}")
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"the exponent a must lie in (0, 1], got {self.a}")

    def _steps(self, k: np.ndarray) -> np.ndarray:
        """gamma_k at 1-based float indices k: the one step formula.

        Divided, not multiplied by k^-a: at a = 1 that is gamma1 / k, so every
        c / k step is rounded once.  Always on an array: NumPy's scalar and
        array power can differ in the last bit.
        """
        return self.gamma1 / k**self.a

    def gamma_at(self, k: int) -> float:
        """The k-th step size, 1-based; equal to gammas(n)[k - 1] for every n >= k."""
        if k < 1:
            raise ValueError("step index is 1-based")
        return float(self._steps(np.array([k], dtype=float))[0])

    def gammas(self, n: int) -> np.ndarray:
        """Steps gamma_1 .. gamma_n as an array."""
        return self._steps(np.arange(1, n + 1, dtype=float))

    def t_grid(self, n: int) -> np.ndarray:
        """[t_0, t_1, ..., t_n]: the one definition of t_n.

        t_k = s_k + E_k, where s_k = fl(s_{k-1} + gamma_k) is the sequential
        sum and E_k the sequential sum of the exact rounding errors of those
        additions (Knuth's TwoSum; the cascade of Ogita, Rump & Oishi, 2005).
        On every verified schedule this equals Kahan's compensated loop bit
        for bit, at array speed.  Scratch: the steps and one error array.
        """
        g = self.gammas(n)
        t = np.zeros(n + 1)
        s = np.cumsum(g, out=t[1:])  # s_k = fl(s_{k-1} + gamma_k), in order
        # TwoSum of a = s_{k-1}, b = gamma_k into s_k: bb = s_k - a, and the
        # error is (a - (s_k - bb)) + (b - bb); b - bb overwrites g.
        a, b, sk = s[:-1], g[1:], s[1:]
        err = np.subtract(sk, a)
        np.subtract(b, err, out=b)
        np.subtract(sk, err, out=err)
        np.subtract(a, err, out=err)
        err += b
        np.cumsum(err, out=err)
        sk += err
        return t

    def describe(self) -> str:
        return f"poly:gamma1={self.gamma1},a={self.a},theta={self.theta}"


def omega_of(s: StepSchedule) -> float:
    """limsup_k (gamma_k^theta - gamma_{k+1}^theta) / gamma_{k+1}^{1+theta}, in closed form.

    theta / gamma1 at a = 1 (theta rho / c for c-over-rho-n), and 0 for
    a < 1, where the steps decay sub-harmonically.
    """
    return s.theta / s.gamma1 if s.a == 1.0 else 0.0


def rho_theory(alpha: float, d: int) -> float:
    """The fully explicit theoretical ergodicity constant d^{2a-4} 2^{-d} exp(-2^d d^{4-2a}).

    Astronomically conservative for d > 1; experiments use a toy rho instead.
    Underflows to 0.0 (with a RuntimeWarning) for large d.
    """
    check_noise(alpha, d)
    log_rho = (2 * alpha - 4) * math.log(d) if d > 1 else 0.0
    log_rho += -d * math.log(2.0) - 2.0**d * d ** (4 - 2 * alpha)
    if log_rho < math.log(5e-324):
        warnings.warn("rho_theory underflowed to 0", RuntimeWarning)
        return 0.0
    return math.exp(log_rho)


@dataclass(frozen=True)
class ScheduleDiagnostics:
    omega: float
    rho: float
    theta: float
    alpha: float
    g: np.ndarray = field(repr=False)  # g[k - 1] = gamma_k
    t: np.ndarray = field(repr=False)  # t[n] = t_n, t[0] = 0
    n_star: np.ndarray          # n*[n] = max{i : t_n - t_i > 1}, -1 when t_n <= 1
    v: np.ndarray               # v[n], v[0] = 0
    v_over_gamma_theta: np.ndarray
    exp_decay_ratio: np.ndarray  # e^{-rho t_n} / gamma_n^theta
    bound: float                # 2/(rho-omega) * exp((rho-omega) gamma_1 / 2)

    def windowed_sum_ratio(self, n: int) -> float:
        """sum_{i=n*+1}^{n-1} (t_n - t_i)^{-1/alpha} gamma_i^{1+theta} / gamma_n^theta.

        The window holds the steps within one unit of time before t_n; an
        empty window gives 0.0.
        """
        if not 1 <= n <= self.g.size:
            raise ValueError(f"n must lie in 1..{self.g.size}, got {n}")
        lo = max(int(self.n_star[n - 1]) + 1, 1)
        if lo >= n:
            return 0.0
        terms = (self.t[n] - self.t[lo:n]) ** (-1.0 / self.alpha) * self.g[lo - 1 : n - 1] ** (1.0 + self.theta)
        # NumPy's array power can differ from its scalar power in the last
        # bit; raise gamma_n as an array, as every other ratio here does.
        return float(np.sum(terms) / (self.g[n - 1 : n] ** self.theta)[0])


def decay_diagnostics(
    s: StepSchedule, rho: float, n_max: int, alpha: float
) -> ScheduleDiagnostics:
    """Sequences probing the step-schedule decay recurrence up to n_max.

    v_n follows the recurrence v_{n+1} = e^{-rho gamma_{n+1}} v_n
    + gamma_{n+1}^{1+theta}; requires rho > omega_of(s).
    """
    omega = omega_of(s)
    if rho <= omega:
        raise ValueError(f"need rho > omega, got rho={rho} <= omega={omega}")
    th = s.theta
    g = s.gammas(n_max)
    t = s.t_grid(n_max)

    v = np.zeros(n_max + 1)
    for n in range(n_max):
        v[n + 1] = math.exp(-rho * g[n]) * v[n] + g[n] ** (1.0 + th)

    gth = g**th
    v_ratio = v[1:] / gth
    decay_ratio = np.exp(-rho * t[1:]) / gth

    # n*[n] = max{i : t_n - t_i > 1}; -1 if no such i (t_n <= 1).
    n_star = np.searchsorted(t, t[1:] - 1.0, side="left") - 1

    bound = 2.0 / (rho - omega) * math.exp((rho - omega) * s.gamma_at(1) / 2.0)
    return ScheduleDiagnostics(
        omega=omega,
        rho=rho,
        theta=th,
        alpha=alpha,
        g=g,
        t=t,
        n_star=n_star,
        v=v,
        v_over_gamma_theta=v_ratio,
        exp_decay_ratio=decay_ratio,
        bound=bound,
    )
