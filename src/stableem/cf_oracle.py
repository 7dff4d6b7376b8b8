"""Characteristic-function oracles for the 1-D Pareto innovation and chain laws.

These give a deterministic, non-Monte-Carlo ground truth, from NumPy alone,
for chain-law tests on the 1-D OU drift.  From x0, both EM schemes give
Y_n = P_1 x0 + sum_j w_j xi_j with P_1 = prod_k (1 - gamma_k) and the chain
weights w_j = gamma_j^{1/alpha} prod_{k>j} (1 - gamma_k) (``_chain_weights``):
xi_j is standard stable for stable-EM, so its chain law is stable of scale
(sum_j w_j^alpha)^{1/alpha}, and Pareto over beta for Pareto-EM, whose chain
CF is the product of the innovation CFs phi(c_j l), c_j = w_j / beta (phi: a
series up to |l| = 10, a continued fraction beyond).  W1 distances between
symmetric laws reduce to quadratures of CF differences.

The Pareto-EM chain CF prod_j phi(c_j l) has one accumulator,
``_log_chain_cf``.  For 0 <= x <= r (r = ``_LOG_SERIES_RADIUS``)

    log phi(x) = sum_{p,k} g_pk x^{p alpha + 2k},

so the steps with c_j |l| <= r contribute sum_{p,k} g_pk S_pk u^p v^k with
u = |l|^alpha, v = l^2 and S_pk the sum of c_j^{p alpha + 2k} over those
steps: a Horner evaluation in v, then in u, whose coefficients are the power
sums read at the split.  Only the few steps with c_j |l| > r are evaluated
one by one.  r = 0.1 (halved for alpha close to 2, where the expansion
would not converge at 0.1); terms below 2^-64 |log phi(r)| at x = r are
dropped (``_log_series``).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .sampling import check_noise, noise_constants
from .schedule import StepSchedule

_SERIES_CUTOFF = 10.0
_SERIES_TERMS = 40
_FRACTION_DEPTH = 64  # 22 terms of the continued fraction reach double precision at |l| = 10
# Split radius of the log-series: at 0.3 its majorant exceeds 1 at alpha = 1.8
# and the expansion diverges; at 0.1 it stays below 1/2 up to alpha ~ 1.96.
_LOG_SERIES_RADIUS = 0.1
_LOG_SERIES_TOL = 2.0**-64  # dropped terms, relative to |log phi(r)|
_GAP_LAM_MIN = 1e-14  # lower end of the W1 oracle's CF-gap quadrature


@lru_cache(maxsize=32)
def _series_coeffs(alpha: float) -> np.ndarray:
    # phi(l) = 1 - alpha*C_a*l^alpha + alpha * sum_k (-1)^{k+1} l^{2k} / ((2k)! (2k-alpha))
    k = np.arange(1, _SERIES_TERMS + 1)
    lg = np.array([math.lgamma(2 * kk + 1) for kk in k])
    return (-1.0) ** (k + 1) * np.exp(-lg) / (2 * k - alpha)


def first_order_cf_coefficient(alpha: float) -> float:
    """C with 1 - phi(l) ~ C |l|^alpha as l -> 0: beta^alpha of the 1-D ``noise_constants``."""
    return noise_constants(alpha, 1).beta ** alpha


def _pareto_cf_m1_series(alpha: float, lam_abs: np.ndarray) -> np.ndarray:
    """phi(lam) - 1 by the power series, valid for |lam| <= the series cutoff.

    Returned with full *absolute* accuracy even when phi rounds to 1.0,
    which is what the near-origin W1 quadrature needs.
    """
    coeffs = _series_coeffs(alpha)
    l2 = lam_abs * lam_abs
    p = np.ones_like(lam_abs)
    acc = np.zeros_like(lam_abs)
    for c in coeffs:
        p = p * l2
        acc += c * p
    return -first_order_cf_coefficient(alpha) * lam_abs**alpha + alpha * acc


def pareto_cf(alpha: float, lam):
    """CF of the 1-D Pareto innovation: alpha * int_1^inf cos(l r) r^{-alpha-1} dr.

    Real and even, in [-1, 1]: an exact power series around the |l|^alpha
    term up to |l| = 10, Legendre's continued fraction for Gamma beyond.
    """
    check_noise(alpha, 1)
    out = 1.0 + _pareto_cf_m1(alpha, np.abs(np.atleast_1d(np.asarray(lam, dtype=float))))
    return float(out[0]) if np.isscalar(lam) or np.ndim(lam) == 0 else out


def _pareto_cf_m1(alpha: float, lam_abs: np.ndarray) -> np.ndarray:
    """phi - 1 at |l| values: the series up to the cutoff, the continued fraction beyond."""
    small = lam_abs <= _SERIES_CUTOFF
    out = np.empty_like(lam_abs)
    out[small] = _pareto_cf_m1_series(alpha, lam_abs[small])
    if not small.all():
        out[~small] = _pareto_cf_m1_fraction(alpha, lam_abs[~small])
    return out


def _pareto_cf_m1_fraction(alpha: float, lam_abs: np.ndarray) -> np.ndarray:
    """phi(lam) - 1 past the series cutoff, by Legendre's continued fraction (DLMF 8.9.2).

    int_1^inf e^{i l r} r^{-alpha-1} dr = (-i l)^alpha Gamma(-alpha, -i l) = e^{i l} h with
    h = 1/(b_0 + a_1/(b_1 + ...)), b_k = 2k + 1 + alpha - i l, a_k = -k (k + alpha), so
    phi = alpha Re[e^{i l} h].  Summed from the bottom at a fixed depth in real arithmetic:
    a stopping rule per node, or complex ufuncs, would make a node's bits depend on the
    other nodes of its call.
    """
    re = im = 0.0  # a_{k+1}/(b_{k+1} + ...), then h
    for k in range(_FRACTION_DEPTH, -1, -1):
        p, q = 2 * k + 1 + alpha + re, im - lam_abs
        s = (-k * (k + alpha) if k else 1.0) / (p * p + q * q)
        re, im = s * p, -s * q
    return alpha * (np.cos(lam_abs) * re - np.sin(lam_abs) * im) - 1.0


@lru_cache(maxsize=32)
def _log_series(alpha: float):
    """(g, r): log phi(x) = sum_{p,k} g[p, k] x^{p alpha + 2k} to double precision on [0, r].

    log phi = log(1 + m) with m(x) = -C x^alpha + alpha sum_k c_k x^{2k}
    (``first_order_cf_coefficient`` and ``_series_coeffs``), and
    sum_q (-1)^{q+1} m^q / q collects into monomials x^{p alpha + 2k}.  At
    x = r the order-q part is at most mu^q / q, where mu = C r^alpha +
    alpha sum_k |c_k| r^{2k} majorizes m.  Truncation: r starts at
    ``_LOG_SERIES_RADIUS`` and is halved (only for alpha close to 2) until
    mu <= 1/2; the orders stop at the first q with mu^q below the tolerance;
    of the collected terms, those below the tolerance at x = r are dropped.
    The tolerance is ``_LOG_SERIES_TOL`` |log phi(r)|.  Each dropped term
    shrinks faster than log phi as x decreases, so x = r is the worst case.
    g holds the kept coefficients, zero where a term is dropped, on the rows
    and columns that keep one.  A term is indexed by how it was built, not by
    its exponent: at rational alpha two (p, k) can share one (at alpha = 1.5,
    x^6 is both (4, 0) and (0, 3)).
    """
    big_c = first_order_cf_coefficient(alpha)
    c = alpha * _series_coeffs(alpha)
    two_k = 2.0 * np.arange(1, c.size + 1)

    def majorant(x):
        return big_c * x**alpha + float(np.sum(np.abs(c) * x**two_k))

    r = _LOG_SERIES_RADIUS
    while majorant(r) > 0.5:
        r /= 2.0
    tol = _LOG_SERIES_TOL * abs(math.log1p(float(_pareto_cf_m1_series(alpha, np.array([r]))[0])))
    q_max = math.ceil(math.log(tol) / math.log(majorant(r)))
    last_k = int(np.flatnonzero(np.abs(c) * r**two_k >= tol)[-1]) + 1
    c = c[: min(last_k, q_max)]
    # m as a polynomial in (x^alpha, x^2): entry [p, k] is the coefficient of
    # x^{p alpha + 2k}.  The order-q part has p <= q; its k exceeds q only
    # through factors c_j x^{2j} with j >= 2, each far smaller than
    # (c_1 x^2)^j, so q_max + 1 columns suffice as well.
    m = np.zeros((q_max + 1, q_max + 1))
    m[1, 0] = -big_c
    m[0, 1 : c.size + 1] = c
    power = m.copy()
    acc = np.zeros_like(m)
    for q in range(1, q_max + 1):
        acc += (-1.0) ** (q + 1) / q * power
        nxt = np.zeros_like(power)
        nxt[1:] -= big_c * power[:-1]
        for k in range(1, c.size + 1):
            nxt[:, k:] += c[k - 1] * power[:, :-k]
        power = nxt
    p, k = np.indices(acc.shape)
    grid = np.where(np.abs(acc) * r ** (p * alpha + 2.0 * k) >= tol, acc, 0.0)
    p, k = np.nonzero(grid)
    return grid[: p.max() + 1, : k.max() + 1], r


def _log_abs_pareto_cf(alpha: float, x: np.ndarray):
    """log|phi(x)| and phi(x) < 0 for x >= 0, one argument at a time.

    log1p of phi - 1 keeps full accuracy where phi is near 1.
    """
    m1 = _pareto_cf_m1(alpha, x)
    phi = 1.0 + m1
    with np.errstate(divide="ignore"):
        return np.log1p(np.where(phi > 0.0, m1, np.abs(phi) - 1.0)), phi < 0.0


def _log_chain_cf(alpha: float, coef: np.ndarray, lam: np.ndarray):
    """log|prod_j phi(c_j l)| and its sign at each l in lam.

    The steps with c_j |l| <= r enter through the power sums of the module
    docstring; the rest go through ``_log_abs_pareto_cf``.  Power sums are
    taken over w_j = c_j / max c, so they cannot overflow; a node whose
    scaled powers (|l| max c)^e could overflow takes the one-by-one path for
    every step.  A power sum depends on its split alone and every operation
    on the nodes is element-wise, so a node gets the same bits in any call.
    """
    g, r = _log_series(alpha)
    top = [int(np.flatnonzero(row)[-1]) for row in g]  # the last k kept at each p
    terms = sum(top) + len(top)  # every (p, k <= top[p]), p-major
    lam = np.abs(np.asarray(lam, dtype=float))
    cs = np.sort(coef)
    n, c_max = cs.size, float(cs[-1])
    e_max = max(p * alpha + 2.0 * kp for p, kp in enumerate(top))
    with np.errstate(divide="ignore"):
        split = np.searchsorted(cs, r / lam, side="right")
        scaled = lam * c_max
        split[e_max * np.log(scaled) > math.log(np.finfo(float).max / n)] = 0
    # sums[t, i] = sum_{j < reads_i} w_j^{p alpha + 2k} for the t-th (p, k).
    # Steps go in blocks of 2^18 powers (2 MiB), each power a running product
    # of w^alpha and w^2.  Whole blocks add their totals and the block a read
    # ends in adds a cumulative sum up to the read, so a read's sums do not
    # depend on the other reads.
    reads, row_of = np.unique(split, return_inverse=True)
    sums = np.zeros((terms, reads.size))
    carry = np.zeros(terms)
    block, last = max(1, (1 << 18) // terms), int(split.max(initial=0))
    for j0 in range(0, last, block):
        w = cs[j0 : min(j0 + block, last)] / c_max
        w_alpha, w_sq = w**alpha, w * w
        w_sq_k = np.empty((g.shape[1], w.size))
        w_sq_k[0] = 1.0
        for k in range(1, w_sq_k.shape[0]):
            np.multiply(w_sq_k[k - 1], w_sq, out=w_sq_k[k])
        powers = np.empty((terms, w.size))
        w_alpha_p, t = np.ones(w.size), 0
        for kp in top:
            np.multiply(w_sq_k[: kp + 1], w_alpha_p, out=powers[t : t + kp + 1])
            w_alpha_p, t = w_alpha_p * w_alpha, t + kp + 1
        ends = np.flatnonzero((reads > j0) & (reads <= j0 + block))
        if ends.size:
            cum = np.cumsum(powers[:, : reads[ends[-1]] - j0], axis=1)
            sums[:, ends] = carry[:, None] + cum[:, reads[ends] - j0 - 1]
        carry += powers.sum(axis=1)
    sums *= np.concatenate([row[: kp + 1] for row, kp in zip(g, top)])[:, None]
    # Horner in v = x^2 along each p, then in u = x^alpha across them.
    log_mag = np.zeros(lam.size)
    inner = split > 0
    x, at = scaled[inner], row_of[inner]
    u, v = x**alpha, x * x
    total = np.zeros(x.size)
    for row in reversed(np.split(sums, np.cumsum(np.add(top, 1))[:-1])):
        h = row[-1][at]
        for coeff in row[-2::-1]:
            h = h * v + coeff[at]
        total = total * u + h
    log_mag[inner] = total
    # The c_j |l| > r remainder, flattened over (node, step).
    count = n - split
    node = np.repeat(np.arange(lam.size), count)
    step = np.arange(node.size) - np.repeat(np.cumsum(count) - count - split, count)
    log_abs, negative = _log_abs_pareto_cf(alpha, cs[step] * lam[node])
    log_mag += np.bincount(node, log_abs, minlength=lam.size)
    flips = np.bincount(node, negative, minlength=lam.size)
    return log_mag, np.where(flips % 2 == 1, -1.0, 1.0)


def _chain_weights(alpha: float, schedule: StepSchedule, n: int):
    """The chain weights w_j = gamma_j^{1/alpha} prod_{k>j}(1 - gamma_k), j = 1..n, and P_1.

    P_1 = prod_k (1 - gamma_k) is the factor of x0.
    """
    g = schedule.gammas(n)
    if np.any(g >= 1.0):
        raise ValueError("the chain law needs every gamma_j < 1 (contraction factors in (0, 1))")
    # suffix[j] = sum_{k=j+1..n} log(1-gamma_k) for j = 1..n (0-based j-1)
    suffix = np.concatenate([np.cumsum(np.log1p(-g)[::-1])[::-1], [0.0]])
    return g ** (1.0 / alpha) * np.exp(suffix[1:]), math.exp(suffix[0])


def pareto_em_chain_cf(alpha: float, schedule: StepSchedule, x0: float, n: int, lam):
    """Exact CF of the Pareto-EM chain on the 1-D OU drift after n steps.

    E[e^{i l Y_n}] = e^{i l P_1 x0} * prod_j phi((gamma_j^{1/alpha}/beta) P_{j+1} l)
    with P_j = prod_{k=j}^n (1 - gamma_k).  The product runs in log space
    through ``_log_chain_cf``.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if n == 0:
        out = np.exp(1j * lam_arr * x0)
        return complex(out[0]) if np.ndim(lam) == 0 else out
    w, p1 = _chain_weights(alpha, schedule, n)
    log_mag, sign = _log_chain_cf(alpha, w / noise_constants(alpha, 1).beta, lam_arr)
    out = np.exp(1j * lam_arr * p1 * x0) * sign * np.exp(log_mag)
    return complex(out[0]) if np.ndim(lam) == 0 else out


def stable_ou_invariant_cf(alpha: float, lam):
    """CF of the invariant law of dX = -X dt + dZ: exp(-|l|^alpha / alpha)."""
    check_noise(alpha, 1)
    return np.exp(-np.abs(lam) ** alpha / alpha)


def stable_mean_abs(alpha: float) -> float:
    """E|Z| for the standard stable law with CF exp(-|l|^alpha)."""
    return 2.0 / math.pi * math.gamma(1.0 - 1.0 / alpha)


def stable_em_chain_scale_pow(alpha: float, schedule: StepSchedule, n: int) -> float:
    """s_n = sum_j w_j^alpha: the stable-EM chain law from x0 = 0 is stable of scale s_n^{1/alpha}.

    The same s_n solves the recurrence s_{k+1} = (1-gamma)^alpha s_k + gamma
    of one step Y' = (1-gamma)Y + gamma^{1/alpha} Z.
    """
    return float(np.sum(_chain_weights(alpha, schedule, n)[0] ** alpha))


def exact_ou_scale_pow(alpha: float, t):
    """sigma(t)^alpha = (1 - e^{-alpha t}) / alpha for the exact OU transition over time t.

    The one form of the exact-OU scale, for a scalar or an array t, with
    ``expm1`` so that it keeps its relative accuracy as t -> 0.  The
    exact-OU engine step and the weak-error step use its 1/alpha-th power
    sigma(gamma).
    """
    return -np.expm1(-alpha * t) / alpha


# ---------------------------------------------------------------------------
# Deterministic W1 oracles (symmetric 1-D laws started from x0 = 0).
# ---------------------------------------------------------------------------


class OracleW1(NamedTuple):
    """A deterministic W1 with its sign and error estimate.

    ``signed_error`` is E|Y| - E|X_inf|, whose absolute value is ``w1``;
    ``oracle_err`` estimates the evaluation error of ``w1`` (0.0 for the
    closed forms).
    """

    w1: float
    signed_error: float
    oracle_err: float


@lru_cache(maxsize=32)
def _gap_nodes(alpha: float, stride: int = 1):
    """Composite Gauss-Legendre nodes on log panels of [_GAP_LAM_MIN, lam_max].

    The integrand (phi_n - phi_nu)/l^2 behaves like l^{alpha-2} near 0, so
    panels extend down to 1e-14 where the neglected mass is O(1e-3)
    relative even at alpha close to 1.  ``stride`` keeps every stride-th
    of the 240 panel edges: the coarser rule of the error estimate.
    """
    lam_max = (40.0 * alpha) ** (1.0 / alpha) + 10.0
    edges = np.geomspace(_GAP_LAM_MIN, lam_max, 240)[::stride]
    xg, wg = np.polynomial.legendre.leggauss(12)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def w1_pareto_chain_vs_invariant(alpha: float, schedule: StepSchedule, n: int) -> OracleW1:
    """W1 between the Pareto-EM chain law (x0=0) and the OU invariant law.

    Returns w1 = |E|Y_n| - E|X_inf|| = (2/pi) |int (phi_n - phi_nu)/l^2 dl|
    for these symmetric laws.  Since |x| is 1-Lipschitz this is a lower bound
    on W1; it equals W1 only if the CDFs cross once, at the origin.  They
    can cross again: at alpha = 1.8, n = 128 the CDF gap changes sign near
    x = 13 (ROADMAP item 7), and ``oracle_err`` does not cover the mass so
    missed.

    The CF gap is formed in log space with expm1: near the origin both CFs
    are within an ulp of 1.0, and a direct subtraction would turn rounding
    noise into an n-independent bias once divided by l^2.  ``oracle_err``
    adds |W1 on the 240-edge rule - W1 on the rule that keeps every other
    edge| (both rules share one ``_log_chain_cf`` call over their joined
    nodes) and the leading-order mass below l = eps = _GAP_LAM_MIN that
    both rules drop: near 0 the gap is (s_n - 1/alpha) l^{alpha-2}, with
    s_n = C sum_j c_j^alpha = sum_j w_j^alpha, so that mass is
    (2/pi) |s_n - 1/alpha| eps^{alpha-1}/(alpha-1).
    """
    rules = [_gap_nodes(alpha, stride) for stride in (1, 2)]
    nodes = np.concatenate([nodes for nodes, _ in rules])
    w, _ = _chain_weights(alpha, schedule, n)
    coef = w / noise_constants(alpha, 1).beta
    reach = float(coef.max()) * float(nodes.max())
    # Not a limit of the CF: past it oracle_err misses the truncation at lam_max (ROADMAP item 7).
    if reach > _SERIES_CUTOFF:
        raise ValueError(
            f"at n = {n} the largest innovation coefficient times the largest CF node is "
            f"{reach:.4g}, past the CF series cutoff {_SERIES_CUTOFF:g}: "
            "the checkpoints must start deeper"
        )
    log_phi_n, sign = _log_chain_cf(alpha, coef, nodes)
    log_phi_inv = -(nodes**alpha) / alpha
    gap = np.where(
        sign > 0.0,
        np.exp(log_phi_inv) * np.expm1(log_phi_n - log_phi_inv),
        -np.exp(log_phi_n) - np.exp(log_phi_inv),
    ) / nodes**2
    (_, w_fine), (_, w_coarse) = rules
    fine = -float(w_fine @ gap[: w_fine.size]) * 2.0 / math.pi
    coarse = -float(w_coarse @ gap[w_fine.size :]) * 2.0 / math.pi
    drift = float(np.sum(w**alpha)) - 1.0 / alpha
    tail = 2.0 / math.pi * abs(drift) * _GAP_LAM_MIN ** (alpha - 1.0) / (alpha - 1.0)
    return OracleW1(abs(fine), fine, float(abs(abs(fine) - abs(coarse)) + tail))


def _closed_form_w1(alpha: float, scale_pow: float) -> OracleW1:
    # Centered stable laws: W1 = |s^{1/a} - (1/a)^{1/a}| E|Z| exactly
    # (scale families are monotone-coupled).
    gap = scale_pow ** (1.0 / alpha) - (1.0 / alpha) ** (1.0 / alpha)
    signed = float(gap * stable_mean_abs(alpha))
    return OracleW1(abs(signed), signed, 0.0)


def w1_stable_chain_vs_invariant(alpha: float, schedule: StepSchedule, n: int) -> OracleW1:
    """W1 between the stable-EM chain law (x0=0) and the OU invariant law.

    Both are centered stable laws, so W1 = |s_n^{1/a} - (1/a)^{1/a}| E|Z|
    exactly.
    """
    return _closed_form_w1(alpha, stable_em_chain_scale_pow(alpha, schedule, n))


def w1_exact_ou_vs_invariant(alpha: float, t: float) -> OracleW1:
    """W1 between the exact OU law at time t (x0=0) and the invariant law."""
    return _closed_form_w1(alpha, exact_ou_scale_pow(alpha, t))

