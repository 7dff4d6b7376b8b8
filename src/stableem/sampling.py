"""Innovation distributions: isotropic alpha-stable vectors and radial Pareto vectors.

The driving noise is isotropic, A = I in dX = b(X) dt + A dZ, and
normalized so a standard stable draw Z has characteristic function
exp(-|lambda|^alpha).  The Pareto innovation has density
alpha / (sigma_{d-1} |z|^{alpha+d}) outside the unit ball; the constant
beta = (alpha / (sigma_{d-1} d_alpha))^{1/alpha} matches its
small-frequency behaviour to the stable one, which is why the Pareto
scheme scales its innovations by gamma^{1/alpha} / beta.  The entry points
that take (alpha, d) refuse alpha outside (1, 2) and d < 1.

A 1-D stable draw is the Chambers-Mallows-Stuck transform of one uniform
and one exponential, written in the tangents of half-angles so that it
takes two tan, two log and one exp per draw and no sin, cos or pow (see
``_cms_symmetric``).

A 1-D Pareto draw takes one uniform u: its sign is that of 2u - 1 and its
radius |2u - 1|^{-1/alpha}, since |2U - 1| is uniform on [0, 1] and
independent of the sign of 2U - 1 (see ``_pareto_signed``).

``Innovations`` is the one holder of 1-D innovation buffers: the flat
variate arrays, one piece of transform scratch and the innovations.  Its
``draw`` fills the variate arrays in the draw order stated in
``stableem.em`` and transforms them in pieces of ``_PIECE``, so the
transform's passes run in cache.  The transforms write their temporaries
into the scratch and overwrite their spent variates, so a holder allocates
nothing per draw.  The 1-D samplers, and the vector samplers at d = 1,
draw through a holder of their own, and each worker thread of the
ensemble engine through one holder per run.  The d > 1 samplers, which
only ``stableem sample`` and the tests use, are plain NumPy expressions:
the isotropic stable vector subordinates normals to Kanter's one-sided
transform, and the radial Pareto vector scales a normal direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def check_noise(alpha: float, dim: int) -> None:
    """Reject a stability index outside (1, 2) or a dimension below 1, naming the value."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")


@dataclass(frozen=True)
class NoiseConstants:
    """sigma_{d-1}, d_alpha and beta for a given (alpha, d)."""

    sigma_dm1: float
    d_alpha: float
    beta: float


def noise_constants(alpha: float, dim: int) -> NoiseConstants:
    """Evaluate the surface constant, the Levy-density constant and beta.

    All three use log-Gamma so they stay accurate to >= 12 significant
    digits over the argument range of interest.
    """
    check_noise(alpha, dim)
    sigma = 2.0 * math.pi ** (dim / 2.0) / math.exp(math.lgamma(dim / 2.0))
    d_alpha = (
        alpha
        * 2.0 ** (alpha - 1.0)
        * math.pi ** (-dim / 2.0)
        * math.exp(math.lgamma((dim + alpha) / 2.0) - math.lgamma(1.0 - alpha / 2.0))
    )
    beta = (alpha / (sigma * d_alpha)) ** (1.0 / alpha)
    return NoiseConstants(sigma_dm1=sigma, d_alpha=d_alpha, beta=beta)


CMS = "cms"  # 1-D symmetric alpha-stable, Chambers-Mallows-Stuck
PARETO = "pareto"  # 1-D Pareto radius with a fair sign

# Innovations transformed at a time: one engine chunk (em._STEP_CHUNK x
# em._BLOCK_CHAINS), so the engine transforms a chunk in one piece; each
# array of a piece is 512 KiB.
_PIECE = 1 << 16


class Innovations:
    """Buffers for up to ``size`` 1-D innovations of ``kind``, reused by every ``draw``.

    ``variates`` are the flat variate arrays (the uniforms, then for CMS the
    exponentials), ``scratch`` one piece of transform scratch (three arrays
    for CMS, none for the 1-D Pareto) and ``out`` the innovations.
    """

    def __init__(self, kind: str, size: int):
        self.kind = kind
        self.out = np.empty(size)
        self.variates = tuple(np.empty(size) for _ in range(2 if kind == CMS else 1))
        self.scratch = tuple(np.empty(min(size, _PIECE)) for _ in range(3 if kind == CMS else 0))

    def draw(self, gen: np.random.Generator, alpha: float, size: int) -> np.ndarray:
        """Draw and transform ``size`` innovations into the first ``size`` entries of ``out``.

        Each variate array is filled with one generator call, in the draw
        order of ``stableem.em``.  The transform then runs over pieces of
        ``_PIECE`` innovations and overwrites the spent variates.  It
        works element by element, so the pieces' seams change no bit.
        Returns the (size,) view of ``out``.
        """
        out = self.out[:size]
        u, *w = drawn = [a[:size] for a in self.variates]
        gen.random(out=u)
        for part in w:
            gen.standard_exponential(out=part)
        transform = _cms_symmetric if self.kind == CMS else _pareto_signed
        for lo in range(0, size, _PIECE):
            piece = out[lo : lo + _PIECE]
            rows = [a[lo : lo + _PIECE] for a in drawn]
            transform(alpha, *rows, piece, tuple(a[: piece.size] for a in self.scratch))
        return out


# The 1-D transforms of uniforms u on [0, 1) and exponentials w.  They write
# their temporaries into their spent variates and caller-owned scratch
# arrays, and their result into ``out``, one ufunc at a time in the order of
# the formula in the docstring, so the rounding is that of the formula
# written as one NumPy expression.


def _cms_symmetric(alpha, u, w, out, scratch):
    """Chambers-Mallows-Stuck: symmetric alpha-stable from u and w, by tangent half-angles.

    Z = sin(alpha phi) / cos(phi)^{1/alpha} * (cos(phi - alpha phi) / w)^{(1-alpha)/alpha},
    phi = pi (u - 1/2), evaluated with two tan, two log and one exp.  Let
    a = tan(alpha phi / 2), the half-angle of alpha phi, and c = tan(r) with
    r = (pi/2) min(u, 1 - u) = pi/4 - |phi|/2, the half-angle of
    pi/2 - |phi|.  With A = 1 + a^2 and C = 1 + c^2:

        sin(alpha phi) = 2a / A,   cos(alpha phi) = (1 - a^2) / A,
        cos(phi) = 2c / C,         sin|phi| = (1 - c^2) / C,
        cos(phi - alpha phi) = 2N / (A C),   N = (1 - a^2) c + |a| (1 - c^2),

    and the powers of 2 cancel:

        Z = a / A * exp(1/alpha log(C / c) + (1-alpha)/alpha log(N / (A w C))).

    |alpha phi / 2| < pi/2 and 0 <= r <= pi/4 keep both tangents finite.
    min(u, 1 - u) is exact, so cos(phi) keeps its relative accuracy as u
    nears 0 or 1, where cos of the rounded phi loses it; and
    N / (A C) >= cos(pi (alpha - 1) / 2) / 2 > 0, so N cancels nothing
    badly.  u = 0, which the generator can return, is read as 2^-54, half
    its resolution, so every draw is finite.  Uses three scratch arrays and
    overwrites the spent u and w.
    """
    x, y, n = scratch
    np.subtract(u, 0.5, out=x)
    np.multiply(np.pi / 2, x, out=x)  # phi / 2
    np.multiply(alpha, x, out=x)
    np.tan(x, out=x)  # a
    np.multiply(x, x, out=y)
    np.subtract(1.0, y, out=n)  # 1 - a^2
    np.add(1.0, y, out=y)  # A
    np.divide(x, y, out=out)  # a / A
    np.absolute(x, out=x)  # |a|
    np.multiply(y, w, out=w)  # A w
    np.subtract(1.0, u, out=y)
    np.minimum(u, y, out=y)
    np.maximum(y, 2.0**-54, out=y)
    np.multiply(np.pi / 2, y, out=y)  # r
    np.tan(y, out=y)  # c
    np.multiply(n, y, out=n)  # (1 - a^2) c
    np.multiply(y, y, out=u)
    np.subtract(1.0, u, out=u)  # 1 - c^2
    np.multiply(x, u, out=x)
    np.add(n, x, out=n)  # N
    np.multiply(y, y, out=x)
    np.add(1.0, x, out=x)  # C
    np.multiply(w, x, out=w)  # A w C
    np.divide(n, w, out=n)
    np.divide(x, y, out=x)  # C / c
    np.log(x, out=x)
    np.log(n, out=n)
    np.multiply(1.0 / alpha, x, out=x)
    np.multiply((1.0 - alpha) / alpha, n, out=n)
    np.add(x, n, out=n)
    np.exp(n, out=n)
    return np.multiply(out, n, out=out)


def _kanter(rho, u, w):
    """Kanter's form of the one-sided CMS transform: positive rho-stable from u and w,

    sin(rho th) sin((1-rho) th)^{(1-rho)/rho} / sin(th)^{1/rho} * w^{-(1-rho)/rho},
    th = pi u.
    """
    theta = np.pi * u
    return (
        np.sin(rho * theta)
        * np.sin((1.0 - rho) * theta) ** ((1.0 - rho) / rho)
        / np.sin(theta) ** (1.0 / rho)
    ) * w ** (-(1.0 - rho) / rho)


def _pareto_signed(alpha, u, out, scratch):
    """1-D Pareto from one uniform u: radius |2u - 1|^{-1/alpha}, negated where u < 1/2.

    |2U - 1| is uniform on [0, 1] and independent of the sign of 2U - 1,
    which is negative exactly where u < 1/2.  For the generator's
    u = k 2^-53, 2u - 1 is exact, so pow is the only rounding step.
    2u - 1 = 0 (u = 1/2) is read as 2^-53, half its 2^-52 resolution, so
    every draw is finite.  Takes no scratch and overwrites the spent u.
    """
    np.multiply(2.0, u, out=u)
    np.subtract(u, 1.0, out=u)  # 2u - 1
    r = np.absolute(u, out=out)
    np.maximum(r, 2.0**-53, out=r)
    np.power(r, -1.0 / alpha, out=r)
    return np.copysign(r, u, out=r)


def sample_stable_1d(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` symmetric alpha-stable variates with CF exp(-|lambda|^alpha) (CMS)."""
    check_noise(alpha, 1)
    return Innovations(CMS, size).draw(rng, alpha, size)


def sample_stable_vec(alpha: float, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` isotropic alpha-stable vectors with CF exp(-|lambda|^alpha), shape (size, dim).

    When dim == 1, the CMS draws of ``sample_stable_1d`` as one column.  When
    dim > 1, Gaussian subordination: Z = sqrt(2 S) G, S = Kanter's positive
    (alpha/2)-stable of u and w, G standard normal; u, w and then g are each
    drawn in one call.
    """
    check_noise(alpha, dim)
    if dim == 1:
        return Innovations(CMS, size).draw(rng, alpha, size)[:, None]
    u, w = rng.random(size), rng.standard_exponential(size)
    g = rng.standard_normal((size, dim))
    return np.sqrt(2.0 * _kanter(alpha / 2.0, u, w))[:, None] * g


def sample_pareto_vec(alpha: float, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` radial Pareto vectors R * U with P(R > r) = r^{-alpha}, r >= 1: shape (size, dim).

    U is uniform on the unit sphere and R = V^{-1/alpha} with V uniform on
    (0, 1).  When dim == 1, one uniform u gives both: the sign of 2u - 1 and
    V = |2u - 1|.  When dim > 1, V and then the normals whose direction is U
    are each drawn in one call.  All outputs have norm >= 1.
    """
    check_noise(alpha, dim)
    if dim == 1:
        return Innovations(PARETO, size).draw(rng, alpha, size)[:, None]
    v, g = rng.random(size), rng.standard_normal((size, dim))
    return (v ** (-1.0 / alpha))[:, None] * (g / np.linalg.norm(g, axis=1, keepdims=True))
