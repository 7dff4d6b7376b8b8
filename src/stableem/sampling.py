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
``_cms_symmetric``); d > 1 subordinates a normal vector to Kanter's
one-sided transform.

A 1-D Pareto draw takes one uniform u: its sign is that of 2u - 1 and its
radius |2u - 1|^{-1/alpha}, since |2U - 1| is uniform on [0, 1] and
independent of the sign of 2U - 1 (see ``_pareto_signed``).

Each innovation's draw order is defined here once: ``draw_variates``
fills arrays shaped like those of ``variate_arrays`` with the variates of
a kind, one generator call per array, and ``transform_variates`` turns
them into innovations, element by element.  The CMS transform writes its
temporaries into scratch arrays from ``transform_scratch``, and both 1-D
transforms (CMS and the 1-D Pareto) overwrite their spent variates; the
d > 1 transforms, which only the samplers use, are plain NumPy
expressions.  A sampler call draws one row of ``size`` innovations, each
variate array in one generator call, and transforms it in pieces of
``_PIECE`` innovations, so the transform's passes run in cache and its
scratch is one piece long; the 1-D ensemble engine fills the (C, B) arrays
of a chunk of C steps of B chains in one go and reuses one set of arrays
and scratch per worker thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


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
    sigma = 2.0 * np.pi ** (dim / 2.0) / np.exp(gammaln(dim / 2.0))
    d_alpha = (
        alpha
        * 2.0 ** (alpha - 1.0)
        * np.pi ** (-dim / 2.0)
        * np.exp(gammaln((dim + alpha) / 2.0) - gammaln(1.0 - alpha / 2.0))
    )
    beta = (alpha / (sigma * d_alpha)) ** (1.0 / alpha)
    return NoiseConstants(sigma_dm1=float(sigma), d_alpha=float(d_alpha), beta=float(beta))


CMS = "cms"  # 1-D symmetric alpha-stable, Chambers-Mallows-Stuck
SUBORDINATED = "subordinated"  # isotropic alpha-stable in d dimensions, Gaussian subordination
PARETO = "pareto"  # radial Pareto, with a fair sign in 1-D

# Innovations a sampler transforms at a time; each array of a piece is 128 KiB.
_PIECE = 1 << 14


def variates(kind: str, d: int) -> tuple[int, int, int]:
    """Uniforms, exponentials and normals that one innovation of ``kind`` in R^d takes."""
    if kind == PARETO:
        return (1, 0, 0) if d == 1 else (1, 0, d)
    if kind == CMS:
        return (1, 1, 0)
    return (1, 1, d)


def variate_arrays(kind: str, d: int, C: int, B: int) -> tuple[np.ndarray, ...]:
    """Arrays for the variates of C rows of B innovations of ``kind`` in R^d.

    One (C, B) array per uniform and per exponential that ``variates``
    counts, then one (C, B, d) array for the normals.  Each variate has
    its own array, so the transforms read contiguous operands.
    """
    nu, ne, nn = variates(kind, d)
    scalars = tuple(np.empty((C, B)) for _ in range(nu + ne))
    return scalars + ((np.empty((C, B, d)),) if nn else ())


def draw_variates(gen: np.random.Generator, kind: str, d: int, arrays) -> None:
    """Fill contiguous ``arrays``, shaped like a part of ``variate_arrays``, each with one call.

    In order: all the uniforms (one per innovation), then all the
    exponentials, then all the normals, d per innovation; each array fills
    in C order.
    """
    nu, ne, _ = variates(kind, d)
    for j, part in enumerate(arrays):
        if j < nu:
            gen.random(out=part)
        elif j < nu + ne:
            gen.standard_exponential(out=part)
        else:
            gen.standard_normal(out=part)


def transform_scratch(kind: str, C: int, B: int) -> tuple[np.ndarray, ...]:
    """The scratch arrays a 1-D ``transform_variates`` needs for up to C rows of B innovations.

    CMS takes three; the 1-D Pareto takes none, as it works in its spent uniforms.
    """
    return tuple(np.empty((C, B)) for _ in range({CMS: 3, PARETO: 0}[kind]))


def transform_variates(
    kind: str, alpha: float, rows, out: np.ndarray, scratch: tuple | None = None
) -> np.ndarray:
    """Innovations from the arrays of variates into out: (C, B) in 1-D, (C, B, d) for d > 1.

    A 1-D transform, CMS or the 1-D Pareto, writes every temporary into
    ``scratch`` from ``transform_scratch`` for at least C rows of B
    innovations (None allocates it), so a caller that keeps its scratch
    allocates nothing per call.  Both 1-D transforms also overwrite their
    spent variates, so ``rows`` holds no variates after a 1-D call; draw
    them again before the next one.  The d > 1 transforms take no scratch.
    """
    if out.ndim == 3:
        vector = _stable_isotropic if kind == SUBORDINATED else _pareto_isotropic
        return vector(alpha, *rows, out)
    if scratch is None:
        scratch = transform_scratch(kind, *out.shape)
    scratch = tuple(a[: out.shape[0], : out.shape[1]] for a in scratch)
    scalar = _cms_symmetric if kind == CMS else _pareto_signed
    return scalar(alpha, *rows, out, scratch)


def _sample(kind: str, alpha: float, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` innovations drawn as one row and transformed in pieces: shape (size, d).

    The transforms work element by element, so a row transformed piece by
    piece is bitwise the row transformed in one go.
    """
    rows = variate_arrays(kind, d, 1, size)
    draw_variates(rng, kind, d, [a[0] for a in rows])
    vector = kind == SUBORDINATED or d > 1
    out = np.empty((1, size, d) if vector else (1, size))
    scratch = None if vector else transform_scratch(kind, 1, min(size, _PIECE))
    for lo in range(0, size, _PIECE):
        piece = slice(lo, lo + _PIECE)
        transform_variates(kind, alpha, [a[:, piece] for a in rows], out[:, piece], scratch)
    return out[0].reshape(size, d)


# Transforms of uniforms u, v on [0, 1), exponentials w and normals g.  The
# 1-D ones write their temporaries into their spent variates and caller-owned
# scratch arrays, and their result into ``out``, one ufunc at a time
# in the order of the formula in the docstring, so the rounding is that of
# the formula written as one NumPy expression.


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


def _stable_isotropic(alpha, u, w, g, out):
    """Gaussian subordination sqrt(2 S) G, S = Kanter(alpha/2); g has the extra last axis d."""
    return np.multiply(np.sqrt(2.0 * _kanter(alpha / 2.0, u, w))[..., None], g, out=out)


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


def _pareto_isotropic(alpha, v, g, out):
    """Radial Pareto: radius v^{-1/alpha} times the direction g/|g|; g has the extra last axis d."""
    direction = g / np.linalg.norm(g, axis=-1, keepdims=True)
    return np.multiply((v ** (-1.0 / alpha))[..., None], direction, out=out)


def sample_stable_1d(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` symmetric alpha-stable variates with CF exp(-|lambda|^alpha) (CMS)."""
    check_noise(alpha, 1)
    return _sample(CMS, alpha, 1, rng, size)[:, 0]


def sample_stable_vec(alpha: float, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` isotropic alpha-stable vectors with CF exp(-|lambda|^alpha), shape (size, dim).

    Gaussian subordination (also for dim == 1): Z = sqrt(2 S) G, S positive
    (alpha/2)-stable, G standard normal.
    """
    check_noise(alpha, dim)
    return _sample(SUBORDINATED, alpha, dim, rng, size)


def sample_pareto_vec(alpha: float, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` radial Pareto vectors R * U with P(R > r) = r^{-alpha}, r >= 1: shape (size, dim).

    U is uniform on the unit sphere and R = V^{-1/alpha} with V uniform on
    (0, 1).  When dim == 1, one uniform u gives both: the sign of 2u - 1 and
    V = |2u - 1|.  All outputs have norm >= 1.
    """
    check_noise(alpha, dim)
    return _sample(PARETO, alpha, dim, rng, size)
