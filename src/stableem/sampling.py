"""Innovation distributions: isotropic alpha-stable vectors and radial Pareto vectors.

The driving noise is normalized so a standard stable draw Z has
characteristic function exp(-|lambda|^alpha).  The Pareto innovation has
density alpha / (sigma_{d-1} |z|^{alpha+d}) outside the unit ball; the
constant beta = (alpha / (sigma_{d-1} d_alpha))^{1/alpha} matches its
small-frequency behaviour to the stable one, which is why the Pareto
scheme scales its innovations by gamma^{1/alpha} / beta.

Each innovation's draw order is defined here once: ``draw_variates``
draws the variates of C innovations of a kind into one row, and
``transform_variates`` turns rows into innovations.  A sampler call is one
row; the ensemble engine draws one row per chain and step chunk.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln


@dataclass(frozen=True)
class StableSpec:
    """Noise model: stability index, dimension and the (constant) matrix A."""

    alpha: float
    dim: int
    matrix_a: np.ndarray

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        a = np.asarray(self.matrix_a, dtype=float)
        if a.shape != (self.dim, self.dim):
            raise ValueError(f"matrix_a must be {self.dim}x{self.dim}, got {a.shape}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12):
            raise ValueError("matrix_a must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0:
            raise ValueError("matrix_a must be positive definite")
        object.__setattr__(self, "matrix_a", a)

    @classmethod
    def isotropic(cls, alpha: float, dim: int = 1, scale: float = 1.0) -> "StableSpec":
        return cls(alpha=alpha, dim=dim, matrix_a=scale * np.eye(dim))


@dataclass(frozen=True)
class NoiseConstants:
    """sigma_{d-1}, d_alpha and beta for a given (alpha, d)."""

    sigma_dm1: float
    d_alpha: float
    beta: float


def noise_constants(spec: StableSpec) -> NoiseConstants:
    """Evaluate the surface constant, the Levy-density constant and beta.

    All three use log-Gamma so they stay accurate to >= 12 significant
    digits over the argument range of interest.
    """
    alpha, d = spec.alpha, spec.dim
    sigma = 2.0 * np.pi ** (d / 2.0) / np.exp(gammaln(d / 2.0))
    d_alpha = (
        alpha
        * 2.0 ** (alpha - 1.0)
        * np.pi ** (-d / 2.0)
        * np.exp(gammaln((d + alpha) / 2.0) - gammaln(1.0 - alpha / 2.0))
    )
    beta = (alpha / (sigma * d_alpha)) ** (1.0 / alpha)
    return NoiseConstants(sigma_dm1=float(sigma), d_alpha=float(d_alpha), beta=float(beta))


CMS = "cms"  # 1-D symmetric alpha-stable, Chambers-Mallows-Stuck
SUBORDINATED = "subordinated"  # isotropic alpha-stable in d dimensions, Gaussian subordination
PARETO = "pareto"  # radial Pareto, with a fair sign in 1-D


def variates(kind: str, d: int) -> tuple[int, int, int]:
    """Uniforms, exponentials and normals that one innovation of ``kind`` in R^d takes."""
    if kind == PARETO:
        return (2, 0, 0) if d == 1 else (1, 0, d)
    if kind == CMS:
        return (1, 1, 0)
    return (1, 1, d)


def draw_variates(gen: np.random.Generator, kind: str, d: int, row: np.ndarray) -> None:
    """Fill ``row`` with the variates of C = row.size / sum(variates) innovations, in order:

    all the uniforms (angle or radius, then Pareto's 1-D sign), then all the
    exponentials, then all the normals, d per innovation.
    """
    nu, ne, nn = variates(kind, d)
    count = row.size // (nu + ne + nn)
    e0, g0 = nu * count, (nu + ne) * count
    gen.random(out=row[:e0])
    if ne:
        gen.standard_exponential(out=row[e0:g0])
    if nn:
        gen.standard_normal(out=row[g0:])


def transform_variates(kind: str, alpha: float, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Innovations from rows of ``draw_variates``: raw (B, width) into out (B, C, d)."""
    B, C, d = out.shape
    u, w = raw[:, :C], raw[:, C : 2 * C]
    if kind == PARETO and d == 1:
        _pareto_signed(alpha, u, w, out=out[..., 0])
    elif kind == PARETO:
        _pareto_isotropic(alpha, u, raw[:, C:].reshape(B, C, d), out=out)
    elif kind == CMS:
        _cms_symmetric(alpha, u, w, out=out[..., 0])
    else:
        _stable_isotropic(alpha, u, w, raw[:, 2 * C :].reshape(B, C, d), out=out)
    return out


def _sample(kind: str, alpha: float, d: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` innovations drawn as one row: shape (size, d)."""
    raw = np.empty((1, sum(variates(kind, d)) * size))
    draw_variates(rng, kind, d, raw[0])
    return transform_variates(kind, alpha, raw, np.empty((1, size, d)))[0]


# Transforms of uniforms u, v, s on [0, 1), exponentials w and normals g.


def _cms_symmetric(alpha, u, w, out=None):
    """Chambers-Mallows-Stuck: symmetric alpha-stable from u and w."""
    phi = np.pi * (u - 0.5)
    a_phi = alpha * phi
    return np.multiply(
        np.sin(a_phi) / np.cos(phi) ** (1.0 / alpha),
        (np.cos(phi - a_phi) / w) ** ((1.0 - alpha) / alpha),
        out=out,
    )


def _kanter(rho, u, w):
    """Kanter's form of the one-sided CMS transform: positive rho-stable from u and w."""
    theta = np.pi * u
    a = (
        np.sin(rho * theta)
        * np.sin((1.0 - rho) * theta) ** ((1.0 - rho) / rho)
        / np.sin(theta) ** (1.0 / rho)
    )
    return a * w ** (-(1.0 - rho) / rho)


def _stable_isotropic(alpha, u, w, g, out=None):
    """Gaussian subordination sqrt(2 S) G, S = Kanter(alpha/2); g has the extra last axis d."""
    s = _kanter(alpha / 2.0, u, w)
    return np.multiply(np.sqrt(2.0 * s)[..., None], g, out=out)


def _pareto_signed(alpha, v, s, out=None):
    """1-D Pareto: radius v^{-1/alpha}, negated where the sign uniform s < 1/2.

    s - 1/2 is negative exactly where s < 1/2, so copying its sign onto the
    positive radius is that negation.
    """
    r = np.power(v, -1.0 / alpha, out=out)
    return np.copysign(r, s - 0.5, out=r)


def _pareto_isotropic(alpha, v, g, out=None):
    """Radial Pareto: radius v^{-1/alpha} times the direction g/|g|; g has the extra last axis d."""
    direction = g / np.linalg.norm(g, axis=-1, keepdims=True)
    return np.multiply((v ** (-1.0 / alpha))[..., None], direction, out=out)


def sample_stable_1d(alpha: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` symmetric alpha-stable variates with CF exp(-|lambda|^alpha) (CMS)."""
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    return _sample(CMS, alpha, 1, rng, size)[:, 0]


def sample_one_sided_stable(rho: float, rng: np.random.Generator, size=None):
    """Positive rho-stable variates with Laplace transform exp(-u^rho), rho in (0,1).

    Kanter's form of the one-sided CMS transform.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    return _kanter(rho, u, w)


def sample_stable_vec(spec: StableSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` isotropic alpha-stable vectors with CF exp(-|lambda|^alpha), shape (size, d).

    Gaussian subordination (also for d = 1): Z = sqrt(2 S) G, S positive
    (alpha/2)-stable, G standard normal.  The EM step applies the matrix A.
    """
    return _sample(SUBORDINATED, spec.alpha, spec.dim, rng, size)


def sample_pareto_vec(alpha: float, dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` radial Pareto vectors R * U with P(R > r) = r^{-alpha}, r >= 1: shape (size, dim).

    U is uniform on the unit sphere (a fair sign when dim == 1), and
    R = V^{-1/alpha} with V uniform on (0, 1).  All outputs have norm >= 1.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _sample(PARETO, alpha, dim, rng, size)
