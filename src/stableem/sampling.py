"""Innovation distributions: isotropic alpha-stable vectors and radial Pareto vectors.

The driving noise is normalized so a standard stable draw Z has
characteristic function exp(-|lambda|^alpha).  The Pareto innovation has
density alpha / (sigma_{d-1} |z|^{alpha+d}) outside the unit ball; the
constant beta = (alpha / (sigma_{d-1} d_alpha))^{1/alpha} matches its
small-frequency behaviour to the stable one, which is why the Pareto
scheme scales its innovations by gamma^{1/alpha} / beta.
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


def sample_stable_1d(alpha: float, rng: np.random.Generator, size=None):
    """Symmetric alpha-stable variates with CF exp(-|lambda|^alpha).

    Chambers-Mallows-Stuck transform; rejection-free.  Draw order per call:
    one uniform block, then one exponential block.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    return _cms_symmetric(alpha, u, w)


# ---------------------------------------------------------------------------
# Transforms: pure functions of supplied uniforms u, v, s on [0, 1), standard
# exponentials w and standard normals g.  The samplers here and the ensemble
# engine both use them, so each variate has one definition.  Scalars stay
# scalars (NumPy's scalar and array power may differ in the last bit);
# ``out`` receives the result where the engine writes it in place.
# ---------------------------------------------------------------------------


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


def sample_one_sided_stable(rho: float, rng: np.random.Generator, size=None):
    """Positive rho-stable variates with Laplace transform exp(-u^rho), rho in (0,1).

    Kanter's form of the one-sided CMS transform.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    u = rng.random(size)
    w = rng.standard_exponential(size)
    return _kanter(rho, u, w)


def sample_stable_vec(spec: StableSpec, rng: np.random.Generator, size=None):
    """Isotropic alpha-stable vectors with CF exp(-|lambda|^alpha).

    Gaussian subordination: Z = sqrt(2 S) G with S positive (alpha/2)-stable
    and G standard normal.  The matrix A is *not* applied here; the EM step
    owns it.  Returns shape (d,) or (size, d).
    """
    scalar = size is None
    m = 1 if scalar else int(size)
    u = rng.random(m)
    w = rng.standard_exponential(m)
    g = rng.standard_normal((m, spec.dim))
    z = _stable_isotropic(spec.alpha, u, w, g)
    return z[0] if scalar else z


def sample_pareto_vec(alpha: float, dim: int, rng: np.random.Generator, size=None):
    """Radial Pareto vectors: R * U with P(R > r) = r^{-alpha} for r >= 1.

    U is uniform on the unit sphere (a fair sign when dim == 1), and
    R = V^{-1/alpha} with V uniform on (0, 1).  All outputs have norm >= 1.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError(f"alpha must lie in (1, 2), got {alpha}")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    scalar = size is None
    m = 1 if scalar else int(size)
    v = rng.random(m)
    if dim == 1:
        z = _pareto_signed(alpha, v, rng.random(m))[:, None]
    else:
        z = _pareto_isotropic(alpha, v, rng.standard_normal((m, dim)))
    return z[0] if scalar else z
