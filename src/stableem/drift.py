"""Drift models with machine-checkable Lipschitz / dissipativity certificates.

A drift is a plain evaluation function plus *claimed* constants:
Lipschitz constant L, dissipativity pair (theta1, K) for
<x-y, b(x)-b(y)> <= -theta1 |x-y|^2 + K, and optionally a bound theta2 on
second directional derivatives.  Built-in drifts carry analytically exact
constants; arbitrary user drifts are certified probabilistically on random
point pairs, because exact global verification is not possible in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DriftModel:
    """Evaluation function b on (m, d) arrays plus claimed constants."""

    fn: Callable[[np.ndarray], np.ndarray]
    dim: int
    lipschitz_l: float
    dissip_theta1: float
    dissip_k: float
    hessian_theta2: float | None = None
    name: str = "custom"

    def __post_init__(self):
        if self.lipschitz_l <= 0:
            raise ValueError("claimed Lipschitz constant must be positive")
        if self.dissip_theta1 <= 0:
            raise ValueError("claimed theta1 must be positive")
        if self.dissip_k < 0:
            raise ValueError("claimed K must be nonnegative")
        if self.hessian_theta2 is not None and self.hessian_theta2 < 0:
            raise ValueError("claimed theta2 must be nonnegative")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(np.asarray(x, dtype=float))


def builtin_ou(dim: int) -> DriftModel:
    """b(x) = -x; L = 1, theta1 = 1, K = 0, theta2 = 0 are exact."""
    return DriftModel(
        fn=lambda x: -x,
        dim=dim,
        lipschitz_l=1.0,
        dissip_theta1=1.0,
        dissip_k=0.0,
        hessian_theta2=0.0,
        name="ou",
    )


def builtin_perturbed_ou(dim: int, eps: float) -> DriftModel:
    """b(x) = -x + eps*sin(x) componentwise, eps in [0, 1/2).

    L = 1 + eps and theta1 = 1 - eps follow from the derivative being
    -1 + eps*cos; theta2 = eps from the second derivative of eps*sin.
    """
    if not 0.0 <= eps < 0.5:
        raise ValueError(f"eps must lie in [0, 1/2), got {eps}")
    return DriftModel(
        fn=lambda x: -x + eps * np.sin(x),
        dim=dim,
        lipschitz_l=1.0 + eps,
        dissip_theta1=1.0 - eps,
        dissip_k=0.0,
        hessian_theta2=eps,
        name=f"perturbed-ou:{eps}",
    )


def drift_by_name(name: str, dim: int) -> DriftModel:
    """CLI lookup: "ou" or "perturbed-ou:<eps>"."""
    if name == "ou":
        return builtin_ou(dim)
    if name.startswith("perturbed-ou:"):
        return builtin_perturbed_ou(dim, float(name.split(":", 1)[1]))
    raise ValueError(f"unknown drift {name!r}")


@dataclass
class CertificationReport:
    passed: bool
    checks: dict = field(default_factory=dict)   # check name -> worst margin
    witness: dict | None = None                  # first violated inequality


def certify_assumptions(
    m: DriftModel,
    n_pairs: int,
    box: float,
    rng: np.random.Generator,
    fd_eps: float = 1e-4,
    tol: float = 1e-9,
) -> CertificationReport:
    """Probabilistic certificate for the claimed drift constants.

    Draws n_pairs pairs (x, y) uniform in [-box, box]^d and checks:
    Lipschitz |b(x)-b(y)| <= L |x-y| (relative tolerance), dissipativity
    <x-y, b(x)-b(y)> <= -theta1 |x-y|^2 + K, the linear-growth and
    first-order consequences, and (if theta2 is claimed) a central second
    difference in random directions.  fd_eps balances truncation against
    rounding for doubles.
    """
    if n_pairs < 1000:
        raise ValueError("need n_pairs >= 1000 for a meaningful certificate")
    d = m.dim
    x = rng.uniform(-box, box, (n_pairs, d))
    y = rng.uniform(-box, box, (n_pairs, d))
    bx, by = m(x), m(y)
    dxy = np.linalg.norm(x - y, axis=1)
    dbxy = np.linalg.norm(bx - by, axis=1)

    report = CertificationReport(passed=True)

    def fail(check, idx, lhs, rhs):
        report.passed = False
        if report.witness is None:
            report.witness = {
                "check": check,
                "x": x[idx].tolist(),
                "y": y[idx].tolist(),
                "lhs": float(lhs),
                "rhs": float(rhs),
            }

    # Lipschitz, relative tolerance.
    margin = dbxy - m.lipschitz_l * dxy * (1.0 + tol)
    report.checks["lipschitz"] = float(margin.max())
    if np.any(margin > 0):
        i = int(np.argmax(margin))
        fail("lipschitz", i, dbxy[i], m.lipschitz_l * dxy[i])

    # Dissipativity.
    inner = np.sum((x - y) * (bx - by), axis=1)
    rhs = -m.dissip_theta1 * dxy**2 + m.dissip_k + tol
    report.checks["dissipativity"] = float((inner - rhs).max())
    if np.any(inner > rhs):
        i = int(np.argmax(inner - rhs))
        fail("dissipativity", i, inner[i], rhs[i])

    # Linear growth: |b(x)| <= |b(0)| + L |x|.
    b0 = np.linalg.norm(m(np.zeros((1, d)))[0])
    growth = np.linalg.norm(bx, axis=1) - (b0 + m.lipschitz_l * np.linalg.norm(x, axis=1) + tol)
    report.checks["linear_growth"] = float(growth.max())
    if np.any(growth > 0):
        i = int(np.argmax(growth))
        fail("linear_growth", i, np.linalg.norm(bx[i]), b0 + m.lipschitz_l * np.linalg.norm(x[i]))

    if m.hessian_theta2 is not None:
        n_fd = min(n_pairs, 2000)
        u1 = rng.standard_normal((n_fd, d))
        u1 /= np.linalg.norm(u1, axis=1, keepdims=True)
        u2 = rng.standard_normal((n_fd, d))
        u2 /= np.linalg.norm(u2, axis=1, keepdims=True)
        xs = x[:n_fd]
        e = fd_eps
        second = (
            m(xs + e * u2 + e * u1)
            - m(xs + e * u2 - e * u1)
            - m(xs - e * u2 + e * u1)
            + m(xs - e * u2 - e * u1)
        ) / (4.0 * e * e)
        mag2 = np.linalg.norm(second, axis=1)
        fd_tol = 1e-3 + 10.0 * np.finfo(float).eps / (e * e)
        report.checks["second_directional"] = float((mag2 - m.hessian_theta2).max())
        if np.any(mag2 > m.hessian_theta2 + fd_tol):
            i = int(np.argmax(mag2))
            fail("second_directional", i, mag2[i], m.hessian_theta2 + fd_tol)

        # First-order consequence: |grad_u b| <= L.
        first = (m(xs + e * u1) - m(xs - e * u1)) / (2.0 * e)
        mag1 = np.linalg.norm(first, axis=1)
        report.checks["first_directional"] = float((mag1 - m.lipschitz_l).max())
        if np.any(mag1 > m.lipschitz_l + 1e-6):
            i = int(np.argmax(mag1))
            fail("first_directional", i, mag1[i], m.lipschitz_l)

    return report
