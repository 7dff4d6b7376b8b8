"""Drift models with machine-checkable Lipschitz / dissipativity certificates.

A drift is a plain evaluation function plus *claimed* constants:
Lipschitz constant L, dissipativity pair (theta1, K) for
<x-y, b(x)-b(y)> <= -theta1 |x-y|^2 + K, and optionally a bound theta2 on
second directional derivatives.  Built-in drifts carry analytically exact
constants; arbitrary user drifts are certified probabilistically on random
point pairs, because exact global verification is not possible in general.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    checks: dict          # check name -> worst margin, max(lhs - bound)
    witness: dict | None  # the first violated inequality


TOL = 1e-9  # slack of the exact inequalities, for rounding
FD_EPS = 1e-4  # finite-difference step: balances truncation against rounding for doubles
FD_TOL = 1e-3 + 10.0 * np.finfo(float).eps / (FD_EPS * FD_EPS)  # of the second difference


def certify_assumptions(
    m: DriftModel, n_pairs: int, box: float, rng: np.random.Generator
) -> CertificationReport:
    """Probabilistic certificate for the claimed drift constants.

    Draws n_pairs pairs (x, y) uniform in [-box, box]^d and checks one row
    lhs <= bound per claimed inequality, its tolerance inside the bound:
    Lipschitz |b(x)-b(y)| <= L |x-y| (relative), dissipativity
    <x-y, b(x)-b(y)> <= -theta1 |x-y|^2 + K, linear growth
    |b(x)| <= |b(0)| + L |x|, and if theta2 is claimed, central second and
    first differences in random directions against theta2 and L.  The worst
    margin of a check is max(lhs - bound); the certificate passes exactly
    when every worst margin is <= 0, and its witness is the worst point of
    the first check that fails: x and y, or for the differences x and the
    unit directions they used, enough to recompute its lhs.
    """
    if n_pairs < 1000:
        raise ValueError("need n_pairs >= 1000 for a meaningful certificate")
    d = m.dim
    x = rng.uniform(-box, box, (n_pairs, d))
    y = rng.uniform(-box, box, (n_pairs, d))
    bx, by = m(x), m(y)
    dxy = np.linalg.norm(x - y, axis=1)
    b0 = np.linalg.norm(m(np.zeros((1, d)))[0])
    pair = {"x": x, "y": y}
    rows = [
        ("lipschitz", np.linalg.norm(bx - by, axis=1), m.lipschitz_l * dxy * (1.0 + TOL), pair),
        (
            "dissipativity",
            np.sum((x - y) * (bx - by), axis=1),
            -m.dissip_theta1 * dxy**2 + m.dissip_k + TOL,
            pair,
        ),
        (
            "linear_growth",
            np.linalg.norm(bx, axis=1),
            b0 + m.lipschitz_l * np.linalg.norm(x, axis=1) + TOL,
            pair,
        ),
    ]
    if m.hessian_theta2 is not None:
        n_fd = min(n_pairs, 2000)
        u1, u2 = (
            u / np.linalg.norm(u, axis=1, keepdims=True)
            for u in (rng.standard_normal((n_fd, d)), rng.standard_normal((n_fd, d)))
        )
        xs, e = x[:n_fd], FD_EPS
        second = (
            m(xs + e * u2 + e * u1)
            - m(xs + e * u2 - e * u1)
            - m(xs - e * u2 + e * u1)
            + m(xs - e * u2 - e * u1)
        ) / (4.0 * e * e)
        first = (m(xs + e * u1) - m(xs - e * u1)) / (2.0 * e)  # |grad_u b| <= L
        mag2, mag1 = np.linalg.norm(second, axis=1), np.linalg.norm(first, axis=1)
        rows.append(("second_directional", mag2, np.full(n_fd, m.hessian_theta2 + FD_TOL),
                     {"x": xs, "u1": u1, "u2": u2}))
        rows.append(("first_directional", mag1, np.full(n_fd, m.lipschitz_l + 1e-6),
                     {"x": xs, "u1": u1}))

    checks, witness = {}, None
    for check, lhs, bound, at in rows:
        margin = lhs - bound
        i = int(np.argmax(margin))  # the first NaN, if any
        checks[check] = float(margin[i])
        if witness is None and not margin[i] <= 0:
            witness = {"check": check, **{k: v[i].tolist() for k, v in at.items()},
                       "lhs": float(lhs[i]), "rhs": float(bound[i])}
    return CertificationReport(all(v <= 0 for v in checks.values()), checks, witness)
